"""Huffman-style code construction under generalized combining rules.

The engine repeatedly replaces the two lowest-weight items a, b with one
item of weight f(a, b); the choice of f selects which objective the
resulting code minimizes:

* f = a + b                                 average redundancy
* f = 2 max(a, b)                           max pointwise redundancy
* f = (2^d a^(1+d) + 2^d b^(1+d))^(1/(1+d)) d-th exponential redundancy
* f = q a + q b                             exponential-average cost

Doubling rules overflow a linear float past depth 1023, so the max and
d-th exponential rules carry weights as base-2 logs; the additive rules
stay linear.

The merge order is made deterministic by a (weight, creation sequence)
priority: input symbols get sequence numbers by nondecreasing weight and
merged items get fresh, higher numbers, so a merged item queues behind
input items of equal weight.

Sum, max pointwise redundancy, d > 0 and q > 1 satisfy f(a, b) >= max(a, b).
Under such a rule each merge takes two items no lighter than the last
merge's, so merged weights come out nondecreasing (Parker, SIAM J. Comput.
1980) and two FIFO queues, the sorted inputs and the merged items, replace
the heap (van Leeuwen, ICALP 1976): linear time after the sort, with the
heap's tie-break.  Should rounding ever pop a key below the one before it,
the call falls back to the heap, so both paths always give the same code.
For d in (-1, 0) and q in (0, 1), f can fall below max(a, b); those rules
keep the heap.

Both paths record each merge as its two children.  Depths then come from
one pass from the root down, and the Kraft check sums integers, so
everything after the merges is linear in n as well.  The merge trace is
built only on request.  Codeword bits are always assigned canonically
from the lengths, shortest first, stable on symbol index.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from enum import Enum

from .core import (
    CodingError,
    LengthVector,
    Objective,
    Pmf,
    ceil_neg_lg,
)

__all__ = [
    "KraftViolation",
    "RuleKind",
    "CombineRule",
    "MergeEvent",
    "MergeTrace",
    "CodeResult",
    "generalized_huffman",
    "two_queue_mmpr",
    "shannon_code",
    "j_shannon_code",
    "unary_code",
    "canonical_codewords",
]


class KraftViolation(CodingError):
    pass


class RuleKind(Enum):
    SUM = "sum"
    MAX_DOUBLE = "max_double"
    DTH_EXP = "dth_exp"
    EXP_BASE = "exp_base"


@dataclass(frozen=True)
class CombineRule:
    """Weight-combining rule f(a, b), strictly increasing in each argument."""

    kind: RuleKind
    param: float | None = None

    def __post_init__(self):
        if self.kind is RuleKind.DTH_EXP:
            d = self.param
            if d is None or not (-1.0 < d and d != 0.0):
                raise CodingError(f"d must lie in (-1,0) or (0,inf), got {d}")
        elif self.kind is RuleKind.EXP_BASE:
            q = self.param
            if q is None or not (q > 0.0 and q != 1.0):
                raise CodingError(f"q must lie in (0,inf) excluding 1, got {q}")
        elif self.param is not None:
            raise CodingError(f"{self.kind.value} rule takes no parameter")

    @staticmethod
    def sum() -> "CombineRule":
        return CombineRule(RuleKind.SUM)

    @staticmethod
    def max_double() -> "CombineRule":
        return CombineRule(RuleKind.MAX_DOUBLE)

    @staticmethod
    def dth_exp(d: float) -> "CombineRule":
        return CombineRule(RuleKind.DTH_EXP, float(d))

    @staticmethod
    def exp_base(q: float) -> "CombineRule":
        return CombineRule(RuleKind.EXP_BASE, float(q))

    @staticmethod
    def for_objective(obj: Objective) -> "CombineRule":
        from .core import ObjectiveKind

        table = {
            ObjectiveKind.AVG_REDUNDANCY: RuleKind.SUM,
            ObjectiveKind.MAX_POINTWISE: RuleKind.MAX_DOUBLE,
            ObjectiveKind.DTH_EXP: RuleKind.DTH_EXP,
            ObjectiveKind.EXP_AVERAGE: RuleKind.EXP_BASE,
        }
        return CombineRule(table[obj.kind], obj.param)

    def objective(self) -> Objective:
        if self.kind is RuleKind.SUM:
            return Objective.avg()
        if self.kind is RuleKind.MAX_DOUBLE:
            return Objective.max_pointwise()
        if self.kind is RuleKind.DTH_EXP:
            return Objective.dth_exp(self.param)
        return Objective.exp_average(self.param)

    @property
    def log_domain(self) -> bool:
        """Whether engine weights for this rule live in the base-2 log domain."""
        return self.kind in (RuleKind.MAX_DOUBLE, RuleKind.DTH_EXP)

    @property
    def _monotone(self) -> bool:
        """f(a, b) >= max(a, b): sum, max doubling, d > 0 and q > 1."""
        if self.kind is RuleKind.DTH_EXP:
            return self.param > 0.0
        if self.kind is RuleKind.EXP_BASE:
            return self.param > 1.0
        return True

    def combine(self, a: float, b: float) -> float:
        """f(a, b) on linear-domain weights (reference form, not the engine's)."""
        if self.kind is RuleKind.SUM:
            return a + b
        if self.kind is RuleKind.MAX_DOUBLE:
            return 2.0 * max(a, b)
        if self.kind is RuleKind.EXP_BASE:
            return self.param * a + self.param * b
        d = self.param
        return (2.0 ** d * a ** (1.0 + d) + 2.0 ** d * b ** (1.0 + d)) ** (1.0 / (1.0 + d))

    def _leaf_keys(self, p: Pmf) -> list[float]:
        return list(map(math.log2, p.probs)) if self.log_domain else list(p.probs)

    def _combiner(self):
        """f on engine weights (base-2 logs where ``log_domain``), as a two-argument callable."""
        if self.kind is RuleKind.SUM:
            return operator.add
        if self.kind is RuleKind.MAX_DOUBLE:
            return lambda a, b: 1.0 + (a if a >= b else b)
        if self.kind is RuleKind.EXP_BASE:
            q = self.param
            return lambda a, b: q * (a + b)
        d = self.param
        c = 1.0 + d
        log2 = math.log2

        def dth(a: float, b: float) -> float:
            # (d + lg(2^(c a) + 2^(c b))) / c, the larger exponent shifted out
            x = c * a
            y = c * b
            hi, lo = (x, y) if x >= y else (y, x)
            if math.isinf(hi):
                return (d + hi) / c
            return (d + (hi + log2(1.0 + 2.0 ** (lo - hi)))) / c

        return dth


@dataclass(frozen=True)
class MergeEvent:
    """One merge step: weights combined and the ids of the nodes involved."""

    weight_a: float
    weight_b: float
    weight_out: float
    node_a: int
    node_b: int
    node_out: int


@dataclass(frozen=True)
class MergeTrace:
    """Ordered merge log; weights are base-2 logs when ``log_domain`` is set."""

    events: tuple[MergeEvent, ...]
    root_weight: float
    log_domain: bool


@dataclass(frozen=True)
class CodeResult:
    lengths: LengthVector
    codewords: tuple[str, ...]
    objective_value: float
    trace: MergeTrace | None = None


# Node ids: symbol i is node i, and the k-th merge (k = 0, 1, ...) creates
# node n + k.  Both merge loops take the leaf keys by symbol, nonincreasing,
# append each merged key to that list (so keys[v] is node v's weight and the
# root's comes last) and return the children as one flat list: the k-th
# merge joined kids[2k] and kids[2k + 1], popped in that order.

def _merge_heap(keys: list[float], combine) -> list[int]:
    """Merge by a (weight, sequence) heap; symbol i has sequence n-1-i."""
    n = len(keys)
    heap = [(keys[i], n - 1 - i, i) for i in range(n)]
    heapq.heapify(heap)
    kids: list[int] = []
    for new in range(n, 2 * n - 1):
        ka, _, a = heapq.heappop(heap)
        kb, _, b = heap[0]
        k = combine(ka, kb)
        heapq.heapreplace(heap, (k, new, new))
        keys.append(k)
        kids += (a, b)
    return kids


def _merge_two_queues(keys: list[float], combine) -> list[int] | None:
    """Merge by two FIFO queues, or return None if the heap would differ.

    One queue holds the inputs from symbol n-1 down, the other the merged
    nodes in creation order.  Every input has a lower sequence number than
    every merged node, so an input wins a tie, as in the heap.  The result
    equals the heap's as long as the popped keys come out nondecreasing,
    which f(a, b) >= max(a, b) guarantees in exact arithmetic; if rounding
    ever breaks that, this returns None and the caller merges by the heap
    instead.
    """
    n = len(keys)
    i = n - 1  # next input symbol
    j = n      # next merged node; the merged queue is empty when j == new
    last = -math.inf
    kids: list[int] = []
    for new in range(n, 2 * n - 1):
        if i >= 0 and (j == new or keys[i] <= keys[j]):
            a = i
            i -= 1
        else:
            a = j
            j += 1
        if i >= 0 and (j == new or keys[i] <= keys[j]):
            b = i
            i -= 1
        else:
            b = j
            j += 1
        ka = keys[a]
        kb = keys[b]
        if ka < last or kb < ka:
            return None
        last = kb
        keys.append(combine(ka, kb))
        kids += (a, b)
    return kids


def _leaf_depths(n: int, kids: list[int]) -> list[int]:
    """Leaf depths by one pass over the merges from the root down.

    Both children of a merge sit one level below the node it created, and
    every node is created after its children, so a node's depth is known
    before its children's.
    """
    depth = [0] * (2 * n - 1)
    for new, a, b in zip(range(2 * n - 2, n - 1, -1), reversed(kids[0::2]),
                         reversed(kids[1::2])):
        depth[a] = depth[b] = depth[new] + 1
    return depth[:n]


def generalized_huffman(p: Pmf, rule: CombineRule, *, trace: bool = False) -> CodeResult:
    """Build an objective-optimal code for ``p`` under ``rule``.

    Returns per-symbol lengths (Kraft sum exactly 1), canonical codewords
    and the achieved objective value; with ``trace``, also the merge trace
    (otherwise ``trace`` is None).
    """
    n = p.n
    keys = rule._leaf_keys(p)
    combine = rule._combiner()
    kids = _merge_two_queues(keys, combine) if rule._monotone else None
    if kids is None:
        del keys[n:]
        kids = _merge_heap(keys, combine)
    lengths = LengthVector(tuple(_leaf_depths(n, kids)))
    merge_trace = None
    if trace:
        events = tuple(MergeEvent(keys[a], keys[b], keys[new], a, b, new)
                       for new, a, b in zip(range(n, 2 * n - 1), kids[0::2], kids[1::2]))
        merge_trace = MergeTrace(events, keys[-1], rule.log_domain)
    value = rule.objective().evaluate(p, lengths)
    return CodeResult(lengths, canonical_codewords(lengths), value, merge_trace)


def two_queue_mmpr(p: Pmf, *, trace: bool = False) -> CodeResult:
    """``generalized_huffman`` under the doubling rule, which takes the two-queue path."""
    return generalized_huffman(p, CombineRule.max_double(), trace=trace)


def shannon_code(p: Pmf) -> LengthVector:
    """Lengths ceil(-lg p_i); Kraft-valid, pointwise redundancy below 1."""
    return LengthVector(tuple(ceil_neg_lg(pi) for pi in p))


def j_shannon_code(p: Pmf, j: int) -> LengthVector:
    """Shannon-style code pinning symbol j (1-based) to length ceil(-lg p_j).

    The remaining symbols are coded against the conditional distribution
    scaled by (1 - 2^-l_j), which keeps the Kraft inequality satisfied.
    A single-symbol alphabet gets the null codeword.
    """
    n = p.n
    if not 1 <= j <= n:
        raise CodingError(f"j must be in 1..{n}, got {j}")
    if n == 1:
        return LengthVector((0,))
    pj = p.probs[j - 1]
    lam = ceil_neg_lg(pj)
    scale = (1.0 - 2.0 ** -lam) / (1.0 - pj)
    lengths = [lam if i == j - 1 else ceil_neg_lg(min(1.0, p.probs[i] * scale))
               for i in range(n)]
    return LengthVector(tuple(lengths))


def unary_code(n: int) -> LengthVector:
    """Lengths (1, 2, ..., n-1, n-1); the single-symbol code is (0,)."""
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    if n == 1:
        return LengthVector((0,))
    return LengthVector(tuple(range(1, n)) + (n - 1,))


def canonical_codewords(l: LengthVector) -> tuple[str, ...]:
    """Assign lexicographically increasing codewords for the given lengths.

    Codewords are handed out shortest first (stable on symbol index), each
    the previous value plus one, shifted to the new length.  The result is
    prefix-free for every Kraft-valid input.
    """
    if not l.is_valid:
        raise KraftViolation(f"Kraft sum {l.kraft_sum} exceeds 1 for {l.lengths}")
    lengths = l.lengths
    codes: list[str] = [""] * l.n
    value = -1  # so that the first codeword is all zeros
    prev_len = 0
    # a stable sort on length alone keeps equal lengths in symbol order
    for idx in sorted(range(l.n), key=lengths.__getitem__):
        li = lengths[idx]
        value = (value + 1) << (li - prev_len)
        if li > 0:
            bits = format(value, "b").zfill(li)
            assert len(bits) == li
            codes[idx] = bits
        prev_len = li
    return tuple(codes)
