"""Huffman-style code construction under generalized combining rules.

The engine repeatedly replaces the two lowest-weight items a, b with one
item of weight f(a, b); the choice of f selects which objective the
resulting code minimizes:

* f = a + b                                 average redundancy
* f = 2 max(a, b)                           max pointwise redundancy
* f = (2^d a^(1+d) + 2^d b^(1+d))^(1/(1+d)) d-th exponential redundancy
* f = q a + q b                             exponential-average cost

The engine merges linear weights.  The max rule's 2b is exact, so its
merge rounds nothing, and no weight passes the root W = max_i p_i 2^l_i,
which is below 2: it is at most the Shannon code's, whose every
p_i 2^l_i is below 2.  The
d-th rule merges the leaf weights p_i^(1+d) by the exp-base combiner
q(a + b) with q = 2^d, which the root identity below makes the same
merge.  Where 2^d overflows (from d = 1024) or p_n^(1+d) is not a normal
float, the d-th rule merges base-2 logs instead, the log domain, by the
combiner above carried through lg; so it does where the linear root is
not finite, which the readout bound below rules out for any code near
optimal, as lg W = d V < d for a value V < 1.

The merge order is made deterministic by a (weight, creation sequence)
priority: input symbols get sequence numbers by nondecreasing weight and
merged items get fresh, higher numbers, so a merged item queues behind
input items of equal weight.

Two FIFO queues, the sorted inputs and the merged items, merge in linear
time after the sort (van Leeuwen, ICALP 1976).  Each pick takes the
lighter head, the input on a tie, so while the merged queue is sorted
each merge pops the two lightest items.  f(a, b) >= min(a, b) keeps it
sorted in exact arithmetic (Parker, SIAM J. Comput. 1980), and f
nondecreasing in each argument as computed keeps it sorted in floats:
let merge k pop a <= b and append m, every other live item being >= b.
Merge k+1 either pops m, leaving the queue empty for m', or pops items
live at merge k, a' >= b >= a and b' >= b, so that m' >= m.

* a + b, 2b and q(a + b) are correctly rounded adds and a product by
  a positive constant, monotone in their operands; so is the linear
  d-th merge, q = fl(2^d) being at least 1/2.  Under q < 1/2, m is
  below b and is popped at once: no key exceeds 1, so fl(a + b) <= 2b,
  and q <= 1/2 - 2^-54 puts q fl(a + b) at most b (1 - 2^-53), which
  rounds below any b > 2^-1022.  A smaller b may round m up to b, to
  lose a tie to an input and stay queued; then m' >= m, as above.
* The log-domain d-th combiner is not monotone in floats: one ulp more
  on b can lower f.  Let e = 10u (c K + |d| + 1) / c be one merge's
  error on a key, with c = 1 + d and K as in the readout below.  Exact f
  increases in each argument, so m' >= f(a', b') - e >= f(a, b) - e >=
  m - 2e: an inversion is at most two merges' error.  As df/db >= 1/2
  for a <= b, it needs b' - b < 4e, and b - a about as small.  FIFO
  order is then the order of the exact keys, f(a, b) <= f(a', b'), and a
  pick passes over the lightest item only for one within 2e of it, a
  near tie.  Such a pick can hand the combiner a > b by up to 2e.  f is
  symmetric in exact arithmetic, and the exponent left after shifting
  out c b, c (a - b) in [0, 2ce], grows the computation's terms by a
  factor of at most 2^(2ce) = 1 + O(ce), inside the slack of e's 10.

The queues also fix the tree's shape level by level, so the merge
records one int per merge, ``marks[k]``, the merged queue's head after
merge k, and sets depths one level at a time.  Merge k pops at steps 2k
and 2k + 1; inputs pop in the order n-1, n-2, ..., 0 and merged nodes in
creation order.  The internal nodes at one depth are a contiguous range
of merges [lo, hi), the root's being [n-2, n-1).  Their children are the
pops at steps [2lo, 2hi).  The merged ones among them are the nodes
marks[lo-1] ... n+lo-1 (from node n when lo = 0), so the next level is
[nxt, lo) with nxt = marks[lo-1] - n; that its last node is n+lo-1
follows by induction, as the root level's merge pops every merged node
but the root.  The other 2(hi - lo) - (lo - nxt) children are
consecutive input symbols, the leaves one level down.  nxt < lo, so the
levels run out, and a deeper level pops at earlier steps and so takes
higher symbol indices: the lengths are nondecreasing in symbol index.
So they are one run of equal lengths per level that has leaves, and the
merge hands those runs to the ``LengthVector`` with the lengths.  That
needs FIFO order only, not sortedness, so under any combiner the code is
complete and its lengths nondecreasing in symbol index.  Everything
after the merges is linear in n as well.

Codeword bits are assigned canonically from the lengths, shortest first,
stable on symbol index.  That needs no sort: the words of one length are
consecutive integers from a first code that one count per length fixes,
so each length's words are built as one block, and the blocks go into
one list, shortest length first.  An engine code's lengths are
nondecreasing in symbol index, one run per distinct length, so that list
is already in symbol order and is the result.  Any other vector hands
the words out run by run, the runs of equal lengths in symbol order that
the vector carries: a run of c symbols of length k takes the next c
words of block k, which is each symbol taking the next word of its
length's block in index order.  The counts per length come from the runs
too.

The Kraft check reads a count of free words.  Length k's first code is
sum_{j<k} c_j 2^(k-j) over the counts c_j, and free = 2^k less that code
is the number of k-bit words no shorter word has used or prefixed.  Its
c_k words fit exactly when c_k <= free, that is when the lengths up to k
have Kraft sum at most 1; the next length's free is (free - c_k) shifted
left by the gap.  The first length where c_k > free is refused before
any of its words is built, and only then is the full Kraft sum computed,
for the message.  On a complete code free never exceeds the symbols
still to place, so a valid engine code pays a shift, a compare and a
subtract of small integers per length, not arithmetic on integers as
wide as the longest word; an incomplete one, such as (1, 2, 1000), can
leave a wide free.

A deep code can have a thousand lengths of a few words each, a thousand
bits long, so the first word of each length is carried as a string,
never formatted from its integer: it is the previous length's next word
followed by zeros, and its block is that word's high part joined to a
slice of a table of all 8-bit strings.  The code 2^k - free is formed
only to index that table at lengths up to 8, and to be formatted at the
first length past the table, after a block that reaches a 256-word
edge, and for a block that crosses one.

The merge's root weight holds the d-th and exponential-average values,
so the engine reads them off it instead of scoring every symbol again.
Unrolled over the tree, the exp-base root is W = sum_i p_i q^l_i, so the
linear d-th root is W = sum_i p_i^(1+d) 2^(d l_i), and the log-domain
d-th root r has 2^((1+d) r) = W (Parker, SIAM J. Comput. 1980).  Each
value is lg W / s, with s = lg q or s = d, and lg W = (1+d) r in the log
domain.  With unit roundoff u = 2^-53, gamma_k = ku/(1 - ku), max length
L, and log2, 2** and pow within an ulp:

* exp-base: every term of W goes through at most two roundings per
  level, all of them positive, so the root is off by a relative
  gamma_2L.  For a pmf of normal floats only q < 1 lets a merged weight
  underflow, and q^depth <= 1 carries each such merge's absolute error,
  under 2^-1075, to the root under 2^-1074: rho = gamma_2L + (n-1)
  2^-1074 / W relative in all, so lg W is off by -lg(1 - rho).
* d-th, linear: W is the exp-base root with q = 2^d on leaves p_i^c,
  c = 1 + d, and gains three errors.  Each leaf p_i^c' with c' = fl(c)
  is within an ulp, at most 2u relative, of p_i^c 2^((c' - c) lg p_i),
  and |c' - c| <= u c; fl(2^d) is within an ulp of q, which a term at
  depth l meets l times.  No merged weight underflows: under d > 0,
  q(a + b) > b, and under d < 0, q >= 1/2 gives fl(q fl(a + b)) >= a,
  so each is at least the least leaf, a normal float.  So each term, and
  W with it, is off by a relative rho = (1 + gamma_(4L+2)) 2^t - 1 with
  t = u c (-lg p_n) <= 1022u, and lg W by -lg(1 - rho).
* d-th, log domain: with c = 1 + d, the map (c a, c b) -> c f(a, b) =
  d + lg(2^(c a) + 2^(c b)) has partial derivatives that are weights
  summing to 1, so an error in a child's scaled key reaches its parent's
  no larger.  Every key lies in [lg p_n, L], as min(a, b) + 1 <= f(a, b)
  <= max(a, b) + 1, so with K = max(-lg p_n, L) + 1 each merge adds under
  10u (c K + |d| + 1), the leaf logs and the rounding of c one term more,
  and (1+d) r is off by under 10u (L + 2)(c K + |d| + 1).  This holds for
  whatever full tree the merge built and for either argument order, so
  the d-th queue's near-tie inversions above leave it as it is.

Dividing by s adds a few roundings of the value and multiplies the error
of lg W by 1/|s|.  Every Kraft-valid code's exact d-th value is at least
0, by the power means of x_i = p_i 2^l_i: M_d(x) >= M_-1(x) >= 1.  So a
d-th value below 0, which only rounding gives, as on a dyadic pmf whose
exact value is 0, is raised to 0.0, which is no further from the exact
value: ``generalized_huffman`` does so once, for the readout in either
domain and for ``Objective.evaluate``'s value alike.  The readout is
taken only at |s| >= 1/16 (``core._SMALL_SCALE``), the cut
``renyi_entropy`` switches forms at;
nearer d = 0 or q = 1 the value is left to ``Objective.evaluate``, as are
the average rule's, which the root does not hold, and the max rule's,
whose exact root is 2^value but whose value stays the float the oracle
and ``verify`` score an MMPR code at.  So is
an exp-base root that is not a normal float (+inf after an overflow, or
subnormal or zero, past the relative precision rho needs), and a pmf
with a subnormal p_i, whose merges under q > 1 could round by more than
rho allows.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat

from .core import (
    CodingError,
    LengthVector,
    Objective,
    ObjectiveKind,
    Pmf,
    _SMALL_SCALE,
    _spread,
    ceil_neg_lg,
)

__all__ = [
    "KraftViolation",
    "RuleKind",
    "CombineRule",
    "CodeResult",
    "generalized_huffman",
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


_RULE_OF = {
    ObjectiveKind.AVG_REDUNDANCY: RuleKind.SUM,
    ObjectiveKind.MAX_POINTWISE: RuleKind.MAX_DOUBLE,
    ObjectiveKind.DTH_EXP: RuleKind.DTH_EXP,
    ObjectiveKind.EXP_AVERAGE: RuleKind.EXP_BASE,
}
_OBJECTIVE_OF = {rule: objective for objective, rule in _RULE_OF.items()}


@dataclass(frozen=True)
class CombineRule:
    """Weight-combining rule f(a, b), the merge handing it the lighter item first.

    In exact arithmetic f is nondecreasing in each argument; the max rule's
    2b ignores a.  As computed, a + b, 2b and q(a + b) stay so, the linear
    d-th merge's among them, and the log-domain d-th combiner does not: one
    ulp more on b can lower it, and the module docstring bounds the merge
    inversions that allows.  The parameter is validated by the
    ``Objective`` the rule minimizes.
    """

    kind: RuleKind
    param: float | None = None

    def __post_init__(self):
        self.objective()

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
        return CombineRule(_RULE_OF[obj.kind], obj.param)

    def objective(self) -> Objective:
        return Objective(_OBJECTIVE_OF[self.kind], self.param)

    def _leaf_keys(self, p: Pmf, log_domain: bool = False) -> list[float] | None:
        """The merge's leaf keys: linear weights, p_i^(1+d) under the d-th rule, or
        base-2 logs with ``log_domain``, which only the d-th rule takes.

        None where the d-th rule cannot merge linearly: 2^d overflows, or
        p_n^(1+d) is not a normal float (module docstring).
        """
        if log_domain:
            return list(map(math.log2, p.probs))
        if self.kind is not RuleKind.DTH_EXP:
            return list(p.probs)
        c = 1.0 + self.param
        if _dth_base(self.param) == math.inf or not p.probs[-1] ** c >= sys.float_info.min:
            return None
        return list(map(pow, p.probs, repeat(c)))

    def _combiner(self, log_domain: bool = False):
        """f on the keys of ``_leaf_keys``, as a two-argument callable.

        The merge calls it with the lighter item first, a <= b, as the two
        queues are sorted; the max rule's 2b relies on that.  The d-th rule
        merges linearly as the exp-base rule with q = 2^d; its log-domain
        queue's near-tie inversions (module docstring) can give the log
        combiner a > b by two merges' rounding, which its shift by c b
        absorbs.
        """
        if self.kind is RuleKind.SUM:
            return operator.add
        if self.kind is RuleKind.MAX_DOUBLE:
            return lambda a, b: 2.0 * b
        if not log_domain:
            q = self.param if self.kind is RuleKind.EXP_BASE else _dth_base(self.param)
            return lambda a, b: q * (a + b)
        d = self.param
        c = 1.0 + d
        log2 = math.log2
        isinf = math.isinf

        def dth(a: float, b: float) -> float:
            # (d + lg(2^(c a) + 2^(c b))) / c, the larger exponent c b (c > 0)
            # shifted out
            hi = c * b
            if isinf(hi):
                return (d + hi) / c
            return (d + (hi + log2(1.0 + 2.0 ** (c * a - hi)))) / c

        return dth

    def _root_value(self, p: Pmf, root: float, log_domain: bool) -> float | None:
        """The objective's value lg W / s read off the merge's root key, or None where
        ``Objective.evaluate`` must score the code instead (see the module docstring)."""
        if self.kind is RuleKind.DTH_EXP:
            s = self.param
            # a linear d-th root is at least the least leaf, a normal float, and finite
            lg_w = (1.0 + s) * root if log_domain else math.log2(root)
        elif (self.kind is RuleKind.EXP_BASE and sys.float_info.min <= root < math.inf
              and p.probs[-1] >= sys.float_info.min):
            s = math.log2(self.param)
            lg_w = math.log2(root)
        else:
            return None
        if abs(s) < _SMALL_SCALE:
            return None
        # + 0.0 as in Objective.reducer: no -0.0
        return lg_w / s + 0.0


def _dth_base(d: float) -> float:
    """q = 2^d of the linear d-th merge, or +inf where that overflows, as from d = 1024."""
    try:
        return 2.0 ** d
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CodeResult:
    """An engine code: lengths, canonical codewords and the objective's value.

    Under the d-th rule with |d| >= 1/16, and under the exp-base rule with
    |lg q| >= 1/16, normal float probabilities and a normal float root,
    ``objective_value`` is lg W / s read off the merge's root weight.  By
    the module docstring it lies within -lg(1 - rho) / |s| + 6u (|V| + 1)
    of the exact value V of these lengths, with u = 2^-53, L the longest
    length, and rho = gamma_2L + (n-1) 2^-1074 / W under the exp-base rule or
    rho = (1 + gamma_(4L+2)) 2^(u (1+d) (-lg p_n)) - 1 under the d-th
    rule's linear merge.  Under the d-th rule's log-domain merge it lies
    within 10u (L + 2)((1+d) K + |d| + 1) / |d| + 4u |V|, with
    K = max(-lg p_n, L) + 1.  Otherwise it is ``Objective.evaluate`` of the
    lengths, bit for bit.  Under the d-th rule either value, where it is
    below 0, is 0.0: the exact value of a complete code is at least 0, so
    that is no further from it.
    """

    lengths: LengthVector
    codewords: tuple[str, ...]
    objective_value: float
    trace = None  # not a field: bench/run.py reads it; the benchmark refresh deletes it


def _merge_two_queues(keys: list[float], combine) -> list[int]:
    """Merge the leaf keys, by symbol and nonincreasing, by two FIFO queues; return the marks.

    Symbol i is node i and merge k makes node n + k, whose key goes to
    keys[n + k], so the root's comes last.  One queue holds the inputs
    from symbol n-1 down, the other the merged nodes in creation order; an
    input wins a tie.  No merge checks the order: the marks need FIFO
    order only (module docstring).

    Each pick is one comparison, with no test on either index.  The merged
    slots of ``keys`` are +inf until written, and every leaf key is finite,
    so an empty merged queue (j == new) loses every comparison with an
    input.  One NaN follows the merged slots, at keys[2n - 1], and is the
    only NaN in ``keys``: leaf keys are finite, and no combiner returns
    NaN.  Once the inputs are used up, i == -1 reads it, and nan <= x is
    False for every x, +inf included, so the pick takes the merged queue
    and i never goes below -1.  The NaN is dropped before the return, so
    the root's key is keys[-1].

    marks[k] is the merged queue's head after merge k: merges 0..k popped
    exactly the merged nodes below that id.
    """
    n = len(keys)
    keys += repeat(math.inf, n - 1)
    keys.append(math.nan)
    i = n - 1  # next input symbol
    j = n      # next merged node; the merged queue is empty when j == new
    marks: list[int] = []
    for new in range(n, 2 * n - 1):
        if keys[i] <= keys[j]:
            a = i
            i -= 1
        else:
            a = j
            j += 1
        if keys[i] <= keys[j]:
            b = i
            i -= 1
        else:
            b = j
            j += 1
        keys[new] = combine(keys[a], keys[b])
        marks.append(j)
    keys.pop()
    return marks


def _level_runs(n: int, marks: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Depth and leaf count of each tree level that has leaves, top down, from the marks.

    Below the merges [lo, hi) lie the merges [nxt, lo), nxt = marks[lo-1] - n,
    and 2(hi - lo) - (lo - nxt) leaves, the next symbols in index order
    (module docstring): the runs of the lengths by symbol, ``LengthVector._runs``.
    """
    depths, counts = ([0], [1]) if n == 1 else ([], [])
    lo, hi = n - 2, n - 1
    depth = 1
    while hi > 0:
        nxt = marks[lo - 1] - n if lo else 0
        leaves = 2 * (hi - lo) - (lo - nxt)
        if leaves:
            depths.append(depth)
            counts.append(leaves)
        lo, hi = nxt, lo
        depth += 1
    return tuple(depths), tuple(counts)


def _merge(p: Pmf, rule: CombineRule) -> tuple[tuple, float, bool]:
    """Merge ``p`` under ``rule``: the code's level runs (``_level_runs``), the root
    key, and whether the merge ran in the log domain.

    Every rule merges linearly, but the d-th rule merges base-2 logs where
    ``_leaf_keys`` has no linear keys for ``p``, and merges again on them
    where its linear root overflows, which the module docstring shows a
    code near optimal never does.
    """
    keys = rule._leaf_keys(p)
    if keys is not None:
        marks = _merge_two_queues(keys, rule._combiner())
        if keys[-1] < math.inf or rule.kind is not RuleKind.DTH_EXP:
            return _level_runs(p.n, marks), keys[-1], False
    keys = rule._leaf_keys(p, log_domain=True)
    marks = _merge_two_queues(keys, rule._combiner(log_domain=True))
    return _level_runs(p.n, marks), keys[-1], True


def generalized_huffman(p: Pmf, rule: CombineRule) -> CodeResult:
    """Build an objective-optimal code for ``p`` under ``rule`` by the two-queue merge.

    Returns per-symbol lengths (Kraft sum exactly 1, nondecreasing in
    symbol index), canonical codewords and the achieved objective value,
    read off the merge's root weight where ``CombineRule._root_value`` can
    and scored by ``Objective.evaluate`` otherwise (see ``CodeResult``).
    """
    # the merge's keys and marks are freed on return, so the codeword strings can reuse them
    runs, root, log_domain = _merge(p, rule)
    lengths = LengthVector._checked(tuple(_spread(*runs)), runs)
    value = rule._root_value(p, root, log_domain)
    if value is None:
        value = rule.objective().evaluate(p, lengths)
    if rule.kind is RuleKind.DTH_EXP:
        # a complete code's exact d-th value is at least 0: a value below it
        # is all rounding, and max(0.0, -0.0) is 0.0
        value = max(0.0, value)
    return CodeResult(lengths, canonical_codewords(lengths), value)


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


# _WORDS[k] holds every k-bit string in increasing order, k = 0..8: 511
# strings in all.  A longer codeword is its formatted high k - 8 bits
# followed by one of the 256 entries of _WORDS[8].
_LOW_BITS = 8
_WORDS = tuple(tuple(format(v, "b").zfill(k) for v in range(1 << k)) if k else ("",)
               for k in range(_LOW_BITS + 1))


def _length_block(first: int, count: int, k: int) -> list[str]:
    """The k-bit strings of the integers first, first + 1, ..., first + count - 1, for k > 8."""
    low = _WORDS[_LOW_BITS]
    high_bits = k - _LOW_BITS
    end = first + count
    block: list[str] = []
    # one formatted high part per run of up to 256 codes sharing it
    for high in range(first >> _LOW_BITS, ((end - 1) >> _LOW_BITS) + 1):
        base = high << _LOW_BITS
        prefix = bin(high)[2:].zfill(high_bits)
        block += map(prefix.__add__, low[max(first - base, 0):min(end - base, len(low))])
    return block


def canonical_codewords(l: LengthVector) -> tuple[str, ...]:
    """Assign lexicographically increasing codewords for the given lengths.

    Codewords are handed out shortest first, stable on symbol index.  The
    words of one length k are the consecutive integers from next_code[k]:
    the previous length's first code plus its count, shifted left by the
    difference in length (RFC 1951, section 3.2.2).  So each length's words
    are built as one block, with no sort, onto one list ``words``, shortest
    length first.  When ``l._runs`` has one run per length, shortest
    first, as every engine code does, ``words`` is in symbol order and is
    returned as it is.  Otherwise each run, c symbols of length k, takes
    the next c words of block k, so that the symbols of one length take
    them in index order.  The result is prefix-free for every Kraft-valid
    input.  KraftViolation is raised for any other, at the first length k
    whose words run past 2^k, before any of them is built; the message
    quotes the vector's whole Kraft sum.

    Past 8 bits the next word is carried as a string: ``high``, its first
    k - 8 bits, and ``low``, the index of its last 8 in ``_WORDS[8]``.  The
    next length's first word is that word followed by k - prev zeros, and
    a block that stays inside one 256-word window is ``high`` joined to
    ``_WORDS[8][low:low + count]``.  Two cases format the integer code
    instead: the first length past 8 bits, and the length after a block
    that reaches a 256-word edge, where ``high`` would need a carry.  A
    block that crosses the edge is built by ``_length_block``.
    """
    run_ks, run_cs = l._runs
    # one run per length, shortest first: the words come out in symbol order
    in_order = all(map(operator.lt, run_ks, run_ks[1:]))
    if in_order:
        ks, cs = run_ks, run_cs
    else:
        counts: dict[int, int] = {}
        for k, c in zip(run_ks, run_cs):
            counts[k] = counts.get(k, 0) + c
        ks = sorted(counts)
        cs = list(map(counts.__getitem__, ks))
    low_words = _WORDS[_LOW_BITS]
    window = len(low_words)
    words: list[str] = []
    free, prev = 1, 0  # the unused words at length prev: 2^prev less the next code
    high = None  # past the table: the next word's first k - 8 bits, or None to format them
    for k, c in zip(ks, cs):
        shift = k - prev
        free <<= shift
        if c > free:
            # code + c > 2^k: the Kraft sum of the lengths up to k exceeds 1;
            # the float sum reads 1.0 when the excess is below its precision
            total, whole = l._kraft_scaled()
            excess = total - whole
            raise KraftViolation(f"Kraft sum {total / whole!r} of {l.n} lengths exceeds 1 "
                                 f"by at least 2^{excess.bit_length() - whole.bit_length()}")
        if k <= _LOW_BITS:
            code = (1 << k) - free
            words += _WORDS[k][code:code + c]
        else:
            if high is None:
                code = (1 << k) - free
                high = bin(code >> _LOW_BITS)[2:].zfill(k - _LOW_BITS)
                low = code & (window - 1)
            elif shift < _LOW_BITS:
                high += low_words[low][:shift]
                low = (low << shift) & (window - 1)
            else:
                high += low_words[low] + "0" * (shift - _LOW_BITS)
                low = 0
            end = low + c
            if end > window:
                words += _length_block((1 << k) - free, c, k)
            else:
                words += map(high.__add__, low_words[low:end])
            if end < window:
                low = end
            else:
                high = None  # the next word carries into the high bits
        free -= c
        prev = k
    if in_order:
        return tuple(words)
    # each run of c symbols of length k takes the next c words of k's block
    blocks = {}
    start = 0
    for k, c in zip(ks, cs):
        blocks[k] = iter(words[start:start + c])
        start += c
    return tuple(chain.from_iterable(map(islice, map(blocks.__getitem__, run_ks), run_cs)))
