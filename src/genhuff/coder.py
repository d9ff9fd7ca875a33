"""Huffman-style code construction under generalized combining rules.

The engine repeatedly replaces the two lowest-weight items x, y with one
item of weight f(x, y); the choice of f selects which objective the
resulting code minimizes:

* f = x + y on leaves p_i           average redundancy
* f = 2 max(x, y) on leaves p_i     max pointwise redundancy
* f = q x + q y on leaves p_i^a     ``Objective``'s exponential family (a, s, q)

The family holds d-th exponential redundancy at (1 + d, d, 2^d), whose
merge (2^d x^(1+d) + 2^d y^(1+d))^(1/(1+d)) on leaves p_i (Parker, SIAM
J. Comput. 1980) is this one on the leaves' (1+d)-th powers, and
exponential-average cost at (1, lg q, q) (Humblet, IEEE Trans. IT 1981).
One code path serves both, and a = 1 takes no power of the leaves.

The engine merges linear weights.  The max rule's 2y is exact, so its
merge rounds nothing, and no weight passes the root W = max_i p_i 2^l_i,
which is below 2S, S = max(1, sum_i p_i) <= 1 + PMF_SUM_TOL: it is at
most the Shannon code's, whose every p_i 2^l_i is below 2S.  Where p_n^a is not a normal float, an exponential
rule's leaves are (p_i 2^k)^a, k the least integer that makes
(p_n 2^k)^a normal: an exact shift of every p_i, which scales the root
by 2^(k a) and the readout takes back out.  Under a = 1, k is at most 52.
Where q overflows (2^d, from d = 1024), or where k a >= 1023, past which
a shifted leaf, below 2^(k a), could leave the float range, and under
s >= 0 the root, at least 2^(k a), could too, the rule merges base-2
logs instead, the log domain, by f carried through lg:
(s + lg(2^(a x) + 2^(a y))) / a.  So it does where the linear root is
not finite.  Under the d-th rule the readout bound below rules that out
for any code near optimal and unshifted, as lg W = d V < d for a value
V < 1; under exponential average a large q does it, as q = 1e200 does
on a code two levels deep.

The merge order is made deterministic by a (weight, creation sequence)
priority: input symbols get sequence numbers by nondecreasing weight and
merged items get fresh, higher numbers, so a merged item queues behind
input items of equal weight.

Two FIFO queues, the sorted inputs and the merged items, merge in linear
time after the sort (van Leeuwen, ICALP 1976).  Each pick takes the
lighter head, the input on a tie, so while the merged queue is sorted
each merge pops the two lightest items.  f(x, y) >= min(x, y) keeps it
sorted in exact arithmetic (Parker, SIAM J. Comput. 1980), and f
nondecreasing in each argument as computed keeps it sorted in floats:
let merge k pop x <= y and append m, every other live item being >= y.
Merge k+1 either pops m, leaving the queue empty for m', or pops items
live at merge k, x' >= y >= x and y' >= y, so that m' >= m.

* x + y, 2y and q(x + y) are correctly rounded adds and a product by
  a positive constant, monotone in their operands.  Under q < 1/2,
  which only exponential average takes (the d-th q = fl(2^d) is at least
  1/2), m is below y and is popped at once: no key is above 2^52, so
  fl(x + y) <= 2y, and q <= 1/2 - 2^-54 puts q fl(x + y) at most
  y (1 - 2^-53), which rounds below any y > 2^-1022.  A smaller y may
  round m up to y, to lose a tie to an input and stay queued; then
  m' >= m, as above.
* The log-domain combiner is not monotone in floats: one ulp more on y
  can lower f.  Let e = 10u (a K + |s| + 1) / a be one merge's error on
  a key, with K as in the readout below.  Exact f increases in each
  argument, so m' >= f(x', y') - e >= f(x, y) - e >= m - 2e: an
  inversion is at most two merges' error.  As df/dy >= 1/2 for x <= y,
  it needs y' - y < 4e, and y - x about as small.  FIFO order is then
  the order of the exact keys, f(x, y) <= f(x', y'), and a pick passes
  over the lightest item only for one within 2e of it, a near tie.  Such
  a pick can hand the combiner x > y, which changes nothing: its lg-add
  shifts out the larger exponent whichever argument holds it, so f is
  symmetric as computed too.

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
is already in symbol order and is the result.  Any other vector is coded
as its lengths sorted, one run per length, shortest first, and each
symbol is handed back the word of its place in that sort.  The sort is
stable, so that is each symbol taking the next word of its length's
block in index order.

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
followed by zeros.  Each word of its block is that word's high part
plus one entry of a table of all 8-bit strings, taken in order from a
slice of the table.  A plain loop appends ``high + x`` per word, one
bytecode, where a ``map`` over the bound method ``high.__add__`` builds
an argument tuple for each word.  A block that reaches a 256-word edge
adds one to that high part in place and goes on in the next slice.  The
code 2^k - free is formed only at lengths up to 8, to index the table.

The merge's root weight holds the exponential family's values, so the
engine reads them off it instead of scoring every symbol again.
Unrolled over the tree, the linear root of the leaves p_i^a is
W = sum_i p_i^a q^l_i = sum_i 2^(a lg p_i + s l_i), and the log-domain
root r has 2^(a r) = W (Parker, SIAM J. Comput. 1980).  The value is
lg W / s, with lg W = a r in the log domain.  With unit roundoff
u = 2^-53, gamma_k = ku/(1 - ku), max length L, and log2, 2** and pow
within an ulp:

* linear: the root is W' = 2^(k a) W, the merge's on leaves x_i^a with
  x_i = p_i 2^k exact, and every term of W' goes through at most two
  roundings per level, all of them positive, a relative gamma_2L.  Under
  exponential average a = 1 and q are exact, and only q < 1 lets a
  merged weight underflow; q^depth <= 1 carries each such merge's
  absolute error, under 2^-1075, to the root under 2^-1074:
  rho = gamma_2L + (n-1) 2^-1074 / W' relative in all.  Under the d-th
  rule each leaf x_i^a' with a' = fl(a) is within an ulp, at most 2u
  relative, of x_i^a 2^((a' - a) lg x_i), and |a' - a| <= u a; fl(2^d)
  is within an ulp of q, which a term at depth l meets l times.  No
  merged weight underflows: under d > 0, q(x + y) > y, and under d < 0,
  q >= 1/2 gives fl(q fl(x + y)) >= x, so each is at least the least
  leaf, a normal float.  So each term, and W' with it, is off by a
  relative rho = (1 + gamma_(4L+2)) 2^t - 1 with t = u a max_i |lg x_i|,
  which k a < 1023 keeps below 1023u.  Either way lg W' is off by
  -lg(1 - rho).  Under a = 1 the shift is a power of two, and where
  2^-k W' is a normal float the readout takes it out exactly,
  lg W = log2(2^-k W').  Otherwise, under the d-th rule or where that
  is subnormal, the readout lg W = lg W' - k a gains 3u k a: log2 of the
  root, k a + lg W, is within an ulp, 2u k a more than unshifted, and
  the product k a rounds once; the subtraction is one rounding of lg W,
  as the division by s is one of the value.  With k = 0 nothing is
  shifted or taken out.
* log domain: the map (a x, a y) -> a f(x, y) = s + lg(2^(a x) + 2^(a y))
  has partial derivatives that are weights summing to 1, so an error in
  a child's scaled key reaches its parent's no larger.  As
  min(x, y) + (1+s)/a <= f(x, y) <= max(x, y) + (1+s)/a, and 1 + s > 0
  wherever the log domain runs (d > -1, and an exp-average root
  overflows only at q > 1), every key lies in [lg p_n, L (1+s)/a].  So
  with K = max(-lg p_n, L (1+s)/a) + 1, which is max(-lg p_n, L) + 1
  under the d-th rule, each merge adds under 10u (a K + |s| + 1), the
  leaf logs and the rounding of a one term more, and a r is off by under
  10u (L + 2)(a K + |s| + 1).  This holds for whatever full tree the
  merge built and for either argument order, so the queue's near-tie
  inversions above leave it as it is.

Dividing by s adds a few roundings of the value and multiplies the error
of lg W, the shift's 3u k a with it, by 1/|s|.  Every Kraft-valid code's
exact d-th value is at least 0, by the power means of x_i = p_i 2^l_i:
M_d(x) >= M_-1(x) >= 1.  So a d-th value below 0, which only rounding
gives, as on a dyadic pmf whose exact value is 0, is raised to 0.0,
which is no further from the exact value: ``generalized_huffman`` does
so once, for the readout in either domain and for
``Objective.evaluate``'s value alike.  The readout is taken only at
|s| >= 1/16 (``core._SMALL_SCALE``); nearer d = 0 or q = 1 the value is
left to ``Objective.evaluate``, whose centred form there has no 1/|s|.
So are the average rule's, which the root does not hold, and the max
rule's, whose exact root is 2^value but whose value stays the float the
oracle and ``verify`` score an MMPR code at.  So is a linear root that is
not a normal float, subnormal or zero past the relative precision rho
needs, which only q < 1/2 gives.
"""

from __future__ import annotations

import math
import operator
import sys
from enum import Enum
from itertools import repeat

from .core import (
    CodingError,
    LengthVector,
    Objective,
    ObjectiveKind,
    Pmf,
    _SMALL_SCALE,
    _Record,
    _floor_lg,
    _lg_add,
    _set,
    _spread,
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


class CombineRule(_Record):
    """Weight-combining rule f(x, y), the merge handing it the lighter item first.

    In exact arithmetic f is nondecreasing in each argument; the max rule's
    2y ignores x.  As computed, x + y, 2y and q(x + y) stay so, and the
    log-domain combiner of the exponential rules does not: one ulp more on
    y can lower it, and the module docstring bounds the merge inversions
    that allows.  The parameter is validated by the ``Objective`` the rule
    minimizes, which the rule keeps as ``_objective`` and its exponential
    family (a, s, q) as ``_family``, neither of them a field.
    """

    kind: RuleKind
    param: float | None

    def __init__(self, kind: RuleKind, param: float | None = None):
        _set(self, "kind", kind)
        _set(self, "param", param)
        # the Objective checks the parameter; it and its (a, s, q) are not fields
        _set(self, "_objective", Objective(_OBJECTIVE_OF[kind], param))
        _set(self, "_family", self._objective._family)

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
        return self._objective

    def _shift(self, p: Pmf) -> int | None:
        """k of the linear leaves (p_i 2^k)^a: 0 where p_n^a is a normal float, as under
        the sum and max rules, else the least k that makes (p_n 2^k)^a normal.  None
        where q overflows, or where k a >= 1023, past which a shifted leaf, below
        2^(k a), could leave the float range, and under s >= 0 the root, 2^(k a) W
        with W >= 1, could too (module docstring)."""
        if self._family is None:
            return 0
        a, _, q = self._family
        pn, tiny = p.probs[-1], sys.float_info.min
        if q == math.inf:
            return None
        if pn ** a >= tiny:
            return 0
        # (p_n 2^k)^a >= 2^-1022 from k >= -1022/a - lg p_n; the loops settle
        # the rounding of that estimate, and no power in them overflows
        k = math.ceil(-1022.0 / a - math.log2(pn))
        while math.ldexp(pn, k - 1) ** a >= tiny:
            k -= 1
        while not math.ldexp(pn, k) ** a >= tiny:
            k += 1
        return k if k * a < 1023.0 else None

    def _leaf_keys(self, p: Pmf, shift: int | None) -> list[float]:
        """The merge's leaf keys: the linear weights (p_i 2^shift)^a, a = 1 under the sum
        and max rules, or with ``shift`` None the base-2 logs lg p_i.  Shift 0 takes no
        ldexp, and a = 1 no pow, so those leaves are p_i^a, or p_i, bit for bit."""
        if shift is None:
            return list(map(math.log2, p.probs))
        probs = map(math.ldexp, p.probs, repeat(shift)) if shift else p.probs
        if self._family is None or self._family[0] == 1.0:
            return list(probs)
        a = self._family[0]
        return [x ** a for x in probs]

    def _combiner(self, log_domain: bool = False):
        """f on the keys of ``_leaf_keys``, as a two-argument callable.

        The merge calls it with the lighter item first, x <= y, as the two
        queues are sorted; the max rule's 2y relies on that.  An exponential
        rule merges linearly by q(x + y), or in the log domain by
        (s + lg(2^(a x) + 2^(a y))) / a, whose ``core._lg_add`` shifts out the
        larger exponent, so the near-tie inversions of that queue (module
        docstring), which can hand it x > y, leave it symmetric.  Every key lies
        in [lg p_n, L (1+s)/a] (module docstring), so each exponent, at most
        max(1075 a, L (1+s)) in size with a and 1 + s at most 1 + D_MAX, is
        finite for any L below ~1.7e8.
        """
        if self.kind is RuleKind.SUM:
            return operator.add
        if self.kind is RuleKind.MAX_DOUBLE:
            return lambda x, y: 2.0 * y
        a, s, q = self._family
        if not log_domain:
            return lambda x, y: q * (x + y)
        return lambda x, y: (s + _lg_add(a * x, a * y)) / a

    def _root_value(self, root: float, shift: int | None) -> float | None:
        """The objective's value lg W / s read off the merge's root key, from leaves
        shifted by 2^shift or, with ``shift`` None, merged in the log domain; None
        where ``Objective.evaluate`` must score the code instead (module docstring)."""
        if self._family is None or abs(self._family[1]) < _SMALL_SCALE:
            return None
        a, s, _ = self._family
        if shift is None:
            lg_w = a * root
        elif root >= sys.float_info.min:
            # a linear root is finite (``_merge``).  Under a = 1, 2^-shift W is
            # exact where it is normal, and shift 0 leaves the root as is;
            # otherwise the shift comes off lg W as shift a
            w = math.ldexp(root, -shift) if a == 1.0 else 0.0
            lg_w = math.log2(w) if w >= sys.float_info.min else math.log2(root) - shift * a
        else:
            return None
        # + 0.0 as in Objective.evaluate: no -0.0
        return lg_w / s + 0.0


class _DataclassProtocol:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a record, made on first read.

    The first read of either, on the class or on an instance, imports
    ``dataclasses``, builds a frozen ``make_dataclass`` twin with the
    record's fields and annotations, and puts both of its attributes on the
    class in place of the two descriptors.  Start-up never reads them, so
    it loads neither ``dataclasses`` nor the ``inspect`` it imports.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, cls):
        import dataclasses

        twin = dataclasses.make_dataclass(cls.__name__, [*cls.__annotations__.items()], frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(cls, self.name)


class CodeResult(_Record):
    """An engine code: lengths, canonical codewords and the objective's value.

    Under an exponential rule (a, s, q) with |s| >= 1/16, and from a linear
    merge a normal float root, ``objective_value`` is lg W / s read off the
    merge's root weight.  By the module docstring, from a linear merge on
    leaves shifted by 2^k (``CombineRule._shift``) it lies within
    -lg(1 - rho) / |s| + 6u (|V| + 1) of the exact value V of these
    lengths, with u = 2^-53, L the longest length, and
    rho = gamma_2L + (n-1) 2^-1074 / (2^(k a) W) under exponential
    average, (1 + gamma_(4L+2)) 2^t - 1 with t = u a max_i |lg(p_i 2^k)|
    under the d-th rule.  Taking the shift out adds 3u k a / |s|, except
    under exponential average where W, the root scaled by 2^-k, is a
    normal float: that scaling is exact.  From a log-domain merge it lies
    within 10u (L + 2)(a K + |s| + 1) / |s| + 4u |V|, with
    K = max(-lg p_n, L (1+s)/a) + 1.  Otherwise it is ``Objective.evaluate``
    of the lengths, bit for bit, centred at |s| < 1/16 with no 1/|s| in its
    error.  Under the d-th rule either value, where it is below 0, is 0.0:
    the exact value of a complete code is at least 0, so that is no further.

    It is a ``core._Record`` that also answers the dataclass protocol, as
    the frozen dataclass it was did: ``dataclasses.fields``, ``replace``,
    ``asdict`` and ``astuple`` read ``__dataclass_fields__`` and
    ``__dataclass_params__``, which ``_DataclassProtocol`` makes on their
    first read, and ``copy.replace`` (Python 3.13) calls ``__replace__``.
    """

    lengths: LengthVector
    codewords: tuple[str, ...]
    objective_value: float
    trace = None  # not a field: bench/run.py reads it; the benchmark refresh deletes it
    __dataclass_fields__ = _DataclassProtocol()
    __dataclass_params__ = _DataclassProtocol()

    def __init__(self, lengths: LengthVector, codewords: tuple[str, ...],
                 objective_value: float):
        _set(self, "lengths", lengths)
        _set(self, "codewords", codewords)
        _set(self, "objective_value", objective_value)

    def __replace__(self, **changes) -> "CodeResult":
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))


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


def _merge(p: Pmf, rule: CombineRule) -> tuple[tuple, float, int | None]:
    """Merge ``p`` under ``rule``: the code's level runs (``_level_runs``), the root
    key, and the leaves' shift k, None where the merge ran in the log domain.

    Every rule merges linearly, an exponential rule on leaves shifted by 2^k
    where p_n^a is not a normal float, so that the root key is 2^(k a) W.
    An exponential rule merges base-2 logs where ``_shift`` has no k for
    ``p``, as q overflows or k a >= 1023, and merges again on them where
    its linear root overflows; the sum and max rules' roots, about 1 and
    below 2, never do.
    """
    shift = rule._shift(p)
    if shift is not None:
        keys = rule._leaf_keys(p, shift)
        marks = _merge_two_queues(keys, rule._combiner())
        if keys[-1] < math.inf:
            return _level_runs(p.n, marks), keys[-1], shift
    keys = rule._leaf_keys(p, None)
    marks = _merge_two_queues(keys, rule._combiner(log_domain=True))
    return _level_runs(p.n, marks), keys[-1], None


def generalized_huffman(p: Pmf, rule: CombineRule) -> CodeResult:
    """Build an objective-optimal code for ``p`` under ``rule`` by the two-queue merge.

    Returns per-symbol lengths (Kraft sum exactly 1, nondecreasing in
    symbol index), canonical codewords and the achieved objective value,
    read off the merge's root weight where ``CombineRule._root_value`` can
    and scored by ``Objective.evaluate`` otherwise (see ``CodeResult``).
    """
    # the merge's keys and marks are freed on return, so the codeword strings can reuse them
    runs, root, shift = _merge(p, rule)
    lengths = LengthVector._checked(tuple(_spread(*runs)), runs)
    value = rule._root_value(root, shift)
    if value is None:
        value = rule._objective.evaluate(p, lengths)
    if rule.kind is RuleKind.DTH_EXP:
        # a complete code's exact d-th value is at least 0: a value below it
        # is all rounding, and max(0.0, -0.0) is 0.0
        value = max(0.0, value)
    return CodeResult(lengths, canonical_codewords(lengths), value)


def _least_shift(x: float, num: int, den: int) -> int:
    """The least k >= 0 with x 2^k >= num/den, exactly: with x = a/b that is
    ceil(lg(num b / (den a))) = -floor(lg(den a / (num b)))."""
    a, b = x.as_integer_ratio()
    return max(0, -_floor_lg(a * den, b * num))


def _unit_total(p: Pmf) -> tuple[int, int]:
    """(num, den): num/den = S = max(1, the exact sum of ``p``), and den, a power
    of two, a multiple of every entry's denominator."""
    ratios = [x.as_integer_ratio() for x in p]
    den = max(b for _, b in ratios)
    return max(den, sum(a * (den // b) for a, b in ratios)), den


def shannon_code(p: Pmf) -> LengthVector:
    """Lengths l_i, the least k >= 0 with p_i 2^k >= S, S = max(1, sum_i p_i).

    That is ceil(-lg p_i) where the exact sum is at most 1.  A pmf may sum
    to up to 1 + PMF_SUM_TOL, and against S its lengths still have
    sum_i 2^-l_i <= sum_i p_i / S <= 1, so the code is always Kraft-valid;
    pointwise redundancy is below 1 + lg S.
    """
    num, den = _unit_total(p)
    return LengthVector(tuple(_least_shift(pi, num, den) for pi in p))


def j_shannon_code(p: Pmf, j: int) -> LengthVector:
    """Shannon-style code pinning symbol j (1-based) to its ``shannon_code`` length.

    The remaining symbols are coded against the conditional distribution
    scaled by (1 - 2^-l_j): l_i is the least k >= 0 with
    p_i 2^k (1 - 2^-l_j) >= S - p_j, S = max(1, sum_i p_i), compared
    exactly, which keeps the Kraft inequality satisfied.  A single-symbol
    alphabet gets the null codeword.
    """
    n = p.n
    if not 1 <= j <= n:
        raise CodingError(f"j must be in 1..{n}, got {j}")
    if n == 1:
        return LengthVector((0,))
    num, den = _unit_total(p)
    pj = p.probs[j - 1]
    lam = _least_shift(pj, num, den)
    a, b = pj.as_integer_ratio()
    # (S - p_j) / (1 - 2^-lam), at most S and at least S - p_j >= p_i; lam >= 1, as S > p_j
    rest_num, rest_den = (num - a * (den // b)) << lam, den * ((1 << lam) - 1)
    return LengthVector(tuple(lam if i == j - 1 else _least_shift(pi, rest_num, rest_den)
                              for i, pi in enumerate(p.probs)))


def unary_code(n: int) -> LengthVector:
    """Lengths (1, 2, ..., n-1, n-1); the single-symbol code is (0,)."""
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    if n == 1:
        return LengthVector((0,))
    return LengthVector(tuple(range(1, n)) + (n - 1,))


# _WORDS[k] holds every k-bit string in increasing order, k = 0..8: 511
# strings in all.  A longer codeword is its high k - 8 bits followed by one
# of the 256 entries of _WORDS[8].
_LOW_BITS = 8
_WORDS = tuple(tuple(format(v, "b").zfill(k) for v in range(1 << k)) if k else ("",)
               for k in range(_LOW_BITS + 1))


def canonical_codewords(l: LengthVector) -> tuple[str, ...]:
    """Assign lexicographically increasing codewords for the given lengths.

    Codewords are handed out shortest first, stable on symbol index.  The
    words of one length k are the consecutive integers from next_code[k]:
    the previous length's first code plus its count, shifted left by the
    difference in length (RFC 1951, section 3.2.2).  So each length's words
    are built as one block, with no sort, onto one list ``words``, shortest
    length first.  When ``l._runs`` has one run per length, shortest
    first, as every engine code does, ``words`` is in symbol order and is
    returned as it is.  Any other vector is coded as its lengths sorted,
    shortest first and then by symbol index, and each symbol gets back the
    word of its place in that order, so that the symbols of one length
    take their block's words in index order.  The result is prefix-free
    for every Kraft-valid input.  KraftViolation is raised for any other,
    at the first length k whose words run past 2^k, before any of them is
    built; the message quotes the vector's whole Kraft sum, which the
    sorted lengths share.

    Past 8 bits the next word is carried as a string: ``high``, its first
    k - 8 bits, and ``low``, the index of its last 8 in ``_WORDS[8]``.
    Before the first length past 8, ``high`` is empty and ``low`` is the
    previous length's next code padded to 8 bits.  The next length's
    first word is the carried word followed by zeros, and its block is
    ``high + x`` appended for each x of ``_WORDS[8][low:]`` up to the
    256-word edge, where ``high`` gains one in place, and then for each x
    of the next window.
    """
    ks, cs = l._runs
    if not all(map(operator.lt, ks, ks[1:])):
        # not one run per length, shortest first: code the sorted lengths, which
        # are, and hand each symbol the word of its place in the stable sort
        order = sorted(range(l.n), key=l.lengths.__getitem__)
        ranked = LengthVector._checked(tuple(map(l.lengths.__getitem__, order)))
        return tuple(map(dict(zip(order, canonical_codewords(ranked))).__getitem__, range(l.n)))
    low_words = _WORDS[_LOW_BITS]
    window = len(low_words)
    words: list[str] = []
    append = words.append
    free, prev = 1, 0  # the unused words at length prev: 2^prev less the next code
    high, low = "", 0  # the next word: its first k - 8 bits, and its last 8 bits' index
    for k, c in zip(ks, cs):
        free <<= k - prev
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
            low = (code + c) << (_LOW_BITS - k)  # the next word, padded to 8 bits
        else:
            shift = k - prev if high else k - _LOW_BITS  # from the padded word
            if shift < _LOW_BITS:
                high += low_words[low][:shift]
                low = (low << shift) & (window - 1)
            else:
                high += low_words[low] + "0" * (shift - _LOW_BITS)
                low = 0
            end = low + c
            while end >= window:
                # the rest of this window; the next word carries into the high bits
                for x in low_words[low:]:
                    append(high + x)
                high = bin(int(high, 2) + 1)[2:].zfill(len(high))
                low, end = 0, end - window
            for x in low_words[low:end]:
                append(high + x)
            low = end
        free -= c
        prev = k
    return tuple(words)
