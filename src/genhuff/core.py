"""Domain types and objective evaluators for binary prefix-code optimization.

A code is represented by its integer codeword lengths.  Four length
objectives are supported, all measured in bits:

* average redundancy        sum_i p_i (l_i + lg p_i)
* max pointwise redundancy  max_i (l_i + lg p_i)
* d-th exponential redundancy   (1/d) lg sum_i p_i 2^(d (l_i + lg p_i))
* exponential-average cost      log_q sum_i p_i q^l_i

The last two are one exponential family (a, s, q), which ``Objective``
derives once: term a lg p_i + s l_i, value lg sum_i 2^term_i / s, and
Huffman merge q(x + y) on leaves p_i^a; (1 + d, d, 2^d) for the d-th
objective (Parker, SIAM J. Comput. 1980), (1, lg q, q) for exponential
average (Humblet, IEEE Trans. IT 1981).

Exponent sums are evaluated in the base-2 log domain with a max shift so
that extreme parameters (d up to D_MAX = 1e300, q any finite positive
float) stay finite.  Values that come out as zero are +0.0, never -0.0.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, groupby, islice, repeat

__all__ = [
    "CodingError",
    "EmptyInput",
    "NonPositiveProbability",
    "SumNotOne",
    "DimensionMismatch",
    "AlphaOutOfRange",
    "QOutOfRange",
    "DOutOfRange",
    "Pmf",
    "LengthVector",
    "ObjectiveKind",
    "Objective",
    "BoundKind",
    "BoundReport",
    "validate_pmf",
    "benford",
    "lg",
    "lg_sum_exp2",
    "ceil_neg_lg",
    "cmp_ratio",
    "shannon_entropy",
    "binary_entropy",
    "renyi_entropy",
    "alpha_of_q",
    "avg_redundancy",
    "max_pointwise_redundancy",
    "dth_exp_redundancy",
    "exp_average_cost",
    "success_probability",
]

PMF_SUM_TOL = 1e-9
# how far past either endpoint BoundReport.contains still counts a value inside
BOUND_TOL = 1e-9
# the largest d an Objective takes: |lg p_i| <= 1075 and l_i < n, so every
# term (1 + d) lg p_i + d l_i of the d-th exponential objective stays finite
D_MAX = 1e300
# the cut on |s| (d, lg q or alpha - 1) below which dividing a lg-sum by s
# magnifies its rounding too far: Objective.evaluate takes its centred form
# there, which renyi_entropy reads, and the engine leaves the value to it
_SMALL_SCALE = 0.0625


class CodingError(ValueError):
    """Base class for domain errors raised by this package."""


class EmptyInput(CodingError):
    pass


class NonPositiveProbability(CodingError):
    pass


class SumNotOne(CodingError):
    pass


class DimensionMismatch(CodingError):
    pass


class AlphaOutOfRange(CodingError):
    pass


class QOutOfRange(CodingError):
    pass


class DOutOfRange(CodingError):
    pass


_set = object.__setattr__


class _Record:
    """Base of the package's immutable records, every one of them.

    A subclass's fields are its own class annotations, in order, which the
    base reads into ``_fields``; its ``__init__`` sets them with
    straight-line ``object.__setattr__`` calls, then runs its checks.  The
    base gives what the frozen dataclass gave: equality within one class by
    the field tuple (``NotImplemented`` against any other class), the hash
    of that tuple, the repr ``Name(field=value, ...)``, ``__match_args__``,
    and an AttributeError on assigning or deleting an attribute.  Other
    attributes, unannotated, such as a ``cached_property``, take no part in
    any of these; copy and pickle restore ``__dict__`` as it is, without
    calling ``__init__``.

    These are not dataclasses for start-up's sake.  A frozen ``@dataclass``
    generates and compiles its methods as the class is made, ~0.3-0.6 ms a
    class on a 2-vCPU machine, and every run of the command line makes its
    classes afresh; ``dataclasses`` itself, with the ``inspect`` it imports,
    takes ~4 ms more.  With every record on this base no subcommand imports
    either: a cold ``import genhuff.cli`` took 36.9 ms of CPU in place of
    42.4 while ``coder.CodeResult`` was still a dataclass (medians of 25
    runs, no bytecode cache, Python 3.11.7).  ``CodeResult`` still answers
    the dataclass protocol, which it makes on first read.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _spread(ks: Iterable, cs: Iterable[int]) -> Iterable:
    """cs[0] copies of ks[0], then cs[1] of ks[1], and so on."""
    return chain.from_iterable(map(repeat, ks, cs))


def lg(x: float) -> float:
    """Base-2 logarithm."""
    return math.log2(x)


def lg_sum_exp2(exponents: Sequence[float]) -> float:
    """lg(sum_i 2^x_i), max-shifted so huge or tiny exponents stay finite."""
    m = max(exponents)
    if math.isinf(m):
        return m
    return m + math.log2(math.fsum([2.0 ** (x - m) for x in exponents]))


def _lg_add(a: float, b: float) -> float:
    """lg(2^a + 2^b), shifted by the larger so that neither power overflows:
    ``lg_sum_exp2`` on two terms, without the list and the ``fsum`` that make
    that 3-5x slower.  The engine's log-domain merge and the oracle's line
    call it.  The oracle's table, its tail sums included, and its walk form
    this very expression inline, larger term first, which saves a call on
    each of their lg-adds and gives the same floats."""
    if a < b:
        a, b = b, a
    return a + math.log2(1.0 + 2.0 ** (b - a))


def _floor_lg(num: int, den: int) -> int:
    """floor(lg(num/den)) for positive ints, exactly: with k the difference of
    their bit lengths, 2^(k-1) < num/den < 2^(k+1), and one shifted compare
    tells k from k - 1."""
    k = num.bit_length() - den.bit_length()
    return k - ((num << max(0, -k)) < (den << max(0, k)))


def ceil_neg_lg(p: float) -> int:
    """Smallest integer k >= 0 with p * 2^k >= 1, i.e. ceil(-lg p).

    Read off the exponent, not a floating logarithm, so exact powers of two
    are never misclassified: p = m 2^e with m in [1/2, 1), subnormal p
    included, and p 2^k >= 1 first at k = 1 - e, whether m = 1/2 or not.
    """
    if not 0.0 < p <= 1.0:
        raise NonPositiveProbability(f"probability must be in (0, 1], got {p}")
    return 1 - math.frexp(p)[1]


def cmp_ratio(p: float, num: int, den: int) -> int:
    """Sign of p - num/den (-1, 0 or 1), exact where a float product such
    as p * (2^lam - 1) rounds the float nearest 1/(2^lam - 1) across it.
    p = a/b exactly with b > 0, so p - num/den has the sign of a den - num b."""
    a, b = p.as_integer_ratio()
    diff = a * den - num * b
    return (diff > 0) - (diff < 0)


def _check_positive(vals: Sequence[float]) -> float:
    """Return the plain ``sum`` of ``vals`` where every entry is finite and > 0, and
    raise NonPositiveProbability, quoting n and the first bad entry only, otherwise.
    ``min`` and ``max`` skip a NaN past the first entry; the sum, which any NaN
    makes NaN, catches it."""
    total = sum(vals)
    if 0.0 < min(vals) and max(vals) < math.inf and not math.isnan(total):
        return total
    k = next(i for i, v in enumerate(vals) if not (0.0 < v < math.inf))
    raise NonPositiveProbability(f"all probabilities must be finite and > 0: "
                                 f"entry {k + 1} of {len(vals)} is {vals[k]!r}")


def _check_sum(vals: Sequence[float], plain: float) -> None:
    """Raise SumNotOne unless fsum(vals), the exact sum S of ``vals`` rounded once,
    is within PMF_SUM_TOL of 1.

    ``plain`` is ``sum(vals)`` of the positive entries, taken for the NaN
    check, and most pmfs are decided from it alone.  The entries are
    positive, so summed in order, as ``sum`` does up to Python 3.11, it is
    within gamma_(n-1) S of S, with gamma_k = ku/(1 - ku) and u = 2^-53;
    compensated, as from 3.12, within 2u S + O(n u^2) S (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 4).  Both are below
    e = n 2^-52 plain for any n up to 10^13.  So where |plain - 1| <=
    PMF_SUM_TOL - e - 2^-50, |S - 1| is below PMF_SUM_TOL by more than
    2^-50 - 2^-53, which covers the comparison's own roundings; S is near 1,
    where fsum rounds it by at most 2^-53 and fsum(vals) - 1.0 is exact,
    so fsum accepts too.  Every other sum pays for fsum, and its decision
    and message are fsum's.
    """
    if abs(plain - 1.0) <= PMF_SUM_TOL - (len(vals) * 2.0 ** -52 * plain + 2.0 ** -50):
        return
    try:
        total = math.fsum(vals)
    except OverflowError:
        # finite entries summing past the float range
        total = math.inf
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise SumNotOne(f"{len(vals)} probabilities sum to {total!r}, not 1")


class Pmf(_Record):
    """Probability mass function, strictly positive and sorted nonincreasing.

    ``Pmf(probs)`` checks ``probs`` and stores them as given, a sum off 1
    within PMF_SUM_TOL included; ``validate_pmf`` divides such a sum out."""

    probs: tuple[float, ...]

    def __init__(self, probs: tuple[float, ...]):
        _set(self, "probs", probs)
        if not self.probs:
            raise EmptyInput("pmf needs at least one symbol")
        _check_sum(self.probs, _check_positive(self.probs))
        if any(map(operator.lt, self.probs, islice(self.probs, 1, None))):
            k = next(i for i in range(1, self.n) if self.probs[i - 1] < self.probs[i])
            raise CodingError(
                f"probabilities must be sorted nonincreasing: of {self.n}, entry {k} "
                f"({self.probs[k - 1]!r}) < entry {k + 1} ({self.probs[k]!r})")

    @classmethod
    def _checked(cls, probs: tuple[float, ...]) -> "Pmf":
        """A Pmf from ``probs`` that the caller has already found nonempty,
        finite, positive, sorted nonincreasing and summing to 1."""
        p = object.__new__(cls)
        _set(p, "probs", probs)
        return p

    @property
    def n(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __len__(self) -> int:
        return len(self.probs)


def validate_pmf(raw: Sequence[float], assume_sorted: bool = False,
                 normalize: bool = False) -> Pmf:
    """Build a Pmf from raw probabilities.

    Sorts into nonincreasing order unless ``assume_sorted`` (then the order
    is verified instead).  ``normalize=False`` means an off-by-more-than-1e-9
    total raises SumNotOne.  A total within PMF_SUM_TOL of 1 is divided out
    at the door: where S = fsum of the entries is not 1.0, the Pmf holds
    p_i / S, so every value and bound reads one pmf, and a pmf whose fsum is
    1.0 keeps its floats.  With ``normalize=True``, values whose sum passes
    the float range are first divided by the largest, and an entry that
    underflows to 0 on the way raises NonPositiveProbability.  Error
    messages quote n and the first offending entry, never the whole vector.
    ``Pmf(...)`` itself divides nothing: it stores the entries it is given.

    Each check runs once: the list this function has checked and sorted
    itself is not handed to ``Pmf``'s own checks again.  An
    ``assume_sorted`` list goes through them, as a direct ``Pmf(...)`` does.
    Positivity is read off the sorted list: with no NaN, which one sum
    catches, its last entry is the least and its first the largest.  Any
    failure is reported by the check over ``raw`` in its own order, and every
    check reads the entries as given, before the division: ``fsum`` raises
    on inf - inf and past the float range, so it runs only on entries found
    finite, positive and summing to 1 within PMF_SUM_TOL.
    """
    vals = list(map(float, raw))
    if not vals:
        raise EmptyInput("no probabilities given")
    if normalize:
        _check_positive(vals)
        scaled = vals
        try:
            total = math.fsum(vals)
        except OverflowError:
            # finite values summing past the float range: scale by the largest first
            top = max(vals)
            scaled = [v / top for v in vals]
            total = math.fsum(scaled)
        normed = [v / total for v in scaled]
        if 0.0 in normed:
            k = normed.index(0.0)
            raise NonPositiveProbability(
                f"entry {k + 1} of {len(vals)} ({vals[k]!r}) underflows to 0 "
                f"when normalised")
        vals = normed
    if assume_sorted:
        return Pmf._checked(_divided(Pmf(tuple(vals)).probs))
    vals.sort(reverse=True)
    total = sum(vals)
    if not (0.0 < vals[-1] and vals[0] < math.inf and not math.isnan(total)):
        # only a refusal reads ``raw`` again, for the entry's place in it
        _check_positive(list(map(float, raw)))
    _check_sum(vals, total)
    return Pmf._checked(_divided(tuple(vals)))


def _divided(probs: tuple[float, ...]) -> tuple[float, ...]:
    """``probs`` over S = fsum(probs) where S != 1.0, and ``probs`` itself where
    S is 1.0.  Each quotient rounds once, so the order stays nonincreasing and,
    with S within PMF_SUM_TOL of 1, no positive entry becomes 0."""
    total = math.fsum(probs)
    return probs if total == 1.0 else tuple(v / total for v in probs)


def benford() -> Pmf:
    """Leading-digit distribution p_i = log10(i+1) - log10(i), i = 1..9."""
    return Pmf(tuple(math.log10(i + 1) - math.log10(i) for i in range(1, 10)))


class LengthVector(_Record):
    """Integer codeword lengths with an exact binary-fraction Kraft sum.

    Besides ``lengths``, a vector carries them as runs of equal lengths in
    symbol order, ``_runs``: a tuple of the run lengths and a tuple of the
    run counts.  It is not a field, so equality, hashing and repr read
    ``lengths`` alone.  The engine hands in the runs it made, one per tree
    level; any other vector finds them on first use.  The Kraft sum,
    ``canonical_codewords`` and ``Objective.evaluate`` work one run at a
    time, which for an engine code is one step per distinct length.
    """

    lengths: tuple[int, ...]

    def __init__(self, lengths: tuple[int, ...]):
        _set(self, "lengths", lengths)
        if not self.lengths:
            raise EmptyInput("length vector needs at least one entry")
        for l in self.lengths:
            if not isinstance(l, int) or l < 0:
                # any earlier entry that is this very object would have failed first
                k = next(i for i, x in enumerate(self.lengths) if x is l)
                raise CodingError(f"lengths must be nonnegative integers: "
                                  f"entry {k + 1} of {self.n} is {l!r}")

    @classmethod
    def _checked(cls, lengths: tuple[int, ...],
                 runs: tuple[tuple[int, ...], tuple[int, ...]] | None = None) -> "LengthVector":
        """A LengthVector from ``lengths`` that the caller has already found
        nonempty and made of nonnegative ints, with ``lengths`` as ``runs``
        if the caller has them."""
        l = object.__new__(cls)
        _set(l, "lengths", lengths)
        if runs is not None:
            _set(l, "_runs", runs)
        return l

    @cached_property
    def _runs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(ks, cs): ``lengths`` is cs[0] copies of ks[0], then cs[1] of ks[1], and so on,
        with no two neighbouring ks equal."""
        ks: list[int] = []
        cs: list[int] = []
        for k, run in groupby(self.lengths):
            ks.append(k)
            cs.append(sum(1 for _ in run))
        return tuple(ks), tuple(cs)

    @property
    def n(self) -> int:
        return len(self.lengths)

    def _kraft_scaled(self) -> tuple[int, int]:
        """(sum_i 2^(L - l_i), 2^L) with L = max_i l_i: the Kraft sum as a ratio of integers."""
        ks, cs = self._runs
        top = max(ks)
        return sum(c << (top - k) for k, c in zip(ks, cs)), 1 << top

    @property
    def kraft_sum(self) -> fractions.Fraction:
        from fractions import Fraction  # not at start-up: only a caller of kraft_sum needs it
        return Fraction(*self._kraft_scaled())

    @property
    def is_valid(self) -> bool:
        """Kraft inequality: sum_i 2^-l_i <= 1 (exact comparison)."""
        total, whole = self._kraft_scaled()
        return total <= whole

    @property
    def is_complete(self) -> bool:
        """Kraft equality, i.e. the code tree is full."""
        total, whole = self._kraft_scaled()
        return total == whole

    def __iter__(self):
        return iter(self.lengths)

    def __len__(self) -> int:
        return len(self.lengths)


class ObjectiveKind(Enum):
    AVG_REDUNDANCY = "avg"
    MAX_POINTWISE = "mmpr"
    DTH_EXP = "dexp"
    EXP_AVERAGE = "expavg"


class Objective(_Record):
    """A length objective, with its parameter where one is required.

    d = 0 and q = 1 are rejected: those limits are the plain average, and
    callers wanting it must select AVG_REDUNDANCY explicitly.  So are d
    above D_MAX and a q that is not finite, which give no finite value.
    """

    kind: ObjectiveKind
    param: float | None

    def __init__(self, kind: ObjectiveKind, param: float | None = None):
        _set(self, "kind", kind)
        _set(self, "param", param)
        if self.kind is ObjectiveKind.DTH_EXP:
            d = self.param
            if d is None or not (-1.0 < d <= D_MAX and d != 0.0):
                raise DOutOfRange(f"d must lie in (-1,0) or (0,{D_MAX:g}], got {d}")
        elif self.kind is ObjectiveKind.EXP_AVERAGE:
            q = self.param
            if q is None or not (0.0 < q < math.inf and q != 1.0):
                raise QOutOfRange(f"q must be finite and lie in (0,inf) excluding 1, got {q}")
        elif self.param is not None:
            raise CodingError(f"{self.kind.value} objective takes no parameter")

    @staticmethod
    def avg() -> "Objective":
        return Objective(ObjectiveKind.AVG_REDUNDANCY)

    @staticmethod
    def max_pointwise() -> "Objective":
        return Objective(ObjectiveKind.MAX_POINTWISE)

    @staticmethod
    def dth_exp(d: float) -> "Objective":
        return Objective(ObjectiveKind.DTH_EXP, float(d))

    @staticmethod
    def exp_average(q: float) -> "Objective":
        return Objective(ObjectiveKind.EXP_AVERAGE, float(q))

    @cached_property
    def _family(self) -> tuple[float, float, float] | None:
        """(a, s, q) of an exponential objective, q = +inf where 2^d overflows, from
        d = 1024; None for avg and MMPR.  Not a field: equality, hashing and repr
        read ``kind`` and ``param`` alone."""
        if self.kind is ObjectiveKind.EXP_AVERAGE:
            return 1.0, math.log2(self.param), self.param
        if self.kind is ObjectiveKind.DTH_EXP:
            d = self.param
            return 1.0 + d, d, 2.0 ** d if d < 1024.0 else math.inf
        return None

    def evaluate(self, p: Pmf, l: LengthVector) -> float:
        if p.n != l.n:
            raise DimensionMismatch(f"pmf has {p.n} symbols, length vector has {l.n}")
        ks, cs = l._runs
        if self.kind is ObjectiveKind.MAX_POINTWISE:
            # p is nonincreasing and lg monotone, so a run's largest k + lg p_i
            # is at its first symbol; rounding is monotone too, so this max
            # is the float the max over every symbol's term gives
            firsts = map(p.probs.__getitem__, accumulate(cs[:-1], initial=0))
            return max(map(operator.add, ks, map(math.log2, firsts)))
        # s l is taken once per run, and lengths are spread as floats: a float +
        # float add is cheaper than an int + float one, with the same bits
        lgps = map(math.log2, p.probs)
        if self.kind is ObjectiveKind.AVG_REDUNDANCY:
            return math.fsum(map(operator.mul, p.probs,
                                 map(operator.add, _spread(map(float, ks), cs), lgps)))
        a, s, _ = self._family
        if abs(s) < _SMALL_SCALE:
            # the lg-sum over s cancels here.  With w = p/S, S = fsum(p), x = l + lg p
            # (d-th) or l, m = sum w x, c = s ln 2 and T = sum w (x - m) expm1(z)/z at
            # z = c (x - m), (1/s) lg sum w 2^(s x) = m + T log1p(cT)/(cT), cT >= 0.
            # Rounding, with u = 2^-53 and log2, expm1 and log1p within an ulp: let V
            # be the exact value of w = p/S, S and lg p exact, at this s, G >= |lg p|,
            # B >= |x|, R >= max x - min x and Z = |c| R >= |z|.  About any centre m,
            # V = m + ln(1 + cT)/c while the weights sum to 1, so m's rounding costs
            # nothing, and dV/dT = 1/(1 + cT) with 1 + cT = sum w e^z >= 1 - O(u):
            # - x within 2uG + uB, which moves V as much, its x-derivatives being
            #   weights summing to 1;
            # - fsum(p) rounds once, so the weights sum to 1 within u, moving cT by
            #   u cT and V by u |T| / (1 + cT) <= 2uR, by the bound on T below;
            # - each term of T is within u (7 + 2Z) of itself: x - m, c (x - m) and
            #   the two products round once, expm1 and the division by z add 3u, and
            #   expm1(z)/z, whose log has slope in (0, 1), moves by 2u |z|; fsum and
            #   the division by S add 2u |T|.  As expm1(z)/z <= max(1, e^z) and
            #   |x - m| <= R, the error sum w |x - m| expm1(z)/z u (9 + 2Z) is at most
            #   uR (9 + 2Z) (1 + sum w e^z), and over 1 + cT it moves V by at most
            #   2uR (9 + 2Z): the growth e^z of expm1(z)/z cancels against 1 + cT;
            # - log1p(cT)/(cT), the product by T and the rounding of cT add 7uR, as
            #   |V - m| <= R, and the final add u B;
            # - c = fl(s fl(ln 2)) is within 3u|c| of s ln 2, and |d(V - m)/dc| <= R^2/8,
            #   the variance bound, adds 3uZR/8.  A subnormal c, z or product is off
            #   by 2^-1074 at most, which moves V far less than u.
            # So |value - V| <= u (2G + 2B + R (27 + 5Z)), free of 1/|s| (oracle._errors)
            lgps, total, c = list(lgps), math.fsum(p.probs), s * math.log(2.0)
            x = list(map(operator.add, _spread(map(float, ks), cs),
                         lgps if self.kind is ObjectiveKind.DTH_EXP else repeat(0.0)))
            m = math.fsum(map(operator.mul, p.probs, x)) / total
            try:  # past expm1's range or the float range, the lg-sum answers
                t = math.fsum([pi * (xi - m) * (math.expm1(z) / z if (z := c * (xi - m)) else 1.0)
                               for pi, xi in zip(p.probs, x)]) / total
                value = m + t * (math.log1p(c * t) / (c * t) if c * t else 1.0) + 0.0
                if math.isfinite(value):
                    return value
            except OverflowError:
                pass
        ags = lgps if a == 1.0 else map(operator.mul, repeat(a), lgps)
        terms = list(map(operator.add, ags, _spread(map(operator.mul, repeat(s), ks), cs)))
        # + 0.0 turns the -0.0 of 0.0 over a negative s into 0.0, and no other float
        return lg_sum_exp2(terms) / s + 0.0


class BoundKind(Enum):
    ACHIEVABLE = "achievable"
    APPROACHABLE = "approachable"
    EXACT = "exact"


class BoundReport(_Record):
    """Lower/upper bound pair in bits, each endpoint tagged by tightness.

    ``exact`` is set when the two endpoints coincide analytically.  ``note``
    carries a caveat when a bound had to fall back to a weaker form.
    """

    lower: float
    upper: float
    lower_kind: BoundKind
    upper_kind: BoundKind
    exact: float | None
    note: str | None

    def __init__(self, lower: float, upper: float, lower_kind: BoundKind,
                 upper_kind: BoundKind, exact: float | None = None, note: str | None = None):
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "lower_kind", lower_kind)
        _set(self, "upper_kind", upper_kind)
        _set(self, "exact", exact)
        _set(self, "note", note)
        if self.lower > self.upper + 1e-12:
            raise CodingError(f"bound interval is empty: [{self.lower}, {self.upper}]")
        if self.exact is not None and not (self.lower == self.upper == self.exact):
            raise CodingError("exact bound must equal both endpoints")

    def contains(self, value: float) -> bool:
        return self.lower - BOUND_TOL <= value <= self.upper + BOUND_TOL


def shannon_entropy(p: Pmf) -> float:
    """Shannon entropy -sum p_i lg p_i in bits."""
    return -math.fsum(pi * lg(pi) for pi in p) + 0.0


def binary_entropy(x: float) -> float:
    """Entropy of a (x, 1-x) split; 0 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise CodingError(f"binary entropy argument must be in [0,1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * lg(x) - (1.0 - x) * lg(1.0 - x)


def renyi_entropy(p: Pmf, alpha: float) -> float:
    """Renyi entropy (1/(1-alpha)) lg sum p_i^alpha for alpha in (0, 1 + D_MAX], alpha != 1.

    The alpha = 1 limit is Shannon entropy; callers select shannon_entropy
    explicitly rather than relying on a numeric limit here.  Nearer it than
    1/16, H_alpha is minus the (alpha - 1)-th value of the null code.
    """
    if not (0.0 < alpha <= 1.0 + D_MAX and alpha != 1.0):
        raise AlphaOutOfRange(f"alpha must lie in (0,1+{D_MAX:g}] excluding 1, got {alpha}")
    e = 1.0 - alpha
    if abs(e) < _SMALL_SCALE:
        null = LengthVector._checked((0,) * p.n, ((0,), (p.n,)))
        return -Objective(ObjectiveKind.DTH_EXP, -e).evaluate(p, null) + 0.0
    return lg_sum_exp2([alpha * math.log2(pi) for pi in p]) / e + 0.0


def alpha_of_q(q: float) -> float:
    """Entropy order 1/(1 + lg q) matching the exponential-average base q."""
    if not (0.5 < q < math.inf and q != 1.0):
        raise QOutOfRange(f"q must lie in (0.5,inf) excluding 1, got {q}")
    return 1.0 / (1.0 + lg(q))


def avg_redundancy(p: Pmf, l: LengthVector) -> float:
    """Expected codeword length minus entropy: sum p_i (l_i + lg p_i)."""
    return Objective(ObjectiveKind.AVG_REDUNDANCY).evaluate(p, l)


def max_pointwise_redundancy(p: Pmf, l: LengthVector) -> float:
    """Worst-case pointwise redundancy max_i (l_i + lg p_i)."""
    return Objective(ObjectiveKind.MAX_POINTWISE).evaluate(p, l)


def dth_exp_redundancy(p: Pmf, l: LengthVector, d: float) -> float:
    """(1/d) lg sum_i p_i 2^(d (l_i + lg p_i)) for d in (-1,0) or (0,inf).

    Interpolates between average redundancy (d -> 0) and max pointwise
    redundancy (d -> inf).
    """
    return Objective(ObjectiveKind.DTH_EXP, d).evaluate(p, l)


def exp_average_cost(p: Pmf, l: LengthVector, q: float) -> float:
    """log_q sum_i p_i q^l_i for q in (0,inf), q != 1."""
    return Objective(ObjectiveKind.EXP_AVERAGE, q).evaluate(p, l)


def success_probability(p: Pmf, l: LengthVector, q: float) -> float:
    """sum_i p_i q^l_i, the chance a geometric(q) window fits the codeword."""
    if not 0.0 < q < 1.0:
        raise QOutOfRange(f"q must lie in (0,1), got {q}")
    return 2.0 ** (lg(q) * exp_average_cost(p, l, q))
