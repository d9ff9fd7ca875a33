"""Domain types and objective evaluators for binary prefix-code optimization.

A code is represented by its integer codeword lengths.  Four length
objectives are supported, all measured in bits:

* average redundancy        sum_i p_i (l_i + lg p_i)
* max pointwise redundancy  max_i (l_i + lg p_i)
* d-th exponential redundancy   (1/d) lg sum_i p_i 2^(d (l_i + lg p_i))
* exponential-average cost      log_q sum_i p_i q^l_i

Exponent sums are evaluated in the base-2 log domain with a max shift so
that extreme parameters (d up to 1e4, lengths up to 64) stay finite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

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


def lg(x: float) -> float:
    """Base-2 logarithm."""
    return math.log2(x)


def lg_sum_exp2(exponents: Iterable[float]) -> float:
    """lg(sum_i 2^x_i), max-shifted so huge or tiny exponents stay finite."""
    xs = list(exponents)
    m = max(xs)
    if math.isinf(m):
        return m
    return m + math.log2(math.fsum(2.0 ** (x - m) for x in xs))


def ceil_neg_lg(p: float) -> int:
    """Smallest integer k >= 0 with p * 2^k >= 1, i.e. ceil(-lg p).

    Uses exact repeated doubling instead of a floating logarithm, so exact
    powers of two are never misclassified (doubling a float only changes
    its exponent).
    """
    if not 0.0 < p <= 1.0:
        raise NonPositiveProbability(f"probability must be in (0, 1], got {p}")
    k = 0
    v = p
    while v < 1.0:
        v *= 2.0
        k += 1
    return k


@dataclass(frozen=True)
class Pmf:
    """Probability mass function, strictly positive and sorted nonincreasing."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if not self.probs:
            raise EmptyInput("pmf needs at least one symbol")
        if any(not (0.0 < p < math.inf) for p in self.probs):
            raise NonPositiveProbability(
                f"all probabilities must be finite and > 0: {self.probs}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise SumNotOne(f"probabilities sum to {total!r}, not 1")
        if any(a < b for a, b in zip(self.probs, self.probs[1:])):
            raise CodingError("probabilities must be sorted nonincreasing")

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
    total raises SumNotOne; renormalization never happens silently.
    """
    vals = [float(x) for x in raw]
    if not vals:
        raise EmptyInput("no probabilities given")
    if any(not (0.0 < v < math.inf) for v in vals):
        raise NonPositiveProbability(f"all probabilities must be finite and > 0: {vals}")
    if normalize:
        total = math.fsum(vals)
        vals = [v / total for v in vals]
    if not assume_sorted:
        vals = sorted(vals, reverse=True)
    return Pmf(tuple(vals))


def benford() -> Pmf:
    """Leading-digit distribution p_i = log10(i+1) - log10(i), i = 1..9."""
    return Pmf(tuple(math.log10(i + 1) - math.log10(i) for i in range(1, 10)))


@dataclass(frozen=True)
class LengthVector:
    """Integer codeword lengths with an exact binary-fraction Kraft sum."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths:
            raise EmptyInput("length vector needs at least one entry")
        for l in self.lengths:
            if not isinstance(l, int) or l < 0:
                raise CodingError(f"lengths must be nonnegative integers: {self.lengths}")

    @property
    def n(self) -> int:
        return len(self.lengths)

    def _kraft_scaled(self) -> tuple[int, int]:
        """(sum_i 2^(L - l_i), 2^L) with L = max_i l_i: the Kraft sum as a ratio of integers."""
        top = max(self.lengths)
        return sum(c << (top - l) for l, c in Counter(self.lengths).items()), 1 << top

    @property
    def kraft_sum(self) -> Fraction:
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


@dataclass(frozen=True)
class Objective:
    """A length objective, with its parameter where one is required.

    d = 0 and q = 1 are rejected: those limits are the plain average, and
    callers wanting it must select AVG_REDUNDANCY explicitly.
    """

    kind: ObjectiveKind
    param: float | None = None

    def __post_init__(self):
        if self.kind is ObjectiveKind.DTH_EXP:
            d = self.param
            if d is None or not (-1.0 < d and d != 0.0):
                raise DOutOfRange(f"d must lie in (-1,0) or (0,inf), got {d}")
        elif self.kind is ObjectiveKind.EXP_AVERAGE:
            q = self.param
            if q is None or not (q > 0.0 and q != 1.0):
                raise QOutOfRange(f"q must lie in (0,inf) excluding 1, got {q}")
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

    def evaluate(self, p: Pmf, l: LengthVector) -> float:
        if self.kind is ObjectiveKind.AVG_REDUNDANCY:
            return avg_redundancy(p, l)
        if self.kind is ObjectiveKind.MAX_POINTWISE:
            return max_pointwise_redundancy(p, l)
        if self.kind is ObjectiveKind.DTH_EXP:
            return dth_exp_redundancy(p, l, self.param)
        return exp_average_cost(p, l, self.param)


class BoundKind(Enum):
    ACHIEVABLE = "achievable"
    APPROACHABLE = "approachable"
    EXACT = "exact"


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper bound pair in bits, each endpoint tagged by tightness.

    ``exact`` is set when the two endpoints coincide analytically.  ``note``
    carries a caveat when a bound had to fall back to a weaker form.
    """

    lower: float
    upper: float
    lower_kind: BoundKind
    upper_kind: BoundKind
    exact: float | None = None
    note: str | None = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise CodingError(f"bound interval is empty: [{self.lower}, {self.upper}]")
        if self.exact is not None and not (self.lower == self.upper == self.exact):
            raise CodingError("exact bound must equal both endpoints")

    def contains(self, value: float, tol: float = 1e-9) -> bool:
        return self.lower - tol <= value <= self.upper + tol


def _check_dims(p: Pmf, l: LengthVector) -> None:
    if p.n != l.n:
        raise DimensionMismatch(f"pmf has {p.n} symbols, length vector has {l.n}")


def shannon_entropy(p: Pmf) -> float:
    """Shannon entropy -sum p_i lg p_i in bits."""
    return -math.fsum(pi * lg(pi) for pi in p)


def binary_entropy(x: float) -> float:
    """Entropy of a (x, 1-x) split; 0 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise CodingError(f"binary entropy argument must be in [0,1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * lg(x) - (1.0 - x) * lg(1.0 - x)


def renyi_entropy(p: Pmf, alpha: float) -> float:
    """Renyi entropy (1/(1-alpha)) lg sum p_i^alpha for alpha > 0, alpha != 1.

    The alpha = 1 limit is Shannon entropy; callers select shannon_entropy
    explicitly rather than relying on a numeric limit here.
    """
    if not (alpha > 0.0 and alpha != 1.0):
        raise AlphaOutOfRange(f"alpha must be positive and not 1, got {alpha}")
    return lg_sum_exp2(alpha * lg(pi) for pi in p) / (1.0 - alpha)


def alpha_of_q(q: float) -> float:
    """Entropy order 1/(1 + lg q) matching the exponential-average base q."""
    if not (q > 0.5 and q != 1.0):
        raise QOutOfRange(f"q must lie in (0.5,inf) excluding 1, got {q}")
    return 1.0 / (1.0 + lg(q))


def avg_redundancy(p: Pmf, l: LengthVector) -> float:
    """Expected codeword length minus entropy: sum p_i (l_i + lg p_i)."""
    _check_dims(p, l)
    return math.fsum(pi * (li + lg(pi)) for pi, li in zip(p, l))


def max_pointwise_redundancy(p: Pmf, l: LengthVector) -> float:
    """Worst-case pointwise redundancy max_i (l_i + lg p_i)."""
    _check_dims(p, l)
    return max(li + lg(pi) for pi, li in zip(p, l))


def dth_exp_redundancy(p: Pmf, l: LengthVector, d: float) -> float:
    """(1/d) lg sum_i p_i 2^(d (l_i + lg p_i)) for d in (-1,0) or (0,inf).

    Interpolates between average redundancy (d -> 0) and max pointwise
    redundancy (d -> inf).
    """
    _check_dims(p, l)
    if not (-1.0 < d and d != 0.0):
        raise DOutOfRange(f"d must lie in (-1,0) or (0,inf), got {d}")
    return lg_sum_exp2((1.0 + d) * lg(pi) + d * li for pi, li in zip(p, l)) / d


def exp_average_cost(p: Pmf, l: LengthVector, q: float) -> float:
    """log_q sum_i p_i q^l_i for q in (0,inf), q != 1."""
    _check_dims(p, l)
    if not (q > 0.0 and q != 1.0):
        raise QOutOfRange(f"q must lie in (0,inf) excluding 1, got {q}")
    lgq = lg(q)
    return lg_sum_exp2(lg(pi) + li * lgq for pi, li in zip(p, l)) / lgq


def success_probability(p: Pmf, l: LengthVector, q: float) -> float:
    """sum_i p_i q^l_i, the chance a geometric(q) window fits the codeword."""
    if not 0.0 < q < 1.0:
        raise QOutOfRange(f"q must lie in (0,1), got {q}")
    return 2.0 ** (lg(q) * exp_average_cost(p, l, q))
