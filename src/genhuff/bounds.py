"""Closed-form bounds on optimal-code performance, given one symbol probability.

The central piece is the tight three-interval bound table for minimized
max pointwise redundancy, keyed by lambda = ceil(-lg p).  Everything else
layers on it: the d-th exponential redundancy sandwich, the Renyi-entropy
unit bounds for exponential-average cost, the power transform connecting
the two problems, and the sharper cost bounds available when the shortest
codeword is known to be a single bit.

Endpoint tags: ``achievable`` endpoints are attained by some distribution,
``approachable`` ones only in the limit of a family.  Composite bounds
inherit the tag of the bound they were built from.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import (
    BoundKind,
    BoundReport,
    CodingError,
    Pmf,
    QOutOfRange,
    DOutOfRange,
    Objective,
    ObjectiveKind,
    _floor_lg,
    alpha_of_q,
    binary_entropy,
    ceil_neg_lg,
    cmp_ratio,
    lg,
    lg_sum_exp2,
    renyi_entropy,
)

__all__ = [
    "POutOfRange",
    "PreconditionUnmet",
    "L1Region",
    "lambda_j",
    "mmpr_bounds",
    "mmpr_length_bounds",
    "avg_redundancy_lower",
    "avg_redundancy_upper_gallager",
    "dth_bounds",
    "symbol_bounds",
    "exp_avg_unit_bounds",
    "hat_transform",
    "exp_avg_bounds",
    "exp_avg_bounds_l1",
    "l1_region",
]

GALLAGER_SMALL_P1_CONSTANT = 0.086


class POutOfRange(CodingError):
    pass


class PreconditionUnmet(CodingError):
    pass


class L1Region(Enum):
    """Whether a 1-bit shortest codeword is guaranteed for (q, p_1)."""

    ALWAYS_UNARY = "always_unary"
    GUARANTEED_L1 = "guaranteed_l1"
    NOT_GUARANTEED = "not_guaranteed"


def lambda_j(p_j: float) -> int:
    """ceil(-lg p_j), the Shannon length of a probability-p_j symbol."""
    return ceil_neg_lg(p_j)


def mmpr_bounds(p_j: float) -> BoundReport:
    """Tight bounds on minimized max pointwise redundancy given one p_j.

    The bounds are the same for a general symbol and for the most probable
    one.  With lam = ceil(-lg p_j):

    * p_j = 1: the alphabet is a single symbol, redundancy exactly 0
    * p_j >= 2/3: exactly 1 + lg p_j
    * p_j in [1/2, 2/3): [1 + lg p_j, 2 + lg(1-p_j))
    * p_j in [2^-lam, 1/(2^lam - 1)):
        [lam + lg p_j, 1 + lg((1-p_j)/(1-2^-lam)))
    * p_j in [1/(2^lam - 1), 2/(2^lam + 1)):
        [lg((1-p_j)/(1-2^(1-lam))), 1 + lg((1-p_j)/(1-2^-lam)))
    * p_j in [2/(2^lam + 1), 2^(1-lam)):
        [lg((1-p_j)/(1-2^(1-lam))), lam + lg p_j]   (both ends attained)

    Half-open rows have an approachable upper endpoint; all lower
    endpoints and the last row's upper endpoint are achievable.  Rows
    are chosen by exact comparison with their rational ends.
    """
    if not 0.0 < p_j <= 1.0:
        raise POutOfRange(f"probability must be in (0, 1], got {p_j}")
    if p_j == 1.0:
        return BoundReport(0.0, 0.0, BoundKind.EXACT, BoundKind.EXACT, exact=0.0)
    if cmp_ratio(p_j, 2, 3) >= 0:
        v = 1.0 + lg(p_j)
        return BoundReport(v, v, BoundKind.EXACT, BoundKind.EXACT, exact=v)
    if p_j >= 0.5:
        return BoundReport(1.0 + lg(p_j), 2.0 + lg(1.0 - p_j),
                           BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
    lam = ceil_neg_lg(p_j)
    upper_open = 1.0 + lg((1.0 - p_j) / (1.0 - 2.0 ** -lam))
    lower_late = lg((1.0 - p_j) / (1.0 - 2.0 ** (1 - lam)))
    if cmp_ratio(p_j, 1, 2 ** lam - 1) < 0:
        return BoundReport(lam + lg(p_j), upper_open,
                           BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
    if cmp_ratio(p_j, 2, 2 ** lam + 1) < 0:
        return BoundReport(lower_late, upper_open,
                           BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
    return BoundReport(lower_late, lam + lg(p_j),
                       BoundKind.ACHIEVABLE, BoundKind.ACHIEVABLE)


def mmpr_length_bounds(p_j: float) -> tuple[int, int]:
    """(nu_upper, nu_lower) for the optimal length of a probability-p_j symbol.

    nu_upper is the smallest nu with p_j >= 2^-nu: every optimal code has
    l_j <= nu_upper.  nu_lower is the largest nu with p_j <= 1/(2^nu - 1):
    at least one optimal code has l_j >= nu_lower.
    """
    if not 0.0 < p_j < 1.0:
        raise POutOfRange(f"probability must be in (0, 1), got {p_j}")
    # p_j = a/b exactly, and p_j <= 1/(2^nu - 1) is 2^nu <= (a + b)/a, so
    # nu_lower = floor(lg((a + b)/a)), at least 1 as p_j < 1
    a, b = p_j.as_integer_ratio()
    return ceil_neg_lg(p_j), _floor_lg(a + b, a)


def avg_redundancy_lower(p_j: float) -> float:
    """Lower bound on optimal average redundancy given any symbol of mass p_j.

    xi - (1-p_j) lg(2^xi - 1) - H(p_j), where xi rounds
    lg((1 - 2^(1/(p_j-1))) / (1 - 2^(p_j/(p_j-1)))) up to an integer and
    H is the binary entropy.  Vanishes exactly when p_j is a power of two.

    That form cancels terms of size xi to a result of size ~p_j, far below
    their rounding error for small p_j, and 2^xi overflows past 1023.  So
    the value is taken as p_j lg(p_j 2^xi) + (1-p_j) lg(1 + (2^-xi - p_j)/(1
    - 2^-xi)), equal to it but made of terms of order p_j.  The denominator
    comes from expm1 and the ratio from a difference of logs, which stays
    finite for subnormal p_j.  Scaling by 2^xi is exact, and p_j 2^xi lies
    in [1/2, 2], so 2^-xi - p_j is exact too.
    """
    if not 0.0 < p_j < 1.0:
        raise POutOfRange(f"probability must be in (0, 1), got {p_j}")
    if p_j == 2.0 ** -ceil_neg_lg(p_j):
        return 0.0
    ln2 = math.log(2.0)
    num = 1.0 - 2.0 ** (1.0 / (p_j - 1.0))
    # the ratio exceeds 1 analytically, so xi >= 1; the guard only absorbs
    # rounding for p_j extremely close to 1
    xi = max(1, math.ceil(lg(num) - lg(-math.expm1(ln2 * p_j / (p_j - 1.0)))))
    t = 2.0 ** -xi
    val = p_j * lg(math.ldexp(p_j, xi)) + (1.0 - p_j) * math.log1p((t - p_j) / (1.0 - t)) / ln2
    return max(0.0, val)


def avg_redundancy_upper_gallager(p_1: float) -> float:
    """Upper bound on optimal average redundancy given the top probability.

    2 - H(p_1) - p_1 for p_1 >= 1/2, else p_1 + 0.086.
    """
    if not 0.0 < p_1 < 1.0:
        raise POutOfRange(f"probability must be in (0, 1), got {p_1}")
    if p_1 >= 0.5:
        return 2.0 - binary_entropy(p_1) - p_1
    return p_1 + GALLAGER_SMALL_P1_CONSTANT


def dth_bounds(p_j: float, d: float, is_p1: bool = False) -> BoundReport:
    """Sandwich for optimal d-th exponential redundancy given one p_j.

    For d > 0 the average-redundancy lower bound and the max-pointwise
    upper bound apply.  For d in (-1, 0) the value is at least 0 and any
    average-redundancy upper bound works; with ``is_p1`` the upper end is
    the smaller of the max-pointwise bound and the Gallager bound.
    """
    if not (-1.0 < d and d != 0.0):
        raise DOutOfRange(f"d must lie in (-1,0) or (0,inf), got {d}")
    m = mmpr_bounds(p_j)
    m_upper_kind = BoundKind.ACHIEVABLE if m.exact is not None else m.upper_kind
    if d > 0.0:
        return BoundReport(avg_redundancy_lower(p_j), m.upper,
                           BoundKind.ACHIEVABLE, m_upper_kind)
    upper, upper_kind = m.upper, m_upper_kind
    if is_p1:
        g = avg_redundancy_upper_gallager(p_j)
        if g < upper:
            upper, upper_kind = g, BoundKind.APPROACHABLE
    return BoundReport(0.0, upper, BoundKind.ACHIEVABLE, upper_kind)


def symbol_bounds(obj: Objective, p_j: float, j: int) -> BoundReport:
    """Bounds on the optimum under ``obj`` from p_j, the probability of symbol j.

    MMPR reads ``mmpr_bounds`` and d-th exponential redundancy ``dth_bounds``.
    Average redundancy has its lower bound and, at j = 1, the Gallager upper
    bound, else the unit one, noted.  Exponential-average cost is refused with
    a ``CodingError``: its bounds read the whole pmf (``exp_avg_bounds``).
    """
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return mmpr_bounds(p_j)
    if obj.kind is ObjectiveKind.DTH_EXP:
        return dth_bounds(p_j, obj.param, is_p1=(j == 1))
    if obj.kind is ObjectiveKind.EXP_AVERAGE:
        raise CodingError("exponential-average bounds need the pmf: use exp_avg_bounds")
    lo = avg_redundancy_lower(p_j)
    if j == 1:
        return BoundReport(lo, avg_redundancy_upper_gallager(p_j),
                           BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
    return BoundReport(lo, 1.0, BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE,
                       note="unit upper bound: top-probability form needs j=1")


def exp_avg_unit_bounds(p: Pmf, q: float) -> BoundReport:
    """Entropy bounds [H_a, H_a + 1) on optimal exponential-average cost, with
    a = alpha(q) and H_a from ``renyi_entropy``."""
    h = renyi_entropy(p, alpha_of_q(q))
    return BoundReport(h, h + 1.0, BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)


def _hat_probs(p: Pmf, alpha: float) -> list[float]:
    """p_i^alpha / sum_k p_k^alpha, nonincreasing; 0.0 where the power underflows."""
    scaled = [alpha * lg(pi) for pi in p]
    lg_norm = lg_sum_exp2(scaled)
    vals = [2.0 ** (x - lg_norm) for x in scaled]
    total = math.fsum(vals)
    # stable re-sort only irons out 1-ulp inversions; powers preserve order
    return sorted((v / total for v in vals), reverse=True)


def hat_transform(p: Pmf, q: float) -> Pmf:
    """Normalized alpha-power distribution p_i^alpha / sum_k p_k^alpha.

    Reduces exponential-average minimization at base q to (lg q)-th
    exponential redundancy: for every length vector, the redundancy of the
    transformed distribution equals the cost on the original minus its
    Renyi entropy.  ``PreconditionUnmet`` where a transformed entry
    underflows to 0.0, as every p_i below p_1 does near q = 1/2.
    """
    probs = _hat_probs(p, alpha_of_q(q))
    if probs[-1] == 0.0:
        raise PreconditionUnmet(f"the transformed p_{probs.index(0.0) + 1} of {p.n} rounds "
                                f"to 0.0; the transform needs every entry > 0")
    return Pmf(tuple(probs))


def exp_avg_bounds(p: Pmf, q: float, j: int = 1) -> BoundReport:
    """Entropy-plus-redundancy bounds on optimal exponential-average cost.

    H_a from ``renyi_entropy`` plus a bound on the transformed probability
    of symbol j (1-based), read from the alpha-power list without building
    the ``hat_transform`` Pmf, so an entry that underflows to 0.0 refuses
    only the j that reads it.  For q > 1 the max-pointwise upper and
    average-redundancy lower bounds apply; for q in (0.5, 1) the Gallager
    upper bound applies when j = 1, otherwise only the unit-sized upper
    bound is available (noted in the report).
    """
    alpha = alpha_of_q(q)
    if not 1 <= j <= p.n:
        raise CodingError(f"j must be in 1..{p.n}, got {j}")
    h = renyi_entropy(p, alpha)
    p_hat = _hat_probs(p, alpha)[j - 1]
    if not 0.0 < p_hat < 1.0:
        # p_j^alpha underflowed, or the others' powers vanish next to it
        raise PreconditionUnmet(f"the transformed p_{j} rounds to {p_hat!r}; "
                                f"the bounds need it in (0, 1)")
    if q > 1.0:
        lo = h + avg_redundancy_lower(p_hat)
        hi = h + mmpr_bounds(p_hat).upper
        return BoundReport(lo, hi, BoundKind.ACHIEVABLE, BoundKind.ACHIEVABLE)
    if j == 1:
        hi = h + avg_redundancy_upper_gallager(p_hat)
        return BoundReport(h, hi, BoundKind.ACHIEVABLE, BoundKind.ACHIEVABLE)
    return BoundReport(h, h + 1.0, BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE,
                       note="unit upper bound: no per-symbol form for q < 1, j != 1")


def exp_avg_bounds_l1(p: Pmf, q: float) -> BoundReport:
    """Cost bounds for q in (0.5, 1) in the guaranteed one-bit-l_1 regime.

    Requires p_1 >= 2q/(2q+3).  With a = alpha(q) and B the a-norm of the
    tail, B = (sum_{i>=2} p_i^a)^(1/a), summed as a lg-sum:

        1 + log_q(B + p_1)  <=  cost  <  1 + log_q(q B + p_1)

    The lower end is attained; the upper is approached but never reached.
    Success probability bounds follow as q to the power of each endpoint.
    """
    if not 0.5 < q < 1.0:
        raise PreconditionUnmet(f"q must lie in (0.5, 1), got {q}")
    if p.n < 2:
        raise PreconditionUnmet("needs at least two symbols")
    p1 = p.probs[0]
    if not _meets_l1_threshold(q, p1):
        raise PreconditionUnmet(f"p_1={p1} below the one-bit-l_1 threshold "
                                f"2q/(2q+3)={2.0 * q / (2.0 * q + 3.0)}")
    alpha = alpha_of_q(q)
    base = 2.0 ** (lg_sum_exp2([alpha * lg(pi) for pi in p.probs[1:]]) / alpha)
    lo = 1.0 + math.log(base + p1, q)
    hi = 1.0 + math.log(q * base + p1, q)
    return BoundReport(lo, hi, BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)


def _meets_l1_threshold(q: float, p_1: float) -> bool:
    """p_1 >= 2q/(2q+3), exactly: with q = a/b the threshold is 2a/(2a + 3b),
    which the float quotient rounds across."""
    a, b = q.as_integer_ratio()
    return cmp_ratio(p_1, 2 * a, 2 * a + 3 * b) >= 0


def l1_region(q: float, p_1: float) -> L1Region:
    """Classify (q, p_1) by whether some optimal code has l_1 <= 1.

    q <= 0.5 is always solved by the unary code; for q in (0.5, 1] the
    guarantee holds iff p_1 >= 2q/(2q+3); for q > 1 no p_1 < 1 suffices.
    """
    if not 0.0 < q < math.inf:
        raise QOutOfRange(f"q must be finite and positive, got {q}")
    if not 0.0 < p_1 <= 1.0:
        raise POutOfRange(f"probability must be in (0, 1], got {p_1}")
    if q <= 0.5:
        return L1Region.ALWAYS_UNARY
    if q <= 1.0:
        if _meets_l1_threshold(q, p_1):
            return L1Region.GUARANTEED_L1
        return L1Region.NOT_GUARANTEED
    return L1Region.GUARANTEED_L1 if p_1 == 1.0 else L1Region.NOT_GUARANTEED
