"""Extremal distributions demonstrating bound tightness and length sharpness.

Each family is the explicit construction used to show that a bound endpoint
is attained (or approached as eps shrinks) or that a codeword-length
guarantee cannot be improved.  Generators refuse parameters outside the
range where the construction is a valid distribution with the claimed
property, rather than emit something misleading, and parameters that
would make a uniform block of more than 2^MAX_SYMBOLS_LG symbols.
``FAMILIES`` states once which parameters each family reads and how many
symbols each 2^lam family has.

Where a construction leaves eps free, the default is min(1e-4, half the
admissible interval); pass eps explicitly for limit studies.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .core import CodingError, Pmf, _Record, _floor_lg, _set, ceil_neg_lg, cmp_ratio

__all__ = ["ParamsOutOfProofRange", "FamilyKind", "WitnessFamily", "generate",
           "one_bit_l1_cost_bound"]

DEFAULT_EPS = 1e-4
MAX_SYMBOLS_LG = 16  # refuse a family whose uniform block would pass 2^16 symbols


class ParamsOutOfProofRange(CodingError):
    pass


class FamilyKind(Enum):
    MMPR_UPPER_HIGH = "mmpr-upper-high"
    MMPR_UPPER_MID = "mmpr-upper-mid"
    MMPR_UPPER_LOW = "mmpr-upper-low"
    MMPR_LOWER_A = "mmpr-lower-a"
    MMPR_LOWER_B = "mmpr-lower-b"
    LEN_UPPER_TIGHT = "len-upper-tight"
    LEN_LOWER_TIGHT = "len-lower-tight"
    L1_BOUNDARY_Q_LE_1 = "l1-boundary"
    L1_COUNTEREXAMPLE_Q_GT_1 = "l1-counter"
    L1_ALWAYS_ONE_Q_LT_1 = "l1-always-one"


class WitnessFamily(_Record):
    """A family selector plus the construction parameters it uses."""

    kind: FamilyKind
    p1: float | None
    eps: float | None
    q: float | None

    def __init__(self, kind: FamilyKind, p1: float | None = None, eps: float | None = None,
                 q: float | None = None):
        _set(self, "kind", kind)
        _set(self, "p1", p1)
        _set(self, "eps", eps)
        _set(self, "q", q)


# Each family's row: the WitnessFamily fields generate reads and, for a
# family of n = 2^lam + offset symbols, lam = ceil(-lg p_1), that offset
# (None for the rest).  verify refuses a flag for any other field, and a
# 2^lam witness past the oracle's cap before it is built.
FAMILIES = {
    FamilyKind.MMPR_UPPER_HIGH: (("p1", "eps"), None),
    FamilyKind.MMPR_UPPER_MID: (("p1", "eps"), 0),
    FamilyKind.MMPR_UPPER_LOW: (("p1", "eps"), 1),
    FamilyKind.MMPR_LOWER_A: (("p1",), -1),
    FamilyKind.MMPR_LOWER_B: (("p1",), 0),
    FamilyKind.LEN_UPPER_TIGHT: (("p1",), 0),
    FamilyKind.LEN_LOWER_TIGHT: (("p1",), -1),
    FamilyKind.L1_BOUNDARY_Q_LE_1: (("q", "eps"), None),
    FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1: (("q", "p1"), None),
    FamilyKind.L1_ALWAYS_ONE_Q_LT_1: (("q", "p1"), None),
}


def _default_eps(width: float) -> float:
    return min(DEFAULT_EPS, width / 2.0)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamsOutOfProofRange(msg)


def _block_lg(e: int, what: str) -> int:
    """Refuse a uniform block of about 2^e symbols past 2^MAX_SYMBOLS_LG, before it is built."""
    _need(e <= MAX_SYMBOLS_LG,
          f"{what}: a block of 2^{e} symbols passes the cap of 2^{MAX_SYMBOLS_LG}")
    return e


def _l1_counter_levels(q: float | None, p1: float | None) -> int:
    """m = floor(log_q(4 p_1 / (1-p_1))) of the q > 1 counterexample, for (q, p_1) in its range."""
    _need(q is not None and q > 1.0, f"needs q > 1, got {q}")
    _need(p1 is not None and 0.2 < p1 < 1.0, f"needs p_1 in (0.2, 1), got {p1}")
    return math.floor(math.log(4.0 * p1 / (1.0 - p1), q))


def _lam(p1: float) -> int:
    """lam = ceil(-lg p_1), exactly, for a family with a block of about 2^lam symbols."""
    return _block_lg(ceil_neg_lg(p1), f"p_1={p1}")


def _power_family(k: FamilyKind, p1: float | None, eps: float | None, offset: int) -> Pmf:
    """(p_1, mid x m, last) on n = 2^lam + offset symbols, lam = ceil(-lg p_1).

    The mmpr-upper families end in the free mass eps, and mmpr-lower-b and
    len-upper-tight in 2^(1-lam) - p_1 after m masses of 2^-lam; mmpr-lower-a
    and len-lower-tight have no last mass.  Where mid is not 2^-lam, it
    spreads what p_1 and the last mass leave evenly."""
    top = 1.0 if k is FamilyKind.MMPR_LOWER_B else 0.5
    _need(p1 is not None and 0.0 < p1 < top, f"needs p_1 in (0, {top:g}), got {p1}")
    lam = _lam(p1)
    mid, last = None, ()
    if k is FamilyKind.MMPR_UPPER_MID:
        # complete fixed-depth tree attaining lam + lg p_1 on [2/(2^lam+1), 2^(1-lam))
        _need(cmp_ratio(p1, 2, 2 ** lam + 1) >= 0,
              f"p_1={p1} below 2/(2^{lam}+1), outside the attainment range")
        width = 1.0 - p1 * 2.0 ** (lam - 1)
        e = _default_eps(width) if eps is None else eps
        _need(0.0 < e < width, f"needs eps in (0, {width}), got {e}")
        last = (e,)
    elif k is FamilyKind.MMPR_UPPER_LOW:
        # approaches 1 + lg((1-p_1)/(1-2^-lam)) as eps -> 0 on [2^-lam, 2/(2^lam+1)).
        # The gap: with mid = (1-p_1-eps)/(2^lam - 1), eps < mid < p_1.  If
        # every mid is at depth <= lam they fill 1 - 2^-lam of the Kraft sum,
        # so p_1 is at depth >= lam + 1; else a mid is.  So the optimum is
        # at least lam + 1 + lg mid, and p_1 and 2^lam - 2 mids at lam, the
        # last mid and eps at lam + 1 attain it, since lam + lg p_1 is less
        # (p_1 < 2 mid is eps < 1 - p_1 (2^lam+1)/2, a bound on eps below).
        # That is below the bound by lg((1-p_1)/(1-p_1-eps))
        _need(cmp_ratio(p1, 2, 2 ** lam + 1) < 0,
              f"p_1={p1} at or above 2/(2^{lam}+1), outside the approach range")
        # in Fractions: in floats 1 - p_1 (2^lam+1)/2 is 0.0 at p_1 = float(2/9)
        width = min((1 - Fraction(p1)) / 2 ** lam, 1 - Fraction(p1) * (2 ** lam + 1) / 2)
        e = float(_default_eps(width)) if eps is None else eps
        _need(0.0 < e < width, f"needs eps in (0, {float(width)}), got {e}")
        last = (e,)
    elif k is FamilyKind.MMPR_LOWER_A:
        # complete tree with the first codeword one bit shorter; attains
        # lg((1-p_1)/(1-2^(1-lam))) for p_1 in [1/(2^lam - 1), 2^(1-lam))
        _need(cmp_ratio(p1, 1, 2 ** lam - 1) >= 0,
              f"p_1={p1} below 1/(2^{lam}-1), outside the attainment range")
    elif k is FamilyKind.LEN_LOWER_TIGHT:
        # mmpr-lower-a's tree on the open (1/(2^lam - 1), 2^(1-lam)): optimal
        # l_1 = lam - 1, unachievable with any longer first codeword
        _need(cmp_ratio(p1, 1, 2 ** lam - 1) > 0,
              f"p_1={p1} at or below 1/(2^{lam}-1), outside the sharpness range")
    else:
        # mmpr-lower-b: a fixed-length optimal tree attaining lam + lg p_1 for
        # p_1 in [2^-lam, 1/(2^lam - 1)); len-upper-tight: the same for
        # nu = lam - 1 on all of [2^-lam, 2^(1-lam)), where every optimal code
        # is forced to l_1 = nu + 1 > nu.  2^(1-lam) - p_1 is exact (Sterbenz)
        # and at most 2^-lam, so the pmf is sorted as built
        _need(k is FamilyKind.LEN_UPPER_TIGHT or cmp_ratio(p1, 1, 2 ** lam - 1) < 0,
              f"p_1={p1} at or above 1/(2^{lam}-1), outside the attainment range")
        mid, last = 2.0 ** -lam, (2.0 ** (1 - lam) - p1,)
    m = 2 ** lam + offset - 1 - len(last)
    if mid is None:
        mid = (1.0 - p1 - sum(last)) / m
    return Pmf((p1,) + (mid,) * m + last)


def generate(family: WitnessFamily) -> Pmf:
    """Materialize the family's distribution, validating the proof range.

    Only the fields ``FAMILIES`` lists for the family are read."""
    k = family.kind
    if not isinstance(k, FamilyKind):
        raise CodingError(f"unknown witness family {k!r}")
    fields, offset = FAMILIES[k]
    p1, eps, q = (getattr(family, f) if f in fields else None for f in ("p1", "eps", "q"))
    if offset is not None:
        return _power_family(k, p1, eps, offset)

    if k is FamilyKind.MMPR_UPPER_HIGH:
        # (p_1, 1-p_1-eps, eps): attains 1 + lg p_1 for p_1 in [2/3, 1),
        # approaches 2 + lg(1-p_1) as eps -> 0 for p_1 in [1/2, 2/3).
        # The gap: (1, 2, 2) is the one complete monotone code on 3 symbols,
        # and eps <= 1-p_1-eps, so the optimum is
        # max(1 + lg p_1, 2 + lg(1-p_1-eps)).  That is below 2 + lg(1-p_1) by
        # lg((1-p_1)/(1-p_1-eps)) while eps <= 1 - 3 p_1/2, and by
        # lg(2 (1-p_1)/p_1) for a larger eps
        _need(p1 is not None and 0.5 <= p1 < 1.0, f"needs p_1 in [0.5, 1), got {p1}")
        width = (1.0 - p1) / 2.0
        e = _default_eps(width) if eps is None else eps
        _need(0.0 < e <= width, f"needs eps in (0, {width}], got {e}")
        return Pmf((p1, 1.0 - p1 - e, e))

    if k is FamilyKind.L1_BOUNDARY_Q_LE_1:
        # (2q/(2q+3) - 3eps, (1/(2q+3) + eps) x 3): just below the one-bit
        # threshold, uniquely optimized by four 2-bit codewords
        _need(q is not None and 0.5 < q <= 1.0, f"needs q in (0.5, 1], got {q}")
        width = (2.0 * q - 1.0) / (8.0 * q + 12.0)
        e = _default_eps(width) if eps is None else eps
        _need(0.0 < e < width, f"needs eps in (0, {width}), got {e}")
        rest = 1.0 / (2.0 * q + 3.0) + e
        probs = (2.0 * q / (2.0 * q + 3.0) - 3.0 * e,) + (rest,) * 3
        # the floats built, not the reals they round, must put (2, 2, 2, 2)
        # strictly ahead of (1, 2, 3, 3), the only other complete monotone
        # code, in exact arithmetic: in average cost that is p_1 < 2r; under
        # q < 1, whose cost log_q sum p_i q^l_i falls as the sum grows, it is
        # q^2 (p_1 + 3r) > p_1 q + r q^2 + 2 r q^3
        a, r, fq = Fraction(probs[0]), Fraction(rest), Fraction(q)
        ahead = (a < 2 * r if q == 1.0
                 else fq ** 2 * (a + 3 * r) > a * fq + r * fq ** 2 + 2 * r * fq ** 3)
        _need(ahead, f"eps={e} is lost in rounding: the floats of p_1={probs[0]!r} and "
                     f"r={rest!r} do not put (2, 2, 2, 2) strictly ahead of (1, 2, 3, 3)")
        return Pmf(probs)

    if k is FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1:
        # (p_1, uniform x 2^(2+m)) with m = floor(log_q(4 p_1 / (1-p_1))):
        # every optimal code has l_1 >= 2
        m = _l1_counter_levels(q, p1)
        _need(m >= 0, f"derived level count m={m} is negative")
        tail = 2 ** _block_lg(2 + m, f"q={q}, p_1={p1}")
        return Pmf((p1,) + ((1.0 - p1) / tail,) * tail)

    if k is FamilyKind.L1_ALWAYS_ONE_Q_LT_1:
        # (p_1, uniform x 2^(1+g)): the two deepest subtrees decay below
        # p_1, so the coder always ends with l_1 = 1
        _need(q is not None and 0.5 < q < 1.0, f"needs q in (0.5, 1), got {q}")
        _need(p1 is not None and 0.0 < p1 < 1.0, f"needs p_1 in (0, 1), got {p1}")
        terms = [0]
        terms.append(math.floor(math.log(2.0 * q * p1 / (1.0 - p1), q)))
        if p1 < 0.5:
            # exact: in floats (1 - 2 p_1) / p_1 overflows for subnormal p_1,
            # and with p_1 = a/b it is (b - 2a)/a
            a, b = p1.as_integer_ratio()
            terms.append(_floor_lg(b - 2 * a, a))
        tail = 2 ** _block_lg(1 + max(terms), f"q={q}, p_1={p1}")
        probs = sorted((p1,) + ((1.0 - p1) / tail,) * tail, reverse=True)
        return Pmf(tuple(probs))


def one_bit_l1_cost_bound(q: float, p1: float) -> float:
    """Exact optimal cost among codes with l_1 = 1 for the q>1 witness.

    The 2^(2+m) equal tail symbols of the counterexample family optimally
    fill a complete subtree of depth 3+m under the root's other branch, so
    the best one-bit-l_1 cost is log_q(q p_1 + (1-p_1) q^(3+m)).  It is
    taken as (3+m) + log_q((1-p_1) + p_1 q^-(2+m)), q^(3+m) factored out,
    so that a q whose q^(3+m) passes the float range still has a cost.
    Cross-checked against exhaustive enumeration in the test suite.
    ``ParamsOutOfProofRange`` for (q, p_1) outside the family's range.
    """
    m = _l1_counter_levels(q, p1)
    return (3 + m) + math.log((1.0 - p1) + p1 * q ** -(2 + m), q)
