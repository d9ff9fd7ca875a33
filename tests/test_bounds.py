"""Closed-form bound formulas, their sandwich property, and the transform."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genhuff import (
    AlphaOutOfRange,
    BoundKind,
    BoundReport,
    CodingError,
    CombineRule,
    L1Region,
    LengthVector,
    Objective,
    POutOfRange,
    PreconditionUnmet,
    QOutOfRange,
    avg_redundancy_lower,
    avg_redundancy_upper_gallager,
    benford,
    brute_force_optimal,
    dth_bounds,
    dth_exp_redundancy,
    exp_average_cost,
    exp_avg_bounds,
    exp_avg_bounds_l1,
    exp_avg_unit_bounds,
    FamilyKind,
    ParamsOutOfProofRange,
    WitnessFamily,
    generate,
    generalized_huffman,
    hat_transform,
    kraft_length_tuples,
    l1_region,
    lambda_j,
    lg_sum_exp2,
    mmpr_bounds,
    mmpr_length_bounds,
    renyi_entropy,
    alpha_of_q,
    symbol_bounds,
    unary_code,
    validate_pmf,
)
from genhuff.witness import one_bit_l1_cost_bound
from test_battery import tie_heavy

MOAB_03 = 0.009235350264498055
MOAB_07 = 0.11870910076930738
GALLAGER_08386 = 0.5237516958937668
MMPR_EXACT_075 = 0.5849625007211562
MMPR_03_LOWER = 0.26303440583379383
MMPR_03_UPPER = 0.9004643264490856
HAT_P1_06 = 0.8386526223472893
HAT_P1_2 = 0.19223700070110032
COR2_Q2 = (3.0396614845441448, 3.9107123007008599)
COR2_Q06 = (2.2596011654072414, 2.7834253550425707)
COR3_COST = (2.3720072937023156, 2.7070703321964154)
COR3_SUCCESS = (0.25086486004891147, 0.29769610181592664)
RENYI_06 = 2.2596011654072414
RENYI_2 = 3.0260632547325282


def random_pmf(rng, n):
    while True:
        raw = rng.dirichlet(np.ones(n))
        if raw.min() > 1e-9:
            return validate_pmf([float(x) for x in raw])


# the closed forms in Decimal, at 800 digits: 2^xi - 1 for p_j ~ 1e-300
# needs ~300 of them, and the formula cancels terms of size xi to a value
# of size ~p_j

DIGITS = 800
with localcontext() as _ctx:
    _ctx.prec = DIGITS
    LN2 = Decimal(2).ln()


def dec_lg(x):
    return x.ln() / LN2


def exact_avg_lower(P):
    """avg_redundancy_lower's defining formula xi - (1-P) lg(2^xi - 1) - H(P)."""
    one_minus_2_to = lambda x: 1 - (x * LN2).exp()
    ratio = one_minus_2_to(1 / (P - 1)) / one_minus_2_to(P / (P - 1))
    xi = math.ceil(ratio.ln() / LN2)
    h = -(P * P.ln() + (1 - P) * (1 - P).ln()) / LN2
    return xi - (1 - P) * (Decimal(2) ** xi - 1).ln() / LN2 - h


def exact_mmpr_upper(P):
    """The upper end of mmpr_bounds' table row for P, the row chosen exactly."""
    if P == 1:
        return Decimal(0)
    if 3 * P >= 2:
        return 1 + dec_lg(P)
    if 2 * P >= 1:
        return 2 + dec_lg(1 - P)
    lam = 0
    while P * 2 ** lam < 1:
        lam += 1
    if P * (2 ** lam + 1) < 2:
        return 1 + dec_lg((1 - P) / (1 - Decimal(2) ** -lam))
    return lam + dec_lg(P)


def exact_gallager(P):
    if 2 * P >= 1:
        return 2 + P * dec_lg(P) + (1 - P) * dec_lg(1 - P) - P
    return P + Decimal("0.086")


def assert_close(got, exact):
    """got to 1e-10 relative of exact, or to 2^-1072 where exact is near 0."""
    assert abs(Decimal(got) - exact) <= Decimal(1e-10) * abs(exact) + Decimal(2.0 ** -1072), \
        (got, exact)


class TestMmprBounds:
    def test_exact_region(self):
        r = mmpr_bounds(0.75)
        assert r.exact == pytest.approx(MMPR_EXACT_075, abs=1e-12)
        assert r.lower == r.upper == r.exact
        assert r.lower_kind is BoundKind.EXACT

    def test_degenerate_full_mass(self):
        assert mmpr_bounds(1.0).exact == 0.0

    def test_half_to_two_thirds(self):
        r = mmpr_bounds(0.55)
        assert r.lower == pytest.approx(1 + math.log2(0.55), abs=1e-12)
        assert r.upper == pytest.approx(2 + math.log2(0.45), abs=1e-12)
        assert r.lower_kind is BoundKind.ACHIEVABLE
        assert r.upper_kind is BoundKind.APPROACHABLE

    def test_table_form_equals_general_form_on_the_seam(self):
        # 2 + lg(1-p) and 1 + lg((1-p)/(1-2^-1)) are the same expression
        for p in (0.5, 0.55, 0.6, 0.66):
            assert 2 + math.log2(1 - p) == pytest.approx(
                1 + math.log2((1 - p) / (1 - 0.5)), abs=1e-12)

    def test_first_interval_example(self):
        r = mmpr_bounds(0.3)
        assert lambda_j(0.3) == 2
        assert r.lower == pytest.approx(MMPR_03_LOWER, abs=1e-12)
        assert r.upper == pytest.approx(MMPR_03_UPPER, abs=1e-12)
        assert r.upper_kind is BoundKind.APPROACHABLE

    def test_closed_upper_interval(self):
        # third row's upper end carries a closed bracket
        r = mmpr_bounds(0.45)
        assert r.upper == pytest.approx(2 + math.log2(0.45), abs=1e-12)
        assert r.upper_kind is BoundKind.ACHIEVABLE
        assert r.lower == pytest.approx(math.log2(0.55 / 0.5), abs=1e-12)

    def test_powers_of_two_give_unit_interval_exactly(self):
        for k in range(2, 20):
            r = mmpr_bounds(2.0 ** -k)
            assert r.lower == 0.0
            assert r.upper == 1.0
            assert r.lower_kind is BoundKind.ACHIEVABLE
            assert r.upper_kind is BoundKind.APPROACHABLE

    def test_matches_general_min_max_forms(self):
        for p in (0.3, 0.26, 0.34, 0.2, 0.13, 0.07, 0.012):
            lam = lambda_j(p)
            r = mmpr_bounds(p)
            lo = min(lam + math.log2(p),
                     math.log2((1 - p) / (1 - 2.0 ** (1 - lam))))
            hi = max(1 + math.log2((1 - p) / (1 - 2.0 ** -lam)),
                     lam + math.log2(p))
            assert r.lower == pytest.approx(lo, abs=1e-12)
            assert r.upper == pytest.approx(hi, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(POutOfRange):
                mmpr_bounds(bad)

    def test_sandwich_randomized(self):
        rng = np.random.default_rng(51)
        for _ in range(400):
            p = random_pmf(rng, int(rng.integers(2, 9)))
            star = brute_force_optimal(p, Objective.max_pointwise()).min_value
            for pj in p:
                r = mmpr_bounds(pj)
                assert r.lower - 1e-9 <= star <= r.upper + 1e-9
                if r.upper_kind is BoundKind.APPROACHABLE:
                    assert star <= r.upper + 1e-12


class TestMmprLengthBounds:
    def test_examples(self):
        assert mmpr_length_bounds(0.5) == (1, 1)
        assert mmpr_length_bounds(1 / 3) == (2, 2)
        assert mmpr_length_bounds(0.01) == (7, 6)

    def test_upper_equals_shannon_length(self):
        for p in (0.9, 0.5, 0.3, 0.12, 0.007):
            assert mmpr_length_bounds(p)[0] == lambda_j(p)

    def test_defining_inequalities(self):
        for p in (0.9, 0.37, 0.11, 0.031, 0.0007):
            nu_upper, nu_lower = mmpr_length_bounds(p)
            assert p >= 2.0 ** -nu_upper
            assert p < 2.0 ** -(nu_upper - 1) or nu_upper == 1
            assert p * (2 ** nu_lower - 1) <= 1.0
            assert p * (2 ** (nu_lower + 1) - 1) > 1.0

    def test_domain(self):
        for bad in (0.0, 1.0):
            with pytest.raises(POutOfRange):
                mmpr_length_bounds(bad)


def boundary_floats():
    """(num, den, p): each float within 3 ulp of a rational row end num/den
    of the MMPR table, 1/(2^lam - 1) and 2/(2^lam + 1) for lam = 2..11."""
    for lam in range(2, 12):
        for num, den in ((1, 2 ** lam - 1), (2, 2 ** lam + 1)):
            below = above = num / den
            points = [below]
            for _ in range(3):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                points += [below, above]
            for p in points:
                yield num, den, p


def reference_mmpr_row(p):
    """mmpr_bounds' table row for p in (0, 1/2), chosen in exact arithmetic."""
    exact, lam = Fraction(p), lambda_j(p)
    upper_open = 1.0 + math.log2((1.0 - p) / (1.0 - 2.0 ** -lam))
    lower_late = math.log2((1.0 - p) / (1.0 - 2.0 ** (1 - lam)))
    if exact < Fraction(1, 2 ** lam - 1):
        return lam + math.log2(p), upper_open, BoundKind.APPROACHABLE
    if exact < Fraction(2, 2 ** lam + 1):
        return lower_late, upper_open, BoundKind.APPROACHABLE
    return lower_late, lam + math.log2(p), BoundKind.ACHIEVABLE


class TestExactRowBoundaries:
    """Floats next to the table's rational row ends are classified by their
    exact value, never by a rounded product such as p * (2^lam - 1)."""

    def test_mmpr_bounds_rows(self):
        for _, _, p in boundary_floats():
            r = mmpr_bounds(p)
            assert (r.lower, r.upper, r.upper_kind) == reference_mmpr_row(p), p

    def test_two_thirds(self):
        below = 2 / 3  # the float nearest 2/3 lies below it
        assert Fraction(below) < Fraction(2, 3)
        assert mmpr_bounds(below).exact is None
        above = math.nextafter(below, 1.0)
        assert mmpr_bounds(above).exact == pytest.approx(1 + math.log2(above))

    def test_length_bounds(self):
        for _, _, p in boundary_floats():
            exact = Fraction(p)
            nu_lower = max(k for k in range(1, 64) if exact * (2 ** k - 1) <= 1)
            assert mmpr_length_bounds(p)[1] == nu_lower, p
        # an ulp either side of 1/(2^k - 1) up to k = 1074, subnormal past
        # k = 1022; the last x is 2^-1074, the least subnormal, with none below
        points = []
        for k in range(2, 1075):
            x = 1 / (2 ** k - 1)
            points += [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
        for p in filter(None, points):
            a, b = p.as_integer_ratio()
            nu_lower = 1  # the largest nu with a (2^nu - 1) <= b
            while a * (2 ** (nu_lower + 1) - 1) <= b:
                nu_lower += 1
            assert mmpr_length_bounds(p)[1] == nu_lower, p

    def test_witness_ranges(self):
        # the families whose proof range ends at num/den, and whether p lies
        # inside it, from c, the sign of p - num/den
        families = {
            2: ((FamilyKind.MMPR_UPPER_MID, lambda c: c >= 0),
                (FamilyKind.MMPR_UPPER_LOW, lambda c: c < 0)),
            1: ((FamilyKind.MMPR_LOWER_A, lambda c: c >= 0),
                (FamilyKind.MMPR_LOWER_B, lambda c: c < 0),
                (FamilyKind.LEN_LOWER_TIGHT, lambda c: c > 0)),
        }
        for num, den, p in boundary_floats():
            diff = Fraction(p) - Fraction(num, den)
            c = (diff > 0) - (diff < 0)
            for kind, inside in families[num]:
                try:
                    generate(WitnessFamily(kind, p1=p))
                    refused = False
                except ParamsOutOfProofRange as e:
                    # a range refusal, not the eps window inside the range
                    refused = "outside" in str(e)
                assert refused is not inside(c), (kind, p)


class TestAvgRedundancyBounds:
    def test_lower_vanishes_at_dyadic(self):
        for k in range(1, 12):
            assert avg_redundancy_lower(2.0 ** -k) == pytest.approx(0.0, abs=1e-12)

    def test_lower_frozen_values(self):
        assert avg_redundancy_lower(0.3) == pytest.approx(MOAB_03, abs=1e-12)
        assert avg_redundancy_lower(0.7) == pytest.approx(MOAB_07, abs=1e-12)

    def test_lower_sandwiches_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            p = random_pmf(rng, int(rng.integers(2, 8)))
            opt = brute_force_optimal(p, Objective.avg()).min_value
            for pj in p:
                assert avg_redundancy_lower(pj) <= opt + 1e-9

    def test_lower_near_one_stays_finite(self):
        assert 0.9 < avg_redundancy_lower(1 - 1e-15) <= 1.0

    @pytest.mark.parametrize("p", [8e-17, 7.9e-17, 1e-17, 1e-100, 1e-300, 3e-308, 1e-310, 1e-320,
                                   1e-16, 3e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.01,
                                   0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999])
    def test_lower_tiny_p_matches_exact_formula(self, p):
        # the docstring's form cancels terms of size xi to a value of size
        # ~p, and below ~8e-17 its 1 - 2^(p/(p-1)) rounds to 0 in floats;
        # compare with 800 digits (nearer 1 than 0.999, they round the
        # ratio that sets xi to exactly 1)
        with localcontext() as ctx:
            ctx.prec = DIGITS
            exact = exact_avg_lower(Decimal(p))
        got = avg_redundancy_lower(p)
        # a subnormal result is good to its spacing of 2^-1074 only
        assert abs(Decimal(got) - exact) <= Decimal(1e-13) * exact + Decimal(2.0 ** -1072)

    @given(st.floats(min_value=5e-324, max_value=8e-17))
    @settings(max_examples=300)
    def test_lower_tiny_p_finite_and_of_order_p(self, p):
        assert 0.0 <= avg_redundancy_lower(p) <= p

    def test_gallager_values(self):
        assert avg_redundancy_upper_gallager(0.8386) \
            == pytest.approx(GALLAGER_08386, abs=1e-12)
        assert avg_redundancy_upper_gallager(1 - 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert avg_redundancy_upper_gallager(0.3) == pytest.approx(0.386)
        # the two branches stay within a small step of each other at 1/2
        assert abs(avg_redundancy_upper_gallager(0.5) - (0.5 + 0.086)) < 0.1

    def test_gallager_upper_bounds_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            p = random_pmf(rng, int(rng.integers(2, 8)))
            opt = brute_force_optimal(p, Objective.avg()).min_value
            assert opt <= avg_redundancy_upper_gallager(p.probs[0]) + 1e-9


class TestDthBounds:
    def test_dyadic_gives_unit_interval(self):
        for d in (0.25, 1.0, 4.0):
            r = dth_bounds(0.25, d)
            assert r.lower == 0.0
            assert r.upper == 1.0

    def test_positive_d_combines_both_sources(self):
        r = dth_bounds(0.7, 3.0)
        assert r.lower == pytest.approx(MOAB_07, abs=1e-12)
        assert r.upper == pytest.approx(1 + math.log2(0.7), abs=1e-12)

    def test_negative_d_zero_floor_and_min_upper(self):
        r = dth_bounds(0.7, -0.5, is_p1=True)
        assert r.lower == 0.0
        assert r.upper == pytest.approx(
            min(1 + math.log2(0.7), avg_redundancy_upper_gallager(0.7)), abs=1e-12)
        r2 = dth_bounds(0.7, -0.5, is_p1=False)
        assert r2.upper == pytest.approx(1 + math.log2(0.7), abs=1e-12)

    def test_domain(self):
        for d in (0.0, -1.0):
            with pytest.raises(Exception):
                dth_bounds(0.3, d)

    def test_sandwich_randomized(self):
        rng = np.random.default_rng(54)
        for d in (0.25, 1.0, 4.0, -0.5):
            for _ in range(60):
                p = random_pmf(rng, int(rng.integers(2, 8)))
                rd = brute_force_optimal(p, Objective.dth_exp(d)).min_value
                for idx, pj in enumerate(p):
                    r = dth_bounds(pj, d, is_p1=(idx == 0))
                    assert r.lower - 1e-9 <= rd <= r.upper + 1e-9

    @pytest.mark.parametrize("p", [1e-300, 0.3, 0.45, 0.55, 0.7])
    def test_ends_match_exact_formulas(self, p):
        # d > 0: [avg lower, MMPR upper]; d < 0: [0, MMPR upper], and for
        # the top symbol the smaller of that and the Gallager bound
        with localcontext() as ctx:
            ctx.prec = DIGITS
            P = Decimal(p)
            lower, upper = exact_avg_lower(P), exact_mmpr_upper(P)
            top_upper = min(upper, exact_gallager(P))
        for d in (1e-12, 0.5, 2.0, 1e4):
            for is_p1 in (False, True):
                r = dth_bounds(p, d, is_p1=is_p1)
                assert_close(r.lower, lower)
                assert_close(r.upper, upper)
        for d in (-1e-12, -0.5, -1 + 1e-9):
            assert dth_bounds(p, d).lower == 0.0
            assert_close(dth_bounds(p, d).upper, upper)
            assert_close(dth_bounds(p, d, is_p1=True).upper, top_upper)

    def test_subsumed_by_unit_interval(self):
        for p in (0.9, 0.61, 0.43, 0.18, 0.05):
            for d in (0.5, 2.0, -0.5):
                r = dth_bounds(p, d, is_p1=True)
                assert -1e-12 <= r.lower and r.upper <= 1.0 + 1e-12


ACH, APP = BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE
UNIT_NOTE = "unit upper bound: top-probability form needs j=1"


class TestSymbolBounds:
    """symbol_bounds is the report ``genhuff code`` and ``genhuff bounds`` print:
    each end to 1e-15, its tags and its note."""

    @pytest.mark.parametrize("obj,p_j,j,lower,upper,note", [
        (Objective.avg(), 0.3, 1, 0.009235350264498052, 0.386, None),
        (Objective.avg(), 0.6, 1, 0.029049405545331364, 0.42904940554533144, None),
        (Objective.avg(), 0.3, 2, 0.009235350264498052, 1.0, UNIT_NOTE),
        (Objective.avg(), 0.1, 3, 0.004384976558875084, 1.0, UNIT_NOTE),
        (Objective.max_pointwise(), 0.3, 1, 0.26303440583379367, 0.9004643264490855, None),
        (Objective.max_pointwise(), 0.3, 2, 0.26303440583379367, 0.9004643264490855, None),
        (Objective.max_pointwise(), 0.1, 3, 0.04064198449734608, 0.9411063109464316, None),
        (Objective.dth_exp(-0.5), 0.3, 1, 0.0, 0.386, None),
        (Objective.dth_exp(-0.5), 0.6, 1, 0.0, 0.42904940554533144, None),
        (Objective.dth_exp(-0.5), 0.3, 2, 0.0, 0.9004643264490855, None),
        (Objective.dth_exp(-0.5), 0.1, 3, 0.0, 0.9411063109464316, None),
        (Objective.dth_exp(0.5), 0.3, 1, 0.009235350264498052, 0.9004643264490855, None),
        (Objective.dth_exp(0.5), 0.6, 1, 0.029049405545331364, 0.6780719051126378, None),
        (Objective.dth_exp(0.5), 0.3, 2, 0.009235350264498052, 0.9004643264490855, None),
        (Objective.dth_exp(0.5), 0.1, 3, 0.004384976558875084, 0.9411063109464316, None),
    ])
    def test_report(self, obj, p_j, j, lower, upper, note):
        r = symbol_bounds(obj, p_j, j)
        assert (r.lower_kind, r.upper_kind, r.exact, r.note) == (ACH, APP, None, note)
        assert r.lower == pytest.approx(lower, abs=1e-15)
        assert r.upper == pytest.approx(upper, abs=1e-15)

    @pytest.mark.parametrize("j", [1, 2])
    def test_exp_average_needs_the_pmf(self, j):
        with pytest.raises(CodingError, match="need the pmf: use exp_avg_bounds"):
            symbol_bounds(Objective.exp_average(2.0), 0.3, j)


class TestUnitBounds:
    def test_benford(self):
        r = exp_avg_unit_bounds(benford(), 0.6)
        assert r.lower == pytest.approx(RENYI_06, abs=1e-12)
        assert r.upper == pytest.approx(RENYI_06 + 1, abs=1e-12)
        r2 = exp_avg_unit_bounds(benford(), 2.0)
        assert r2.lower == pytest.approx(RENYI_2, abs=1e-12)

    def test_dyadic_uniform_attains_lower(self):
        for k in (1, 2, 3):
            p = validate_pmf([2.0 ** -k] * 2 ** k)
            for q in (0.7, 1.3, 2.0):
                r = exp_avg_unit_bounds(p, q)
                assert r.lower == pytest.approx(k, abs=1e-12)
                opt = brute_force_optimal(p, Objective.exp_average(q)).min_value
                assert opt == pytest.approx(k, abs=1e-12)

    def test_domain(self):
        for q in (0.5, 0.4, 1.0):
            with pytest.raises(QOutOfRange):
                exp_avg_unit_bounds(benford(), q)


class TestHatTransform:
    def test_benford_leading_values(self):
        assert hat_transform(benford(), 0.6).probs[0] \
            == pytest.approx(HAT_P1_06, abs=1e-12)
        assert hat_transform(benford(), 2.0).probs[0] \
            == pytest.approx(HAT_P1_2, abs=1e-12)

    def test_uniform_fixed_point(self):
        p = validate_pmf([0.2] * 5)
        for q in (0.6, 2.0):
            assert hat_transform(p, q).probs == pytest.approx((0.2,) * 5)

    def test_square_root_case(self):
        p = validate_pmf([0.64, 0.32, 0.04])
        roots = [math.sqrt(x) for x in (0.64, 0.32, 0.04)]
        total = sum(roots)
        assert hat_transform(p, 2.0).probs == pytest.approx(
            tuple(r / total for r in roots), abs=1e-12)

    @pytest.mark.parametrize("raw,first_zero", [
        ([2.0 ** -60, 2.0 ** -60, 1.0 - 2.0 ** -59], 2),
        # the battery's 17-symbol tie-heavy pmf: four entries of 8/74 first
        (tie_heavy(17), 5),
    ], ids=["2^-60-pair", "battery-tie-heavy-17"])
    def test_an_underflowed_entry_is_a_precondition_not_the_input(self, raw, first_zero):
        # alpha is ~6e15 at q = 1/2 + 1 ulp, so every p_i^alpha below p_1's
        # underflows: the transform's limit, not a fault of the caller's pmf
        p = validate_pmf(raw, normalize=True)
        with pytest.raises(PreconditionUnmet, match=rf"^the transformed p_{first_zero} of "
                           rf"{p.n} rounds to 0\.0; the transform needs every entry > 0$"):
            hat_transform(p, 0.5000000000000001)

    def test_identity_randomized(self):
        rng = np.random.default_rng(55)
        for _ in range(150):
            p = random_pmf(rng, int(rng.integers(2, 9)))
            options = list(kraft_length_tuples(p.n))
            code = LengthVector(options[int(rng.integers(len(options)))])
            q = float(rng.choice((0.6, 0.9, 1.5, 2.0)))
            lhs = dth_exp_redundancy(hat_transform(p, q), code, math.log2(q))
            rhs = exp_average_cost(p, code, q) - renyi_entropy(p, alpha_of_q(q))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def two_call_exp_avg_bounds(p, q, j):
    """``exp_avg_bounds`` in its two-call form: H_alpha from ``renyi_entropy``,
    and the transformed p_j from a second alpha lg p_i list and log-sum."""
    alpha = alpha_of_q(q)
    h = renyi_entropy(p, alpha)
    lg_norm = lg_sum_exp2([alpha * math.log2(pi) for pi in p])
    vals = [2.0 ** (alpha * math.log2(pi) - lg_norm) for pi in p]
    total = math.fsum(vals)
    p_hat = sorted((v / total for v in vals), reverse=True)[j - 1]
    if not 0.0 < p_hat < 1.0:
        raise PreconditionUnmet(f"the transformed p_{j} rounds to {p_hat!r}; "
                                f"the bounds need it in (0, 1)")
    achievable = BoundKind.ACHIEVABLE
    if q > 1.0:
        return BoundReport(h + avg_redundancy_lower(p_hat), h + mmpr_bounds(p_hat).upper,
                           achievable, achievable)
    if j == 1:
        return BoundReport(h, h + avg_redundancy_upper_gallager(p_hat), achievable, achievable)
    return BoundReport(h, h + 1.0, achievable, BoundKind.APPROACHABLE,
                       note="unit upper bound: no per-symbol form for q < 1, j != 1")


class TestExpAvgBounds:
    def test_benford_q2(self):
        r = exp_avg_bounds(benford(), 2.0, 1)
        assert r.lower == pytest.approx(COR2_Q2[0], abs=1e-12)
        assert r.upper == pytest.approx(COR2_Q2[1], abs=1e-12)

    def test_benford_q06(self):
        r = exp_avg_bounds(benford(), 0.6, 1)
        assert r.lower == pytest.approx(COR2_Q06[0], abs=1e-12)
        assert r.upper == pytest.approx(COR2_Q06[1], abs=1e-12)

    def test_transformed_probability_out_of_range_is_refused_alone(self):
        # 5e-324 ** alpha underflows for q < 1; only the bound that reads it refuses
        p = validate_pmf([0.5, 0.5, 5e-324])
        with pytest.raises(PreconditionUnmet, match="transformed p_3 of 3 rounds to 0.0"):
            hat_transform(p, 0.9)
        assert exp_avg_bounds(p, 0.9, 1).contains(exp_average_cost(p, LengthVector((1, 2, 2)), 0.9))
        with pytest.raises(PreconditionUnmet, match="transformed p_3 rounds to 0.0"):
            exp_avg_bounds(p, 0.9, 3)
        for q in (0.9, 2.0):
            with pytest.raises(PreconditionUnmet, match="transformed p_1 rounds to 1.0"):
                exp_avg_bounds(validate_pmf([1.0, 5e-324]), q, 1)

    def test_dyadic_uniform(self):
        p = validate_pmf([0.25] * 4)
        r = exp_avg_bounds(p, 2.0, 1)
        assert r.lower == pytest.approx(2.0, abs=1e-12)

    def test_low_q_non_top_symbol_falls_back_to_unit(self):
        r = exp_avg_bounds(benford(), 0.6, 3)
        assert r.note is not None
        assert r.upper == pytest.approx(RENYI_06 + 1, abs=1e-12)

    def test_subsumed_by_unit_interval(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 8)))
            q = float(rng.choice((0.6, 0.9, 1.5, 2.0)))
            unit = exp_avg_unit_bounds(p, q)
            for j in range(1, p.n + 1):
                r = exp_avg_bounds(p, q, j)
                assert r.lower >= unit.lower - 1e-12
                assert r.upper <= unit.upper + 1e-12

    @pytest.mark.parametrize("q", [1 - 1e-12, 1 + 1e-12, 2.0])
    def test_ends_match_exact_formulas(self, q):
        # with a = 1/(1 + lg q), H_a the Renyi entropy and p_j^a / sum p_k^a
        # the transformed p_j: for q > 1, H_a + avg lower and H_a + MMPR
        # upper of it; for q < 1, H_a and H_a + the Gallager bound of the
        # top one (H_a + 1 for the others)
        p = validate_pmf([0.5, 0.3, 0.2])
        with localcontext() as ctx:
            ctx.prec = DIGITS
            alpha = 1 / (1 + dec_lg(Decimal(q)))
            powers = [(alpha * Decimal(x).ln()).exp() for x in p]
            total = sum(powers)
            h = dec_lg(total) / (1 - alpha)
            if q > 1:
                ends = {j: (h + exact_avg_lower(powers[j - 1] / total),
                            h + exact_mmpr_upper(powers[j - 1] / total)) for j in (1, 3)}
            else:
                ends = {1: (h, h + exact_gallager(powers[0] / total)), 3: (h, h + 1)}
        for j, (lower, upper) in ends.items():
            r = exp_avg_bounds(p, q, j)
            assert_close(r.lower, lower)
            assert_close(r.upper, upper)

    def test_one_log_sum_matches_the_two_call_form(self):
        # repr for repr, refusals included, across both of renyi_entropy's
        # forms: |1 - alpha| < 1/16 at q = 0.97, 1.03 and 1 +- 1e-12
        rng = np.random.default_rng(58)
        qs = (0.51, 0.6, 0.9, 0.97, 1.03, 1.1, 2.0, 10.0, 1e10, 1 - 1e-12, 1 + 1e-12)
        for n in range(2, 41):
            for p in (random_pmf(rng, n), validate_pmf([1.0 / n] * n)):
                for q in qs:
                    for j in (1, 2):
                        try:
                            want = repr(two_call_exp_avg_bounds(p, q, j))
                        except PreconditionUnmet as exc:
                            want = repr(exc)
                        try:
                            got = repr(exp_avg_bounds(p, q, j))
                        except PreconditionUnmet as exc:
                            got = repr(exc)
                        assert got == want, (p.probs, q, j)

    def test_sandwich_randomized(self):
        rng = np.random.default_rng(57)
        for q in (0.6, 0.9, 1.5, 2.0):
            for _ in range(60):
                p = random_pmf(rng, int(rng.integers(2, 8)))
                opt = brute_force_optimal(p, Objective.exp_average(q)).min_value
                for j in range(1, p.n + 1):
                    assert exp_avg_bounds(p, q, j).contains(opt)


def exact_l1_bounds(p, q):
    """exp_avg_bounds_l1's ends in 400-bit mpmath, from the tail norm
    B = (sum_{i>=2} p_i^a)^(1/a) summed directly."""
    with mpmath.workprec(400):
        qm = mpmath.mpf(q)
        a = 1 / (1 + mpmath.log(qm, 2))
        b = mpmath.fsum(mpmath.mpf(x) ** a for x in p.probs[1:]) ** (1 / a)
        p1 = mpmath.mpf(p.probs[0])
        return 1 + mpmath.log(b + p1, qm), 1 + mpmath.log(qm * b + p1, qm)


# q near 1/2 makes a = 1/(1 + lg q) large, and p_1^a all but the whole of
# sum_i p_i^a: a form that subtracts p_1^a from that sum cancels to noise
L1_CANCELLING = [
    ((0.9, 0.05, 0.03, 0.02), 0.52),
    ((0.9, 0.05, 0.03, 0.02), 0.505),
    (benford().probs, 0.505),
    (benford().probs, 0.5001),
]


class TestExpAvgBoundsL1:
    def test_benford_cost_and_success(self):
        r = exp_avg_bounds_l1(benford(), 0.6)
        assert r.lower == pytest.approx(COR3_COST[0], abs=1e-12)
        assert r.upper == pytest.approx(COR3_COST[1], abs=1e-12)
        assert 0.6 ** r.upper == pytest.approx(COR3_SUCCESS[0], abs=1e-12)
        assert 0.6 ** r.lower == pytest.approx(COR3_SUCCESS[1], abs=1e-12)

    def test_lower_bound_achieved_by_flat_tail(self):
        # one symbol plus four equal ones: the tail subtree has zero
        # redundancy, so the cost meets the bound exactly
        for p1, q in ((0.4, 0.75), (0.5, 0.8), (0.3, 0.55)):
            if p1 < 2 * q / (2 * q + 3):
                continue
            p = validate_pmf([p1] + [(1 - p1) / 4] * 4)
            r = exp_avg_bounds_l1(p, q)
            opt = brute_force_optimal(p, Objective.exp_average(q)).min_value
            assert opt == pytest.approx(r.lower, abs=1e-9)

    def test_upper_bound_approached(self):
        q, p1 = 0.75, 0.6
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5):
            p = validate_pmf([p1, 1 - p1 - eps, eps])
            r = exp_avg_bounds_l1(p, q)
            opt = brute_force_optimal(p, Objective.exp_average(q)).min_value
            gap = r.upper - opt
            assert gap > 0
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_preconditions(self):
        with pytest.raises(PreconditionUnmet):
            exp_avg_bounds_l1(benford(), 1.5)
        with pytest.raises(PreconditionUnmet):
            exp_avg_bounds_l1(validate_pmf([0.2] * 5), 0.9)
        with pytest.raises(PreconditionUnmet):
            exp_avg_bounds_l1(validate_pmf([1.0]), 0.6)

    @pytest.mark.parametrize("probs,q", L1_CANCELLING,
                             ids=["skewed-0.52", "skewed-0.505", "benford-0.505",
                                  "benford-0.5001"])
    def test_ends_match_the_direct_tail_norm(self, probs, q):
        p = validate_pmf(probs)
        r = exp_avg_bounds_l1(p, q)
        lo, hi = exact_l1_bounds(p, q)
        assert abs(r.lower - lo) <= 1e-14 and abs(r.upper - hi) <= 1e-14, (r, lo, hi)
        opt = brute_force_optimal(p, Objective.exp_average(q)).min_value
        assert r.contains(opt), (r, opt)

    def test_scan_holds_the_oracle_optimum(self):
        # Gamma draws of shape 0.1 to 3 give p_1 from near 1/n to near 1, and
        # q runs from just above 1/2, where a is ~5e6, to just below 1
        rng = random.Random(5)
        qs = (0.5000001, 0.501, 0.51, 0.55, 0.6, 0.75, 0.9, 0.999999)
        checked = 0
        for _ in range(400):
            n = rng.randint(2, 10)
            shape = rng.choice((0.1, 0.3, 1.0, 3.0))
            p = validate_pmf([rng.gammavariate(shape, 1.0) for _ in range(n)], normalize=True)
            for q in qs:
                if l1_region(q, p.probs[0]) is not L1Region.GUARANTEED_L1:
                    continue
                opt = brute_force_optimal(p, Objective.exp_average(q)).min_value
                assert exp_avg_bounds_l1(p, q).contains(opt), (q, p.probs)
                checked += 1
        assert checked > 2000


class TestL1Region:
    def test_verdicts(self):
        assert l1_region(0.4, 0.01) is L1Region.ALWAYS_UNARY
        assert l1_region(0.5, 0.99) is L1Region.ALWAYS_UNARY
        assert l1_region(1.0, 0.4) is L1Region.GUARANTEED_L1
        assert l1_region(1.0, 0.399) is L1Region.NOT_GUARANTEED
        assert l1_region(2.0, 0.99) is L1Region.NOT_GUARANTEED
        assert l1_region(2.0, 1.0) is L1Region.GUARANTEED_L1
        assert l1_region(0.8, 2 * 0.8 / (2 * 0.8 + 3)) is L1Region.GUARANTEED_L1

    @pytest.mark.parametrize("p1,region", [
        (math.nextafter(1 / 3, 0.0), L1Region.NOT_GUARANTEED),
        (1 / 3, L1Region.NOT_GUARANTEED),
        (math.nextafter(1 / 3, 1.0), L1Region.GUARANTEED_L1),
    ], ids=["below", "fl(1/3)", "above"])
    def test_threshold_is_exact(self, p1, region):
        # at q = 3/4 the threshold 2q/(2q+3) is 1/3, and the float quotient is
        # fl(1/3), just below it: fl(1/3) and the float under it fail the
        # precondition, the float above it meets it
        assert 2 * 0.75 / (2 * 0.75 + 3) == 1 / 3 < Fraction(1, 3)
        assert l1_region(0.75, p1) is region
        p = validate_pmf([p1, 0.25, 0.25, 0.5 - p1])
        if region is L1Region.GUARANTEED_L1:
            exp_avg_bounds_l1(p, 0.75)
        else:
            with pytest.raises(PreconditionUnmet):
                exp_avg_bounds_l1(p, 0.75)

    @pytest.mark.parametrize("p1", [0.0, -0.5, math.nextafter(1.0, 2.0), math.nan])
    def test_p1_outside_the_half_open_unit_interval_is_refused(self, p1):
        with pytest.raises(POutOfRange) as info:
            l1_region(0.9, p1)
        assert str(info.value) == f"probability must be in (0, 1], got {p1}"

    def test_consistency_with_coder(self):
        rng = np.random.default_rng(58)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            q = float(rng.uniform(0.05, 1.0))
            if q == 1.0:
                continue
            p = random_pmf(rng, n)
            rule = CombineRule.exp_base(q)
            region = l1_region(q, p.probs[0])
            lengths = generalized_huffman(p, rule).lengths
            if region is L1Region.ALWAYS_UNARY:
                assert lengths.lengths == unary_code(n).lengths
            elif region is L1Region.GUARANTEED_L1:
                assert lengths.lengths[0] == 1

    def test_consistency_at_q_one_via_plain_huffman(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = random_pmf(rng, n)
            if l1_region(1.0, p.probs[0]) is L1Region.GUARANTEED_L1:
                lengths = generalized_huffman(p, CombineRule.sum()).lengths
                assert lengths.lengths[0] == 1


@pytest.mark.parametrize("call,error", [
    (lambda: l1_region(math.nan, 0.5), QOutOfRange),
    (lambda: l1_region(math.inf, 0.5), QOutOfRange),
    (lambda: renyi_entropy(benford(), math.inf), AlphaOutOfRange),
    (lambda: alpha_of_q(math.inf), QOutOfRange),
    (lambda: exp_avg_bounds(benford(), math.inf), QOutOfRange),
    (lambda: one_bit_l1_cost_bound(1.0, 0.5), ParamsOutOfProofRange),
    (lambda: one_bit_l1_cost_bound(math.nan, 0.5), ParamsOutOfProofRange),
    (lambda: one_bit_l1_cost_bound(2.0, 0.2), ParamsOutOfProofRange),
    (lambda: one_bit_l1_cost_bound(2.0, 1.0), ParamsOutOfProofRange),
], ids=["l1_region-q-nan", "l1_region-q-inf", "renyi-alpha-inf", "alpha_of_q-inf",
        "exp_avg_bounds-q-inf", "one_bit-q-1", "one_bit-q-nan", "one_bit-p1-0.2",
        "one_bit-p1-1"])
def test_non_finite_or_out_of_range_parameter_is_refused(call, error):
    with pytest.raises(error):
        call()
