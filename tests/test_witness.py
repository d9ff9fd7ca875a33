"""Witness distributions: validity, proof-range enforcement, tightness."""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from genhuff import (
    CodingError,
    CombineRule,
    FamilyKind,
    Objective,
    ParamsOutOfProofRange,
    WitnessFamily,
    brute_force_optimal,
    generalized_huffman,
    generate,
    lambda_j,
    mmpr_bounds,
    validate_pmf,
)
from genhuff.core import ceil_neg_lg
from genhuff.witness import FAMILIES, one_bit_l1_cost_bound


def oracle_mmpr(p):
    return brute_force_optimal(p, Objective.max_pointwise())


class TestConstructions:
    def test_upper_high_shape(self):
        p = generate(WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=0.7, eps=0.1))
        assert p.probs == pytest.approx((0.7, 0.2, 0.1))

    def test_boundary_shape(self):
        p = generate(WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=0.75, eps=0.01))
        assert p.probs == pytest.approx((1 / 3 - 0.03, 1 / 4.5 + 0.01,
                                         1 / 4.5 + 0.01, 1 / 4.5 + 0.01))

    def test_counterexample_shape(self):
        p = generate(WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=2.0, p1=0.5))
        assert p.n == 17
        assert p.probs == pytest.approx((0.5,) + (1 / 32,) * 16)

    def test_every_family_emits_valid_pmf(self):
        cases = [
            WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=0.8),
            WitnessFamily(FamilyKind.MMPR_UPPER_MID, p1=0.45),
            WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=0.3),
            WitnessFamily(FamilyKind.MMPR_LOWER_A, p1=0.4),
            WitnessFamily(FamilyKind.MMPR_LOWER_B, p1=0.3),
            WitnessFamily(FamilyKind.LEN_UPPER_TIGHT, p1=0.3),
            WitnessFamily(FamilyKind.LEN_LOWER_TIGHT, p1=0.4),
            WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=0.8),
            WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=1.5, p1=0.3),
            WitnessFamily(FamilyKind.L1_ALWAYS_ONE_Q_LT_1, q=0.75, p1=0.2),
        ]
        for fam in cases:
            p = generate(fam)
            assert abs(math.fsum(p.probs) - 1.0) < 1e-9

    def test_out_of_range_refused(self):
        bad = [
            WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=0.4),
            WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=0.7, eps=0.2),
            WitnessFamily(FamilyKind.MMPR_UPPER_MID, p1=0.3),
            WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=0.45),
            WitnessFamily(FamilyKind.MMPR_LOWER_A, p1=0.3),
            # float(1/3) lies just below 1/3, outside [1/3, 1/2)
            WitnessFamily(FamilyKind.MMPR_LOWER_A, p1=1 / 3),
            WitnessFamily(FamilyKind.MMPR_LOWER_B, p1=0.4),
            WitnessFamily(FamilyKind.LEN_LOWER_TIGHT, p1=0.3),
            WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=1.2),
            WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=0.75, eps=0.5),
            # eps lost in rounding: the floats do not put (2, 2, 2, 2) ahead
            WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=1.0, eps=1e-300),
            WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=0.6, eps=1e-300),
            WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=0.9, p1=0.5),
            WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=2.0, p1=0.1),
            WitnessFamily(FamilyKind.L1_ALWAYS_ONE_Q_LT_1, q=1.5, p1=0.5),
        ]
        for fam in bad:
            with pytest.raises(ParamsOutOfProofRange):
                generate(fam)


def outcome(fam):
    """repr of the family's probabilities, or the refusal with its class name."""
    try:
        return repr(generate(fam).probs)
    except CodingError as e:
        return f"{type(e).__name__}: {e}"


class TestPinnedOutputs:
    """Every family's exact pmf or refusal on a fixed (kind, p_1, eps, q) grid.

    The grid holds each range's edges (2/(2^lam+1), 1/(2^lam-1), 2^-lam), the
    oracle's cap and the symbol cap, eps lost in rounding and eps past its
    window; 1730 of its 6000 cases build a pmf."""

    P1S = (None, -0.1, 5e-324, 2.0 ** -7, 0.05, math.nextafter(0.0625, 0.0), 0.0625, 2 / 17,
           0.14, 2 / 9, 0.25, 0.3, 1 / 3, 0.4, 0.45, 0.5, 0.55, 2 / 3, 0.9, 1.0)
    EPSS = (None, 1e-300, 1e-3, 0.05, 0.5)
    QS = (None, 0.6, 0.9, 1.0, 1.5, 2.0)
    SHA256 = "4060d3033e686528eca2a5d11e07ea630e18c1b7d885576c03f4de9e41cfa36e"

    def test_every_family_on_the_grid(self):
        lines = "".join(
            f"{k.value} {p1!r} {eps!r} {q!r} -> {outcome(WitnessFamily(k, p1, eps, q))}\n"
            for k in FamilyKind for p1 in self.P1S for eps in self.EPSS for q in self.QS)
        assert lines.count("-> (") == 1730
        assert hashlib.sha256(lines.encode()).hexdigest() == self.SHA256


class TestFamilyTable:
    """``FAMILIES`` states the fields ``generate`` reads and each 2^lam family's size."""

    # one in-range witness per family, each eps off its default
    BASES = (
        WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=0.7, eps=0.1),
        WitnessFamily(FamilyKind.MMPR_UPPER_MID, p1=0.45, eps=0.01),
        WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=0.3, eps=0.01),
        WitnessFamily(FamilyKind.MMPR_LOWER_A, p1=0.4),
        WitnessFamily(FamilyKind.MMPR_LOWER_B, p1=0.3),
        WitnessFamily(FamilyKind.LEN_UPPER_TIGHT, p1=0.3),
        WitnessFamily(FamilyKind.LEN_LOWER_TIGHT, p1=0.4),
        WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=0.9, eps=0.01),
        WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=2.0, p1=0.45),
        WitnessFamily(FamilyKind.L1_ALWAYS_ONE_Q_LT_1, q=0.8, p1=0.5),
    )
    JUNK = (-1.0, 0.0, 1e-300, 0.01, 0.3, 0.7, 0.9, 2.0, math.inf, math.nan)
    FIELDS = ("p1", "eps", "q")

    @classmethod
    def with_field(cls, fam, field, value):
        params = {f: getattr(fam, f) for f in cls.FIELDS}
        return WitnessFamily(fam.kind, **{**params, field: value})

    def test_one_row_per_family(self):
        assert list(FAMILIES) == list(FamilyKind)
        assert [fam.kind for fam in self.BASES] == list(FamilyKind)
        for fields, _ in FAMILIES.values():
            assert set(fields) <= set(self.FIELDS)

    @pytest.mark.parametrize("fam", BASES, ids=lambda fam: fam.kind.value)
    def test_an_unlisted_field_is_not_read(self, fam):
        want = outcome(fam)
        assert want.startswith("(")
        unlisted = [f for f in self.FIELDS if f not in FAMILIES[fam.kind][0]]
        assert unlisted
        for field in unlisted:
            for junk in self.JUNK:
                assert outcome(self.with_field(fam, field, junk)) == want, (field, junk)

    @pytest.mark.parametrize("fam", BASES, ids=lambda fam: fam.kind.value)
    def test_a_listed_field_is_read(self, fam):
        want = outcome(fam)
        for field in FAMILIES[fam.kind][0]:
            assert outcome(self.with_field(fam, field, None)) != want, field

    POWER_P1S = tuple(sorted({x * 2.0 ** -k for k in range(1, 9)
                              for x in (1.0, 1.01, 1.2, 1.5, 1.9, math.nextafter(2.0, 0.0))}))

    @pytest.mark.parametrize("kind", [k for k in FamilyKind if FAMILIES[k][1] is not None],
                             ids=lambda k: k.value)
    def test_a_power_family_has_2_lam_plus_offset_symbols(self, kind):
        offset = FAMILIES[kind][1]
        built = 0
        for p1 in self.POWER_P1S:
            try:
                p = generate(WitnessFamily(kind, p1=p1))
            except ParamsOutOfProofRange:
                continue
            built += 1
            assert p.n == 2 ** ceil_neg_lg(p1) + offset, p1
        assert built >= 10


class TestMmprTightness:
    def test_upper_high_attains_in_exact_region(self):
        for p1 in (2 / 3, 0.7, 0.8, 0.95):
            p = generate(WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=p1))
            assert oracle_mmpr(p).min_value == pytest.approx(
                1 + math.log2(p1), abs=1e-9)

    def test_upper_high_approaches_between_half_and_two_thirds(self):
        p1 = 0.55
        target = 2 + math.log2(1 - p1)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            p = generate(WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=p1, eps=eps))
            gap = target - oracle_mmpr(p).min_value
            assert gap > 0
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_upper_mid_attains(self):
        for p1 in (0.45, 0.41, 0.23):
            p = generate(WitnessFamily(FamilyKind.MMPR_UPPER_MID, p1=p1))
            lam = lambda_j(p1)
            r = mmpr_bounds(p1)
            assert r.upper == pytest.approx(lam + math.log2(p1), abs=1e-12)
            assert oracle_mmpr(p).min_value == pytest.approx(r.upper, abs=1e-9)

    def test_upper_low_approaches(self):
        for p1 in (0.3, 0.14):
            target = mmpr_bounds(p1).upper
            gaps = []
            for eps in (1e-3, 1e-4, 1e-5):
                p = generate(WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=p1, eps=eps))
                gap = target - oracle_mmpr(p).min_value
                assert gap > 0
                gaps.append(gap)
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[-1] < 0.01

    def test_lower_a_attains(self):
        for p1 in (0.34, 0.45, 0.15):
            p = generate(WitnessFamily(FamilyKind.MMPR_LOWER_A, p1=p1))
            lam = lambda_j(p1)
            expected = math.log2((1 - p1) / (1 - 2.0 ** (1 - lam)))
            assert mmpr_bounds(p1).lower == pytest.approx(expected, abs=1e-12)
            assert oracle_mmpr(p).min_value == pytest.approx(expected, abs=1e-9)

    def test_lower_b_attains(self):
        for p1 in (0.3, 0.26, 0.55, 0.13):
            p = generate(WitnessFamily(FamilyKind.MMPR_LOWER_B, p1=p1))
            lam = lambda_j(p1)
            expected = lam + math.log2(p1)
            assert mmpr_bounds(p1).lower == pytest.approx(expected, abs=1e-12)
            assert oracle_mmpr(p).min_value == pytest.approx(expected, abs=1e-9)


class TestLengthTightness:
    def test_len_upper_forces_long_first_codeword(self):
        for p1 in (0.3, 0.2, 0.14):
            p = generate(WitnessFamily(FamilyKind.LEN_UPPER_TIGHT, p1=p1))
            lam = lambda_j(p1)
            res = oracle_mmpr(p)
            # p_1 < 2^-(lam-1) yet every optimum pushes symbol 1 to depth lam
            assert all(lv.lengths[0] >= lam for lv in res.argmin)

    def test_len_lower_pins_value_and_depth(self):
        for p1 in (0.4, 0.2, 0.45):
            p = generate(WitnessFamily(FamilyKind.LEN_LOWER_TIGHT, p1=p1))
            nu = lambda_j(p1)
            res = oracle_mmpr(p)
            expected = nu + math.log2(1 - p1) - math.log2(2 ** nu - 2)
            assert res.min_value == pytest.approx(expected, abs=1e-9)
            assert any(lv.lengths[0] == nu - 1 for lv in res.argmin)
            assert all(lv.lengths[0] <= nu - 1 for lv in res.argmin)


class TestL1Families:
    def test_boundary_unique_square_optimum(self):
        for q in (0.6, 0.75, 1.0):
            p = generate(WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=q, eps=1e-3))
            obj = Objective.avg() if q == 1.0 else Objective.exp_average(q)
            res = brute_force_optimal(p, obj)
            assert res.argmin_lengths() == ((2, 2, 2, 2),)

    def test_counterexample_forces_l1_at_least_two(self):
        for q, p1 in ((2.0, 0.3), (1.5, 0.3)):
            p = generate(WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=q, p1=p1))
            res = brute_force_optimal(p, Objective.exp_average(q))
            assert all(lv.lengths[0] >= 2 for lv in res.argmin)

    def test_always_one_engine_confirms(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            q = float(rng.uniform(0.55, 0.95))
            p1 = float(rng.uniform(0.05, 0.95))
            fam = WitnessFamily(FamilyKind.L1_ALWAYS_ONE_Q_LT_1, q=q, p1=p1)
            p = generate(fam)
            if p.n > 4096:
                continue
            r = generalized_huffman(p, CombineRule.exp_base(q))
            assert r.lengths.lengths[0] == 1


class TestOneBitL1Cost:
    """log_q(q p_1 + (1-p_1) q^(3+m)), taken with q^(3+m) factored out."""

    QS = (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 1e3, 1e10, 1e50, 1e100, 1e150, 1e200, 1e300,
          1.7e308)
    P1S = (0.2000001, 0.25, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999)

    @staticmethod
    def levels(q, p1):
        return math.floor(math.log(4.0 * p1 / (1.0 - p1), q))

    def test_equals_the_unfactored_formula_wherever_it_is_finite(self):
        finite = 0
        for q in self.QS:
            for p1 in self.P1S:
                try:
                    direct = math.log(q * p1 + (1.0 - p1) * q ** (3 + self.levels(q, p1)), q)
                except OverflowError:
                    continue
                finite += 1
                assert abs(one_bit_l1_cost_bound(q, p1) - direct) <= 1e-12 * max(1.0, direct)
        assert 0 < finite < len(self.QS) * len(self.P1S)

    def test_within_1e12_of_a_200_bit_value_past_the_float_range_too(self):
        with mpmath.workprec(200):
            for q in self.QS:
                for p1 in self.P1S:
                    x, p = mpmath.mpf(q), mpmath.mpf(p1)
                    exact = mpmath.log(x * p + (1 - p) * x ** (3 + self.levels(q, p1)), x)
                    got = one_bit_l1_cost_bound(q, p1)
                    assert abs(got - exact) <= 1e-12 * max(1, abs(exact)), (q, p1)

    def test_huge_q_counterexample_still_dominated(self):
        # q^3 passes the float range; with m = 0 the best l_1 = 1 cost is
        # 3 + log_q(1/2 + q^-2 / 2) and the engine's code beats it
        fam = WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=1e300, p1=0.5)
        best = one_bit_l1_cost_bound(1e300, 0.5)
        assert best == pytest.approx(3 + math.log(0.5, 1e300), abs=1e-15)
        engine = generalized_huffman(generate(fam), CombineRule.exp_base(1e300))
        assert engine.lengths.lengths[0] >= 2
        assert engine.objective_value < best - 1e-9
