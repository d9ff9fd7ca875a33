"""Core types and objective evaluators."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genhuff import (
    AlphaOutOfRange,
    DimensionMismatch,
    DOutOfRange,
    EmptyInput,
    LengthVector,
    NonPositiveProbability,
    Objective,
    Pmf,
    QOutOfRange,
    SumNotOne,
    alpha_of_q,
    avg_redundancy,
    benford,
    ceil_neg_lg,
    dth_exp_redundancy,
    exp_average_cost,
    max_pointwise_redundancy,
    renyi_entropy,
    shannon_entropy,
    success_probability,
    validate_pmf,
)

# frozen by direct 40-digit evaluation of the defining formulas
BENFORD = (0.3010299956639812, 0.17609125905568124, 0.12493873660829995,
           0.09691001300805641, 0.07918124604762482, 0.0669467896306132,
           0.057991946977686755, 0.05115252244738129, 0.045757490560675125)
BENFORD_SHANNON = 2.8759161209901316
ALPHA_06 = 3.8017840169239303
RENYI_06 = 2.2596011654072414
RENYI_2 = 3.0260632547325282
COST_06 = 2.382604845074305
SUCCESS_06 = 0.29608887801234003
COST_2 = 3.099407991792577
LG_1_2 = 0.26303440583379383
AVG_532 = 0.014524702772665681
DTH_532_D1000 = 0.26129744023962763
DTH_532_D10000 = 0.2628607092743772


def lv(*lengths):
    return LengthVector(tuple(lengths))


class TestValidatePmf:
    def test_sorts_descending(self):
        assert validate_pmf([0.2, 0.5, 0.3]).probs == (0.5, 0.3, 0.2)

    def test_single_symbol(self):
        assert validate_pmf([1.0]).probs == (1.0,)

    def test_benford_values(self):
        got = benford().probs
        assert got == pytest.approx(BENFORD, abs=1e-15)
        assert [round(x, 2) for x in got] == [0.30, 0.18, 0.12, 0.10, 0.08,
                                              0.07, 0.06, 0.05, 0.05]

    def test_errors(self):
        with pytest.raises(EmptyInput):
            validate_pmf([])
        with pytest.raises(NonPositiveProbability):
            validate_pmf([0.5, 0.5, 0.0])
        with pytest.raises(SumNotOne):
            validate_pmf([0.5, 0.4])
        with pytest.raises(SumNotOne):
            validate_pmf([0.5, 0.5 + 2e-9])

    def test_rejects_non_finite(self):
        nan, inf = math.nan, math.inf
        for raw in ([1.0, nan], [nan], [inf, 0.5], [0.5, 0.5, -inf]):
            with pytest.raises(NonPositiveProbability):
                validate_pmf(raw)
            with pytest.raises(NonPositiveProbability):
                validate_pmf(raw, normalize=True)
        for probs in ((1.0, nan), (nan,), (inf, 0.5)):
            with pytest.raises(NonPositiveProbability):
                Pmf(probs)

    def test_assume_sorted_verifies(self):
        with pytest.raises(Exception):
            validate_pmf([0.2, 0.8], assume_sorted=True)
        assert validate_pmf([0.8, 0.2], assume_sorted=True).probs == (0.8, 0.2)

    def test_normalize_is_explicit(self):
        p = validate_pmf([2.0, 1.0, 1.0], normalize=True)
        assert p.probs == pytest.approx((0.5, 0.25, 0.25))

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_normalized_input_always_validates(self, raw):
        total = math.fsum(raw)
        p = validate_pmf([x / total for x in raw], normalize=True)
        assert abs(math.fsum(p.probs) - 1.0) < 1e-9
        assert all(a >= b for a, b in zip(p.probs, p.probs[1:]))


class TestLengthVector:
    def test_kraft_exact(self):
        assert lv(1, 2, 2).kraft_sum == 1
        assert lv(1, 2, 2).is_complete
        assert lv(1, 2, 3).kraft_sum == pytest.approx(0.875)
        assert lv(1, 2, 3).is_valid
        assert not lv(1, 1, 1).is_valid

    def test_exactness_at_depth_64(self):
        deep = lv(*([1] + [64]))
        assert not deep.is_complete and deep.is_valid

    def test_exactness_past_float_range(self):
        # 2^-1100 underflows a float; the integer sum still sees it
        lengths = list(range(1, 1100)) + [1100, 1100]
        assert lv(*lengths).is_complete
        assert lv(*lengths).kraft_sum == 1
        over = lv(*(lengths + [1100]))
        assert not over.is_valid
        assert over.kraft_sum == 1 + Fraction(1, 2 ** 1100)
        under = lv(*lengths[:-1])
        assert under.is_valid and not under.is_complete

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(Exception):
            lv(1, -1)
        with pytest.raises(Exception):
            LengthVector((1.0, 2.0))


class TestCeilNegLg:
    def test_powers_of_two_exact(self):
        for k in range(0, 60):
            assert ceil_neg_lg(2.0 ** -k) == k

    def test_generic(self):
        assert ceil_neg_lg(0.3) == 2
        assert ceil_neg_lg(0.01) == 7
        assert ceil_neg_lg(1.0) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(NonPositiveProbability):
            ceil_neg_lg(0.0)
        with pytest.raises(NonPositiveProbability):
            ceil_neg_lg(1.5)


class TestObjective:
    def test_param_domains(self):
        with pytest.raises(DOutOfRange):
            Objective.dth_exp(0.0)
        with pytest.raises(DOutOfRange):
            Objective.dth_exp(-1.0)
        with pytest.raises(QOutOfRange):
            Objective.exp_average(1.0)
        with pytest.raises(QOutOfRange):
            Objective.exp_average(0.0)
        Objective.dth_exp(-0.5)
        Objective.exp_average(0.4)

    def test_no_param_for_plain_kinds(self):
        with pytest.raises(Exception):
            Objective(kind=Objective.avg().kind, param=1.0)


class TestEntropies:
    def test_shannon_uniform_and_degenerate(self):
        assert shannon_entropy(validate_pmf([0.25] * 4)) == pytest.approx(2.0)
        assert shannon_entropy(validate_pmf([1.0])) == pytest.approx(0.0)

    def test_shannon_benford(self):
        assert shannon_entropy(benford()) == pytest.approx(BENFORD_SHANNON, abs=1e-12)

    def test_renyi_benford(self):
        assert renyi_entropy(benford(), ALPHA_06) == pytest.approx(RENYI_06, abs=1e-12)
        assert renyi_entropy(benford(), 0.5) == pytest.approx(RENYI_2, abs=1e-12)

    def test_renyi_uniform_all_orders(self):
        for k in (1, 2, 3):
            p = validate_pmf([2.0 ** -k] * 2 ** k)
            for a in (0.3, 0.5, 2.0, 7.0):
                assert renyi_entropy(p, a) == pytest.approx(k, abs=1e-12)

    def test_renyi_extreme_alpha_stays_finite(self):
        p = validate_pmf([0.9, 0.05, 0.05])
        h = renyi_entropy(p, 3.5e5)
        assert h == pytest.approx(-math.log2(0.9), abs=1e-4)

    def test_renyi_domain(self):
        with pytest.raises(AlphaOutOfRange):
            renyi_entropy(benford(), 1.0)
        with pytest.raises(AlphaOutOfRange):
            renyi_entropy(benford(), 0.0)


class TestAlphaOfQ:
    def test_values(self):
        assert alpha_of_q(2.0) == pytest.approx(0.5)
        assert alpha_of_q(0.6) == pytest.approx(ALPHA_06, abs=1e-12)

    def test_domain(self):
        for q in (1.0, 0.5, 0.3):
            with pytest.raises(QOutOfRange):
                alpha_of_q(q)


class TestEvaluators:
    def test_avg_dyadic_zero(self):
        assert avg_redundancy(validate_pmf([0.5, 0.25, 0.25]), lv(1, 2, 2)) \
            == pytest.approx(0.0, abs=1e-15)
        assert avg_redundancy(validate_pmf([1.0]), lv(0)) == 0.0

    def test_avg_direct_value(self):
        p = validate_pmf([0.5, 0.3, 0.2])
        assert avg_redundancy(p, lv(1, 2, 2)) == pytest.approx(AVG_532, abs=1e-14)

    def test_mmpr_values(self):
        p = validate_pmf([0.5, 0.3, 0.2])
        assert max_pointwise_redundancy(p, lv(1, 2, 2)) == pytest.approx(LG_1_2, abs=1e-14)
        p2 = validate_pmf([0.99, 0.01])
        assert max_pointwise_redundancy(p2, lv(1, 6)) \
            == pytest.approx(1 + math.log2(0.99), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            avg_redundancy(validate_pmf([0.5, 0.5]), lv(1, 1, 1))
        with pytest.raises(DimensionMismatch):
            max_pointwise_redundancy(validate_pmf([0.5, 0.5]), lv(1))

    def test_dth_dyadic_zero(self):
        p = validate_pmf([0.5, 0.25, 0.25])
        for d in (-0.5, 0.1, 3.0, 1e4):
            assert dth_exp_redundancy(p, lv(1, 2, 2), d) == pytest.approx(0.0, abs=1e-12)

    def test_dth_frozen_values_and_limits(self):
        p = validate_pmf([0.5, 0.3, 0.2])
        code = lv(1, 2, 2)
        assert dth_exp_redundancy(p, code, 1000.0) \
            == pytest.approx(DTH_532_D1000, abs=1e-12)
        # large-d limit: within 1e-3 of the max pointwise redundancy at d=1e4
        assert dth_exp_redundancy(p, code, 1e4) == pytest.approx(DTH_532_D10000, abs=1e-12)
        assert abs(dth_exp_redundancy(p, code, 1e4) - LG_1_2) < 1e-3
        assert abs(dth_exp_redundancy(p, code, 1e-6) - avg_redundancy(p, code)) < 1e-5

    def test_dth_domain(self):
        p = validate_pmf([0.5, 0.5])
        for d in (0.0, -1.0, -2.0):
            with pytest.raises(DOutOfRange):
                dth_exp_redundancy(p, lv(1, 1), d)

    def test_exp_cost_benford(self):
        b = benford()
        assert exp_average_cost(b, lv(1, 2, 3, 4, 5, 6, 7, 8, 8), 0.6) \
            == pytest.approx(COST_06, abs=1e-12)
        assert exp_average_cost(b, lv(2, 3, 3, 3, 3, 4, 4, 4, 4), 2.0) \
            == pytest.approx(COST_2, abs=1e-12)

    def test_exp_cost_fixed_length(self):
        p = validate_pmf([0.4, 0.35, 0.25])
        for q in (0.3, 0.6, 1.7, 5.0):
            assert exp_average_cost(p, lv(2, 2, 2), q) == pytest.approx(2.0, abs=1e-12)

    def test_success_values(self):
        b = benford()
        assert success_probability(b, lv(1, 2, 3, 4, 5, 6, 7, 8, 8), 0.6) \
            == pytest.approx(SUCCESS_06, abs=1e-12)
        assert success_probability(validate_pmf([1.0]), lv(0), 0.7) == pytest.approx(1.0)
        p = validate_pmf([0.6, 0.4])
        assert success_probability(p, lv(1, 1), 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_success_domain(self):
        with pytest.raises(QOutOfRange):
            success_probability(validate_pmf([0.5, 0.5]), lv(1, 1), 1.5)


def _random_pair(rng, n):
    import numpy as np

    from genhuff import enumerate_kraft_lengths

    while True:
        raw = rng.dirichlet(np.ones(n))
        if raw.min() > 1e-9:
            break
    p = validate_pmf([float(x) for x in raw])
    options = list(enumerate_kraft_lengths(n))
    return p, options[int(rng.integers(len(options)))]


class TestCrossObjectiveProperties:
    def test_moment_ordering_chain(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(300):
            p, code = _random_pair(rng, int(rng.integers(2, 9)))
            r_avg = avg_redundancy(p, code)
            values = [r_avg]
            for d in (0.3, 1.0, 4.0):
                values.append(dth_exp_redundancy(p, code, d))
            values.append(max_pointwise_redundancy(p, code))
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-12
            neg = dth_exp_redundancy(p, code, -0.5)
            assert -1e-12 <= neg <= r_avg + 1e-12

    def test_near_minus_one_vanishes_with_kraft_equality(self):
        import numpy as np

        rng = np.random.default_rng(8)
        for _ in range(50):
            p, code = _random_pair(rng, int(rng.integers(2, 8)))
            coarse = abs(dth_exp_redundancy(p, code, -1 + 1e-2))
            fine = abs(dth_exp_redundancy(p, code, -1 + 1e-3))
            assert fine <= coarse + 1e-12
            assert fine < 0.02

    def test_success_equals_q_to_cost(self):
        import numpy as np

        rng = np.random.default_rng(9)
        for _ in range(100):
            p, code = _random_pair(rng, int(rng.integers(2, 9)))
            q = float(rng.uniform(0.05, 0.95))
            s = success_probability(p, code, q)
            assert s == pytest.approx(q ** exp_average_cost(p, code, q), rel=1e-12)

    def test_dth_limits_on_random_inputs(self):
        import numpy as np

        rng = np.random.default_rng(10)
        for _ in range(100):
            p, code = _random_pair(rng, int(rng.integers(2, 9)))
            for d in (1e-6, -1e-6):
                assert abs(dth_exp_redundancy(p, code, d)
                           - avg_redundancy(p, code)) < 1e-4
            assert abs(dth_exp_redundancy(p, code, 1e4)
                       - max_pointwise_redundancy(p, code)) < 1e-3
