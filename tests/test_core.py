"""Core types and objective evaluators."""

import ast
import copy
import dataclasses
import importlib
import inspect
import math
import os
import pickle
import pprint
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genhuff
from genhuff import (
    AlphaOutOfRange,
    CodingError,
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
from genhuff.core import BOUND_TOL, PMF_SUM_TOL, BoundKind, BoundReport, cmp_ratio

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
        # min and max alone miss a NaN past the first entry
        for k in (1, 2, 3):
            probs = [0.5, 0.25, 0.25]
            probs[k - 1] = nan
            match = f"entry {k} of 3 is nan"
            with pytest.raises(NonPositiveProbability, match=match):
                validate_pmf(probs)
            with pytest.raises(NonPositiveProbability, match=match):
                validate_pmf(probs, normalize=True)
            with pytest.raises(NonPositiveProbability, match=match):
                Pmf(tuple(probs))

    def test_assume_sorted_verifies(self):
        with pytest.raises(Exception):
            validate_pmf([0.2, 0.8], assume_sorted=True)
        assert validate_pmf([0.8, 0.2], assume_sorted=True).probs == (0.8, 0.2)

    def test_normalize_is_explicit(self):
        p = validate_pmf([2.0, 1.0, 1.0], normalize=True)
        assert p.probs == pytest.approx((0.5, 0.25, 0.25))

    def test_normalize_past_float_range(self):
        assert validate_pmf([1e308, 1e308], normalize=True).probs == (0.5, 0.5)
        p = validate_pmf([1e308, 5e307, 5e307], normalize=True)
        assert p.probs == pytest.approx((0.5, 0.25, 0.25))
        with pytest.raises(NonPositiveProbability, match="entry 3 of 3"):
            validate_pmf([1e308, 1e308, 1e-300], normalize=True)
        with pytest.raises(NonPositiveProbability, match="entry 1 of 2"):
            validate_pmf([5e-324, 4.0], normalize=True)

    @pytest.mark.parametrize("kwargs", [{}, {"normalize": True}, {"assume_sorted": True}],
                             ids=["default", "normalize", "assume_sorted"])
    @pytest.mark.parametrize("pos", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [
        (0.0,), (-0.0,), (-0.25,), (-5e-324,), (math.inf,), (-math.inf,), (math.nan,),
        (math.nan, math.inf, -math.inf), (math.inf, math.nan, -math.inf),
        (-math.inf, math.inf, math.nan)], ids=repr)
    def test_refusal_quotes_the_first_bad_entry_in_input_order(self, kwargs, pos, bad):
        # the sort runs before positivity is read off the sorted list, yet
        # the refusal names the entry by its place in the input
        raw = [0.2] * 5
        for k, v in enumerate(bad):
            raw[(pos + 2 * k) % 5] = v
        first = next(k for k, v in enumerate(raw) if not 0.0 < v < math.inf)
        with pytest.raises(NonPositiveProbability) as exc:
            validate_pmf(raw, **kwargs)
        assert str(exc.value) == (f"all probabilities must be finite and > 0: "
                                  f"entry {first + 1} of 5 is {raw[first]!r}")

    @pytest.mark.parametrize("pos", [0, 1, 2], ids=["first", "middle", "last"])
    def test_subnormal_entries(self, pos):
        raw = [0.5, 0.5]
        raw.insert(pos, 5e-324)
        assert validate_pmf(raw).probs == (0.5, 0.5, 5e-324)
        if pos == 2:
            assert validate_pmf(raw, assume_sorted=True).probs == (0.5, 0.5, 5e-324)
        else:
            with pytest.raises(CodingError) as exc:
                validate_pmf(raw, assume_sorted=True)
            assert str(exc.value) == (f"probabilities must be sorted nonincreasing: of 3, "
                                      f"entry {pos + 1} (5e-324) < entry {pos + 2} (0.5)")
        big = [1e308, 1e308]
        big.insert(pos, 5e-324)
        with pytest.raises(NonPositiveProbability) as exc:
            validate_pmf(big, normalize=True)
        assert str(exc.value) == f"entry {pos + 1} of 3 (5e-324) underflows to 0 when normalised"
        with pytest.raises(SumNotOne) as exc:
            validate_pmf([5e-324] * 3)
        assert str(exc.value) == "3 probabilities sum to 1.5e-323, not 1"

    def test_sum_past_float_range_is_sum_not_one(self):
        # math.fsum raises OverflowError on these; without normalize they are refused
        for build in (validate_pmf, lambda r: validate_pmf(r, assume_sorted=True),
                      lambda r: Pmf(tuple(r))):
            with pytest.raises(SumNotOne) as exc:
                build([1e308, 1e308])
            assert str(exc.value) == "2 probabilities sum to inf, not 1"

    def test_messages_name_the_entry_not_the_vector(self):
        n = 100_000
        raw = [1.0 / n] * n
        raw[50_000] = math.nan
        for build in (validate_pmf, lambda r: Pmf(tuple(r))):
            with pytest.raises(NonPositiveProbability) as exc:
                build(raw)
            msg = str(exc.value)
            assert "entry 50001 of 100000 is nan" in msg
            assert len(msg) < 200
        with pytest.raises(SumNotOne) as exc:
            Pmf(tuple([0.5 / n] * n))
        assert str(exc.value).startswith(f"{n} probabilities sum to")
        assert len(str(exc.value)) < 200
        rising = [1.0 / n] * n
        rising[7], rising[8] = 0.5 / n, 1.5 / n
        with pytest.raises(CodingError) as exc:
            validate_pmf(rising, assume_sorted=True)
        assert "entry 8" in str(exc.value) and "entry 9" in str(exc.value)
        assert len(str(exc.value)) < 200

    def test_sorting_path_equals_direct_construction(self):
        weights = [float((i * 7919) % 101 + 1) for i in range(1000)]  # many ties
        total = math.fsum(weights)
        for raw in ([1.0], [0.25, 0.5, 0.25], [w / total for w in weights]):
            for normalize in (False, True):
                p = validate_pmf(raw, normalize=normalize)
                direct = Pmf(tuple(sorted(p.probs, reverse=True)))
                assert p == direct and hash(p) == hash(direct)
            assert validate_pmf(raw) == Pmf(tuple(sorted(raw, reverse=True)))

    @pytest.mark.parametrize("raw, normalize, error, message", [
        ([0.5, 0.4], False, SumNotOne, "2 probabilities sum to 0.9, not 1"),
        ([0.5, 0.5 + 2e-9], False, SumNotOne,
         "2 probabilities sum to 1.0000000020000002, not 1"),
        ([0.1] * 9, False, SumNotOne, "9 probabilities sum to 0.9, not 1"),
        ([0.25, 0.5, 0.3], False, SumNotOne, "3 probabilities sum to 1.05, not 1"),
        ([0.5, 0.5, 0.0], False, NonPositiveProbability,
         "all probabilities must be finite and > 0: entry 3 of 3 is 0.0"),
        ([0.5, -0.25, 0.75], False, NonPositiveProbability,
         "all probabilities must be finite and > 0: entry 2 of 3 is -0.25"),
        ([math.inf, 0.5], False, NonPositiveProbability,
         "all probabilities must be finite and > 0: entry 1 of 2 is inf"),
        ([0.5, 0.5, 0.0], True, NonPositiveProbability,
         "all probabilities must be finite and > 0: entry 3 of 3 is 0.0"),
        ([2.0, -1.0], True, NonPositiveProbability,
         "all probabilities must be finite and > 0: entry 2 of 2 is -1.0"),
        ([1.0, math.nan], True, NonPositiveProbability,
         "all probabilities must be finite and > 0: entry 2 of 2 is nan"),
        ([1e308, 1e308, 1e-300], True, NonPositiveProbability,
         "entry 3 of 3 (1e-300) underflows to 0 when normalised"),
        ([5e-324, 4.0], True, NonPositiveProbability,
         "entry 1 of 2 (5e-324) underflows to 0 when normalised"),
    ])
    def test_exact_messages(self, raw, normalize, error, message):
        with pytest.raises(error) as exc:
            validate_pmf(raw, normalize=normalize)
        assert str(exc.value) == message

    def test_assume_sorted_and_direct_construction_keep_every_check(self):
        unsorted = "probabilities must be sorted nonincreasing: of 2, entry 1 (0.2) < entry 2 (0.8)"
        for build in (lambda r: validate_pmf(r, assume_sorted=True), lambda r: Pmf(tuple(r))):
            with pytest.raises(CodingError) as exc:
                build([0.2, 0.8])
            assert str(exc.value) == unsorted
            with pytest.raises(SumNotOne, match=r"^2 probabilities sum to 0\.9, not 1$"):
                build([0.5, 0.4])
        with pytest.raises(NonPositiveProbability, match="entry 3 of 3 is 0.0$"):
            Pmf((0.5, 0.5, 0.0))
        with pytest.raises(EmptyInput):
            Pmf(())

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_normalized_input_always_validates(self, raw):
        total = math.fsum(raw)
        p = validate_pmf([x / total for x in raw], normalize=True)
        assert abs(math.fsum(p.probs) - 1.0) < 1e-9
        assert all(a >= b for a, b in zip(p.probs, p.probs[1:]))


def edge_sums():
    """The floats nearest 1 + PMF_SUM_TOL and 1 - PMF_SUM_TOL, and 1 to 3 ulps to
    either side of each."""
    sums = []
    for edge in (1.0 + PMF_SUM_TOL, 1.0 - PMF_SUM_TOL):
        below = above = edge
        sums.append(edge)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
            sums += (below, above)
    return sums


def summing_to(total, n):
    """n positive floats, nonincreasing, whose exact sum is ``total``: n - 1 of
    them 2^-m, with R = (n - 1) 2^-m <= 1/4, after total - R, which is exact."""
    m = max(2, (4 * (n - 1)).bit_length())
    vals = [total - (n - 1) * 2.0 ** -m] + [2.0 ** -m] * (n - 1)
    assert math.fsum(vals) == total
    return vals


def sum_refusal(build, vals):
    """The SumNotOne message ``build(vals)`` raises, or None where it accepts."""
    try:
        build(vals)
    except SumNotOne as exc:
        return str(exc)
    return None


def fsum_refusal(vals):
    """The message of fsum's decision on ``vals``: within PMF_SUM_TOL of 1 or not."""
    total = math.fsum(vals)
    return None if abs(total - 1.0) <= PMF_SUM_TOL else \
        f"{len(vals)} probabilities sum to {total!r}, not 1"


class TestSumCheck:
    """The sum check decides as fsum does, from the plain sum where that is far from the edge."""

    BUILDS = {
        "sorted": lambda vals: validate_pmf(random.Random(len(vals)).sample(vals, len(vals))),
        "assume_sorted": lambda vals: validate_pmf(vals, assume_sorted=True),
        "direct": lambda vals: Pmf(tuple(vals)),
    }

    @pytest.mark.parametrize("n", [2, 1000, 100_000])
    def test_edge_sums_decide_as_fsum(self, n):
        verdicts = set()
        for total in edge_sums():
            vals = summing_to(total, n)
            want = fsum_refusal(vals)
            verdicts.add(want is None)
            for name, build in self.BUILDS.items():
                assert sum_refusal(build, vals) == want, (n, total.hex(), name)
            # normalised by fsum's total first, then checked as any other list
            normed = [v / total for v in vals]
            assert sum_refusal(lambda v: validate_pmf(v, normalize=True), vals) \
                == fsum_refusal(sorted(normed, reverse=True))
        assert verdicts == {True, False}

    def test_plain_sum_off_the_edge_defers_to_fsum(self):
        # the least float that 1 - PMF_SUM_TOL accepts, less one ulp, plus half an
        # ulp and a little: the plain sum, in order or compensated, rounds the half
        # ulp to even and reads the float below the edge; fsum reads the edge
        edge = min(x for x in edge_sums() if 1.0 - x <= PMF_SUM_TOL)
        below = math.nextafter(edge, 0.0)
        vals = [0.5, below - 0.5, 2.0 ** -54, 2.0 ** -107]
        assert sum(vals) == below and math.fsum(vals) == edge
        assert abs(sum(vals) - 1.0) > PMF_SUM_TOL
        for build in (*self.BUILDS.values(), lambda v: validate_pmf(v, normalize=True)):
            assert sum_refusal(build, vals) is None
        # past the other edge, the same construction puts fsum's total an ulp
        # above the plain sum, and the refusal quotes fsum's
        top = max(x for x in edge_sums() if x - 1.0 <= PMF_SUM_TOL)
        above = math.nextafter(top, 2.0)
        vals = [above - 0.5, 0.5, 2.0 ** -53, 2.0 ** -106]
        total = math.fsum(vals)
        assert sum(vals) == above and total == math.nextafter(above, 2.0)
        for build in self.BUILDS.values():
            assert sum_refusal(build, vals) == f"4 probabilities sum to {total!r}, not 1"

    def test_plain_sum_within_its_error_bound_of_the_edge_defers_to_fsum(self):
        # 99,999 entries 2^-54 after one x in [1, 2): summed in order, each is
        # below half an ulp of x and lost, so the plain sum reads x, inside the
        # edge by 2.5e-12, while the exact sum is outside it by ~3e-12; the
        # plain sum's error bound, n 2^-52 ~ 2.2e-11, leaves the call to fsum
        n = 100_000
        x = 1.0 + PMF_SUM_TOL - 2.5e-12
        vals = [x] + [2.0 ** -54] * (n - 1)
        assert abs(math.fsum(vals) - 1.0) > PMF_SUM_TOL > abs(x - 1.0)
        for build in self.BUILDS.values():
            assert sum_refusal(build, vals) == fsum_refusal(vals) is not None


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
        with pytest.raises(CodingError, match="entry 2 of 2 is 1.0"):
            LengthVector((1, 1.0))

    def test_exact_messages(self):
        for lengths, entry in (((2, -1, 1), "entry 2 of 3 is -1"), ((1.5,), "entry 1 of 1 is 1.5"),
                               ((1, 2, 2, -1), "entry 4 of 4 is -1")):
            with pytest.raises(CodingError) as exc:
                LengthVector(lengths)
            assert str(exc.value) == f"lengths must be nonnegative integers: {entry}"
        with pytest.raises(EmptyInput) as exc:
            LengthVector(())
        assert str(exc.value) == "length vector needs at least one entry"

    def test_checked_construction_equals_direct(self):
        for lengths in ((0,), (1, 2, 2), (3, 1, 3, 2), tuple(range(1, 1100)) + (1100, 1100)):
            checked = LengthVector._checked(lengths)
            direct = LengthVector(lengths)
            assert checked == direct and hash(checked) == hash(direct)
            assert checked.lengths is lengths


def doubling_ceil_neg_lg(p):
    """ceil(-lg p) by exact repeated doubling, the form ceil_neg_lg replaced."""
    k = 0
    while p < 1.0:
        p *= 2.0
        k += 1
    return k


class TestCeilNegLg:
    def test_powers_of_two_exact(self):
        # down to 2^-1074, the least subnormal
        for k in range(0, 1075):
            assert ceil_neg_lg(2.0 ** -k) == k

    def test_generic(self):
        assert ceil_neg_lg(0.3) == 2
        assert ceil_neg_lg(0.01) == 7
        assert ceil_neg_lg(1.0) == 0
        # an ulp either side of 2^-k and of 1/(2^k - 1), subnormal past k = 1022
        for k in range(1, 1075):
            for x in (2.0 ** -k, 1 / (2 ** (k + 1) - 1)):
                for p in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)):
                    if p > 0.0:  # not below 2^-1074
                        assert ceil_neg_lg(p) == doubling_ceil_neg_lg(p), p

    def test_rejects_out_of_range(self):
        with pytest.raises(NonPositiveProbability):
            ceil_neg_lg(0.0)
        with pytest.raises(NonPositiveProbability):
            ceil_neg_lg(1.5)


def fraction_cmp_ratio(p, num, den):
    """The sign of p - num/den taken in Fraction, the form cmp_ratio replaced."""
    diff = Fraction(p) * den - num
    return (diff > 0) - (diff < 0)


class TestCmpRatio:
    def test_matches_fraction_form_at_row_ends(self):
        # the floats nearest 1/(2^lam - 1) and 2/(2^lam + 1), +-3 ulp
        for lam in range(2, 17):
            for num, den in ((1, 2 ** lam - 1), (2, 2 ** lam + 1)):
                xs = [num / den]
                for _ in range(3):
                    xs = [math.nextafter(xs[0], 0.0), *xs, math.nextafter(xs[-1], 1.0)]
                signs = [cmp_ratio(x, num, den) for x in xs]
                assert signs == [fraction_cmp_ratio(x, num, den) for x in xs]
                assert signs == sorted(signs) and signs[0] == -1 and signs[-1] == 1

    def test_exact_ratio_is_zero(self):
        assert cmp_ratio(0.25, 1, 4) == 0
        assert cmp_ratio(0.75, -3, -4) == 0
        assert cmp_ratio(5e-324, 1, 2 ** 1074) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70))
    def test_matches_fraction_form_on_random_floats(self, p, num, den):
        assert cmp_ratio(p, num, den) == fraction_cmp_ratio(p, num, den)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises_as_fraction_form_does(self, p):
        with pytest.raises(Exception) as want:
            fraction_cmp_ratio(p, 1, 3)
        with pytest.raises(Exception) as got:
            cmp_ratio(p, 1, 3)
        assert type(got.value) is type(want.value)


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

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan, 1e308, 1.0000000000000002e300])
    def test_d_without_a_finite_value_refused(self, d):
        with pytest.raises(DOutOfRange, match=r"\(0,1e\+300\]"):
            Objective.dth_exp(d)

    @pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
    def test_q_not_finite_refused(self, q):
        with pytest.raises(QOutOfRange, match="finite"):
            Objective.exp_average(q)

    def test_extreme_finite_params_give_finite_values(self):
        p = validate_pmf([0.5, 0.25, 0.125, 0.125])
        l = LengthVector((1, 2, 3, 3))
        for obj in (Objective.dth_exp(1e300), Objective.exp_average(1e308),
                    Objective.exp_average(5e-324)):
            assert math.isfinite(obj.evaluate(p, l))

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

    from genhuff import kraft_length_tuples

    while True:
        raw = rng.dirichlet(np.ones(n))
        if raw.min() > 1e-9:
            break
    p = validate_pmf([float(x) for x in raw])
    options = list(kraft_length_tuples(n))
    return p, LengthVector(options[int(rng.integers(len(options)))])


class TestBoundReportContains:
    def test_one_tolerance_past_either_endpoint(self):
        r = BoundReport(0.25, 0.75, BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
        assert BOUND_TOL == 1e-9
        assert r.contains(0.25 - BOUND_TOL) and r.contains(0.75 + BOUND_TOL)
        assert not r.contains(0.25 - 2 * BOUND_TOL) and not r.contains(0.75 + 2 * BOUND_TOL)
        with pytest.raises(TypeError):
            r.contains(0.5, tol=0.0)


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


SUBMODULES = ("bounds", "coder", "core", "oracle", "witness")


@pytest.mark.parametrize("module", SUBMODULES)
def test_star_import(module):
    # fails on an __all__ entry whose name was deleted from the module
    exec(f"from genhuff.{module} import *", {})


class TestPackageNames:
    def test_all_is_the_submodules_and_their_all(self):
        modules = [importlib.import_module(f"genhuff.{m}") for m in SUBMODULES]
        assert set(genhuff.__all__) == {*SUBMODULES, *(n for m in modules for n in m.__all__)}
        assert len(genhuff.__all__) == 68

    @pytest.mark.parametrize("module", sorted(genhuff._LAZY))
    def test_lazy_row_is_the_module_all(self, module):
        names = importlib.import_module(f"genhuff.{module}").__all__
        assert list(genhuff._LAZY[module]) == list(names)

    def test_every_name_in_all_resolves(self):
        for name in genhuff.__all__:
            assert getattr(genhuff, name) is not None, name
        assert len(set(genhuff.__all__)) == len(genhuff.__all__)

    def test_star_import_gives_all(self):
        names = {}
        exec("from genhuff import *", names)
        names.pop("__builtins__")
        assert set(names) == set(genhuff.__all__)

    def test_lazy_name_is_the_module_attribute(self):
        import genhuff.oracle

        assert genhuff.brute_force_optimal is genhuff.oracle.brute_force_optimal

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            genhuff.no_such_name
        with pytest.raises(ImportError):
            exec("from genhuff import no_such_name", {})


# each record class: (class name, module, positional arguments for every
# field, arguments for the fields that have no default, the repr of the first)
RECORDS = [
    ("Pmf", "core", lambda: ((0.5, 0.5),), None,
     "Pmf(probs=(0.5, 0.5))"),
    ("LengthVector", "core", lambda: ((1, 2, 2),), None,
     "LengthVector(lengths=(1, 2, 2))"),
    ("Objective", "core", lambda: (genhuff.ObjectiveKind.DTH_EXP, 0.5),
     lambda: (genhuff.ObjectiveKind.AVG_REDUNDANCY,),
     "Objective(kind=<ObjectiveKind.DTH_EXP: 'dexp'>, param=0.5)"),
    ("BoundReport", "core",
     lambda: (0.0, 1.0, genhuff.BoundKind.ACHIEVABLE, genhuff.BoundKind.APPROACHABLE, None,
              "unit upper bound"),
     lambda: (0.0, 1.0, genhuff.BoundKind.ACHIEVABLE, genhuff.BoundKind.APPROACHABLE),
     "BoundReport(lower=0.0, upper=1.0, lower_kind=<BoundKind.ACHIEVABLE: 'achievable'>, "
     "upper_kind=<BoundKind.APPROACHABLE: 'approachable'>, exact=None, "
     "note='unit upper bound')"),
    ("CombineRule", "coder", lambda: (genhuff.RuleKind.EXP_BASE, 2.0),
     lambda: (genhuff.RuleKind.SUM,),
     "CombineRule(kind=<RuleKind.EXP_BASE: 'exp_base'>, param=2.0)"),
    ("CodeResult", "coder", lambda: (LengthVector((1, 2, 2)), ("0", "10", "11"), 0.5), None,
     "CodeResult(lengths=LengthVector(lengths=(1, 2, 2)), codewords=('0', '10', '11'), "
     "objective_value=0.5)"),
    ("OracleResult", "oracle", lambda: (1.5, (LengthVector((1, 1)),), 2), None,
     "OracleResult(min_value=1.5, argmin=(LengthVector(lengths=(1, 1)),), "
     "evaluated_count=2)"),
    ("WitnessFamily", "witness",
     lambda: (genhuff.FamilyKind.MMPR_UPPER_HIGH, 0.55, 0.05, None),
     lambda: (genhuff.FamilyKind.L1_BOUNDARY_Q_LE_1,),
     "WitnessFamily(kind=<FamilyKind.MMPR_UPPER_HIGH: 'mmpr-upper-high'>, p1=0.55, "
     "eps=0.05, q=None)"),
]


def record_class(name, module):
    return getattr(importlib.import_module(f"genhuff.{module}"), name)


@pytest.mark.parametrize("name,module,args,bare,text", RECORDS,
                         ids=[r[0] for r in RECORDS])
class TestRecords:
    """Every immutable record keeps the frozen dataclass behaviour it replaced."""

    def test_positional_keyword_and_default_construction(self, name, module, args, bare, text):
        cls = record_class(name, module)
        values = args()
        rec = cls(*values)
        assert cls.__match_args__ == cls._fields and len(cls._fields) == len(values)
        assert tuple(getattr(rec, f) for f in cls._fields) == values
        by_name = cls(**dict(zip(cls._fields, values)))
        assert by_name == rec and type(by_name) is cls
        required = values if bare is None else bare()
        if bare is not None:
            made = cls(*required)
            assert all(getattr(made, f) is None for f in cls._fields[len(required):])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*required[:-1])

    def test_equality_and_hash_read_the_fields_of_one_class(self, name, module, args, bare,
                                                           text):
        cls = record_class(name, module)
        rec, twin = cls(*args()), cls(*args())
        assert rec is not twin and rec == twin and not rec != twin
        assert hash(rec) == hash(twin) == hash(args())
        assert len({rec, twin}) == 1
        assert rec.__eq__(args()) is NotImplemented and rec != args()

    def test_repr_is_the_dataclass_repr(self, name, module, args, bare, text):
        assert repr(record_class(name, module)(*args())) == text

    def test_assignment_and_deletion_are_refused(self, name, module, args, bare, text):
        rec = record_class(name, module)(*args())
        field = rec._fields[0]
        before = getattr(rec, field)
        with pytest.raises(AttributeError, match=field):
            setattr(rec, field, before)
        with pytest.raises(AttributeError, match=field):
            delattr(rec, field)
        with pytest.raises(AttributeError, match="extra"):
            rec.extra = 1
        assert getattr(rec, field) is before and not hasattr(rec, "extra")

    def test_copy_and_pickle_round_trip(self, name, module, args, bare, text):
        rec = record_class(name, module)(*args())
        for made in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(made) is type(rec) and made == rec and hash(made) == hash(rec)
            assert repr(made) == text


class TestRecordBase:
    def test_fields_are_the_class_annotations(self):
        # in order, the subclass's own; an unannotated attribute is no field
        class Pair(genhuff.core._Record):
            left: int
            right: str
            kind = "pair"

            def __init__(self, left, right):
                object.__setattr__(self, "left", left)
                object.__setattr__(self, "right", right)

        rec = Pair(1, "a")
        assert Pair._fields == Pair.__match_args__ == ("left", "right")
        assert repr(rec).endswith("Pair(left=1, right='a')") and rec == Pair(1, "a")
        match rec:
            case Pair(1, right):
                assert right == "a"
            case _:
                pytest.fail("positional pattern did not bind the fields")

    def test_objective_and_combine_rule_with_equal_fields_differ(self):
        obj = Objective.dth_exp(0.5)
        rule = object.__new__(genhuff.CombineRule)
        object.__setattr__(rule, "kind", obj.kind)
        object.__setattr__(rule, "param", obj.param)
        assert rule._values() == obj._values() and hash(rule) == hash(obj)
        assert obj.__eq__(rule) is NotImplemented and rule.__eq__(obj) is NotImplemented
        assert obj != rule and rule != obj

    def test_cached_attributes_are_not_fields(self):
        # _runs and _family live in __dict__ next to the fields; equality and
        # repr do not read them, and a pickle carries them as they are
        made = LengthVector._checked((1, 1), ((1,), (2,)))
        assert pickle.loads(pickle.dumps(made))._runs == ((1,), (2,))
        obj = Objective.exp_average(2.0)
        assert obj._family == (1.0, 1.0, 2.0)
        assert pickle.loads(pickle.dumps(obj)) == obj and "_family" not in repr(obj)

    def test_code_result_is_the_only_dataclass(self):
        # it answers the protocol, and no module builds a class with
        # @dataclass or imports dataclasses at module level
        src = os.path.join(os.path.dirname(genhuff.__file__))
        made = set()
        for module in ("core", "coder", "bounds", "oracle", "witness", "verify", "reports",
                       "cli"):
            mod = importlib.import_module(f"genhuff.{module}")
            made |= {obj.__qualname__ for obj in vars(mod).values()
                     if inspect.isclass(obj) and obj.__module__ == mod.__name__
                     and dataclasses.is_dataclass(obj)}
            with open(os.path.join(src, f"{module}.py")) as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:
                if isinstance(node, ast.Import):
                    assert "dataclasses" not in [alias.name for alias in node.names], module
                elif isinstance(node, ast.ImportFrom):
                    assert node.module != "dataclasses", module
            decorators = {ast.unparse(d) for node in ast.walk(tree)
                          if isinstance(node, ast.ClassDef) for d in node.decorator_list}
            assert not any("dataclass" in d for d in decorators), (module, decorators)
        assert made == {"CodeResult"}


# pickle.dumps(result, protocol=2) of the avg code of (0.5, 0.3, 0.2), taken
# while CodeResult was a frozen @dataclass
DATACLASS_PICKLE = (
    b"\x80\x02cgenhuff.coder\nCodeResult\nq\x00)\x81q\x01}q\x02(X\x07\x00\x00\x00lengthsq"
    b"\x03cgenhuff.core\nLengthVector\nq\x04)\x81q\x05}q\x06(h\x03K\x01K\x02K\x02\x87q\x07X"
    b"\x05\x00\x00\x00_runsq\x08K\x01K\x02\x86q\tK\x01K\x02\x86q\n\x86q\x0bubX\t\x00\x00\x00"
    b"codewordsq\x0cX\x01\x00\x00\x000q\rX\x02\x00\x00\x0010q\x0eX\x02\x00\x00\x0011q\x0f\x87q"
    b"\x10X\x0f\x00\x00\x00objective_valueq\x11G?\x8d\xbf \x9b$J ub."
)


class TestCodeResultProtocol:
    """CodeResult is a core._Record that answers the dataclass protocol as the
    frozen dataclass it replaced did, with the fields made on first read."""

    @staticmethod
    def result():
        return genhuff.generalized_huffman(Pmf((0.5, 0.3, 0.2)), genhuff.CombineRule.sum())

    def test_fields_in_order_with_their_annotations(self):
        res = self.result()
        assert dataclasses.is_dataclass(res) and dataclasses.is_dataclass(genhuff.CodeResult)
        fields = dataclasses.fields(res)
        assert [(f.name, f.type) for f in fields] == [
            ("lengths", "LengthVector"), ("codewords", "tuple[str, ...]"),
            ("objective_value", "float")]
        assert all(f.init and f.repr and f.compare and f.hash is None and not f.kw_only
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING for f in fields)
        assert fields == dataclasses.fields(genhuff.CodeResult)
        params = genhuff.CodeResult.__dataclass_params__
        assert (params.init, params.repr, params.eq, params.order, params.unsafe_hash,
                params.frozen) == (True, True, True, False, False, True)

    def test_replace_asdict_and_astuple(self):
        res = self.result()
        short = LengthVector((1, 1, 2))
        made = dataclasses.replace(res, lengths=short)
        assert type(made) is genhuff.CodeResult
        assert (made.lengths, made.codewords, made.objective_value) == (
            short, res.codewords, res.objective_value)
        assert dataclasses.replace(res) == res
        assert dataclasses.asdict(res) == {
            "lengths": res.lengths, "codewords": ("0", "10", "11"),
            "objective_value": res.objective_value}
        assert dataclasses.astuple(res) == (res.lengths, ("0", "10", "11"), res.objective_value)
        with pytest.raises(TypeError):
            dataclasses.replace(res, extra=1)

    def test_replace_hook(self):
        # copy.replace (Python 3.13) calls it, as on a dataclass there
        res = self.result()
        assert res.__replace__(objective_value=2.0) == genhuff.CodeResult(
            res.lengths, res.codewords, 2.0)
        assert res.__replace__() == res
        with pytest.raises(TypeError):
            res.__replace__(extra=1)
        if hasattr(copy, "replace"):
            assert copy.replace(res, objective_value=2.0).objective_value == 2.0

    def test_pretty_printing_reads_the_params(self):
        # pprint reads __dataclass_params__ once is_dataclass is true and
        # the repr does not fit
        text = pprint.pformat(self.result(), width=40)
        assert text.startswith("CodeResult(lengths=") and "objective_value=" in text

    def test_a_dataclass_pickle_loads_equal(self):
        made = pickle.loads(DATACLASS_PICKLE)
        assert type(made) is genhuff.CodeResult and made == self.result()
        assert made.lengths.kraft_sum == 1

    def test_protocol_is_made_on_first_read_without_start_up_paying(self):
        child = ("import sys; from genhuff import CodeResult; "
                 "from genhuff.coder import _DataclassProtocol; "
                 "d = CodeResult.__dict__; "
                 "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules; "
                 "assert isinstance(d['__dataclass_fields__'], _DataclassProtocol); "
                 "params = CodeResult.__dataclass_params__; "
                 "assert 'dataclasses' in sys.modules and params.frozen; "
                 "assert d['__dataclass_params__'] is params; "
                 "assert list(d['__dataclass_fields__']) == list(CodeResult._fields)")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
