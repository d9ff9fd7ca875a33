"""Acceptance battery: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output on failure).
"""

import functools
import math
import time

import numpy as np
import pytest

from genhuff import (
    CombineRule,
    FamilyKind,
    LengthVector,
    Objective,
    WitnessFamily,
    alpha_of_q,
    avg_redundancy,
    benford,
    brute_force_optimal,
    dth_exp_redundancy,
    exp_average_cost,
    exp_avg_bounds,
    exp_avg_bounds_l1,
    exp_avg_unit_bounds,
    generalized_huffman,
    generate,
    hat_transform,
    kraft_length_tuples,
    lambda_j,
    max_pointwise_redundancy,
    mmpr_bounds,
    renyi_entropy,
    success_probability,
    unary_code,
    validate_pmf,
)
from genhuff.witness import one_bit_l1_cost_bound


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn() or ""
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS"
                  + (f" [{detail}]" if detail else ""))
        return run
    return wrap


def random_pmf(rng, n):
    while True:
        raw = rng.dirichlet(np.ones(n))
        if raw.min() > 1e-9:
            return validate_pmf([float(x) for x in raw])


def random_code(rng, n):
    options = list(kraft_length_tuples(n))
    return LengthVector(options[int(rng.integers(len(options)))])


@criterion(1, "Benford q=0.6 code, cost, success, unit bounds")
def test_criterion_01():
    t0 = time.perf_counter()
    p = benford()
    result = generalized_huffman(p, CombineRule.exp_base(0.6))
    assert result.lengths.lengths == (1, 2, 3, 4, 5, 6, 7, 8, 8)
    assert result.objective_value == pytest.approx(2.382, abs=1e-3)
    assert success_probability(p, result.lengths, 0.6) == pytest.approx(0.296, abs=1e-3)
    unit = exp_avg_unit_bounds(p, 0.6)
    assert unit.lower == pytest.approx(2.259, abs=1e-3)
    assert unit.upper == pytest.approx(3.260, abs=1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"{elapsed * 1e3:.0f} ms"


@criterion(2, "Benford q=2 code, cost, unit bounds")
def test_criterion_02():
    p = benford()
    result = generalized_huffman(p, CombineRule.exp_base(2.0))
    assert sorted(result.lengths.lengths) == [2, 3, 3, 3, 3, 4, 4, 4, 4]
    assert result.objective_value == pytest.approx(3.099, abs=1e-3)
    unit = exp_avg_unit_bounds(p, 2.0)
    assert unit.lower == pytest.approx(3.026, abs=1e-3)
    assert unit.upper == pytest.approx(4.027, abs=1e-3)


@criterion(3, "per-symbol cost bounds on Benford")
def test_criterion_03():
    p = benford()
    r2 = exp_avg_bounds(p, 2.0, 1)
    assert r2.lower == pytest.approx(3.039, abs=1e-3)
    assert r2.upper == pytest.approx(3.910, abs=1e-3)
    r06 = exp_avg_bounds(p, 0.6, 1)
    assert r06.lower == pytest.approx(2.259, abs=1e-3)
    assert r06.upper == pytest.approx(2.783, abs=1e-3)
    assert hat_transform(p, 0.6).probs[0] == pytest.approx(0.8386, abs=5e-4)


@criterion(4, "one-bit-l1 cost and success bounds on Benford, q=0.6")
def test_criterion_04():
    p = benford()
    r = exp_avg_bounds_l1(p, 0.6)
    assert r.lower == pytest.approx(2.372, abs=1e-3)
    assert r.upper == pytest.approx(2.707, abs=1e-3)
    assert 0.6 ** r.upper == pytest.approx(0.250, abs=1e-3)
    assert 0.6 ** r.lower == pytest.approx(0.298, abs=1e-3)
    cost = generalized_huffman(p, CombineRule.exp_base(0.6)).objective_value
    assert r.lower - 1e-12 <= cost < r.upper


@criterion(5, "engine equals oracle for every objective")
def test_criterion_05():
    t0 = time.perf_counter()
    objectives = (
        Objective.avg(),
        Objective.max_pointwise(),
        Objective.dth_exp(-0.5),
        Objective.dth_exp(0.5),
        Objective.dth_exp(2.0),
        Objective.exp_average(0.6),
        Objective.exp_average(0.9),
        Objective.exp_average(1.5),
        Objective.exp_average(2.0),
    )
    rng = np.random.default_rng(42)
    worst = 0.0
    for obj in objectives:
        for _ in range(1000):
            p = random_pmf(rng, int(rng.integers(2, 9)))
            engine = generalized_huffman(p, CombineRule.for_objective(obj))
            best = brute_force_optimal(p, obj)
            gap = abs(engine.objective_value - best.min_value)
            worst = max(worst, gap)
            assert gap <= 1e-9, (obj, p.probs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    return f"9000 pmfs, max gap {worst:.2e}, {elapsed:.1f} s"


@criterion(6, "max-pointwise bound sandwich and tightness witnesses")
def test_criterion_06():
    rng = np.random.default_rng(43)
    for _ in range(10_000):
        p = random_pmf(rng, int(rng.integers(2, 9)))
        star = brute_force_optimal(p, Objective.max_pointwise()).min_value
        for pj in p:
            r = mmpr_bounds(pj)
            assert r.lower - 1e-9 <= star <= r.upper + 1e-9, (pj, p.probs)

    def oracle_star(fam):
        return brute_force_optimal(generate(fam), Objective.max_pointwise()).min_value

    for p1 in (2 / 3, 0.7, 0.8, 0.9):
        fam = WitnessFamily(FamilyKind.MMPR_UPPER_HIGH, p1=p1)
        assert oracle_star(fam) == pytest.approx(mmpr_bounds(p1).upper, abs=1e-9)
    for p1 in (0.45, 0.41, 0.23):
        fam = WitnessFamily(FamilyKind.MMPR_UPPER_MID, p1=p1)
        assert oracle_star(fam) == pytest.approx(mmpr_bounds(p1).upper, abs=1e-9)
    for p1 in (0.34, 0.45, 0.15):
        fam = WitnessFamily(FamilyKind.MMPR_LOWER_A, p1=p1)
        assert oracle_star(fam) == pytest.approx(mmpr_bounds(p1).lower, abs=1e-9)
    for p1 in (0.3, 0.55, 0.13):
        fam = WitnessFamily(FamilyKind.MMPR_LOWER_B, p1=p1)
        assert oracle_star(fam) == pytest.approx(mmpr_bounds(p1).lower, abs=1e-9)
    for p1 in (0.3, 0.14):
        fam = WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=p1, eps=1e-5)
        gap = mmpr_bounds(p1).upper - oracle_star(fam)
        assert 0.0 < gap < 0.01


@criterion(7, "optimal-length guarantees")
def test_criterion_07():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        p = random_pmf(rng, int(rng.integers(2, 9)))
        res = brute_force_optimal(p, Objective.max_pointwise())
        for lv in res.argmin:
            for pj, lj in zip(p, lv):
                assert lj <= lambda_j(pj), (p.probs, lv.lengths)

    for p1 in (0.4, 0.2, 0.45):
        p = generate(WitnessFamily(FamilyKind.LEN_LOWER_TIGHT, p1=p1))
        nu = lambda_j(p1)
        res = brute_force_optimal(p, Objective.max_pointwise())
        assert any(lv.lengths[0] == nu - 1 for lv in res.argmin)
        assert all(lv.lengths[0] <= nu - 1 for lv in res.argmin)
        # any code (Kraft slack included) with a longer first codeword is
        # already beaten pointwise by the first symbol alone
        assert nu + math.log2(p1) > res.min_value + 1e-12

    p2 = validate_pmf([0.99, 0.01])
    star = brute_force_optimal(p2, Objective.max_pointwise()).min_value
    for l2 in range(1, 7):
        code = LengthVector((1, l2))
        assert code.is_valid
        assert max_pointwise_redundancy(p2, code) == pytest.approx(star, abs=1e-12)
    assert max_pointwise_redundancy(p2, LengthVector((2, 7))) > star + 0.5


@criterion(8, "one-bit shortest-codeword characterization")
def test_criterion_08():
    for q in (0.6, 0.75, 1.0):
        p = generate(WitnessFamily(FamilyKind.L1_BOUNDARY_Q_LE_1, q=q, eps=1e-3))
        obj = Objective.avg() if q == 1.0 else Objective.exp_average(q)
        res = brute_force_optimal(p, obj)
        assert res.argmin_lengths() == ((2, 2, 2, 2),), (q, res.argmin_lengths())

    for q in (1.5, 2.0):
        for p1 in (0.3, 0.5, 0.9):
            p = generate(WitnessFamily(FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1,
                                       q=q, p1=p1))
            obj = Objective.exp_average(q)
            best_one_bit = one_bit_l1_cost_bound(q, p1)
            if p.n <= 18:
                res = brute_force_optimal(p, obj)
                assert all(lv.lengths[0] >= 2 for lv in res.argmin), (q, p1)
                # the closed form matches exhaustive search over l_1 = 1 codes
                constrained = min(
                    obj.evaluate(p, LengthVector(l)) for l in kraft_length_tuples(p.n)
                    if l[0] == 1)
                assert best_one_bit == pytest.approx(constrained, abs=1e-9)
                assert res.min_value < best_one_bit - 1e-9
            else:
                # enumeration is out of reach (n up to 1025); any valid code
                # beating the exact best one-bit-l_1 cost settles the claim
                engine = generalized_huffman(p, CombineRule.exp_base(q))
                assert engine.lengths.is_complete
                assert engine.objective_value < best_one_bit - 1e-9, (q, p1)

    rng = np.random.default_rng(45)
    for _ in range(100):
        p = random_pmf(rng, int(rng.integers(2, 9)))
        q = float(rng.uniform(0.05, 0.5))
        got = generalized_huffman(p, CombineRule.exp_base(q)).lengths
        assert got.lengths == unary_code(p.n).lengths


@criterion(9, "redundancy moment ordering")
def test_criterion_09():
    rng = np.random.default_rng(46)
    for _ in range(1000):
        p = random_pmf(rng, int(rng.integers(2, 9)))
        code = random_code(rng, p.n)
        r_avg = avg_redundancy(p, code)
        r_half = dth_exp_redundancy(p, code, 0.5)
        r_two = dth_exp_redundancy(p, code, 2.0)
        r_star = max_pointwise_redundancy(p, code)
        r_neg = dth_exp_redundancy(p, code, -0.5)
        assert r_avg <= r_half + 1e-12
        assert r_half <= r_two + 1e-12
        assert r_two <= r_star + 1e-12
        assert -1e-12 <= r_neg <= r_avg + 1e-12


@criterion(10, "power-transform identity")
def test_criterion_10():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        p = random_pmf(rng, int(rng.integers(2, 9)))
        code = random_code(rng, p.n)
        q = float(rng.choice((0.6, 0.9, 1.5, 2.0)))
        lhs = dth_exp_redundancy(hat_transform(p, q), code, math.log2(q))
        rhs = exp_average_cost(p, code, q) - renyi_entropy(p, alpha_of_q(q))
        assert abs(lhs - rhs) <= 1e-9
