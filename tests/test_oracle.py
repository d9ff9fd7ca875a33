"""Enumeration correctness and the oracle's own soundness arguments."""

import functools
import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from genhuff import (
    AlphabetTooLarge,
    CodingError,
    CombineRule,
    LengthVector,
    Objective,
    benford,
    brute_force_optimal,
    generalized_huffman,
    kraft_length_tuples,
    random_complete_lengths,
    validate_pmf,
)
from genhuff.oracle import (ARGMIN_TOL, _completions, _errors, _lg_add, _lg_expm1, _line,
                            _recurrence, _table, _walk)
from genhuff.witness import FamilyKind, WitnessFamily, generate

# number of full binary tree shapes with n leaves, n = 1..16
TREE_SHAPE_COUNTS = [1, 1, 1, 2, 3, 5, 9, 16, 28, 50, 89, 159, 285, 510, 914, 1639]

OBJECTIVES = (
    Objective.avg(),
    Objective.max_pointwise(),
    Objective.dth_exp(-0.5),
    Objective.dth_exp(0.5),
    Objective.dth_exp(2.0),
    Objective.exp_average(0.6),
    Objective.exp_average(1.5),
)

# the objectives of the benchmark's oracle workload
BENCH_OBJECTIVES = (
    Objective.avg(),
    Objective.max_pointwise(),
    Objective.dth_exp(0.5),
    Objective.exp_average(2.0),
    Objective.dth_exp(-0.5),
    Objective.exp_average(0.9),
)

# the extreme parameters engine and oracle were checked at
EXTREME_OBJECTIVES = (
    *(Objective.exp_average(q) for q in (1e200, 1e10, 0.5 + 1e-7, 1 + 1e-12, 1 - 1e-12)),
    *(Objective.dth_exp(d) for d in (1e6, 1e4, -1 + 1e-9, 1e-12, -1e-12)),
)


def random_pmf(rng, n):
    while True:
        raw = rng.dirichlet(np.ones(n))
        if raw.min() > 1e-9:
            return validate_pmf([float(x) for x in raw])


def tie_heavy_pmf(rng, n):
    """A few distinct masses in small integer ratios, so that many vectors tie
    or nearly tie, and many subtrees hold masses proportional to powers of two."""
    weights = rng.choice([1, 2, 3, 4, 6, 8], size=n)
    total = int(weights.sum())
    return validate_pmf([int(w) / total for w in weights])


def direct_value(obj, probs, lengths):
    """Plain-formula evaluator, no log-domain tricks, for cross-checking."""
    kind = obj.kind.value
    if kind == "avg":
        return sum(p * (l + math.log2(p)) for p, l in zip(probs, lengths))
    if kind == "mmpr":
        return max(l + math.log2(p) for p, l in zip(probs, lengths))
    if kind == "dexp":
        d = obj.param
        return math.log2(sum(p ** (1 + d) * 2.0 ** (d * l)
                             for p, l in zip(probs, lengths))) / d
    q = obj.param
    return math.log(sum(p * q ** l for p, l in zip(probs, lengths)), q)


class TestEnumeration:
    def test_small_alphabets(self):
        assert list(kraft_length_tuples(1)) == [(0,)]
        assert list(kraft_length_tuples(2)) == [(1, 1)]
        assert list(kraft_length_tuples(3)) == [(1, 2, 2)]
        assert sorted(kraft_length_tuples(4)) == [(1, 2, 3, 3), (2, 2, 2, 2)]

    def test_counts_match_tree_shape_numbers(self):
        for n, expected in enumerate(TREE_SHAPE_COUNTS, start=1):
            assert sum(1 for _ in kraft_length_tuples(n)) == expected

    def test_every_vector_complete_sorted_unique(self):
        for n in range(1, 11):
            seen = set()
            for lv in map(LengthVector, kraft_length_tuples(n)):
                assert lv.n == n
                assert lv.is_complete
                assert lv.lengths == tuple(sorted(lv.lengths))
                assert lv.lengths not in seen
                seen.add(lv.lengths)

    def test_matches_filtered_product_in_level_profile_order(self):
        # every nondecreasing vector of lengths <= n - 1, the deepest a full
        # tree with n leaves reaches, with Kraft sum 1, ordered by leaves at
        # depth 0, then depth 1, ...: the walk's order
        for n in range(1, 9):
            deepest = n - 1
            expected = [l for l in itertools.combinations_with_replacement(
                            range(deepest + 1), n)
                        if sum(1 << (deepest - x) for x in l) == 1 << deepest]
            expected.sort(key=lambda l: [l.count(d) for d in range(deepest + 1)])
            assert list(kraft_length_tuples(n)) == expected

    def test_lists_the_space_once_in_level_profile_order(self):
        for n in range(1, 15):
            listed = list(kraft_length_tuples(n))
            assert len(listed) == _completions(1, n)
            for lengths in listed:
                assert list(lengths) == sorted(lengths)
                assert sum(1 << (n - 1 - l) for l in lengths) == 1 << (n - 1)
            # strictly ascending profiles: distinct vectors, in level-profile order
            profiles = [[l.count(d) for d in range(n)] for l in listed]
            assert all(a < b for a, b in zip(profiles, profiles[1:]))

    def test_completions_from_the_root_count_the_space(self):
        for n, expected in enumerate(TREE_SHAPE_COUNTS, start=1):
            assert _completions(1, n) == expected
        for n in (17, 18):
            assert _completions(1, n) == sum(1 for _ in kraft_length_tuples(n))

    def test_walk_with_no_line_lists_the_space_in_level_profile_order(self):
        # the minimizer's walk and the unranking share only the child lists
        for n in range(1, 13):
            x, s, add = _recurrence(Objective.avg(), [-math.log2(n)] * n)
            tail, least = _table(x, s, add)
            walked = [lv.lengths for _, lv in _walk(n, s, add, tail, least, math.inf)]
            assert walked == list(kraft_length_tuples(n))

    def test_random_draw_is_the_listed_vector_at_one_randrange(self):
        # one randrange over the space per draw, so a seeded caller such as
        # verify sees the same stream of vectors and the same later draws
        for n in (1, 2, 5, 12, 16):
            listed = list(kraft_length_tuples(n))
            drawn, ranks = random.Random(n), random.Random(n)
            for _ in range(50):
                lv = random_complete_lengths(n, drawn)
                assert isinstance(lv, LengthVector)
                assert lv.lengths == listed[ranks.randrange(len(listed))]
            assert drawn.random() == ranks.random()

    def test_random_draw_of_no_symbols_is_refused(self):
        with pytest.raises(CodingError, match="alphabet size must be >= 1, got 0"):
            random_complete_lengths(0, random.Random(0))


class TestBruteForce:
    def test_worked_example(self):
        res = brute_force_optimal(validate_pmf([0.5, 0.3, 0.2]),
                                  Objective.max_pointwise())
        assert res.min_value == pytest.approx(math.log2(1.2), abs=1e-12)
        assert res.argmin_lengths() == ((1, 2, 2),)
        assert res.evaluated_count == 1

    def test_benford_exponential(self):
        res = brute_force_optimal(benford(), Objective.exp_average(0.6))
        assert res.min_value == pytest.approx(2.382604845074305, abs=1e-9)
        assert (1, 2, 3, 4, 5, 6, 7, 8, 8) in res.argmin_lengths()

    def test_dyadic_average(self):
        res = brute_force_optimal(validate_pmf([0.5, 0.25, 0.125, 0.125]),
                                  Objective.avg())
        assert res.min_value == pytest.approx(0.0, abs=1e-12)
        assert (1, 2, 3, 3) in res.argmin_lengths()

    def test_alphabet_cap(self):
        p = validate_pmf([1.0 / 17] * 17)
        with pytest.raises(AlphabetTooLarge):
            brute_force_optimal(p, Objective.avg())
        brute_force_optimal(p, Objective.avg(), max_n=17)

    def test_exponential_terms_equal_the_two_textbook_forms(self):
        # the one exponential path gives, by hex, lg p + l lg q under exp average
        # and (1+d) lg p + d l under d-th: a = 1 takes no product there, and
        # (a, s) are the floats each form takes
        rng = np.random.default_rng(18)
        pmfs = [benford(), validate_pmf([0.5, 0.25, 0.25 - 1e-320, 1e-320])]
        pmfs += [random_pmf(rng, n) for n in (1, 2, 5, 11, 16)]
        checked = 0
        for obj in OBJECTIVES + EXTREME_OBJECTIVES:
            if obj.kind.value == "expavg":
                lgq = math.log2(obj.param)
                form = lambda g, l: g + l * lgq
            elif obj.kind.value == "dexp":
                d = obj.param
                form = lambda g, l: (1.0 + d) * g + d * l
            else:
                continue
            for p in pmfs:
                lgp = [math.log2(x) for x in p.probs]
                expected = [[form(g, l).hex() for g in lgp] for l in range(p.n)]
                assert [[x.hex() for x in obj.terms(p.probs, lgp, ((l,), (p.n,)))]
                        for l in range(p.n)] == expected, (obj, p.probs)
                checked += 1
        assert checked == 15 * len(pmfs)

    def test_evaluated_count_is_tree_shape_count(self):
        for n, expected in enumerate(TREE_SHAPE_COUNTS, start=1):
            p = validate_pmf([1.0 / n] * n)
            assert brute_force_optimal(p, Objective.max_pointwise()).evaluated_count == expected

    def test_argmin_multiplicity(self):
        # two optimal shapes for the uniform distribution over 4 at q -> unary
        res = brute_force_optimal(validate_pmf([0.25] * 4), Objective.avg())
        assert res.argmin_lengths() == ((2, 2, 2, 2),)
        res2 = brute_force_optimal(validate_pmf([0.4, 0.3, 0.2, 0.1]),
                                   Objective.max_pointwise())
        assert all(lv.is_complete for lv in res2.argmin)


@functools.cache
def length_vectors(n):
    return tuple(map(LengthVector, kraft_length_tuples(n)))


def reference_optimum(p, obj):
    """The plain scan: one Objective.evaluate per LengthVector."""
    scored = [(obj.evaluate(p, lv), lv.lengths) for lv in length_vectors(p.n)]
    best = min(v for v, _ in scored)
    return best, tuple(sorted(l for v, l in scored if v <= best + 1e-12)), len(scored)


def assert_matches_reference(p, obj, **kwargs):
    res = brute_force_optimal(p, obj, **kwargs)
    assert (res.min_value, res.argmin_lengths(), res.evaluated_count) \
        == reference_optimum(p, obj)
    return res


class TestAgainstReference:
    """The oracle against one evaluate call per vector: equal floats, equal sets."""

    @pytest.mark.parametrize("obj", OBJECTIVES + EXTREME_OBJECTIVES,
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical(self, obj):
        rng = np.random.default_rng(45)
        for n in range(1, 14):
            assert_matches_reference(random_pmf(rng, n), obj)

    @pytest.mark.parametrize("obj", OBJECTIVES + EXTREME_OBJECTIVES,
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical_up_to_the_caps(self, obj):
        for p in cap_pmfs():
            assert_matches_reference(p, obj, max_n=p.n)
        assert_matches_reference(random_pmf(np.random.default_rng(47), 16), obj)

    @pytest.mark.parametrize("obj,probs", [
        (Objective.dth_exp(1e-15), [0.24753859555963928] * 4 + [0.0019691235522885696] * 5),
        (Objective.exp_average(1 + 1e-15), [0.1189577250680548] * 7
         + [0.055381813620579846] * 3 + [0.0011504836618769366]),
    ], ids=["dexp-1e-15", "expavg-1+1e-15"])
    def test_bit_identical_where_rounding_outweighs_the_tolerance(self, obj, probs):
        # near-unit scales, so evaluate's rounding error is far above
        # ARGMIN_TOL; tied p_i, so terms tie too and the max term can move
        assert_matches_reference(validate_pmf(probs), obj)

    def test_bit_identical_at_or_below_half(self):
        # q <= 1/2, where optimal codes are unary or near it
        rng = np.random.default_rng(51)
        for q in (0.05, 0.3, 0.5):
            obj = Objective.exp_average(q)
            for n in (8, 12):
                assert_matches_reference(random_pmf(rng, n), obj)

    @pytest.mark.parametrize("obj", [
        *(Objective.exp_average(q) for q in (0.6, 0.5 + 1e-7, 0.4)),
        *(Objective.dth_exp(d) for d in (-0.9, -1 + 1e-9, 1e-12)),
    ], ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical_near_the_parameter_edges(self, obj):
        # near q = 1/2 optimal codes are near unary; near d = -1 and d = 0 the
        # scale s is near 0 or the weights p^(1+d) near flat
        rng = np.random.default_rng(53)
        for n in (14, 15, 16):
            assert_matches_reference(random_pmf(rng, n), obj)

    @pytest.mark.parametrize("obj", [
        Objective.exp_average(1.7e308), Objective.exp_average(1e-300),
        Objective.dth_exp(1e300), Objective.dth_exp(1e-300), Objective.dth_exp(5e-324),
        Objective.dth_exp(-1 + 2.0 ** -52),
    ], ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical_at_the_ends_of_the_float_range(self, obj):
        # q^l and p^(1+d) over- or underflow here, which the table's lg domain
        # never forms; at d = 5e-324 evaluate's error bound is inf, so the line
        # holds every vector
        rng = np.random.default_rng(57)
        for n in range(1, 13):
            for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n)):
                assert_matches_reference(p, obj)

    def test_every_mmpr_minimizer_at_p1_six_tenths(self):
        # with p_1 = 0.6 the MMPR optimum is 1 + lg p_1, set by l_1 = 1 alone:
        # every code of the tail whose own terms stay at or under it ties
        # exactly, and the set holds each of them
        obj = Objective.max_pointwise()
        rng = np.random.default_rng(48)
        sizes = []
        for n in (8, 12, 16):
            tail = [float(x) for x in rng.dirichlet(np.ones(n - 1))]
            for p in (validate_pmf([0.6] + [0.4 * x for x in tail]),
                      validate_pmf([0.6] + [0.4 / (n - 1)] * (n - 1))):
                res = assert_matches_reference(p, obj)
                assert res.min_value == 1 + math.log2(0.6)
                sizes.append(len(res.argmin))
        assert sizes == [2, 1, 1, 2, 1, 1]


def cap_pmfs():
    """Pmfs at the oracle's caps: three Dirichlet ones at n = 14..16, uniform
    and dyadic ones at n = 16, and the MMPR witness at n = 17."""
    rng = np.random.default_rng(46)
    pmfs = [random_pmf(rng, n) for n in (14, 15, 16)]
    pmfs.append(validate_pmf([1.0 / 16] * 16))
    pmfs.append(validate_pmf([0.25] * 2 + [0.125] * 2 + [1 / 32] * 4 + [1 / 64] * 8))
    # near-unary, and p_1 = 0.6 over a uniform tail, where many MMPR codes tie
    pmfs.append(validate_pmf([2.0 ** -i for i in range(1, 16)] + [2.0 ** -15]))
    pmfs.append(validate_pmf([0.6] + [0.4 / 15] * 15))
    witness = generate(WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=0.0625))
    assert witness.n == 17
    return pmfs + [witness]


def exact_scores(obj, p, x, s):
    """The map from lengths to their (lg D, value) in exact arithmetic on the
    floats the oracle and evaluate start from: x_i = a lg p_i and s, and p_i
    itself under avg.  Under MMPR lg D is the max-plus score max (l_i - 1 + x_i)."""
    xs = [mpmath.mpf(v) for v in x]
    n = len(xs)
    if obj.kind.value == "mmpr":
        return lambda ls: (max(l - 1 + v for l, v in zip(ls, xs)),
                           max(l + v for l, v in zip(ls, xs)))
    if obj.kind.value == "avg":
        ps = [mpmath.mpf(v) for v in p.probs]
        return lambda ls: (mpmath.log(mpmath.fsum(w * l for w, l in zip(ps, ls)), 2),
                           mpmath.fsum(w * (l + v) for w, l, v in zip(ps, ls, xs)))
    s = mpmath.mpf(s)
    ws = [mpmath.power(2, v) for v in xs]
    # q^l for each length a vector of n symbols can take
    qs = [mpmath.power(2, s * l) for l in range(n)]
    return lambda ls: (
        mpmath.log(mpmath.fsum(w * (qs[l] - 1) for w, l in zip(ws, ls)) / (qs[1] - 1), 2),
        mpmath.log(mpmath.fsum(w * qs[l] for w, l in zip(ws, ls)), 2) / s)


class TestLevelDP:
    """The table, the walk and the line they take, against exact arithmetic."""

    @pytest.mark.parametrize("obj", OBJECTIVES + EXTREME_OBJECTIVES,
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_values_within_the_error_bounds(self, obj):
        # for every vector, the walk's lg D is within delta of the exact one and
        # evaluate's float within e of the exact value; the table's least lg D is
        # within delta of the exact least; and every vector that evaluate puts
        # within ARGMIN_TOL of its least float has an exact lg D at least 2 delta
        # under the line, the slack the walk's bounds above it take
        rng = np.random.default_rng(54)
        checked = 0
        with mpmath.workprec(200):
            for n in range(2, 12):
                for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n)):
                    x, s, add = _recurrence(obj, list(map(math.log2, p.probs)))
                    tail, least = _table(x, s, add)
                    e, delta = _errors(obj, x, s)
                    walked = _walk(n, s, add, tail, least, math.inf)
                    scores = exact_scores(obj, p, x, s)
                    exact, floats = [], []
                    for v, lv in walked:
                        dp, value = scores(lv.lengths)
                        assert abs(v - dp) <= delta, (n, p.probs, lv)
                        floats.append(obj.evaluate(p, lv))
                        assert abs(floats[-1] - value) <= e, (n, p.probs, lv)
                        exact.append(dp)
                    root = least[n * n + 1]
                    assert abs(root - min(exact)) <= delta, (n, p.probs)
                    line = _line(obj, s, tail[-1], root, e, delta)
                    best = min(floats)
                    for dp, value in zip(exact, floats):
                        if value <= best + ARGMIN_TOL:
                            assert dp <= line - 2 * delta, (n, p.probs)
                    checked += len(walked)
        assert checked == 2 * sum(TREE_SHAPE_COUNTS[1:11])

    def test_lg_add_within_its_error_bound(self):
        # lg(2^a + 2^b) within u (T + 6), T the larger |input| plus 1, in
        # either order, and exactly a where b is -inf
        rng = random.Random(58)
        with mpmath.workprec(200):
            for _ in range(2000):
                scale = 10.0 ** rng.randint(-3, 7)
                a, b = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
                if rng.random() < 0.3:
                    b = a + rng.uniform(-60, 60)
                exact = mpmath.log(mpmath.power(2, a) + mpmath.power(2, b), 2)
                got = _lg_add(a, b)
                assert got == _lg_add(b, a)
                assert abs(got - exact) <= 2.0 ** -53 * (max(abs(a), abs(b)) + 7), (a, b)
                assert _lg_add(a, -math.inf) == _lg_add(-math.inf, a) == a

    @pytest.mark.parametrize("z", [1e-300, 1e-12, 0.25, 1.0, 30.0, 1100.0, 1e6, 1e300,
                                   -1e-12, -0.25, -30.0, -1e6])
    def test_lg_expm1_neither_overflows_nor_cancels(self, z):
        # lg |2^z - 1| to a few ulps of its size, from 2^z - 1 ~ z ln 2 at
        # tiny normal z to z itself past the float range of 2^z
        with mpmath.workprec(2000):
            exact = mpmath.log(abs(mpmath.power(2, mpmath.mpf(z)) - 1), 2)
        assert abs(_lg_expm1(z) - exact) <= 4 * 2.0 ** -53 * (abs(exact) + 1), z

    @pytest.mark.parametrize("n", [20, 28, 40])
    @pytest.mark.parametrize("obj", BENCH_OBJECTIVES + (
        Objective.exp_average(0.6), Objective.dth_exp(8.0), Objective.exp_average(1e10),
        Objective.dth_exp(1e4), Objective.exp_average(1e200),
    ), ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_engine_exactly_optimal_past_the_enumerable_sizes(self, obj, n):
        # n = 20, 28 and 40 hold ~2e4 to ~2e9 vectors, which no scan reaches;
        # the engine's value is within 1e-12 of the minimum and its lengths are
        # among the minimizers.  The line near d = 0, q = 1 or d = -1 holds
        # every vector evaluate cannot tell apart, thousands at n = 40, so those
        # parameters are checked at n <= 16 above
        rng = np.random.default_rng(n)
        rule = CombineRule.for_objective(obj)
        for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n),
                  validate_pmf([2.0 ** (-i / 5) for i in range(1, n + 1)], normalize=True)):
            res = brute_force_optimal(p, obj, max_n=n)
            engine = generalized_huffman(p, rule)
            assert abs(engine.objective_value - res.min_value) <= 1e-12, p.probs
            assert engine.lengths.lengths in res.argmin_lengths(), p.probs
            assert res.evaluated_count == _completions(1, n)


class TestSoundnessArguments:
    def test_monotone_restriction_lossless(self):
        # permuting lengths across symbols never beats the sorted pairing
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = random_pmf(rng, n)
            for obj in OBJECTIVES:
                mono = brute_force_optimal(p, obj).min_value
                best = min(
                    obj.evaluate(p, LengthVector(perm))
                    for lengths in kraft_length_tuples(n)
                    for perm in set(itertools.permutations(lengths)))
                assert mono == pytest.approx(best, abs=1e-12)

    def test_kraft_slack_never_helps(self):
        # relaxing to sum 2^-l <= 1 with lengths up to n-1 cannot improve
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = random_pmf(rng, n)
            cap = n - 1 if n > 1 else 1
            slack_best = {}
            for lengths in itertools.product(range(1, cap + 1), repeat=n):
                if sorted(lengths) != list(lengths):
                    continue
                if sum(2.0 ** -l for l in lengths) > 1.0 + 1e-12:
                    continue
                lv = LengthVector(lengths)
                for obj in OBJECTIVES:
                    v = obj.evaluate(p, lv)
                    key = obj.kind.value, obj.param
                    slack_best[key] = min(slack_best.get(key, math.inf), v)
            for obj in OBJECTIVES:
                tight = brute_force_optimal(p, obj).min_value
                assert tight <= slack_best[(obj.kind.value, obj.param)] + 1e-12

    def test_log_domain_evaluators_match_direct_summation(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = random_pmf(rng, n)
            for lv in map(LengthVector, kraft_length_tuples(n)):
                for obj in OBJECTIVES:
                    assert obj.evaluate(p, lv) == pytest.approx(
                        direct_value(obj, p.probs, lv.lengths), abs=1e-10)

    def test_length_guarantees_on_argmins(self):
        # p_j >= 2^-nu forces l_j <= nu in every optimum; p_j <= 1/(2^nu - 1)
        # admits an optimum with l_j >= nu.  The latter code may need Kraft
        # slack (lengthening codeword j must not raise the max), so it is
        # checked by lengthening rather than within the tight argmin set.
        from genhuff import max_pointwise_redundancy, mmpr_length_bounds

        rng = np.random.default_rng(44)
        for _ in range(150):
            p = random_pmf(rng, int(rng.integers(2, 8)))
            res = brute_force_optimal(p, Objective.max_pointwise())
            for j, pj in enumerate(p):
                nu_upper, nu_lower = mmpr_length_bounds(pj)
                assert all(lv.lengths[j] <= nu_upper for lv in res.argmin)
                base = res.argmin[0].lengths
                stretched = LengthVector(
                    base[:j] + (max(base[j], nu_lower),) + base[j + 1:])
                assert stretched.is_valid
                assert max_pointwise_redundancy(p, stretched) \
                    <= res.min_value + 1e-12
