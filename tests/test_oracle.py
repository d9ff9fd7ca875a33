"""Enumeration correctness and the oracle's own soundness arguments."""

import functools
import gc
import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from genhuff import (
    AlphabetTooLarge,
    CodingError,
    LengthVector,
    Objective,
    benford,
    brute_force_optimal,
    kraft_length_tuples,
    random_complete_lengths,
    validate_pmf,
)
from genhuff import oracle
from genhuff.oracle import (
    _allowance,
    _completions,
    _margin,
    _power_reducer,
    _powers,
    _relaxation,
    _relaxed_entry,
    _walk,
)
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

    def test_term_rows_equal_the_per_length_calls(self):
        # row l is the `terms` call at length l, bit for bit: compared as hex,
        # so that a -0.0 against a 0.0 fails too; n = 1..16, with pmfs that
        # hold entries of 1e-300 and 5e-324
        rng = np.random.default_rng(17)
        pmfs = [validate_pmf([0.5, 0.5]), benford()]
        for n in range(1, 17):
            pmfs.append(random_pmf(rng, n))
            for tail in ([1e-300], [5e-324], [1e-300] * 2):
                if len(tail) < n:
                    head = [float(x) for x in rng.dirichlet(np.ones(n - len(tail)))]
                    pmfs.append(validate_pmf(head + tail))
        for p in pmfs:
            lgp = [math.log2(x) for x in p.probs]
            for obj in OBJECTIVES + EXTREME_OBJECTIVES:
                rows = obj.term_rows(p.probs, lgp)
                assert [[x.hex() for x in row] for row in rows] \
                    == [[x.hex() for x in obj.terms(p.probs, lgp, ((l,), (p.n,)))]
                        for l in range(p.n)], (obj, p.probs)

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
                assert [[x.hex() for x in row] for row in obj.term_rows(p.probs, lgp)] \
                    == expected, (obj, p.probs)
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
    """The oracle as it was, with no cut: an Objective.evaluate per LengthVector."""
    scored = [(obj.evaluate(p, lv), lv.lengths) for lv in length_vectors(p.n)]
    best = min(v for v, _ in scored)
    return best, tuple(sorted(l for v, l in scored if v <= best + 1e-12)), len(scored)


def assert_matches_reference(p, obj, **kwargs):
    res = brute_force_optimal(p, obj, **kwargs)
    assert (res.min_value, res.argmin_lengths(), res.evaluated_count) \
        == reference_optimum(p, obj)
    return res


class TestAgainstReference:
    """The walk with its term table against one evaluate call per vector: equal floats."""

    @pytest.mark.parametrize("obj", OBJECTIVES + EXTREME_OBJECTIVES,
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical(self, obj):
        rng = np.random.default_rng(45)
        for n in range(1, 14):
            p = random_pmf(rng, n)
            res = assert_matches_reference(p, obj)
            assert 1 <= res.scored_count <= res.evaluated_count


def cap_pmfs():
    """Pmfs at the oracle's caps: three Dirichlet ones at n = 14..16, uniform
    and dyadic ones at n = 16, and the MMPR witness at n = 17."""
    rng = np.random.default_rng(46)
    pmfs = [random_pmf(rng, n) for n in (14, 15, 16)]
    pmfs.append(validate_pmf([1.0 / 16] * 16))
    pmfs.append(validate_pmf([0.25] * 2 + [0.125] * 2 + [1 / 32] * 4 + [1 / 64] * 8))
    # near-unary, where the relaxation cuts least, and p_1 = 0.6 over a
    # uniform tail, where it cuts MMPR least of the other pmfs here
    pmfs.append(validate_pmf([2.0 ** -i for i in range(1, 16)] + [2.0 ** -15]))
    pmfs.append(validate_pmf([0.6] + [0.4 / 15] * 15))
    witness = generate(WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=0.0625))
    assert witness.n == 17
    return pmfs + [witness]


def fires_pmf():
    return random_pmf(np.random.default_rng(47), 16)


# scored_count on cap_pmfs() and then fires_pmf(), per objective
PINNED_SCORED_COUNTS = dict(zip(OBJECTIVES + EXTREME_OBJECTIVES, [
    (18, 49, 20, 4, 63, 1358, 16, 3, 40),
    (37, 87, 32, 4, 158, 1568, 166, 39, 61),
    (18, 49, 20, 4, 63, 1327, 16, 7, 40),
    (18, 46, 20, 4, 63, 1550, 16, 3, 40),
    (22, 46, 20, 4, 63, 1553, 16, 3, 40),
    (206, 894, 474, 4, 333, 1639, 12, 11, 1058),
    (8, 22, 8, 4, 28, 188, 12, 3, 12),
    (4, 4, 4, 4, 4, 4, 4, 31, 4),
    (4, 4, 4, 4, 4, 4, 4, 27, 4),
    (437, 914, 1554, 4, 557, 1639, 12, 2938, 1536),
    (40, 118, 52, 4, 102, 1580, 24, 15, 120),
    (40, 118, 52, 4, 102, 1580, 24, 15, 120),
    (37, 87, 32, 4, 142, 1553, 166, 39, 61),
    (37, 87, 32, 4, 142, 1553, 166, 39, 61),
    (15, 49, 20, 4, 63, 1286, 12, 11, 40),
    (58, 149, 68, 4, 153, 1580, 34, 19, 161),
    (58, 149, 68, 4, 153, 1580, 34, 19, 161),
]))


class TestWalk:
    """The step table the walk runs from: its order, and what it keeps."""

    def test_scores_the_space_in_level_profile_order(self, monkeypatch):
        # kraft_length_tuples unranks each vector and reads no step table
        with monkeypatch.context() as m:
            m.setattr(oracle, "_steps", None)
            listed = {n: list(kraft_length_tuples(n)) for n in range(1, 17)}
        for n, expected in listed.items():
            # each term is its length, every value ties, so every vector is
            # scored and kept, and its lengths read back from the table
            rows = [[float(l)] * n for l in range(n)]
            seen = []

            def record(values):
                seen.append(tuple(values))
                return 0.0

            best, kept, scored = _walk(rows, record, None, 0.0)
            assert best == 0.0
            assert seen == [tuple(map(float, l)) for l in expected]
            assert scored == _completions(1, n) == len(expected)
            assert kept == [(0.0, l) for l in expected]

    def test_equal_steps_are_one_object(self):
        # the footprint: the tables up to n = 16, built afresh, share each
        # step they hold alike and take ~124 KB
        _completions(1, 16)
        oracle._steps.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            tables = [oracle._steps(n) for n in range(1, 17)]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tables[-1]) == 3712
        distinct = {id(step) for table in tables for step in table}
        assert len(distinct) == len({step for table in tables for step in table}) == 532
        assert retained < 200_000


class TestCut:
    """The branch-and-bound cut: what it counts, where it holds, that it fires."""

    def test_completions_from_the_root_count_the_space(self):
        for n, expected in enumerate(TREE_SHAPE_COUNTS, start=1):
            assert _completions(1, n) == expected
        for n in (17, 18):
            assert _completions(1, n) == sum(1 for _ in kraft_length_tuples(n))

    @pytest.mark.parametrize("obj", OBJECTIVES + EXTREME_OBJECTIVES,
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical_up_to_the_caps(self, obj):
        scored = [assert_matches_reference(p, obj, max_n=p.n).scored_count for p in cap_pmfs()]
        # the cut is pinned: how the walk runs must not move what it scores
        scored.append(brute_force_optimal(fires_pmf(), obj).scored_count)
        assert tuple(scored) == PINNED_SCORED_COUNTS[obj]

    @pytest.mark.parametrize("obj,probs", [
        (Objective.dth_exp(1e-15), [0.24753859555963928] * 4 + [0.0019691235522885696] * 5),
        (Objective.exp_average(1 + 1e-15), [0.1189577250680548] * 7
         + [0.055381813620579846] * 3 + [0.0011504836618769366]),
    ], ids=["dexp-1e-15", "expavg-1+1e-15"])
    def test_bit_identical_where_rounding_outweighs_the_tolerance(self, obj, probs):
        # near-unit scales, so the reducer's rounding error is far above
        # ARGMIN_TOL; tied p_i, so terms tie too and the max term can move:
        # without its margin the cut drops minimizers here
        assert_matches_reference(validate_pmf(probs), obj)

    def test_cut_fires_on_the_benchmark_objectives(self):
        # 12-61 of the 1639 vectors are scored here
        p = fires_pmf()
        for obj in BENCH_OBJECTIVES:
            res = brute_force_optimal(p, obj)
            assert res.evaluated_count == TREE_SHAPE_COUNTS[-1]
            assert res.scored_count < res.evaluated_count / 20, obj

    def test_no_relaxation_at_or_below_half(self):
        # q <= 1/2 has no relaxed term, so the walk takes no bound: it scores
        # every vector, and gives the result scoring them one by one does
        rng = np.random.default_rng(51)
        for q in (0.05, 0.3, 0.5):
            obj = Objective.exp_average(q)
            for n in (8, 12):
                p = random_pmf(rng, n)
                assert _relaxation(obj, p.probs, list(map(math.log2, p.probs))) is None
                res = assert_matches_reference(p, obj)
                assert res.scored_count == res.evaluated_count

    def test_heads_in_one_power_pass_except_near_half(self, monkeypatch):
        # the per-suffix log-sums run only where a shifted power
        # 2^(root_j - root_0) is not a normal float: the roots lg p_j / (1+s)
        # span millions of bits at q = 0.5 + 1e-7, a few dozen at 0.9 and 2
        calls = []
        real = oracle.lg_sum_exp2
        monkeypatch.setattr(oracle, "lg_sum_exp2", lambda xs: calls.append(len(xs)) or real(xs))
        rng = np.random.default_rng(55)
        pmfs = [random_pmf(rng, n) for n in range(2, 17)]
        for q, per_suffix in ((0.9, False), (2.0, False), (0.5 + 1e-7, True)):
            obj = Objective.exp_average(q)
            for p in pmfs:
                calls.clear()
                _relaxation(obj, p.probs, list(map(math.log2, p.probs)))
                assert calls == (list(range(p.n, 0, -1)) if per_suffix else []), (q, p.probs)

    @pytest.mark.parametrize("q", [0.5 + 1e-7, 0.51, 0.6, 0.9, 1 - 1e-12, 1 + 1e-12,
                                   1.5, 2.0, 10.0, 1e10, 1e200])
    def test_exp_average_heads_within_the_allowance(self, q):
        self.assert_heads_within_the_allowance(Objective.exp_average(q))

    @pytest.mark.parametrize("d", [-1 + 1e-9, -0.5, 1e-12, 0.5, 2.0, 1e4, 1e6])
    def test_dth_heads_within_the_allowance(self, d):
        # the d-th heads take the exp-average formula, with roots lg p_j
        self.assert_heads_within_the_allowance(Objective.dth_exp(d))

    def assert_heads_within_the_allowance(self, obj):
        # each head, its move taken back, is within the allowance of
        # (1+s) lg sum_{j >= lo} p_j^(a/(1+s)) at 200 bits, with (a, s) = (1, fl(lg q))
        # under exp average and (1 + d, d) under d-th, so the moved head lies on
        # the side that lowers the value
        rng = np.random.default_rng(56)
        with mpmath.workprec(200):
            if obj.kind.value == "expavg":
                s, a = mpmath.mpf(math.log2(obj.param)), mpmath.mpf(1)
            else:
                s = mpmath.mpf(obj.param)
                a = 1 + s
            for n in range(1, 17):
                for p in (random_pmf(rng, n), self.tie_heavy_pmf(rng, n)):
                    lgp = list(map(math.log2, p.probs))
                    heads, _ = _relaxation(obj, p.probs, lgp)
                    allowance = _allowance(obj, lgp)
                    powers = [mpmath.mpf(x) ** (a / (1 + s)) for x in p.probs]
                    for lo in range(n):
                        exact = (1 + s) * mpmath.log(mpmath.fsum(powers[lo:]), 2)
                        moved = mpmath.mpf(heads[lo])
                        assert abs(moved + math.copysign(allowance, s) - exact) <= allowance, \
                            (n, p.probs, lo)
                        assert (moved < exact) if s > 0 else (moved > exact)

    @staticmethod
    def tie_heavy_pmf(rng, n):
        # a few distinct masses in small integer ratios, so many subtrees
        # hold masses proportional to powers of two and their relaxation
        # is tight: the rounding of the relaxed term decides
        weights = rng.choice([1, 2, 3, 4, 6, 8], size=n)
        total = int(weights.sum())
        return validate_pmf([int(w) / total for w in weights])

    @pytest.mark.parametrize("obj", OBJECTIVES + EXTREME_OBJECTIVES,
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_relaxation_bounds_every_subtree(self, obj):
        # each subtree the walk can bound (placed lengths <= D, the rest
        # from `nodes` open nodes at D + 1, nodes < left): the relaxed bound,
        # with its allowance, is at most the least value below it, plus the
        # margin that the cut adds for the exponential objectives
        reduce = obj.reducer()
        rng = np.random.default_rng(50)
        checked = 0
        for n in range(2, 13):
            for p in (random_pmf(rng, n), self.tie_heavy_pmf(rng, n)):
                lgp = list(map(math.log2, p.probs))
                rows = [obj.terms(p.probs, lgp, ((l,), (n,))) for l in range(n)]
                heads, slopes = _relaxation(obj, p.probs, lgp)
                margin = _margin(obj, rows)
                least = {}
                for lengths in kraft_length_tuples(n):
                    v = reduce([rows[l][i] for i, l in enumerate(lengths)])
                    for depth in range(lengths[-1] - 1):
                        first = sum(l <= depth for l in lengths)
                        nodes = 2 ** (depth + 1) - sum(
                            2 ** (depth + 1 - l) for l in lengths[:first])
                        if nodes < n - first:
                            key = lengths[:first], depth, nodes
                            least[key] = min(least.get(key, math.inf), v)
                for (placed, depth, nodes), v in least.items():
                    first = len(placed)
                    tail = heads[first] - slopes[first] * (math.log2(nodes) - (depth + 1))
                    bound = reduce([rows[l][i] for i, l in enumerate(placed)] + [tail])
                    assert bound <= v + margin, (n, p.probs, placed, depth, bound, v)
                    checked += 1
        assert checked > 900

    def test_a_bound_equal_to_the_limit_is_not_cut(self, monkeypatch):
        # with p_1 = 0.6 the MMPR optimum is 1 + lg p_1, and so is the bound of
        # every subtree below l_1 = 1 whose relaxed term stays under it: with no
        # tolerance the limit is the best value once a minimizer is scored,
        # and meets bounds equal to it (the uniform tail at n = 12 has a
        # second minimizer in such a subtree)
        # the walk reads ARGMIN_TOL when called: of the two vectors at n = 4,
        # (1, 2, 3, 3) scores 5e-13 above (2, 2, 2, 2), inside the default
        # tolerance and outside a zero one
        table = [[0.0] * 4 for _ in range(3)] + [[0.0, 0.0, 0.0, 5e-13]]
        assert len(_walk(table, math.fsum, None, 0.0)[1]) == 2
        monkeypatch.setattr(oracle, "ARGMIN_TOL", 0.0)
        assert _walk(table, math.fsum, None, 0.0)[1] == [(0.0, (2, 2, 2, 2))]
        obj = Objective.max_pointwise()
        rng = np.random.default_rng(48)
        pmfs = []
        for n in (8, 12, 16):
            tail = [float(x) for x in rng.dirichlet(np.ones(n - 1))]
            pmfs += [validate_pmf([0.6] + [0.4 * x for x in tail]),
                     validate_pmf([0.6] + [0.4 / (n - 1)] * (n - 1))]
        for p in pmfs:
            n = p.n
            lgp = list(map(math.log2, p.probs))
            rows = [obj.terms(p.probs, lgp, ((l,), (n,))) for l in range(n)]
            best, _, count = reference_optimum(p, obj)
            assert best == 1 + math.log2(0.6)
            relax = _relaxed_entry(_relaxation(obj, p.probs, lgp), None)
            found, candidates, scored = _walk(rows, obj.reducer(), relax, 0.0)
            assert found == best
            assert scored < count
            assert {lv.lengths for lv in length_vectors(n) if obj.evaluate(p, lv) == best} \
                <= {l for _, l in candidates}


class TestPowerTable:
    """The exponential objectives scored from powers of two, then rescored."""

    # the tables past _POWER_SPAN bits at n = 8..16, which keep the reducer
    WIDE_SPAN = (Objective.exp_average(1e200), Objective.dth_exp(1e6), Objective.dth_exp(1e4))

    @staticmethod
    def paths(monkeypatch, objectives, pmfs):
        """For each objective, whether each brute_force_optimal call on the pmfs
        scored from the power table."""
        taken = []

        def spy(obj, rows):
            table = _powers(obj, rows)
            taken.append(table is not None)
            return table

        monkeypatch.setattr(oracle, "_powers", spy)
        out = {}
        for obj in objectives:
            taken.clear()
            for p in pmfs:
                brute_force_optimal(p, obj)
            out[obj] = list(taken)
        return out

    def test_the_span_picks_the_path(self, monkeypatch):
        from genhuff.verify import OBJECTIVE_PANEL

        rng = np.random.default_rng(52)
        pmfs = [random_pmf(rng, n) for n in (2, 8, 12, 16)] + [validate_pmf([1.0 / 16] * 16)]
        exponential = {obj for obj in BENCH_OBJECTIVES + tuple(o for _, o in OBJECTIVE_PANEL)
                       if obj.kind.value in ("dexp", "expavg")}
        assert len(exponential) == 7
        narrow = [obj for obj in EXTREME_OBJECTIVES if obj not in self.WIDE_SPAN]
        for obj, taken in self.paths(monkeypatch, [*exponential, *narrow], pmfs).items():
            assert taken == [True] * len(pmfs), obj
        for obj, taken in self.paths(monkeypatch, self.WIDE_SPAN, pmfs[1:]).items():
            assert taken == [False] * (len(pmfs) - 1), obj
        for obj, taken in self.paths(monkeypatch, OBJECTIVES[:2], pmfs).items():
            assert taken == [False] * len(pmfs), obj

    @pytest.mark.parametrize("obj", [
        *(Objective.exp_average(q) for q in (0.6, 0.5 + 1e-7, 0.4)),
        *(Objective.dth_exp(d) for d in (-0.9, -1 + 1e-9, 1e-12)),
    ], ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical_where_the_prune_is_weak(self, obj):
        # q <= 1/2 has no relaxed term and q = 0.6 a weak one; near d = -1
        # and d = 0 the scale s is near 0 or the terms near flat
        rng = np.random.default_rng(53)
        for n in (14, 15, 16):
            assert_matches_reference(random_pmf(rng, n), obj)

    @pytest.mark.parametrize("obj", OBJECTIVES[2:] + EXTREME_OBJECTIVES,
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_power_values_within_the_error_bound(self, obj):
        # each vector's power value is within 2 margin + 8u(n-1), the
        # candidate line's widening, of the reducer's float, and each
        # subtree's relaxed bound in powers is at most the least power value
        # below it plus the cut's margin
        reduce = obj.reducer()
        rng = np.random.default_rng(54)
        checked = 0
        for n in range(2, 12):
            for p in (random_pmf(rng, n), TestCut.tie_heavy_pmf(rng, n)):
                lgp = list(map(math.log2, p.probs))
                rows = obj.term_rows(p.probs, lgp)
                powers = _powers(obj, rows)
                if powers is None:
                    continue
                table, top = powers
                power_value = _power_reducer(obj, top)
                relaxed = _relaxed_entry(_relaxation(obj, p.probs, lgp), top)
                extra = 8 * 2.0 ** -53 * (n - 1)
                margin = _margin(obj, rows) + extra
                widen = _margin(obj, rows) * 2 + extra
                least = {}
                for lengths in kraft_length_tuples(n):
                    v = power_value([table[l][i] for i, l in enumerate(lengths)])
                    assert abs(v - reduce([rows[l][i] for i, l in enumerate(lengths)])) \
                        <= widen / 2, (n, p.probs, lengths)
                    for depth in range(lengths[-1] - 1):
                        first = sum(l <= depth for l in lengths)
                        nodes = 2 ** (depth + 1) - sum(
                            2 ** (depth + 1 - l) for l in lengths[:first])
                        if first and nodes < n - first:
                            key = lengths[:first], depth, nodes
                            least[key] = min(least.get(key, math.inf), v)
                if relaxed is None:
                    continue
                for (placed, depth, nodes), v in least.items():
                    entries = [table[l][i] for i, l in enumerate(placed)]
                    entries.append(relaxed(len(placed), math.log2(nodes) - (depth + 1)))
                    assert power_value(entries) <= v + margin, (n, p.probs, placed, depth)
                    checked += 1
        assert checked == 0 if obj in self.WIDE_SPAN else checked > 300


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
