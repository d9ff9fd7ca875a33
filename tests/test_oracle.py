"""Enumeration correctness and the oracle's own soundness arguments."""

import functools
import itertools
import math

import numpy as np
import pytest

from genhuff import (
    AlphabetTooLarge,
    LengthVector,
    Objective,
    benford,
    brute_force_optimal,
    kraft_length_tuples,
    validate_pmf,
)
from genhuff import oracle
from genhuff.oracle import _completions, _margin, _relaxation, _term_rows, _walk
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
        rng = np.random.default_rng(17)
        pmfs = [validate_pmf([1.0]), validate_pmf([0.5, 0.5]), benford()]
        pmfs += [random_pmf(rng, n) for n in (3, 10, 16)]
        for p in pmfs:
            lgp = [math.log2(x) for x in p.probs]
            for obj in OBJECTIVES + EXTREME_OBJECTIVES:
                assert _term_rows(obj, p.probs, lgp) \
                    == [obj.terms(p.probs, lgp, ((l,), (p.n,))) for l in range(p.n)]

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
        rng = np.random.default_rng(46)
        pmfs = [random_pmf(rng, n) for n in (14, 15, 16)]
        pmfs.append(validate_pmf([1.0 / 16] * 16))
        pmfs.append(validate_pmf([0.25] * 2 + [0.125] * 2 + [1 / 32] * 4 + [1 / 64] * 8))
        for p in pmfs:
            assert_matches_reference(p, obj)
        witness = generate(WitnessFamily(FamilyKind.MMPR_UPPER_LOW, p1=0.0625))
        assert witness.n == 17
        assert_matches_reference(witness, obj, max_n=17)

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
        # 12-46 of the 1639 vectors are scored here; the floors alone
        # scored 30-139
        p = random_pmf(np.random.default_rng(47), 16)
        for obj in BENCH_OBJECTIVES:
            res = brute_force_optimal(p, obj)
            assert res.evaluated_count == TREE_SHAPE_COUNTS[-1]
            assert res.scored_count < res.evaluated_count / 20, obj

    # scored_count with the Kraft-capacity floors as the only bound, on the
    # Dirichlet pmfs of test_relaxation_only_adds_cuts at n = 10..16
    FLOORS_ALONE = {
        ("avg", None): [22, 29, 41, 39, 59, 63, 93],
        ("mmpr", None): [13, 16, 21, 16, 45, 23, 26],
        ("dexp", 0.5): [17, 29, 32, 33, 48, 45, 65],
        ("expavg", 2.0): [13, 11, 18, 12, 27, 25, 30],
        ("dexp", -0.5): [41, 39, 63, 60, 93, 96, 138],
        ("expavg", 0.9): [36, 31, 63, 52, 87, 82, 110],
    }

    def test_relaxation_only_adds_cuts(self):
        # the best value falls through the same vectors as before, and a
        # subtree the floors cut is still cut, so no more vectors are scored
        rng = np.random.default_rng(49)
        pmfs = [random_pmf(rng, n) for n in range(10, 17)]
        for obj in BENCH_OBJECTIVES:
            scored = [brute_force_optimal(p, obj).scored_count for p in pmfs]
            floors = self.FLOORS_ALONE[obj.kind.value, obj.param]
            assert all(map(int.__le__, scored, floors)), (obj, scored)
            assert sum(scored) < sum(floors), (obj, scored)

    def test_no_relaxation_at_or_below_half(self):
        # q <= 1/2 has no relaxed term; the floors alone still give the result
        rng = np.random.default_rng(51)
        for q in (0.05, 0.3, 0.5):
            obj = Objective.exp_average(q)
            for n in (8, 12):
                p = random_pmf(rng, n)
                assert _relaxation(obj, p.probs, list(map(math.log2, p.probs))) is None
                assert_matches_reference(p, obj)

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
        # every subtree below l_1 = 1 whose floors stay under it: with no
        # tolerance the limit is the best value once a minimizer is scored,
        # and meets bounds equal to it (the uniform tail at n = 12 has a
        # second minimizer in such a subtree)
        monkeypatch.setattr(oracle, "ARGMIN_TOL", 0.0)
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
            found, candidates, scored = _walk(rows, obj.reducer(), None, 0.0)
            assert found == best
            assert scored < count
            assert {lv.lengths for lv in length_vectors(n) if obj.evaluate(p, lv) == best} \
                <= {l for _, l in candidates}


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
