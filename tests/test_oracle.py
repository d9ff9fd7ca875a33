"""Enumeration correctness and the oracle's own soundness arguments."""

import collections
import functools
import gc
import itertools
import math
import random
import time
import tracemalloc
import types

import mpmath
import numpy as np
import pytest

from genhuff import (
    AlphabetTooLarge,
    CodingError,
    CombineRule,
    LengthVector,
    ListingTooLarge,
    Objective,
    benford,
    brute_force_optimal,
    generalized_huffman,
    kraft_length_tuples,
    lg_sum_exp2,
    random_complete_lengths,
    validate_pmf,
)
from genhuff import oracle
from genhuff.core import _lg_add
from genhuff.oracle import (ARGMIN_TOL, LISTING_BUDGET, _errors, _lg_expm1, _line, _plan,
                            _recurrence, _table, _walk)
from genhuff.witness import FamilyKind, WitnessFamily, generate
from test_core import lg_mean_reference

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

# near d = 0 and q = 1, where evaluate takes its centred form, down to the least
# subnormal d, and just inside that form's cut |s| < 1/16
NEAR_ZERO_OBJECTIVES = (
    *(Objective.dth_exp(d) for d in (1e-12, -1e-12, 1e-300, 5e-324, 0.06, -0.06, 0.0624)),
    *(Objective.exp_average(q) for q in (1 + 2.0 ** -52, 1 - 2.0 ** -52, 1 - 2.0 ** -53,
                                         1 + 1e-12, 2.0 ** 0.0624, 2.0 ** -0.0624)),
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


def state_children(nodes, left):
    """(k, child nodes, child left) for each choice of k leaves at a level with
    ``nodes`` open nodes and ``left`` unplaced symbols, 1 <= nodes < left,
    fewest leaves first: the per-state child list that the oracle's
    (excess, j) indexing reduces, kept here as its reference."""
    return tuple((k, 2 * (nodes - k), left - k) for k in range(max(0, 2 * nodes - left), nodes))


@functools.cache
def state_completions(nodes, left):
    """Complete vectors below a level with ``nodes`` open nodes and ``left``
    unplaced symbols, 1 <= nodes <= left, by recursion over the child list."""
    if nodes == left:
        return 1
    return sum(state_completions(m, r) for _, m, r in state_children(nodes, left))


def geometric_pmf(n):
    """p_i proportional to 2^(-i/5): a deep code, ~n/5 bits at its deepest."""
    return validate_pmf([2.0 ** (-i / 5) for i in range(1, n + 1)], normalize=True)


def cyclic_garbage(calls):
    """What the cycle collector finds after ``calls()`` runs with it off:
    objects that reference counting alone never frees."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        calls()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


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
            assert len(listed) == state_completions(1, n)
            for lengths in listed:
                assert list(lengths) == sorted(lengths)
                assert sum(1 << (n - 1 - l) for l in lengths) == 1 << (n - 1)
            # strictly ascending profiles: distinct vectors, in level-profile order
            profiles = [[l.count(d) for d in range(n)] for l in listed]
            assert all(a < b for a, b in zip(profiles, profiles[1:]))

    def test_counts_from_the_root_count_the_space(self):
        for n, expected in enumerate(TREE_SHAPE_COUNTS, start=1):
            assert _plan(n)[1][n - 1][1] == expected
        for n in (17, 18):
            assert _plan(n)[1][n - 1][1] == sum(1 for _ in kraft_length_tuples(n))

    def test_counts_hold_every_state_count_of_the_child_lists(self):
        # counts[e][min(nodes, e)], e = left - nodes, is the number of vectors
        # below the state (nodes, left) by the per-state recursion, for every
        # state with left <= n; the root's is counts[n - 1][1], n = 1 included
        for n in range(1, 81):
            counts = _plan(n)[1]
            assert len(counts) == n
            for left in range(1, n + 1):
                for nodes in range(1, left + 1):
                    e = left - nodes
                    assert counts[e][min(nodes, e)] == state_completions(nodes, left), \
                        (n, nodes, left)
            assert counts[n - 1][1] == state_completions(1, n)

    def test_plan_rows_hold_every_state_child_list(self):
        # the plan's entry for j internal nodes at excess e is the child of the
        # per-state list, (e + j, e - j, min(nodes, excess) of the child), for
        # every state with left <= n; the list runs fewest leaves, most j, first
        for n in range(1, 41):
            rows = _plan(n)[0]
            assert len(rows) == n and rows[0] == ()
            for left in range(1, n + 1):
                for nodes in range(1, left):
                    e = left - nodes
                    want = tuple((r, r - m, min(m, r - m))
                                 for _, m, r in reversed(state_children(nodes, left)))
                    assert rows[e][:min(nodes, e)] == want, (n, nodes, left)

    def test_first_draw_at_128_counts_in_quadratic_memory(self):
        # the plan is O(n^2) small tuples and ints, ~0.5 MB at n = 128; a
        # count per (nodes, left) state over a cached child list per state
        # peaks at ~7 MB.  A first brute_force_optimal builds the plan and its
        # table from nothing cached
        def first_peak(call):
            _plan.cache_clear()
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak = first_peak(lambda: random_complete_lengths(128, random.Random(128)))
        assert peak < 2 << 20, peak
        p = geometric_pmf(128)
        peak = first_peak(lambda: brute_force_optimal(p, Objective.dth_exp(0.5), max_n=128))
        assert peak < 2 << 20, peak

    def test_walk_with_no_line_lists_the_space_in_level_profile_order(self):
        # the minimizer's walk and the unranking share only the child lists
        for n in range(1, 13):
            x, s, lg_sum = _recurrence(Objective.avg(), [-math.log2(n)] * n)
            tail, steps = _table(x, s, lg_sum)
            walked = [lv.lengths for _, lv in _walk(n, s, lg_sum, tail, steps, math.inf)]
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_symbols_are_refused_at_call_time(self, n):
        # the listing is a generator, but its range is formed by the call
        with pytest.raises(CodingError, match=f"alphabet size must be >= 1, got {n}"):
            random_complete_lengths(n, random.Random(0))
        with pytest.raises(CodingError, match=f"alphabet size must be >= 1, got {n}"):
            kraft_length_tuples(n)


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

    def test_walk_refuses_to_list_past_its_budget(self):
        # on p_i ~ 2^(-i/5) at d = 0.5 the line outgrows the value steps of the
        # deepest symbols past n ~ 170: at n = 176 the walk lists a few
        # thousand vectors for one minimizer, and at n = 192 more than the
        # budget, which it refuses rather than list them until memory runs out
        obj = Objective.dth_exp(0.5)
        p = geometric_pmf(176)
        res = brute_force_optimal(p, obj, max_n=176)
        assert generalized_huffman(p, CombineRule.for_objective(obj)).lengths in res.argmin
        start = time.perf_counter()
        with pytest.raises(ListingTooLarge, match=f"n=192: .* more than {LISTING_BUDGET} vectors"):
            brute_force_optimal(geometric_pmf(192), obj, max_n=192)
        assert time.perf_counter() - start < 2.0

    def test_walk_lists_exactly_its_budget(self, monkeypatch):
        # with no line the walk lists the whole space, 28 vectors at n = 9:
        # a budget of 28 lists them all, and one of 27 refuses the 28th
        x, s, lg_sum = _recurrence(Objective.avg(), [-math.log2(9)] * 9)
        tail, steps = _table(x, s, lg_sum)
        monkeypatch.setattr(oracle, "LISTING_BUDGET", 28)
        assert len(_walk(9, s, lg_sum, tail, steps, math.inf)) == 28
        monkeypatch.setattr(oracle, "LISTING_BUDGET", 27)
        with pytest.raises(ListingTooLarge, match="n=9: .* more than 27 vectors"):
            _walk(9, s, lg_sum, tail, steps, math.inf)

    def test_a_call_leaves_no_cyclic_garbage(self, monkeypatch):
        # the walk runs on an explicit stack, so no closure refers to itself
        # and a call's table, listing and refusal all go by reference count
        mmpr_ties = validate_pmf([0.4, 0.3, 0.2, 0.1])
        assert len(brute_force_optimal(mmpr_ties, Objective.max_pointwise()).argmin) > 1

        def calls():
            for obj in BENCH_OBJECTIVES:
                for n in (1, 2, 16, 18):
                    brute_force_optimal(validate_pmf([1.0 / n] * n), obj)
                brute_force_optimal(geometric_pmf(128), obj, max_n=128)
            monkeypatch.setattr(oracle, "LISTING_BUDGET", 1)
            with pytest.raises(ListingTooLarge, match="n=4: .* more than 1 vectors"):
                brute_force_optimal(mmpr_ties, Objective.max_pointwise())

        assert cyclic_garbage(calls) == 0

    def test_alphabet_cap(self):
        brute_force_optimal(validate_pmf([1.0 / 18] * 18), Objective.avg())
        p = validate_pmf([1.0 / 19] * 19)
        with pytest.raises(AlphabetTooLarge, match="n=19 exceeds the oracle cap 18"):
            brute_force_optimal(p, Objective.avg())
        brute_force_optimal(p, Objective.avg(), max_n=19)

    def test_exponential_values_equal_the_two_textbook_forms(self):
        # at |s| >= 1/16 evaluate gives, by hex, the lg-sum of lg p + l lg q over
        # lg q under exp average and of (1+d) lg p + d l over d under d-th: a = 1
        # takes no product there, (a, s) are the floats each form takes, and
        # + 0.0 turns a -0.0 into 0.0.  Below 1/16, where that lg-sum cancels,
        # it is 1400-bit mpmath of the p/S-weighted form to 1e-13
        rng = np.random.default_rng(18)
        pmfs = [benford(), validate_pmf([0.5, 0.25, 0.25 - 1e-320, 1e-320])]
        pmfs += [random_pmf(rng, n) for n in (1, 2, 5, 11, 16)]
        checked = 0
        for obj in OBJECTIVES + EXTREME_OBJECTIVES:
            if obj.kind.value == "expavg":
                s = lgq = math.log2(obj.param)
                form = lambda g, l: g + l * lgq
            elif obj.kind.value == "dexp":
                s = d = obj.param
                form = lambda g, l: (1.0 + d) * g + d * l
            else:
                continue
            for p in pmfs:
                lgp = [math.log2(x) for x in p.probs]
                got = [obj.evaluate(p, LengthVector((l,) * p.n)) for l in range(p.n)]
                if abs(s) >= 1 / 16:
                    expected = [(lg_sum_exp2([form(g, l) for g in lgp]) / s + 0.0).hex()
                                for l in range(p.n)]
                    assert [v.hex() for v in got] == expected, (obj, p.probs)
                else:
                    for l, v in enumerate(got):
                        exact = float(lg_mean_reference(obj, p, (l,) * p.n))
                        assert abs(v - exact) <= 1e-13 * (abs(v) + 1), (obj, p.probs, l)
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
            assert_matches_reference(p, obj)
        assert_matches_reference(random_pmf(np.random.default_rng(47), 18), obj)

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
        # never forms; at d = 5e-324 so does the line's s (ARGMIN_TOL + 2e)
        rng = np.random.default_rng(57)
        for n in range(1, 13):
            for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n)):
                assert_matches_reference(p, obj)

    @pytest.mark.parametrize("obj", NEAR_ZERO_OBJECTIVES, ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_bit_identical_near_zero_scale(self, obj):
        # evaluate's centred form, whose error the line reads, from d = 5e-324 and
        # q = 1 + 2^-52 to the form's cut; tie-heavy pmfs tie or nearly tie codes
        rng = np.random.default_rng(59)
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
    """Pmfs up to the oracle's cap of 18: three Dirichlet ones at n = 14..16,
    uniform and dyadic ones at n = 16, and the MMPR witness at n = 17."""
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
    itself under avg.  Under MMPR lg D is the max-plus score max (l_i - 1 + x_i).
    At |s| < 1/16 the value is that of evaluate's centred form: weights p_i / S,
    S the exact sum, on l_i + lg p_i (d-th) or l_i, lg p_i exact, at the float s,
    which shifts every vector's value alike from the table's up to 3u G' N."""
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
    lg_d = lambda ls: mpmath.log(
        mpmath.fsum(w * (qs[l] - 1) for w, l in zip(ws, ls)) / (qs[1] - 1), 2)
    if abs(s) >= 1 / 16:
        return lambda ls: (lg_d(ls), mpmath.log(mpmath.fsum(w * qs[l] for w, l in zip(ws, ls)),
                                                2) / s)
    ps = [mpmath.mpf(v) for v in p.probs]
    total = mpmath.fsum(ps)
    gs = [mpmath.log(v, 2) if obj.kind.value == "dexp" else 0 for v in ps]
    return lambda ls: (lg_d(ls), mpmath.log(mpmath.fsum(
        w / total * mpmath.power(2, s * (l + g)) for w, l, g in zip(ps, ls, gs)), 2) / s)


def reference_walk(n, s, add, tail, steps, line):
    """(lg D, lengths) of each vector under ``line``, in level-profile order, by
    the walk that tests each child twice, its table bound first and then
    ``add(above, v)``, the bound with the levels above it, against the line."""
    found = []
    stack = [(1, n - 1, 0, -math.inf, ())]
    while stack:
        nodes, e, depth, above, lengths = stack.pop()
        if not e:
            found.append((above, lengths + (depth,) * nodes))
            continue
        for j in range(1, min(nodes, e) + 1):
            v = s * depth + steps[e][j - 1]
            if v <= line and add(above, v) <= line:
                here = add(above, s * depth + tail[e + j])
                stack.append((2 * j, e - j, depth + 1, here, lengths + (depth,) * (nodes - j)))
    return found


class TestLevelDP:
    """The table, the walk and the line they take, against exact arithmetic."""

    @pytest.mark.parametrize("obj", OBJECTIVES + EXTREME_OBJECTIVES + (
        *(Objective.dth_exp(d) for d in (0.06, -0.06, 0.0624, 5e-324)),
        *(Objective.exp_average(q) for q in (1 + 2.0 ** -52, 1 - 2.0 ** -52, 2.0 ** 0.0624,
                                             2.0 ** -0.0624)),
    ), ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_values_within_the_error_bounds(self, obj):
        # for every vector, the walk's lg D is within delta of the exact one and
        # evaluate's float within e of the exact value (of p/S at |s| < 1/16); the
        # table's least lg D is within delta of the exact least; and every vector
        # that evaluate puts within ARGMIN_TOL of its least float has an exact lg D
        # at least 2 delta under the line, the slack the walk's bounds above it
        # take.  The precision grows as s shrinks, so that q^l - 1 stays resolved
        rng = np.random.default_rng(54)
        checked = 0
        scale = obj._family[1] if obj._family else 1.0
        with mpmath.workprec(200 + max(0, -math.frexp(scale)[1])):
            for n in range(2, 12):
                for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n)):
                    x, s, lg_sum = _recurrence(obj, list(map(math.log2, p.probs)))
                    tail, steps = _table(x, s, lg_sum)
                    e, delta = _errors(obj, x, s)
                    walked = _walk(n, s, lg_sum, tail, steps, math.inf)
                    scores = exact_scores(obj, p, x, s)
                    exact, floats = [], []
                    for v, lv in walked:
                        dp, value = scores(lv.lengths)
                        assert abs(v - dp) <= delta, (n, p.probs, lv)
                        floats.append(obj.evaluate(p, lv))
                        assert abs(floats[-1] - value) <= e, (n, p.probs, lv)
                        exact.append(dp)
                    root = steps[-1][0]
                    assert abs(root - min(exact)) <= delta, (n, p.probs)
                    line = _line(obj, s, tail[-1], root, e, delta)
                    best = min(floats)
                    for dp, value in zip(exact, floats):
                        if value <= best + ARGMIN_TOL:
                            assert dp <= line - 2 * delta, (n, p.probs)
                    checked += len(walked)
        assert checked == 2 * sum(TREE_SHAPE_COUNTS[1:11])

    @pytest.mark.parametrize("obj", (Objective.avg(), Objective.max_pointwise(),
                                     Objective.dth_exp(0.5), Objective.exp_average(0.9),
                                     Objective.dth_exp(1e-12)),
                             ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_excess_rows_hold_every_state_least_bit_for_bit(self, obj):
        # the per-state recurrence the table reduces: a state's least lg C is
        # the least over its children of add(tail[r], s + the child's), -inf
        # where the vector is complete; the table's excess row e = left - nodes,
        # cut at min(nodes, e), must hold that very float for every state
        # reachable from the root, and steps[-1][0] the root's
        rng = np.random.default_rng(47)
        for n in range(1, 25):
            for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n)):
                x, s, lg_sum = _recurrence(obj, list(map(math.log2, p.probs)))
                tail, steps = _table(x, s, lg_sum)
                add = _lg_add if lg_sum else max

                @functools.cache
                def least(nodes, left):
                    if nodes == left:
                        return -math.inf
                    return min(add(tail[r], s + least(m, r))
                               for _, m, r in state_children(nodes, left))

                seen = set()

                def reach(nodes, left):
                    if nodes < left and (nodes, left) not in seen:
                        seen.add((nodes, left))
                        for _, m, r in state_children(nodes, left):
                            reach(m, r)

                reach(1, n)
                for nodes, left in seen:
                    e = left - nodes
                    got = min(steps[e][:min(nodes, e)])
                    assert got.hex() == least(nodes, left).hex(), (n, p.probs, nodes, left)
                if n > 1:
                    assert steps[-1][0].hex() == least(1, n).hex(), (n, p.probs)

    def test_table_takes_n_plus_a_quarter_n_squared_lg_adds(self, monkeypatch):
        # n tail weights and one step per (e, j), 1 <= j <= min(e, n - e), each an
        # lg-add formed inline with one log2, counted through the module's math;
        # a walk under a line below every step forms no room and no lg D above
        # a child, so it takes no lg operation, and under MMPR's max neither the
        # table nor a walk with no line takes any
        calls = collections.Counter()

        def counted(name):
            f = getattr(math, name)

            def call(*args):
                calls[name] += 1
                return f(*args)
            return call

        monkeypatch.setattr(oracle, "math", types.SimpleNamespace(
            **{**vars(math), **{name: counted(name) for name in ("log2", "expm1", "exp", "log")}}))
        for n in range(1, 65):
            x, s, lg_sum = _recurrence(Objective.dth_exp(0.5), [-math.log2(n)] * n)
            calls.clear()
            tail, steps = _table(x, s, lg_sum)
            assert calls == {"log2": n + n * n // 4}, n
            calls.clear()
            assert len(_walk(n, s, lg_sum, tail, steps, -math.inf)) == (n == 1)
            assert not calls, n
            x, s, lg_sum = _recurrence(Objective.max_pointwise(), [-math.log2(n)] * n)
            tail, steps = _table(x, s, lg_sum)
            if n <= 12:
                _walk(n, s, lg_sum, tail, steps, math.inf)
            assert not calls, n

    @pytest.mark.parametrize("obj", BENCH_OBJECTIVES + (
        Objective.dth_exp(-0.999), Objective.exp_average(0.3), Objective.dth_exp(1e-12),
        Objective.exp_average(1e200)), ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_walk_lists_what_two_tests_per_child_list(self, obj):
        # one compare per child against the state's room lists the very vectors,
        # lg D floats and order of the walk that tested each child twice, with
        # the line the oracle takes and with none
        rng = np.random.default_rng(51)
        for n in range(1, 19):
            for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n)):
                x, s, lg_sum = _recurrence(obj, list(map(math.log2, p.probs)))
                tail, steps = _table(x, s, lg_sum)
                add = _lg_add if lg_sum else max
                lines = [math.inf]
                if n > 1:
                    lines.append(_line(obj, s, tail[-1], steps[-1][0], *_errors(obj, x, s)))
                for line in lines:
                    got = [(v.hex(), lv.lengths) for v, lv in
                           _walk(n, s, lg_sum, tail, steps, line)]
                    want = [(v.hex(), lengths) for v, lengths in
                            reference_walk(n, s, add, tail, steps, line)]
                    assert got == want, (n, p.probs, line)

    def test_mmpr_walk_at_its_line_lists_what_max_lists(self):
        # under MMPR a bound is max(above, v), exact, so a state whose lg D
        # above it is the root's least has no room in the lg-sum sense and
        # still lists what lies at the line: with the line at that least, the
        # walk must list what the walk that tests max(above, v) lists, and
        # that is at least the root's own vector
        rng = np.random.default_rng(52)
        obj = Objective.max_pointwise()
        for n in range(2, 13):
            for _ in range(4):
                p = random_pmf(rng, n)
                x, s, lg_sum = _recurrence(obj, list(map(math.log2, p.probs)))
                tail, steps = _table(x, s, lg_sum)
                line = steps[-1][0]
                got = [(v.hex(), lv.lengths) for v, lv in _walk(n, s, lg_sum, tail, steps, line)]
                want = [(v.hex(), lengths) for v, lengths in
                        reference_walk(n, s, max, tail, steps, line)]
                assert got and got == want, (n, p.probs)

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
                                   -1e-12, -0.25, -30.0, -1e6, 5e-324, -5e-324, 1e-310,
                                   -2.2e-308])
    def test_lg_expm1_neither_overflows_nor_cancels(self, z):
        # lg |2^z - 1| to a few ulps of its size, from 2^z - 1 ~ z ln 2 at
        # tiny z, subnormal z included, to z itself past the float range of 2^z
        with mpmath.workprec(2000):
            exact = mpmath.log(abs(mpmath.power(2, mpmath.mpf(z)) - 1), 2)
        assert abs(_lg_expm1(z) - exact) <= 4 * 2.0 ** -53 * (abs(exact) + 1), z

    @pytest.mark.parametrize("s,k", [(5e-324, 1e-12), (-5e-324, 1.5e-12), (1e-300, 1e-12),
                                     (-1e-300, 3e-11), (2.0 ** -52, 1e-12), (0.0625, 1e-12)])
    def test_lg_expm1_of_a_product_that_underflows(self, s, k):
        # lg |2^(s k) - 1|, as the line takes it at s ARGMIN_TOL, without forming
        # s k where that is subnormal or 0
        with mpmath.workprec(4000):
            exact = mpmath.log(abs(mpmath.power(2, mpmath.mpf(s) * mpmath.mpf(k)) - 1), 2)
        assert abs(_lg_expm1(s, k) - exact) <= 4 * 2.0 ** -53 * (abs(exact) + 1), (s, k)

    @pytest.mark.parametrize("n", [20, 28, 40])
    @pytest.mark.parametrize("obj", BENCH_OBJECTIVES + (
        Objective.exp_average(0.6), Objective.dth_exp(8.0), Objective.exp_average(1e10),
        Objective.dth_exp(1e4), Objective.exp_average(1e200),
        *(Objective.dth_exp(d) for d in (1e-12, -1e-12, 1e-300, 5e-324)),
        *(Objective.exp_average(q) for q in (1 + 2.0 ** -52, 1 - 2.0 ** -52, 1 + 1e-12,
                                             1 - 1e-12)),
    ), ids=lambda o: f"{o.kind.value}-{o.param}")
    def test_engine_exactly_optimal_past_the_enumerable_sizes(self, obj, n):
        # n = 20, 28 and 40 hold ~2e4 to ~2e9 vectors, which no scan reaches;
        # the engine's value is within 1e-12 of the minimum and its lengths are
        # among the minimizers.  Near d = 0 and q = 1 the line reads the centred
        # form's error, free of 1/|s|, and the walk lists at most three vectors.
        # The line near d = -1 grows with n, so that edge is checked at n <= 16
        rng = np.random.default_rng(n)
        rule = CombineRule.for_objective(obj)
        for p in (random_pmf(rng, n), tie_heavy_pmf(rng, n),
                  geometric_pmf(n)):
            res = brute_force_optimal(p, obj, max_n=n)
            engine = generalized_huffman(p, rule)
            assert abs(engine.objective_value - res.min_value) <= 1e-12, p.probs
            assert engine.lengths.lengths in res.argmin_lengths(), p.probs
            assert res.evaluated_count == state_completions(1, n)
            x, s, lg_sum = _recurrence(obj, list(map(math.log2, p.probs)))
            if obj._family and abs(s) < 1 / 16:
                tail, steps = _table(x, s, lg_sum)
                line = _line(obj, s, tail[-1], steps[-1][0], *_errors(obj, x, s))
                assert len(_walk(n, s, lg_sum, tail, steps, line)) <= 3, p.probs


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
