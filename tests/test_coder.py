"""Merge engine, Shannon-style constructions, and codeword assignment."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genhuff import (
    CombineRule,
    KraftViolation,
    LengthVector,
    Objective,
    benford,
    brute_force_optimal,
    canonical_codewords,
    enumerate_kraft_lengths,
    generalized_huffman,
    j_shannon_code,
    lg_sum_exp2,
    max_pointwise_redundancy,
    shannon_code,
    two_queue_mmpr,
    unary_code,
    validate_pmf,
)
from genhuff.coder import _merge_heap, _merge_two_queues

RULES = (
    CombineRule.sum(),
    CombineRule.max_double(),
    CombineRule.dth_exp(-0.5),
    CombineRule.dth_exp(0.5),
    CombineRule.dth_exp(2.0),
    CombineRule.exp_base(0.6),
    CombineRule.exp_base(0.9),
    CombineRule.exp_base(1.5),
    CombineRule.exp_base(2.0),
)


def random_pmf(rng, n):
    while True:
        raw = rng.dirichlet(np.ones(n))
        if raw.min() > 1e-9:
            return validate_pmf([float(x) for x in raw])


# The reference below is the textbook construction: a (weight, sequence)
# heap, a parent map and a walk up from every leaf, O(n * depth).  Its
# merge formulas are written out here, not taken from the engine.

def reference_merge_rule(rule):
    """(leaf key, combine) for ``rule``; mmpr and d-th keys are base-2 logs."""
    kind, param = rule.kind.value, rule.param
    if kind == "sum":
        return float, lambda a, b: a + b
    if kind == "exp_base":
        return float, lambda a, b: param * (a + b)
    if kind == "max_double":
        return math.log2, lambda a, b: 1.0 + max(a, b)
    c = 1.0 + param
    return math.log2, lambda a, b: (param + lg_sum_exp2((c * a, c * b))) / c


def reference_lengths(p, rule):
    leaf, combine = reference_merge_rule(rule)
    n = p.n
    heap = [(leaf(x), n - 1 - i, i) for i, x in enumerate(p.probs)]
    heapq.heapify(heap)
    parent = {}
    node = n
    while len(heap) > 1:
        ka, _, a = heapq.heappop(heap)
        kb, _, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (combine(ka, kb), node, node))
        node += 1
    lengths = []
    for i in range(n):
        depth, v = 0, i
        while v in parent:
            v = parent[v]
            depth += 1
        lengths.append(depth)
    return tuple(lengths)


def root_weight_value(p, rule):
    """The optimal objective value from a merge that keeps root weights only."""
    leaf, combine = reference_merge_rule(rule)
    heap = [leaf(x) for x in p.probs]
    heapq.heapify(heap)
    merged = []
    while len(heap) > 1:
        merged.append(combine(heapq.heappop(heap), heapq.heappop(heap)))
        heapq.heappush(heap, merged[-1])
    root = heap[0]
    kind, param = rule.kind.value, rule.param
    if kind == "sum":
        return math.fsum(merged) + math.fsum(x * math.log2(x) for x in p.probs)
    if kind == "max_double":
        return root
    if kind == "dth_exp":
        return (1.0 + param) / param * root
    return math.log(root) / math.log(param)


class TestCombineRule:
    def test_formulas(self):
        assert CombineRule.sum().combine(0.3, 0.2) == pytest.approx(0.5)
        assert CombineRule.max_double().combine(0.3, 0.2) == pytest.approx(0.6)
        assert CombineRule.exp_base(0.6).combine(0.3, 0.2) == pytest.approx(0.3)
        f = CombineRule.dth_exp(1.0).combine(0.3, 0.2)
        assert f == pytest.approx(math.sqrt(2 * 0.09 + 2 * 0.04))

    @given(st.sampled_from(range(len(RULES))),
           st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(1e-4, 0.5))
    @settings(max_examples=200)
    def test_monotone_in_each_argument(self, ri, a, b, delta):
        # max-doubling is only nondecreasing in the smaller argument; every
        # other rule is strictly increasing in both
        rule = RULES[ri]
        up_a = rule.combine(a + delta, b)
        up_b = rule.combine(a, b + delta)
        base = rule.combine(a, b)
        if rule.kind.value == "max_double":
            assert up_a >= base and up_b >= base
            assert rule.combine(a + delta, b + delta) > base
        else:
            assert up_a > base and up_b > base

    def test_param_domains(self):
        with pytest.raises(Exception):
            CombineRule.dth_exp(0.0)
        with pytest.raises(Exception):
            CombineRule.exp_base(1.0)

    def test_objective_round_trip(self):
        for rule in RULES:
            assert CombineRule.for_objective(rule.objective()) == rule


class TestGeneralizedHuffman:
    def test_mmpr_worked_example(self):
        r = generalized_huffman(validate_pmf([0.5, 0.3, 0.2]), CombineRule.max_double(),
                                trace=True)
        assert r.lengths.lengths == (1, 2, 2)
        # root weight is carried as a base-2 log and pins the optimum value
        assert r.trace.log_domain
        assert 2.0 ** r.trace.root_weight == pytest.approx(1.2, abs=1e-12)
        assert r.objective_value == pytest.approx(math.log2(1.2), abs=1e-12)

    def test_benford_exponential_codes(self):
        b = benford()
        r06 = generalized_huffman(b, CombineRule.exp_base(0.6))
        assert r06.lengths.lengths == (1, 2, 3, 4, 5, 6, 7, 8, 8)
        r2 = generalized_huffman(b, CombineRule.exp_base(2.0))
        assert sorted(r2.lengths.lengths) == [2, 3, 3, 3, 3, 4, 4, 4, 4]

    def test_single_symbol(self):
        for rule in RULES:
            r = generalized_huffman(validate_pmf([1.0]), rule, trace=True)
            assert r.lengths.lengths == (0,)
            assert r.codewords == ("",)
            assert r.objective_value == pytest.approx(0.0)
            assert r.trace.events == ()

    def test_trace_only_on_request(self):
        p = validate_pmf([0.5, 0.3, 0.2])
        for rule in RULES:
            plain = generalized_huffman(p, rule)
            traced = generalized_huffman(p, rule, trace=True)
            assert plain.trace is None
            assert len(traced.trace.events) == p.n - 1
            assert traced.lengths == plain.lengths
            assert traced.codewords == plain.codewords
            assert traced.objective_value == plain.objective_value

    def test_kraft_equality_and_prefix_freedom(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            p = random_pmf(rng, int(rng.integers(1, 11)))
            rule = RULES[int(rng.integers(len(RULES)))]
            r = generalized_huffman(p, rule)
            assert r.lengths.is_complete
            words = r.codewords
            assert len(set(words)) == len(words)
            for i, w in enumerate(words):
                assert len(w) == r.lengths.lengths[i]
                for v in words:
                    assert v == w or not v.startswith(w)

    def test_trace_shape_and_merge_monotonicity(self):
        rng = np.random.default_rng(22)
        # pair minima are nondecreasing whenever f(a, b) >= min(a, b);
        # exp_base below 0.5 deliberately violates this (the unary mechanism)
        monotone_rules = [r for r in RULES
                          if not (r.kind.value == "exp_base" and r.param < 0.5)]
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 11)))
            rule = monotone_rules[int(rng.integers(len(monotone_rules)))]
            r = generalized_huffman(p, rule, trace=True)
            assert len(r.trace.events) == p.n - 1
            mins = [min(e.weight_a, e.weight_b) for e in r.trace.events]
            assert all(a <= b + 1e-12 for a, b in zip(mins, mins[1:]))

    def test_unary_mechanism_merges_below_previous_min(self):
        p = validate_pmf([0.4, 0.2, 0.2, 0.2])
        r = generalized_huffman(p, CombineRule.exp_base(0.4), trace=True)
        mins = [min(e.weight_a, e.weight_b) for e in r.trace.events]
        assert any(b < a for a, b in zip(mins, mins[1:]))
        assert r.lengths.lengths == unary_code(4).lengths

    def test_subtree_weight_dominates_probability(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 11)))
            r = generalized_huffman(p, CombineRule.max_double(), trace=True)
            mass = {i: p.probs[i] for i in range(p.n)}
            for e in r.trace.events:
                mass[e.node_out] = mass[e.node_a] + mass[e.node_b]
                assert 2.0 ** e.weight_out >= mass[e.node_out] - 1e-12

    def test_complete_tree_when_top_at_most_twice_second_smallest(self):
        rng = np.random.default_rng(24)
        found = 0
        for _ in range(500):
            p = random_pmf(rng, int(rng.integers(3, 11)))
            if p.probs[0] > 2 * p.probs[-2]:
                continue
            found += 1
            r = generalized_huffman(p, CombineRule.max_double())
            lo = math.floor(math.log2(p.n))
            hi = math.ceil(math.log2(p.n))
            assert set(r.lengths.lengths) <= {lo, hi}
            assert r.lengths.is_complete
        assert found > 30

    def test_matches_oracle_small(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            p = random_pmf(rng, int(rng.integers(2, 9)))
            for rule in RULES:
                engine = generalized_huffman(p, rule)
                best = brute_force_optimal(p, rule.objective())
                assert engine.objective_value == pytest.approx(best.min_value, abs=1e-9)

    def test_exp_base_below_half_reproduces_unary(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 12)))
            q = float(rng.uniform(0.05, 0.5))
            r = generalized_huffman(p, CombineRule.exp_base(q))
            assert r.lengths.lengths == unary_code(p.n).lengths


class TestTwoQueue:
    def test_worked_example(self):
        r = two_queue_mmpr(validate_pmf([0.5, 0.3, 0.2]))
        assert r.lengths.lengths == (1, 2, 2)

    def test_uniform_six_is_complete(self):
        r = two_queue_mmpr(validate_pmf([1 / 6] * 6))
        assert r.lengths.lengths == (2, 2, 3, 3, 3, 3)
        assert r.lengths.is_complete

    def test_equals_heap_engine_everywhere(self):
        # both merge loops called directly, so the heap stays the reference
        rules = [CombineRule.sum(), CombineRule.max_double()] \
            + [CombineRule.dth_exp(d) for d in (0.5, 1e-12, 1e6)] \
            + [CombineRule.exp_base(q) for q in (2.0, 1 + 1e-12, 1e200)]
        rng = np.random.default_rng(27)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            u = rng.uniform()
            if u < 0.3:
                p = validate_pmf([1.0 / n] * n)
            elif u < 0.6:
                # dyadic blocks: runs of equal powers of two
                p = validate_pmf([2.0 ** -int(k) for k in rng.integers(1, 6, n)],
                                 normalize=True)
            else:
                p = random_pmf(rng, n)
            for rule in rules:
                assert rule._monotone
                two_keys, heap_keys = rule._leaf_keys(p), rule._leaf_keys(p)
                two = _merge_two_queues(two_keys, rule._combiner())
                heap = _merge_heap(heap_keys, rule._combiner())
                assert two == heap
                assert two_keys == heap_keys
                merged = two_keys[p.n:]
                assert all(a <= b for a, b in zip(merged, merged[1:]))
                assert generalized_huffman(p, rule).lengths.lengths \
                    == reference_lengths(p, rule)

    def test_out_of_order_pops_fall_back_to_heap(self, monkeypatch):
        # q = 0.4 merges below the last merge, which the queue loop must refuse
        p = validate_pmf([0.4, 0.2, 0.2, 0.2])
        rule = CombineRule.exp_base(0.4)
        assert _merge_two_queues(rule._leaf_keys(p), rule._combiner()) is None
        monkeypatch.setattr(CombineRule, "_monotone", property(lambda self: True))
        assert generalized_huffman(p, rule).lengths.lengths == unary_code(4).lengths

    def test_root_weight_matches_objective(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 12)))
            r = two_queue_mmpr(p, trace=True)
            assert r.trace.root_weight == pytest.approx(
                max_pointwise_redundancy(p, r.lengths), abs=1e-9)


# the benchmark's six rules: the first four take the two-queue path
SIX_RULES = (CombineRule.sum(), CombineRule.max_double(), CombineRule.dth_exp(0.5),
             CombineRule.exp_base(2.0), CombineRule.dth_exp(-0.5), CombineRule.exp_base(0.9))


@pytest.fixture(scope="module")
def large_pmfs():
    geometric = validate_pmf([2.0 ** (-i / 5) for i in range(1, 5001)], normalize=True)
    return {"geometric": geometric,
            "dirichlet": random_pmf(np.random.default_rng(41), 2000)}


class TestLargeAlphabet:
    """n = 5000 at depth up to ~1250 and n = 2000 Dirichlet, against the reference."""

    @pytest.mark.parametrize("rule", SIX_RULES,
                             ids=lambda r: f"{r.kind.value}{'' if r.param is None else r.param}")
    @pytest.mark.parametrize("name", ["geometric", "dirichlet"])
    def test_matches_reference(self, large_pmfs, name, rule):
        p = large_pmfs[name]
        r = generalized_huffman(p, rule)
        assert r.lengths.lengths == reference_lengths(p, rule)
        assert r.lengths.is_complete
        assert r.objective_value == pytest.approx(root_weight_value(p, rule),
                                                  rel=1e-9, abs=1e-9)


class TestShannonCodes:
    def test_dyadic_exact(self):
        assert shannon_code(validate_pmf([0.5, 0.25, 0.25])).lengths == (1, 2, 2)

    def test_generic(self):
        assert shannon_code(validate_pmf([0.5, 0.3, 0.2])).lengths == (1, 2, 3)

    def test_benford_lengths_and_pointwise_gap(self):
        b = benford()
        code = shannon_code(b)
        assert code.lengths == (2, 3, 4, 4, 4, 4, 5, 5, 5)
        assert code.is_valid
        assert max_pointwise_redundancy(b, code) < 1.0

    def test_always_kraft_valid_with_sub_unit_redundancy(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = random_pmf(rng, int(rng.integers(1, 15)))
            code = shannon_code(p)
            assert code.is_valid
            assert max_pointwise_redundancy(p, code) < 1.0


class TestJShannon:
    def test_dyadic_matches_plain_shannon_for_any_j(self):
        p = validate_pmf([0.5, 0.25, 0.125, 0.125])
        for j in range(1, 5):
            assert j_shannon_code(p, j).lengths == shannon_code(p).lengths

    def test_pins_symbol_and_keeps_kraft(self):
        p = validate_pmf([0.5, 0.25, 0.25])
        code = j_shannon_code(p, 1)
        assert code.lengths == (1, 2, 2)
        assert code.is_valid

    def test_degenerate_single_symbol(self):
        assert j_shannon_code(validate_pmf([1.0]), 1).lengths == (0,)

    def test_non_pinned_redundancy_bound(self):
        # symbols other than j stay strictly below the scaled unit bound
        b = benford()
        code = j_shannon_code(b, 1)
        lam = code.lengths[0]
        cap = 1 + math.log2((1 - b.probs[0]) / (1 - 2.0 ** -lam))
        worst = max(l + math.log2(pi)
                    for i, (l, pi) in enumerate(zip(code.lengths, b)) if i != 0)
        assert worst < cap

    def test_random_inputs_kraft_valid(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            p = random_pmf(rng, int(rng.integers(2, 12)))
            j = int(rng.integers(1, p.n + 1))
            code = j_shannon_code(p, j)
            assert code.is_valid
            assert code.lengths[j - 1] == math.ceil(-math.log2(p.probs[j - 1]) - 1e-12)


class TestUnary:
    def test_shapes(self):
        assert unary_code(4).lengths == (1, 2, 3, 3)
        assert unary_code(2).lengths == (1, 1)
        assert unary_code(1).lengths == (0,)
        assert unary_code(6).is_complete

    def test_optimal_for_decaying_base(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = random_pmf(rng, n)
            best = brute_force_optimal(p, Objective.exp_average(0.4))
            from genhuff import exp_average_cost

            assert exp_average_cost(p, unary_code(n), 0.4) \
                == pytest.approx(best.min_value, abs=1e-12)


class TestCanonicalCodewords:
    def test_examples(self):
        assert canonical_codewords(LengthVector((1, 2, 2))) == ("0", "10", "11")
        assert canonical_codewords(LengthVector((2, 2, 2, 2))) == ("00", "01", "10", "11")
        assert canonical_codewords(LengthVector((1, 2, 3, 3))) == ("0", "10", "110", "111")

    def test_original_symbol_order_preserved(self):
        assert canonical_codewords(LengthVector((2, 1, 2))) == ("10", "0", "11")

    def test_kraft_violation_rejected(self):
        with pytest.raises(KraftViolation):
            canonical_codewords(LengthVector((1, 1, 2)))

    def test_prefix_free_exhaustive_small(self):
        for n in range(1, 11):
            for lv in enumerate_kraft_lengths(n):
                words = canonical_codewords(lv)
                assert len(set(words)) == n
                for w in words:
                    for v in words:
                        assert v == w or not v.startswith(w)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=16))
    @settings(max_examples=300)
    def test_prefix_free_random_kraft_valid(self, lengths):
        if sum(2.0 ** -l for l in lengths) > 1.0:
            lengths = sorted(lengths)
            while sum(2.0 ** -l for l in lengths) > 1.0:
                lengths.pop(0)
            if not lengths:
                return
        words = canonical_codewords(LengthVector(tuple(lengths)))
        assert len(set(words)) == len(lengths)
        for w in words:
            for v in words:
                assert v == w or not v.startswith(w)
