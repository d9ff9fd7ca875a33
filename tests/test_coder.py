"""Merge engine, Shannon-style constructions, and codeword assignment."""

import heapq
import itertools
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genhuff import (
    CodingError,
    CombineRule,
    DOutOfRange,
    KraftViolation,
    LengthVector,
    Objective,
    ObjectiveKind,
    benford,
    brute_force_optimal,
    canonical_codewords,
    generalized_huffman,
    j_shannon_code,
    kraft_length_tuples,
    lg_sum_exp2,
    max_pointwise_redundancy,
    QOutOfRange,
    RuleKind,
    shannon_code,
    unary_code,
    validate_pmf,
)
import genhuff.coder as coder
from genhuff.core import D_MAX, Pmf, ceil_neg_lg
from genhuff.coder import _level_runs, _merge_two_queues
from test_oracle import EXTREME_OBJECTIVES, OBJECTIVES

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


def dyadic_pmf(rng, n):
    """Runs of equal powers of two, so that merged keys tie with input keys."""
    return validate_pmf([2.0 ** -int(k) for k in rng.integers(1, 6, n)], normalize=True)


def every_n_pmfs(rng):
    """Uniform, dyadic-tie and random pmfs at every n = 1..80."""
    return [p for n in range(1, 81)
            for p in (validate_pmf([1.0 / n] * n), dyadic_pmf(rng, n), random_pmf(rng, n))]


# rules at and near the edges of every parameter range
PANEL_RULES = ([CombineRule.sum(), CombineRule.max_double()]
               + [CombineRule.dth_exp(d) for d in (0.5, 1e-12, 1e6,
                                                   -0.5, -0.99, -1e-9, -0.999999)]
               + [CombineRule.exp_base(q) for q in (2.0, 1 + 1e-12, 1e200,
                                                    0.1, 0.3, 0.49, 0.5, 0.5 + 1e-7,
                                                    0.6, 0.9, 1 - 1e-12)])

# the panel and the extreme objectives' rules, each once
EDGE_RULES = list(dict.fromkeys(PANEL_RULES + [CombineRule.for_objective(obj)
                                               for obj in EXTREME_OBJECTIVES]))
DTH_EDGE_RULES = [rule for rule in EDGE_RULES if rule.kind is RuleKind.DTH_EXP]
EXPONENTIAL_KINDS = (RuleKind.DTH_EXP, RuleKind.EXP_BASE)
EXPONENTIAL_EDGE_RULES = [rule for rule in EDGE_RULES if rule.kind in EXPONENTIAL_KINDS]


# The reference below is the textbook construction: a (weight, sequence)
# heap, a parent map and a walk up from every leaf, O(n * depth).  Its
# merge formulas are written out here, not taken from the engine.

def leaf_power(rule):
    """The leaves' exponent: 1 + d under the d-th rule, 1 under every other."""
    return 1.0 + rule.param if rule.kind is RuleKind.DTH_EXP else 1.0


def reference_shift(p, rule):
    """k of the linear leaves (p_i 2^k)^c, c = 1 + d under the d-th rule and 1 under
    the others, by a scan up from 0: the least k >= 0 that makes (p_n 2^k)^c a normal
    float."""
    c, k = leaf_power(rule), 0
    while not math.ldexp(p.probs[-1], k) ** c >= sys.float_info.min:
        k += 1
    return k


def reference_merge_rule(p, rule, log_domain=False):
    """(leaf key, combine) for ``rule`` on ``p``: linear weights, (p_i 2^k)^c under an
    exponential rule with k = ``reference_shift``, or with ``log_domain`` an
    exponential rule's base-2 logs."""
    kind, param = rule.kind.value, rule.param
    if kind == "sum":
        return float, lambda a, b: a + b
    if kind == "max_double":
        return float, lambda a, b: 2.0 * max(a, b)
    if kind == "exp_base":
        if log_domain:
            lgq = math.log2(param)
            return math.log2, lambda a, b: lgq + lg_sum_exp2((a, b))
        shift = reference_shift(p, rule)
        return lambda x: math.ldexp(x, shift), lambda a, b: param * (a + b)
    c = 1.0 + param
    if log_domain:
        return math.log2, lambda a, b: (param + lg_sum_exp2((c * a, c * b))) / c
    q, shift = 2.0 ** param, reference_shift(p, rule)
    return lambda x: math.ldexp(x, shift) ** c, lambda a, b: q * (a + b)


def reference_log_domain(p, rule):
    """Whether the engine's merge of ``p`` runs on base-2 logs, by the module docstring's
    conditions: an exponential rule whose q overflows (the d-th rule's 2^d), whose
    shift k has k c >= 1023, or whose linear root overflows."""
    if rule.kind not in EXPONENTIAL_KINDS:
        return False
    if rule.kind is RuleKind.DTH_EXP:
        try:
            2.0 ** rule.param
        except OverflowError:
            return True
    return not (reference_shift(p, rule) * leaf_power(rule) < 1023
                and reference_root(p, rule) < math.inf)


def reference_lengths(p, rule, log_domain=None):
    """The heap reference's lengths, in the domain the engine takes unless one is named."""
    if log_domain is None:
        log_domain = reference_log_domain(p, rule)
    leaf, combine = reference_merge_rule(p, rule, log_domain)
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


def heap_merge(keys, combine):
    """Merge ``keys`` by a (weight, sequence) heap, symbol i having sequence n-1-i.

    Returns the children as one flat list: the k-th merge joined kids[2k]
    and kids[2k + 1], popped in that order.  Each merged key is appended to
    ``keys``, so keys[v] is node v's weight, laid out as the engine's.
    """
    n = len(keys)
    heap = [(keys[i], n - 1 - i, i) for i in range(n)]
    heapq.heapify(heap)
    kids = []
    for new in range(n, 2 * n - 1):
        ka, _, a = heapq.heappop(heap)
        kb, _, b = heap[0]
        k = combine(ka, kb)
        heapq.heapreplace(heap, (k, new, new))
        keys.append(k)
        kids += (a, b)
    return kids


def heap_depths(n, kids):
    """Leaf depths from a flat children list, by one pass over the merges from the root down."""
    depth = [0] * (2 * n - 1)
    for new, a, b in zip(range(2 * n - 2, n - 1, -1), reversed(kids[0::2]),
                         reversed(kids[1::2])):
        depth[a] = depth[b] = depth[new] + 1
    return depth[:n]


def domains(rule):
    """The domains ``rule`` merges in: linear, and for an exponential rule the log
    domain too."""
    return ("linear", "log") if rule.kind in EXPONENTIAL_KINDS else ("linear",)


# each panel rule in each domain it merges in
PANEL_CASES = [(rule, domain) for rule in PANEL_RULES for domain in domains(rule)]


def domain_shift(p, rule, domain):
    """The leaves' shift k of ``rule``'s merge of ``p`` in the named domain: None in
    the log domain, and in the linear one where the rule has no linear keys for ``p``."""
    return None if domain == "log" else rule._shift(p)


def domain_inputs(p, rule, domain):
    """(leaf keys, combiner) of ``rule``'s merge of ``p`` in the named domain, or
    None where an exponential rule has no linear keys for ``p``."""
    shift = domain_shift(p, rule, domain)
    if shift is None and domain == "linear":
        return None
    return rule._leaf_keys(p, shift), rule._combiner(log_domain=domain == "log")


def domain_code(p, rule, domain):
    """(lengths, value) of the engine's steps run in the named domain: the merge,
    its level runs and the root readout, or ``evaluate`` where that declines."""
    keys, combine = domain_inputs(p, rule, domain)
    ks, cs = _level_runs(p.n, _merge_two_queues(keys, combine))
    lengths = LengthVector(tuple(k for k, c in zip(ks, cs) for _ in range(c)))
    value = rule._root_value(keys[-1], domain_shift(p, rule, domain))
    return lengths.lengths, rule.objective().evaluate(p, lengths) if value is None else value


def assert_merged_queue_sorted(p, rule, domain):
    """``rule``'s merge of ``p`` in the named domain kept its merged queue sorted:
    merged keys nondecreasing, or under q < 1/2, where they are not, every merged
    node popped by the next merge."""
    keys, combine = domain_inputs(p, rule, domain)
    marks = _merge_two_queues(keys, combine)
    n = p.n
    if rule.kind is RuleKind.EXP_BASE and rule.param < 0.5:
        assert marks == list(range(n, 2 * n - 1))
    else:
        merged = keys[n:]
        assert all(a <= b for a, b in zip(merged, merged[1:]))


def root_weight_value(p, rule):
    """The optimal objective value from a merge that keeps root weights only."""
    log_domain = reference_log_domain(p, rule)
    leaf, combine = reference_merge_rule(p, rule, log_domain)
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
        return math.log2(root)
    if kind == "dth_exp":
        c = 1.0 + param
        if log_domain:
            return c / param * root
        return (math.log2(root) - reference_shift(p, rule) * c) / param
    if log_domain:
        return root / math.log2(param)
    return (math.log2(root) - reference_shift(p, rule)) / math.log2(param)


def reference_root(p, rule, log_domain=False):
    """The root key of a merge that keeps weights only, by the reference formulas."""
    leaf, combine = reference_merge_rule(p, rule, log_domain)
    heap = [leaf(x) for x in p.probs]
    heapq.heapify(heap)
    while len(heap) > 1:
        heapq.heappush(heap, combine(heapq.heappop(heap), heapq.heappop(heap)))
    return heap[0]


def readout_applies(p, rule):
    """Whether the engine reads ``rule``'s value off the root weight, per ``CodeResult``:
    |s| >= 1/16, and under exp-base a log-domain merge or a normal float linear root."""
    if rule.kind is RuleKind.DTH_EXP:
        return abs(rule.param) >= 0.0625
    if rule.kind is RuleKind.EXP_BASE:
        return abs(math.log2(rule.param)) >= 0.0625 and (
            reference_log_domain(p, rule) or reference_root(p, rule) >= sys.float_info.min)
    return False


U = 2.0 ** -53  # unit roundoff


def exact_lg_w(p, lengths, rule, prec=200):
    """lg W of the readout at ``prec`` bits: W = sum_i p_i^(1+d) 2^(d l_i) or
    sum_i p_i q^l_i."""
    with mpmath.workprec(prec):
        x, probs = mpmath.mpf(rule.param), [mpmath.mpf(pi) for pi in p.probs]
        if rule.kind is RuleKind.DTH_EXP:
            c = 1 + x
            return mpmath.log(mpmath.fsum(pi ** c * 2 ** (x * li)
                                          for pi, li in zip(probs, lengths)), 2)
        return mpmath.log(mpmath.fsum(pi * x ** li for pi, li in zip(probs, lengths)), 2)


def gamma(k):
    return k * U / (1 - k * U)


def readout_bound(p, lengths, rule, lg_w, value, log_domain):
    """The module docstring's bound on |readout - value| for the exact ``value`` = lg W / s,
    with (a, s) = (1 + d, d) under the d-th rule and (1, lg q) under exp-base.

    Linear, on leaves shifted by 2^k: the root is off by a relative rho, so lg W
    by -lg(1 - rho), which the quotient divides by |s|; log2 of the root, log2 q
    and the quotient round once each, within an ulp, and the subtraction once:
    6u (|V| + 1).  Under exp-base rho = gamma_2L + (n-1) 2^-1074 / (2^(k a) W),
    and under the d-th rule rho = (1 + gamma_(4L+2)) 2^t - 1 with
    t = u a max_i |lg(p_i 2^k)|.  The shift adds 3u k a / |s|: log2 of a root
    near 2^(k a) rounds by up to 2u k a more, and k a rounds once; but not
    under exp-base where W = 2^-k W' is normal, which the readout scales exactly
    (the term is kept within a bit of the subnormal edge, where the float root
    may fall either side).
    Log domain: a r is off by 10u (L + 2)(a K + |s| + 1),
    K = max(-lg p_n, L (1+s) / a) + 1, over |s|; the product a r and the
    quotient round once each: 4u |V|.
    """
    big_l, value = max(lengths), abs(float(value))
    if rule.kind is RuleKind.DTH_EXP:
        s = rule.param
        a = 1 + s
        height = big_l
    else:
        s, a = math.log2(rule.param), 1.0
        height = big_l * (1 + s)
    if log_domain:
        k = max(-math.log2(p.probs[-1]), height) + 1
        return 10 * U * (big_l + 2) * (a * k + abs(s) + 1) / abs(s) + 4 * U * value
    shift = reference_shift(p, rule)
    if rule.kind is RuleKind.DTH_EXP:
        t = U * a * max(abs(math.log2(math.ldexp(x, shift))) for x in (p.probs[0], p.probs[-1]))
        rho = (1 + gamma(4 * big_l + 2)) * 2.0 ** t - 1
    else:
        rho = gamma(2 * big_l) + (p.n - 1) * 2.0 ** -1074 / float(mpmath.mpf(2) ** (lg_w + shift))
        if lg_w > -1021:
            shift = 0
    return -math.log2(1 - rho) / abs(s) + 6 * U * (value + 1) + 3 * U * shift * a / abs(s)


def exact_value(p, lengths, rule, prec=200):
    """(lg W, lg W / s) of the readout at ``prec`` bits."""
    lg_w = exact_lg_w(p, lengths, rule, prec)
    with mpmath.workprec(prec):
        s = mpmath.mpf(rule.param) if rule.kind is RuleKind.DTH_EXP else mpmath.log(rule.param, 2)
        return lg_w, lg_w / s


def check_readout(p, res, rule, prec=200):
    """``res``'s value, read off the root, lies within ``readout_bound`` of the
    ``prec``-bit value, the bound of the domain the engine merged in."""
    lg_w, exact = exact_value(p, res.lengths.lengths, rule, prec)
    with mpmath.workprec(prec):
        err = abs(res.objective_value - exact)
    bound = readout_bound(p, res.lengths.lengths, rule, lg_w, exact,
                          reference_log_domain(p, rule))
    assert err <= bound, (p.n, rule, float(err), bound)


def _queue_children(keys: list[float], marks: list[int]) -> list[int]:
    """The heap's flat children list, rebuilt from the queue merge's keys and marks.

    A merge that moved the merged head by two took two merged nodes, by
    none two inputs.  By one it took the next input and the head, the
    input first iff its key is at most the head's, since inputs win ties.
    """
    n = len(marks) + 1
    i, j = n - 1, n
    kids: list[int] = []
    for mark in marks:
        took = mark - j
        if took == 0:
            kids += (i, i - 1)
            i -= 2
        elif took == 2:
            kids += (j, j + 1)
        else:
            kids += (i, j) if keys[i] <= keys[j] else (j, i)
            i -= 1
        j = mark
    return kids


def queue_merges(p, rule, domain="linear"):
    """The queue merge of ``p`` in the named domain: its (a, b, new) node ids per
    merge, and the keys.

    keys[v] is node v's weight, a base-2 log in the log domain; the root's
    comes last.
    """
    keys, combine = domain_inputs(p, rule, domain)
    kids = _queue_children(keys, _merge_two_queues(keys, combine))
    return list(zip(kids[0::2], kids[1::2], range(p.n, 2 * p.n - 1))), keys


def linear_combine(rule, a, b):
    """f(a, b) on linear-domain weights: the paper's form, not the engine's."""
    kind, param = rule.kind.value, rule.param
    if kind == "sum":
        return a + b
    if kind == "max_double":
        return 2.0 * max(a, b)
    if kind == "exp_base":
        return param * a + param * b
    d = param
    return (2.0 ** d * a ** (1.0 + d) + 2.0 ** d * b ** (1.0 + d)) ** (1.0 / (1.0 + d))


class TestCombineRule:
    def test_formulas(self):
        assert linear_combine(CombineRule.sum(), 0.3, 0.2) == pytest.approx(0.5)
        assert linear_combine(CombineRule.max_double(), 0.3, 0.2) == pytest.approx(0.6)
        assert linear_combine(CombineRule.exp_base(0.6), 0.3, 0.2) == pytest.approx(0.3)
        f = linear_combine(CombineRule.dth_exp(1.0), 0.3, 0.2)
        assert f == pytest.approx(math.sqrt(2 * 0.09 + 2 * 0.04))

    @given(st.sampled_from(range(len(RULES))),
           st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(1e-4, 0.5))
    @settings(max_examples=200)
    def test_monotone_in_each_argument(self, ri, a, b, delta):
        # max-doubling is only nondecreasing in the smaller argument; every
        # other rule is strictly increasing in both
        rule = RULES[ri]
        up_a = linear_combine(rule, a + delta, b)
        up_b = linear_combine(rule, a, b + delta)
        base = linear_combine(rule, a, b)
        if rule.kind.value == "max_double":
            assert up_a >= base and up_b >= base
            assert linear_combine(rule, a + delta, b + delta) > base
        else:
            assert up_a > base and up_b > base

    def test_param_domains(self):
        # the rule's parameter is checked by the Objective it minimizes
        with pytest.raises(DOutOfRange):
            CombineRule.dth_exp(0.0)
        with pytest.raises(DOutOfRange):
            CombineRule(RuleKind.DTH_EXP)
        with pytest.raises(QOutOfRange):
            CombineRule.exp_base(1.0)
        with pytest.raises(QOutOfRange):
            CombineRule(RuleKind.EXP_BASE, -2.0)
        with pytest.raises(CodingError, match="takes no parameter"):
            CombineRule(RuleKind.SUM, 1.0)

    def test_objective_round_trip(self):
        for rule in RULES:
            assert CombineRule.for_objective(rule.objective()) == rule

    def test_objective_is_kept_and_not_a_field(self):
        # the rule keeps the Objective that checked its parameter, next to its
        # _family; equality, hash, repr and a pickle read kind and param alone
        for rule in RULES:
            assert rule.objective() is rule.objective()
            assert rule.objective() == Objective(coder._OBJECTIVE_OF[rule.kind], rule.param)
            twin = CombineRule(rule.kind, rule.param)
            assert twin == rule and hash(twin) == hash(rule)
            assert repr(rule) == f"CombineRule(kind={rule.kind!r}, param={rule.param!r})"
            assert hash(rule) == hash((rule.kind, rule.param))
            back = pickle.loads(pickle.dumps(rule))
            assert back == rule and back.objective() == rule.objective()

    def test_engine_scores_with_the_rule_objective(self, monkeypatch):
        # avg, MMPR and |s| < 1/16 are scored by evaluate on the rule's own
        # Objective, so a call builds and checks none
        p = validate_pmf([0.5, 0.3, 0.2])
        rules = (CombineRule.sum(), CombineRule.max_double(), CombineRule.dth_exp(1e-3),
                 CombineRule.exp_base(1.01))
        made = []
        init = Objective.__init__

        def counted(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(Objective, "__init__", counted)
        for rule in rules:
            res = generalized_huffman(p, rule)
            assert res.objective_value == rule.objective().evaluate(p, res.lengths)
        assert made == []


class TestGeneralizedHuffman:
    def test_mmpr_worked_example(self):
        p, rule = validate_pmf([0.5, 0.3, 0.2]), CombineRule.max_double()
        r = generalized_huffman(p, rule)
        assert r.lengths.lengths == (1, 2, 2)
        # the linear root max_i p_i 2^l_i is exact, 2 (2 * 0.3), and pins the optimum value
        _, keys = queue_merges(p, rule)
        assert keys[-1] == 1.2
        assert r.objective_value == pytest.approx(math.log2(1.2), abs=1e-12)

    def test_benford_exponential_codes(self):
        b = benford()
        r06 = generalized_huffman(b, CombineRule.exp_base(0.6))
        assert r06.lengths.lengths == (1, 2, 3, 4, 5, 6, 7, 8, 8)
        r2 = generalized_huffman(b, CombineRule.exp_base(2.0))
        assert sorted(r2.lengths.lengths) == [2, 3, 3, 3, 3, 4, 4, 4, 4]

    def test_single_symbol(self):
        for rule in RULES:
            p = validate_pmf([1.0])
            r = generalized_huffman(p, rule)
            assert r.lengths.lengths == (0,)
            assert r.codewords == ("",)
            assert r.objective_value == pytest.approx(0.0)
            assert queue_merges(p, rule)[0] == []

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

    def test_merge_count_and_monotonicity(self):
        rng = np.random.default_rng(22)
        # pair minima are nondecreasing whenever f(a, b) >= min(a, b);
        # exp_base below 0.5 deliberately violates this (the unary mechanism)
        monotone_rules = [r for r in RULES
                          if not (r.kind.value == "exp_base" and r.param < 0.5)]
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 11)))
            rule = monotone_rules[int(rng.integers(len(monotone_rules)))]
            for domain in domains(rule):
                merges, keys = queue_merges(p, rule, domain)
                assert len(merges) == p.n - 1
                mins = [min(keys[a], keys[b]) for a, b, _ in merges]
                assert all(a <= b + 1e-12 for a, b in zip(mins, mins[1:]))

    def test_unary_mechanism_merges_below_previous_min(self):
        p = validate_pmf([0.4, 0.2, 0.2, 0.2])
        rule = CombineRule.exp_base(0.4)
        r = generalized_huffman(p, rule)
        merges, keys = queue_merges(p, rule)
        mins = [min(keys[a], keys[b]) for a, b, _ in merges]
        assert any(b < a for a, b in zip(mins, mins[1:]))
        assert r.lengths.lengths == unary_code(4).lengths

    def test_subtree_weight_dominates_probability(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 11)))
            merges, keys = queue_merges(p, CombineRule.max_double())
            mass = {i: p.probs[i] for i in range(p.n)}
            for a, b, new in merges:
                mass[new] = mass[a] + mass[b]
                assert keys[new] >= mass[new] - 1e-12

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
        r = generalized_huffman(validate_pmf([0.5, 0.3, 0.2]), CombineRule.max_double())
        assert r.lengths.lengths == (1, 2, 2)

    def test_uniform_six_is_complete(self):
        r = generalized_huffman(validate_pmf([1 / 6] * 6), CombineRule.max_double())
        assert r.lengths.lengths == (2, 2, 3, 3, 3, 3)
        assert r.lengths.is_complete

    def test_equals_heap_engine_everywhere(self):
        # the queue merge called directly against the test's heap merge
        rng = np.random.default_rng(27)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            u = rng.uniform()
            if u < 0.3:
                p = validate_pmf([1.0 / n] * n)
            elif u < 0.6:
                p = dyadic_pmf(rng, n)
            else:
                p = random_pmf(rng, n)
            for rule, domain in PANEL_CASES:
                inputs = domain_inputs(p, rule, domain)
                if inputs is None:
                    continue
                two_keys, combine = inputs
                heap_keys = list(two_keys)
                marks = _merge_two_queues(two_keys, combine)
                heap = heap_merge(heap_keys, combine)
                two = _queue_children(two_keys, marks)
                assert two == heap
                assert two_keys == heap_keys
                if rule.kind is RuleKind.EXP_BASE and rule.param < 0.5:
                    # each merged node is popped by the next merge, so the
                    # merged queue never holds more than one item
                    assert all(new in two[2 * k + 2:2 * k + 4]
                               for k, new in enumerate(range(p.n, 2 * p.n - 2)))
                else:
                    merged = two_keys[p.n:]
                    assert all(a <= b for a, b in zip(merged, merged[1:]))
                assert domain_code(p, rule, domain)[0] \
                    == reference_lengths(p, rule, domain == "log")
            for rule in PANEL_RULES:
                assert generalized_huffman(p, rule).lengths.lengths \
                    == reference_lengths(p, rule)

    def test_level_lengths_equal_heap_depths(self):
        for p in every_n_pmfs(np.random.default_rng(29)):
            for rule, domain in PANEL_CASES:
                inputs = domain_inputs(p, rule, domain)
                if inputs is None:
                    continue
                keys, combine = inputs
                heap_keys = list(keys)
                marks = _merge_two_queues(keys, combine)
                heap_kids = heap_merge(heap_keys, combine)
                ks, cs = _level_runs(p.n, marks)
                assert [k for k, c in zip(ks, cs) for _ in range(c)] \
                    == heap_depths(p.n, heap_kids)
                assert _queue_children(keys, marks) == heap_kids

    def test_queue_path_lengths_nondecreasing_in_symbol_index(self, large_pmfs):
        pmfs = list(large_pmfs.values()) + every_n_pmfs(np.random.default_rng(30))
        for p in pmfs:
            for rule, domain in PANEL_CASES:
                if domain_inputs(p, rule, domain) is not None:
                    assert_merged_queue_sorted(p, rule, domain)
            for rule in PANEL_RULES:
                lengths = generalized_huffman(p, rule).lengths.lengths
                assert all(a <= b for a, b in zip(lengths, lengths[1:]))

    def test_q_below_half_never_queues_two_merged_items(self):
        # q = 0.4 merges below the last merge's keys, yet each merged node is
        # popped by the next merge, so the merged queue is never out of order
        q04 = CombineRule.exp_base(0.4)
        p = validate_pmf([0.4, 0.2, 0.2, 0.2])
        keys = q04._leaf_keys(p, q04._shift(p))
        marks = _merge_two_queues(keys, q04._combiner())
        assert any(b < a for a, b in zip(keys[p.n:], keys[p.n + 1:]))
        assert marks == [4, 5, 6]
        ks, cs = _level_runs(p.n, marks)
        assert tuple(k for k, c in zip(ks, cs) for _ in range(c)) \
            == reference_lengths(p, q04) == unary_code(4).lengths

    @pytest.mark.parametrize("n", [6, 9, 17, 40])
    def test_inverting_combiner_still_gives_a_complete_ordered_code(self, monkeypatch, n):
        # 1/(a + b) decreases in both arguments: uniform inputs merge to equal
        # keys, and merging two of those appends a small key behind a large one.
        # The merge checks no order, and the code it reads off the FIFO marks
        # is still complete, with lengths nondecreasing in symbol index.
        def combiner(self, log_domain=False):
            return lambda a, b: 1.0 / (a + b)

        rule = CombineRule.sum()
        monkeypatch.setattr(CombineRule, "_combiner", combiner)
        pmfs = [validate_pmf([1.0 / n] * n), dyadic_pmf(np.random.default_rng(n), n),
                random_pmf(np.random.default_rng(n), n)]
        inverted = 0
        for p in pmfs:
            keys = rule._leaf_keys(p, rule._shift(p))
            marks = _merge_two_queues(keys, combiner(rule))
            # some merge appended a key below the tail of a non-empty merged queue
            inverted += any(keys[new] < keys[new - 1] and marks[new - p.n] < new
                            for new in range(p.n + 1, 2 * p.n - 1))
            ks, cs = _level_runs(p.n, marks)
            assert [k for k, c in zip(ks, cs) for _ in range(c)] \
                == heap_depths(p.n, _queue_children(keys, marks))
            lengths = generalized_huffman(p, rule).lengths
            assert lengths.is_complete
            assert all(a <= b for a, b in zip(lengths.lengths, lengths.lengths[1:]))
            assert lengths._runs == (ks, cs) == groupby_runs(lengths.lengths)
        assert inverted

    def test_combiner_gets_the_lighter_item_first(self, monkeypatch):
        # the max and log-domain d-th combiners read a <= b from the merge order
        combiner = CombineRule._combiner
        calls = []

        def ordered(self, log_domain=False):
            combine = combiner(self, log_domain)

            def checked(a, b):
                calls.append(a <= b)
                return combine(a, b)

            return checked

        rng = np.random.default_rng(31)
        pmfs = [p for n in range(1, 31)
                for p in (validate_pmf([1.0 / n] * n), dyadic_pmf(rng, n), random_pmf(rng, n))]
        expected = [generalized_huffman(p, rule) for p in pmfs for rule in EDGE_RULES]
        logs = [domain_code(p, rule, "log") for p in pmfs for rule in EDGE_RULES
                if rule.kind in EXPONENTIAL_KINDS]
        monkeypatch.setattr(CombineRule, "_combiner", ordered)
        assert [generalized_huffman(p, rule) for p in pmfs for rule in EDGE_RULES] == expected
        # a linear merge whose root overflows runs again on logs, as q = 1e200 does
        merges = sum((p.n - 1) * (1 + (rule._shift(p) is not None
                                       and reference_log_domain(p, rule)))
                     for p in pmfs for rule in EDGE_RULES)
        assert merges > len(EDGE_RULES) * sum(p.n - 1 for p in pmfs)
        assert len(calls) == merges
        # the log domain on every exponential rule, not only where the engine falls back to it
        assert [domain_code(p, rule, "log") for p in pmfs for rule in EDGE_RULES
                if rule.kind in EXPONENTIAL_KINDS] == logs
        assert len(calls) == merges + len(EXPONENTIAL_EDGE_RULES) * sum(p.n - 1 for p in pmfs)
        assert all(calls)

    @pytest.mark.parametrize("rule", EDGE_RULES,
                             ids=lambda r: f"{r.kind.value}{'' if r.param is None else r.param}")
    def test_queues_equal_heap_at_small_n_and_infinite_keys(self, rule):
        pmfs = [validate_pmf(probs) for probs in
                ([1.0], [0.5, 0.5], [0.9, 0.1], [1 / 3] * 3, [0.5, 0.25, 0.25],
                 [0.6, 0.3, 0.1], [0.4, 0.3, 0.3])]
        pmfs += [validate_pmf([1.0 / 8] * 8), validate_pmf([1.0 / 64] * 64)]
        merged = Counter()
        for p, domain in itertools.product(pmfs, domains(rule)):
            inputs = domain_inputs(p, rule, domain)
            if inputs is None:
                continue
            keys, combine = inputs
            heap_keys = list(keys)
            marks = _merge_two_queues(keys, combine)
            heap_kids = heap_merge(heap_keys, combine)
            assert keys == heap_keys
            assert _queue_children(keys, marks) == heap_kids
            ks, cs = _level_runs(p.n, marks)
            assert [k for k, c in zip(ks, cs) for _ in range(c)] == heap_depths(p.n, heap_kids)
            merged[domain] += 1
        # an exponential rule merges every pmf in the log domain, and linearly
        # unless 2^d overflows, from d = 1024
        assert merged["log"] == (len(pmfs) if rule.kind in EXPONENTIAL_KINDS else 0)
        assert merged["linear"] or rule.param >= 1024
        if rule.kind is RuleKind.EXP_BASE and rule.param == 1e200:
            # the last merges of both uniform pmfs have merged keys of +inf
            keys = rule._leaf_keys(pmfs[-1], 0)
            _merge_two_queues(keys, rule._combiner())
            assert keys.count(math.inf) > 2

    @pytest.mark.parametrize("rule", EDGE_RULES + [CombineRule.exp_base(1e300),
                                                   CombineRule.exp_base(1e-300)],
                             ids=lambda r: f"{r.kind.value}{'' if r.param is None else r.param}")
    def test_nan_sentinel_never_reaches_the_combiner_or_the_keys(self, rule):
        # the NaN after the merged slots ends the input queue: the combiner
        # never sees it, and it is gone from the keys the merge hands back
        rng = np.random.default_rng(32)
        overflowed = False
        ran = set()
        pmfs = [p for n in (1, 2, 3, 64)
                for p in (validate_pmf([1.0 / n] * n), dyadic_pmf(rng, n), random_pmf(rng, n))]
        for p, domain in itertools.product(pmfs, domains(rule)):
            inputs = domain_inputs(p, rule, domain)
            if inputs is None:
                continue
            keys, combine = inputs
            heap_keys = list(keys)
            ran.add(domain)
            seen, made, heap_seen = [], [], []

            def spy(a, b):
                seen.extend((a, b))
                made.append(combine(a, b))
                return made[-1]

            def heap_spy(a, b):
                heap_seen.extend((a, b))
                return combine(a, b)

            marks = _merge_two_queues(keys, spy)
            heap_kids = heap_merge(heap_keys, heap_spy)
            assert len(seen) == 2 * (p.n - 1)
            assert not any(map(math.isnan, seen))
            assert seen == heap_seen
            # +inf keys tie, so the picks show only in the tree
            assert _queue_children(keys, marks) == heap_kids
            assert len(keys) == 2 * p.n - 1
            assert not any(map(math.isnan, keys))
            assert keys[-1] == heap_keys[-1] == (made[-1] if made else keys[0])
            overflowed |= math.inf in made
        # q = 1e300 overflows merged keys to +inf, which an input must still beat
        assert overflowed or rule.param != 1e300
        # both domains of a d-th rule, which has no linear keys from d = 1024
        assert ran == set(domains(rule)) or ran == {"log"} and rule.param >= 1024

    def test_root_weight_matches_objective(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            p = random_pmf(rng, int(rng.integers(2, 12)))
            rule = CombineRule.max_double()
            r = generalized_huffman(p, rule)
            _, keys = queue_merges(p, rule)
            assert math.log2(keys[-1]) == pytest.approx(max_pointwise_redundancy(p, r.lengths),
                                                        abs=1e-9)


# d values at and between the edges of d's range, on which one-ulp nudges
# of b lower the float d-th combiner
ORDER_DS = (7.0, 2.0, 0.5, 1e-3, -0.5, -0.9)
NEAR_TIE_RULES = tuple(CombineRule.dth_exp(d) for d in ORDER_DS) \
    + tuple(CombineRule.exp_base(q) for q in (0.3, 0.6, 0.9, 1.5, 2.0))
NEAR_TIE_CASES = tuple((rule, domain) for rule in NEAR_TIE_RULES for domain in domains(rule))


def one_merge_bound(d, a, b):
    """The module docstring's bound e = 10u (c K + |d| + 1) / c on one d-th
    merge's key, with K = max(|a|, |b|) + 1 bounding both arguments."""
    c = 1.0 + d
    return 10 * U * (c * (max(abs(a), abs(b)) + 1) + abs(d) + 1) / c


@st.composite
def near_tie_pmfs(draw):
    """n <= 12: uniform or Dirichlet(1) probabilities, each moved by up to 4 ulps."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        raw = [1.0 / n] * n
    else:
        raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).dirichlet(np.ones(n))
    probs = []
    for x, k in zip(raw, draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))):
        x = float(x)
        for _ in range(abs(k)):
            x = math.nextafter(x, math.inf if k > 0 else 0.0)
        probs.append(x)
    return validate_pmf(probs)


class TestOrderTolerance:
    """The log-domain merge without an order check: a swapped d-th pair stays
    within one merge's bound, and near ties still give optimal, complete,
    ordered codes under either exponential rule, in that domain and in the
    linear one."""

    @pytest.mark.parametrize("d", ORDER_DS)
    def test_swapped_arguments_agree_within_one_merge(self, d):
        # an inversion of the merged queue can hand the combiner a > b by two
        # merges' rounding; f is symmetric in exact arithmetic
        dth = CombineRule.dth_exp(d)._combiner(log_domain=True)
        c = 1.0 + d  # the engine's c, so that only the merge's own rounding is measured
        rng = random.Random(f"swap{d}")
        for _ in range(300):
            scale = rng.choice((1.0, 60.0, 1300.0))
            a = rng.uniform(-scale, scale)
            b = rng.choice((a, math.nextafter(a, math.inf), a + rng.uniform(0, 2.0 ** -40)))
            assert a <= b <= a + 2.0 ** -40
            e = one_merge_bound(d, a, b)
            with mpmath.workprec(200):
                x, y, mc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
                exact = (mpmath.mpf(d) + mpmath.log(2 ** (mc * x) + 2 ** (mc * y), 2)) / mc
                assert abs(dth(a, b) - exact) <= e and abs(dth(b, a) - exact) <= e
            assert abs(dth(b, a) - dth(a, b)) <= e

    @given(near_tie_pmfs(), st.sampled_from(NEAR_TIE_CASES))
    @settings(max_examples=150, deadline=None)
    def test_near_ties_give_optimal_complete_ordered_codes(self, p, case):
        # the engine's code, and the d-th rule's code from the log domain by name
        rule, domain = case
        if domain == "log":
            lengths, value = domain_code(p, rule, "log")
        else:
            assert not reference_log_domain(p, rule)
            res = generalized_huffman(p, rule)
            lengths, value = res.lengths.lengths, res.objective_value
        assert abs(value - brute_force_optimal(p, rule.objective()).min_value) <= 1e-9
        assert LengthVector(lengths).is_complete
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))


# the benchmark's six rules
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
        for domain in domains(rule):
            if domain_inputs(p, rule, domain) is not None:
                assert_merged_queue_sorted(p, rule, domain)
        r = generalized_huffman(p, rule)
        assert r.lengths.lengths == reference_lengths(p, rule)
        assert r.lengths.is_complete
        assert r.objective_value == pytest.approx(root_weight_value(p, rule),
                                                  rel=1e-9, abs=1e-9)


def engine_cases(large_pmfs):
    """(pmf, rule) for the six rules on the large pmfs and on random n <= 40."""
    rng = np.random.default_rng(44)
    pmfs = list(large_pmfs.values()) + [random_pmf(rng, n) for n in range(1, 41)]
    return [(p, rule) for p in pmfs for rule in SIX_RULES]


class TestEngineTail:
    """What the engine does after the merge: lengths, value, codewords."""

    def test_value_is_evaluate_and_lengths_equal_checked_construction(self, large_pmfs):
        # the value is evaluate's, bit for bit, wherever the engine does not read
        # it off the root, and within the derived bound of a 200-bit value where
        # it does
        rng = np.random.default_rng(50)
        cases = engine_cases(large_pmfs) + [(random_pmf(rng, n), rule) for n in range(1, 41, 3)
                                            for rule in EDGE_RULES]
        read = 0
        for p, rule in cases:
            res = generalized_huffman(p, rule)
            if readout_applies(p, rule):
                check_readout(p, res, rule)
                read += 1
            else:
                assert res.objective_value == rule.objective().evaluate(p, res.lengths)
            direct = LengthVector(res.lengths.lengths)
            assert res.lengths == direct and hash(res.lengths) == hash(direct)
        assert 0 < read < len(cases)

    def test_codewords_and_evaluate_called_once_through_their_module_names(self, monkeypatch):
        # a profiler that wraps these two names sees every engine call; evaluate
        # runs exactly where the value is not read off the root
        import genhuff.core as core

        calls = Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(coder, "canonical_codewords",
                            counted("codewords", coder.canonical_codewords))
        monkeypatch.setattr(core.Objective, "evaluate",
                            counted("evaluate", core.Objective.evaluate))
        rng = np.random.default_rng(45)
        runs = evaluated = 0
        for n in (1, 2, 7, 40):
            p = random_pmf(rng, n)
            for rule in SIX_RULES + tuple(EDGE_RULES):
                generalized_huffman(p, rule)
                runs += 1
                evaluated += not readout_applies(p, rule)
                assert calls == {"codewords": runs, "evaluate": evaluated}
        assert 0 < evaluated < runs


TINY_PROBS = (1e-300, 2.2250738585072014e-308, 1e-310, 1e-320)


@st.composite
def extreme_pmfs(draw):
    """Raw probabilities, up to ~3000: a few ordinary entries, a geometric
    tail falling 2^-b per symbol down to the subnormal 2^-1060, and a few
    entries at 1e-300 or subnormal.  The total is below 2^8, so the tail
    stays above 0 when normalised; a tiny entry may not, and is refused."""
    head = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8))
    bits = draw(st.floats(0.01, 1.0))
    tail = [2.0 ** -min(bits * i, 1060.0) for i in range(1, draw(st.integers(0, 3000)) + 1)]
    tiny = draw(st.lists(st.one_of(st.sampled_from(TINY_PROBS), st.floats(5e-324, 1e-300)),
                         max_size=4))
    return head + tail + tiny


class TestExtremePmfs:
    """Subnormal and 1e-300 entries and deep geometric tails under every rule."""

    @given(extreme_pmfs())
    @settings(max_examples=25, deadline=None)
    def test_coded_completely_or_refused(self, raw):
        # each call refuses with a CodingError or gives a complete code, a
        # finite value and the canonical words of its lengths
        try:
            p = validate_pmf(raw, normalize=True)
        except CodingError:
            return
        for rule in dict.fromkeys(SIX_RULES + tuple(EDGE_RULES)):
            try:
                res = generalized_huffman(p, rule)
            except CodingError:
                continue
            assert res.lengths.is_complete
            assert math.isfinite(res.objective_value)
            assert res.codewords == symbol_order_codewords(res.lengths.lengths)

    def test_extreme_pmfs_reach_what_they_are_there_for(self):
        seen = {"n > 1000": 0, "subnormal p_n": 0, "1e-300": 0, "refused": 0}

        @given(extreme_pmfs())
        @settings(max_examples=60, deadline=None, database=None, derandomize=True)
        def tally(raw):
            seen["n > 1000"] += len(raw) > 1000
            seen["1e-300"] += 1e-300 in raw
            try:
                seen["subnormal p_n"] += validate_pmf(raw, normalize=True).probs[-1] < sys.float_info.min
            except CodingError:
                seen["refused"] += 1

        tally()
        assert all(seen.values()), seen


class TestRootReadout:
    """Where the engine reads the value off the root weight, and where ``evaluate`` keeps it."""

    @staticmethod
    def evaluate_calls(monkeypatch):
        calls = []
        evaluate = Objective.evaluate
        monkeypatch.setattr(Objective, "evaluate",
                            lambda self, p, l: calls.append(1) or evaluate(self, p, l))
        return calls

    @pytest.mark.parametrize("rule,root", [
        # exp-base roots that are subnormal or zero
        (CombineRule.exp_base(1e-318), "tiny"), (CombineRule.exp_base(1e-323), "tiny"),
        (CombineRule.exp_base(5e-324), "tiny"),
        # scales below 1/16
        *((CombineRule.dth_exp(d), None) for d in (1e-12, -1e-12, 1e-300, 5e-324)),
        *((CombineRule.exp_base(q), None) for q in (1 + 2.0 ** -52, 1 - 2.0 ** -52)),
    ], ids=lambda x: f"{x.kind.value}{x.param!r}" if isinstance(x, CombineRule) else str(x))
    def test_guarded_cases_are_evaluate_bit_for_bit(self, monkeypatch, rule, root):
        pmfs = [validate_pmf([0.35, 0.25, 0.2, 0.12, 0.08]),
                random_pmf(np.random.default_rng(51), 30)]
        if root is None:
            pmfs.append(validate_pmf([0.5, 0.3, 0.2]))
        calls = self.evaluate_calls(monkeypatch)
        for p in pmfs:
            before = len(calls)
            res = generalized_huffman(p, rule)
            assert len(calls) == before + 1
            assert res.objective_value == rule.objective().evaluate(p, res.lengths)
            if root == "tiny":
                assert reference_root(p, rule) < sys.float_info.min
            assert not readout_applies(p, rule)

    @pytest.mark.parametrize("q", [1e200, 1e150])
    def test_overflowing_root_reads_the_log_domain(self, monkeypatch, q):
        # depth 3 or more, which q = 1e150 needs to overflow: the linear root is
        # +inf, so the merge runs again on logs and the value is read off the log
        # root.  The lengths are those the linear merge gave with its +inf keys,
        # and the value is within the log domain's bound of the 1400-bit value.
        rule = CombineRule.exp_base(q)
        pmfs = [validate_pmf([0.35, 0.25, 0.2, 0.12, 0.08]),
                random_pmf(np.random.default_rng(51), 30)]
        calls = self.evaluate_calls(monkeypatch)
        for p, runs in zip(pmfs, (((2, 3), (3, 2)), ((4, 5), (2, 28)))):
            assert reference_root(p, rule) == math.inf
            res = generalized_huffman(p, rule)
            assert not calls
            assert res.lengths._runs == runs
            assert res.lengths.lengths == reference_lengths(p, rule, log_domain=False)
            assert coder._merge(p, rule)[2] is None and reference_log_domain(p, rule)
            assert readout_applies(p, rule)
            check_readout(p, res, rule, prec=1400)

    def test_subnormal_probability_reads_the_shifted_root(self, monkeypatch):
        # p_n = 1e-320 is subnormal, so the leaves are p_i 2^k, k = 42 the least
        # shift that makes p_n 2^k normal, and the value is read off the root with
        # k taken back out: the lengths the unshifted merge gave, and a value within
        # the linear bound of the 1400-bit value, which holds the sum 1 + 1e-320.
        # Under a = 1 the root scaled by 2^-k is exact, so the bound has no shift
        # term, and [1.0, 5e-324], k = 52, reads the float nearest its exact value,
        # 1 + ~5e-324, where taking k off lg W' read 1.000000000000021 at q = 0.9
        p = validate_pmf([0.5, 0.25, 0.25 - 1e-320, 1e-320])
        calls = self.evaluate_calls(monkeypatch)
        for q, lengths in ((2.0, (2, 2, 2, 2)), (0.9, (1, 2, 3, 3))):
            rule = CombineRule.exp_base(q)
            res = generalized_huffman(p, rule)
            assert not calls
            assert res.lengths.lengths == lengths
            assert rule._shift(p) == reference_shift(p, rule) == 42
            assert coder._merge(p, rule)[2] == 42
            assert reference_root(p, rule) >= sys.float_info.min
            check_readout(p, res, rule, prec=1400)
        two = validate_pmf([1.0, 5e-324])
        for q in (0.9, 0.3):
            rule = CombineRule.exp_base(q)
            res = generalized_huffman(two, rule)
            assert not calls
            assert rule._shift(two) == coder._merge(two, rule)[2] == 52
            assert res.lengths.lengths == (1, 1) and res.objective_value == 1.0
            check_readout(two, res, rule, prec=1400)

    def test_both_sides_of_the_one_sixteenth_cut(self, monkeypatch):
        sixteenth = 2.0 ** (1 / 16)
        rules = [CombineRule.dth_exp(d) for d in (0.0625, math.nextafter(0.0625, 0),
                                                 -0.0625, math.nextafter(-0.0625, 0))]
        rules += [CombineRule.exp_base(q) for base in (sixteenth, 1 / sixteenth)
                  for q in (base, math.nextafter(base, 1.0), math.nextafter(base, base ** 2))]
        p = random_pmf(np.random.default_rng(52), 25)
        calls = self.evaluate_calls(monkeypatch)
        sides = set()
        for rule in rules:
            s = rule.param if rule.kind is RuleKind.DTH_EXP else math.log2(rule.param)
            before = len(calls)
            res = generalized_huffman(p, rule)
            read = abs(s) >= 0.0625
            assert len(calls) == before + (not read)
            if read:
                check_readout(p, res, rule)
            else:
                assert res.objective_value == rule.objective().evaluate(p, res.lengths)
            sides.add((rule.kind, read))
        assert len(sides) == 4

    def test_linear_readout_below_zero_reads_zero(self, monkeypatch):
        # a dyadic code's exact d-th value is 0; the linear root reads it a hair
        # below, which only rounding can do, so the value is 0, and +0.0
        p, rule = validate_pmf([0.5, 0.25, 0.125, 0.125]), CombineRule.dth_exp(-0.5)
        assert math.log2(reference_root(p, rule)) / rule.param < 0.0
        calls = self.evaluate_calls(monkeypatch)
        res = generalized_huffman(p, rule)
        assert not calls
        assert res.objective_value == 0.0 and math.copysign(1.0, res.objective_value) == 1.0


def parent_dth_code(p, rule):
    """(lengths, value) of the d-th rule's log-domain merge, from the heap reference: its
    lengths, and its root r read as (1 + d) r / d, the readout the log domain has always
    had, or ``evaluate`` below the 1/16 cut; a value below 0, all rounding, reads 0.0."""
    lengths = reference_lengths(p, rule, log_domain=True)
    d = rule.param
    if abs(d) < 0.0625:
        value = rule.objective().evaluate(p, LengthVector(lengths))
    else:
        value = (1.0 + d) * reference_root(p, rule, log_domain=True) / d
    return lengths, max(0.0, value)


def engine_code(p, rule):
    res = generalized_huffman(p, rule)
    return res.lengths.lengths, res.objective_value


class TestLinearDomain:
    """The d-th rule's linear merge, its guards, and the log domain it falls back to."""

    GUARD_PMFS = ([1.0], [0.5, 0.3, 0.2], [1.0 / 8] * 8, [0.35, 0.25, 0.2, 0.12, 0.08])

    @pytest.mark.parametrize("d", [1023.0, math.nextafter(1024.0, 0.0), 1024.0, 1e4, 1e6, D_MAX])
    def test_guard_d_values_fall_back_bit_for_bit(self, d):
        # 2^d overflows from d = 1024, and the OverflowError never escapes;
        # with n >= 2, p_n^(1+d) is subnormal or zero, and the shift a that
        # would make it normal has a (1+d) >= 1023
        rule = CombineRule.dth_exp(d)
        assert (rule._family[2] == math.inf) == (d >= 1024.0)
        pmfs = [validate_pmf(probs) for probs in self.GUARD_PMFS]
        pmfs.append(random_pmf(np.random.default_rng(61), 30))
        for p in pmfs:
            if p.n == 1 and d < 1024.0:
                # one leaf, no merge: the linear root 1.0 reads 0, as the log root 0.0 does
                assert rule._shift(p) == 0 and rule._leaf_keys(p, 0) == [1.0]
                assert engine_code(p, rule) == ((0,), 0.0) == parent_dth_code(p, rule)
                continue
            assert d >= 1024.0 or reference_shift(p, rule) * (1.0 + d) >= 1023
            assert rule._shift(p) is None
            assert coder._merge(p, rule)[2] is None
            lengths, value = engine_code(p, rule)
            assert math.isfinite(value)
            assert (lengths, value) == parent_dth_code(p, rule)

    @staticmethod
    def assert_merges_with_shift(p, rule, shift):
        """``rule`` merges ``p`` linearly on leaves shifted by 2^shift, with the heap
        reference's lengths and a value within the readout bound, or, with ``shift``
        None, in the log domain, bit for bit as the log domain always has."""
        assert rule._shift(p) == shift
        assert coder._merge(p, rule)[2] == shift
        assert (shift is None) == reference_log_domain(p, rule)
        if shift is None:
            assert engine_code(p, rule) == parent_dth_code(p, rule)
            return
        assert shift == reference_shift(p, rule)
        res = generalized_huffman(p, rule)
        assert res.lengths.lengths == reference_lengths(p, rule, log_domain=False)
        check_readout(p, res, rule)

    @pytest.mark.parametrize("d,probs,shift", [
        # p_n^(1+d) = 2^-1022, the least normal float, and one ulp of p_n below
        # it, which the shift a = 1 makes normal again
        (1.0, [0.5, 0.25, 0.25, 2.0 ** -511], 0),
        (1.0, [0.5, 0.25, 0.25, math.nextafter(2.0 ** -511, 0.0)], 1),
        # 0.5^1022 is normal and q = 2^1021 finite; past d = 1021, 0.5^(1+d) is
        # subnormal, and a = 1 gives leaves 1.0 with a (1+d) just above 1022
        (1021.0, [0.5, 0.5], 0),
        (math.nextafter(1021.0, math.inf), [0.5, 0.5], 1),
        # under d < 0, p^(1+d) >= p: a subnormal p_n still merges unshifted
        (-0.5, [0.5, 0.25, 0.25, 5e-324], 0),
    ])
    def test_leaf_power_on_both_sides_of_the_least_normal(self, d, probs, shift):
        self.assert_merges_with_shift(validate_pmf(probs), CombineRule.dth_exp(d), shift)

    @pytest.mark.parametrize("depth,shift", [(680, 340), (681, None)])
    def test_both_sides_of_the_widest_shifted_span(self, depth, shift):
        # the dyadic pmf 2^-1, ..., 2^-m, 2^-m at d = 2: the leaves span 3m bits,
        # and the least a that lifts (2^-m 2^a)^3 to a normal float is
        # ceil(m - 1022/3), so a (1+d) is 1020 at m = 680 and 1023 at m = 681
        p = validate_pmf([2.0 ** -i for i in range(1, depth + 1)] + [2.0 ** -depth])
        self.assert_merges_with_shift(p, CombineRule.dth_exp(2.0), shift)

    def test_log_domain_at_d_max_on_a_deep_pmf_matches_evaluate(self):
        # p_i ~ 2^(-i/5) at n = 2000 codes 402 deep in the log domain: at
        # d = D_MAX each a y the combiner shifts out stays finite, and the
        # readout is within its bound of the exact value, as evaluate's lg-sum
        # is within u (6T + 6 lg n + 16) / d, T = max |a lg p_i| + d (n - 1)
        p = validate_pmf([2.0 ** (-i / 5) for i in range(1, 2001)], normalize=True)
        rule = CombineRule.dth_exp(D_MAX)
        assert coder._merge(p, rule)[2] is None
        res = generalized_huffman(p, rule)
        value = rule.objective().evaluate(p, res.lengths)
        with mpmath.workprec(400):
            # lg W max-shifted: the terms 2^-1000 below the largest are far
            # under the bound, and mpmath powers near 2^(-1e300) are slow
            d = mpmath.mpf(D_MAX)
            terms = [(1 + d) * mpmath.log(pi, 2) + d * li
                     for pi, li in zip(p.probs, res.lengths.lengths)]
            top = max(terms)
            lg_w = top + mpmath.log(mpmath.fsum(2 ** (x - top) for x in terms
                                                if x - top > -1000), 2)
            exact = lg_w / d
        bound = readout_bound(p, res.lengths.lengths, rule, lg_w, exact, log_domain=True)
        t = (1 + D_MAX) * -math.log2(p.probs[-1]) + D_MAX * (p.n - 1)
        e = U * (6 * t + 6 * math.log2(p.n) + 16) / D_MAX
        assert max(res.lengths.lengths) == 402
        assert abs(res.objective_value - value) <= bound + e

    def test_root_overflow_reruns_in_the_log_domain(self, monkeypatch):
        # no code near optimal overflows the linear root (lg W = d V < d), so a
        # q = 1e300 in the rule's (a, s, q) forces it: the merge runs again on
        # logs, with the log domain's bits
        rule = CombineRule.dth_exp(0.5)
        p = random_pmf(np.random.default_rng(62), 30)
        expected = parent_dth_code(p, rule)
        merge = coder._merge_two_queues
        roots = []

        def spy(keys, combine):
            marks = merge(keys, combine)
            roots.append(keys[-1])
            return marks

        # the rule is this test's own, and frozen
        object.__setattr__(rule, "_family", (1.5, 0.5, 1e300))
        monkeypatch.setattr(coder, "_merge_two_queues", spy)
        assert engine_code(p, rule) == expected
        assert roots[0] == math.inf and math.isfinite(roots[1]) and len(roots) == 2

    @staticmethod
    def linear_code_moved(p, rule):
        """Whether the engine's linear merge of ``p`` under ``rule`` gave other lengths
        than the log domain's heap reference.  Its value is within its own readout
        bound of its code's 200-bit value either way; where the lengths moved, at an
        exact tie the two domains break differently, both codes are complete and
        their 200-bit values agree within the two readout bounds."""
        res = generalized_huffman(p, rule)
        check_readout(p, res, rule)
        new, old = res.lengths.lengths, reference_lengths(p, rule, log_domain=True)
        if new == old:
            return False
        assert LengthVector(new).is_complete and LengthVector(old).is_complete
        (lg_new, v_new), (lg_old, v_old) = exact_value(p, new, rule), exact_value(p, old, rule)
        with mpmath.workprec(200):
            gap = abs(v_new - v_old)
        assert gap <= readout_bound(p, new, rule, lg_new, v_new, False) \
            + readout_bound(p, old, rule, lg_old, v_old, True)
        return True

    def test_values_agree_where_the_linear_merge_moves_lengths(self, large_pmfs):
        # dyadic-tie pmfs tie merged and input weights exactly, and the two domains
        # break some of those ties differently
        rng = np.random.default_rng(63)
        moved = 0
        for n in range(3, 60, 4):
            p = dyadic_pmf(rng, n)
            for d in (0.5, 2.0, 7.0, -0.5, -0.9):
                rule = CombineRule.dth_exp(d)
                assert not reference_log_domain(p, rule)
                moved += self.linear_code_moved(p, rule)
        assert moved >= 10
        # the deep pmf's p_n^(1+d) underflows at d = 0.5 and 2: at d = 0.5 the merge
        # takes leaves shifted by 2^322, and d = 2, whose shift would have
        # a (1+d) >= 1023, runs in the log domain; at d = -0.5 the merge is
        # unshifted; each gives the log domain's lengths
        p = large_pmfs["geometric"]
        for d, shift in ((0.5, 322), (2.0, None), (-0.5, 0)):
            rule = CombineRule.dth_exp(d)
            assert rule._shift(p) == shift
            assert coder._merge(p, rule)[2] == shift
            res = generalized_huffman(p, rule)
            assert res.lengths.lengths == domain_code(p, rule, "log")[0]
            if shift is not None:
                check_readout(p, res, rule)

    @pytest.mark.parametrize("n", [500, 2000, 5000])
    def test_shifted_readout_within_its_bound(self, n):
        # p_i ~ 2^(-i/5): at n = 5000 each d's leaves take a shift, at n <= 2000 none
        p = validate_pmf([2.0 ** (-i / 5) for i in range(1, n + 1)], normalize=True)
        for d in (0.25, 0.5, 1.0):
            rule = CombineRule.dth_exp(d)
            shift = rule._shift(p)
            assert (shift > 0) == (n == 5000)
            assert coder._merge(p, rule)[2] == shift
            self.linear_code_moved(p, rule)

    def test_engine_matches_the_oracle_on_the_edge_d_values(self):
        rng = np.random.default_rng(64)
        for n in (5, 11, 16):
            for p in (validate_pmf([1.0 / n] * n), dyadic_pmf(rng, n), random_pmf(rng, n)):
                for rule in DTH_EDGE_RULES + [CombineRule.max_double()]:
                    best = brute_force_optimal(p, rule.objective()).min_value
                    assert abs(generalized_huffman(p, rule).objective_value - best) <= 1e-9


def recording_rows(built):
    """Rows for ``coder._WORDS`` that append to ``built`` the length k of every
    block ``canonical_codewords`` slices from them, short or long."""

    class Row(tuple):
        def __getitem__(self, i):
            if isinstance(i, slice):
                built.append(sys._getframe(1).f_locals["k"])
            return tuple.__getitem__(self, i)

    return tuple(map(Row, coder._WORDS))


def groupby_runs(lengths):
    """``lengths`` as (run lengths, run counts) in symbol order, by ``itertools.groupby``."""
    runs = [(k, len(list(g))) for k, g in itertools.groupby(lengths)]
    return tuple(k for k, _ in runs), tuple(c for _, c in runs)


# The two references below are the engine's tail as it was before it
# worked by runs: one lookup per symbol, counts from a Counter.

def symbol_order_codewords(lengths):
    """Canonical codewords: one block of consecutive words per length, and
    each symbol takes the next word of its length's block in index order."""
    counts = Counter(lengths)
    blocks = {}
    code = prev = 0
    for k in sorted(counts):
        code <<= k - prev
        blocks[k] = iter([format(v, "b").zfill(k) if k else "" for v in range(code, code + counts[k])])
        code += counts[k]
        prev = k
    return tuple(map(next, map(blocks.__getitem__, lengths)))


def symbol_order_value(obj, p, lengths):
    """The objective's value from one term per symbol; at |s| < 1/16 in the
    centred form, m + T log1p(cT)/(cT) with the weights p/S."""
    lgps = list(map(math.log2, p.probs))
    if obj.kind is ObjectiveKind.AVG_REDUNDANCY:
        return math.fsum([pi * (li + g) for pi, g, li in zip(p.probs, lgps, lengths)])
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return max([li + g for g, li in zip(lgps, lengths)])
    dth = obj.kind is ObjectiveKind.DTH_EXP
    s = obj.param if dth else math.log2(obj.param)
    if abs(s) < 1 / 16:
        xs = [li + g if dth else float(li) for g, li in zip(lgps, lengths)]
        total = math.fsum(p.probs)
        m = math.fsum([pi * x for pi, x in zip(p.probs, xs)]) / total
        c = s * math.log(2.0)
        zs = [c * (x - m) for x in xs]
        t = math.fsum([pi * (x - m) * (math.expm1(z) / z if z else 1.0)
                       for pi, x, z in zip(p.probs, xs, zs)]) / total
        return m + t * (math.log1p(c * t) / (c * t) if c * t else 1.0) + 0.0
    if dth:
        return lg_sum_exp2([(1.0 + s) * g + s * li for g, li in zip(lgps, lengths)]) / s
    return lg_sum_exp2([g + li * s for g, li in zip(lgps, lengths)]) / s


class TestRuns:
    """``LengthVector._runs``, from the engine or from ``groupby``, and the readers that use it."""

    def test_engine_runs_equal_groupby_of_its_lengths(self, large_pmfs):
        pmfs = list(large_pmfs.values()) + every_n_pmfs(np.random.default_rng(46))
        for p in pmfs:
            for rule in SIX_RULES:
                runs = coder._merge(p, rule)[0]
                lengths = generalized_huffman(p, rule).lengths
                assert lengths._runs == runs == groupby_runs(lengths.lengths)
        assert _level_runs(1, []) == ((0,), (1,))

    def test_runs_are_not_a_field(self):
        p = random_pmf(np.random.default_rng(48), 50)
        made = generalized_huffman(p, CombineRule.sum()).lengths
        direct = LengthVector(made.lengths)
        assert made == direct and hash(made) == hash(direct)
        assert repr(made) == repr(direct) == f"LengthVector(lengths={made.lengths!r})"
        assert made._runs == direct._runs

    def test_codewords_and_evaluate_equal_the_per_symbol_reference(self, large_pmfs):
        rng = np.random.default_rng(49)
        shuffle = random.Random(49).sample
        cases = [(large_pmfs["dirichlet"], generalized_huffman(large_pmfs["dirichlet"], rule).lengths)
                 for rule in SIX_RULES]
        for n in (1, 2, 3, 5, 9, 17, 64, 257, 700, 2000):
            p = random_pmf(rng, n)
            shannon = shannon_code(p).lengths
            cases += [(p, LengthVector(tuple(shuffle(shannon, n)))),
                      (p, j_shannon_code(p, 1 + int(rng.integers(n)))),
                      (p, generalized_huffman(p, CombineRule.exp_base(0.9)).lengths)]
        # vectors out of order, where one length recurs in several runs
        assert sum(len(l._runs[0]) > len(set(l.lengths)) for _, l in cases) >= 6
        for p, l in cases:
            assert canonical_codewords(l) == symbol_order_codewords(l.lengths)
            for obj in OBJECTIVES + EXTREME_OBJECTIVES:
                assert obj.evaluate(p, l) == symbol_order_value(obj, p, l.lengths)


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


def least_shift_reference(x, target):
    """The least k >= 0 with x 2^k >= target, in Fractions."""
    ratio = target / Fraction(x)
    # every smaller k has 2^k < ratio
    k = max(0, ratio.numerator.bit_length() - ratio.denominator.bit_length() - 1)
    while 2 ** k < ratio:
        k += 1
    return k


def shannon_reference(probs, js=None):
    """``shannon_code`` and ``j_shannon_code`` by their definitions in Fractions:
    l_i is the least k with p_i 2^k >= S, S = max(1, the exact sum), and under
    ``j_shannon_code`` the least k with p_i 2^k (1 - 2^-l_j) >= S - p_j, for
    each j of ``js`` (1-based; every j by default)."""
    total = max(Fraction(1), sum(map(Fraction, probs)))
    plain = [least_shift_reference(x, total) for x in probs]
    pinned = {}
    for j in js or range(1, len(probs) + 1):
        lam = plain[j - 1]
        rest = (total - Fraction(probs[j - 1])) / (1 - Fraction(1, 2 ** lam))
        pinned[j] = tuple(lam if i == j - 1 else least_shift_reference(x, rest)
                          for i, x in enumerate(probs))
    return tuple(plain), pinned


@st.composite
def near_unit_sums(draw):
    """2 to 12 entries over their fsum, sorted, some of them tiny, with p_1 then
    moved by up to 9e-10, so that the exact sum lies either side of 1."""
    n = draw(st.integers(2, 12))
    raw = draw(st.lists(st.floats(1e-3, 1.0) | st.sampled_from((1e-10, 2.0 ** -60, 1e-320)),
                        min_size=n, max_size=n))
    total = math.fsum(raw)
    probs = sorted((x / total for x in raw), reverse=True)
    probs[0] += draw(st.floats(-9e-10, 9e-10))
    return validate_pmf(probs)


class TestShannonAboveUnitSum:
    """A pmf may sum to up to 1 + PMF_SUM_TOL; both Shannon codes take their
    lengths against S = max(1, sum) and stay Kraft-valid."""

    @pytest.mark.parametrize("raw,lengths", [
        ([1.0, 1e-10], (1, 34)),
        ([0.5, 0.25, 0.25, 1e-10], (2, 3, 3, 34)),
    ])
    def test_sum_above_one(self, raw, lengths):
        # ceil(-lg p_i) gave (0, 34) and (1, 2, 2, 34), Kraft sum 1 + 2^-34
        p = validate_pmf(raw)
        assert shannon_code(p).lengths == lengths and shannon_code(p).is_valid
        for j in range(1, p.n + 1):
            assert j_shannon_code(p, j).is_valid

    def test_pinned_p1_of_one(self):
        # 1 - p_1 was 0: a ZeroDivisionError.  validate_pmf divides the sum out,
        # so only a Pmf built directly keeps p_1 = 1.0; the divided pmf's p_1 is
        # below 1.0 and its code that of its own floats
        assert j_shannon_code(Pmf((1.0, 1e-10)), 1).lengths == (1, 1)
        p = validate_pmf([1.0, 1e-10])
        assert p.probs[0] < 1.0
        assert j_shannon_code(p, 1).lengths == (1, 2)

    @pytest.mark.parametrize("raw,j,lengths", [
        # 1 - 2^-54 rounded to 1.0, so p_1 scaled to 1.0 and took length 0
        ([0.9999999999999999, 7.705265437789106e-17], 2, (1, 54)),
        # p_2 2 (1 - 1/2) equals 1 - p_1 exactly; the float scale rounded below it
        ([0.8113914911580746, 0.18860850884192537], 1, (1, 1)),
    ])
    def test_pinned_lengths_are_exact_at_a_unit_sum(self, raw, j, lengths):
        p = validate_pmf(raw)
        assert sum(map(Fraction, raw)) <= 1
        assert j_shannon_code(p, j).lengths == lengths

    @given(near_unit_sums())
    @settings(max_examples=200, deadline=None)
    def test_lengths_are_the_definition(self, p):
        plain, pinned = shannon_reference(p.probs)
        assert shannon_code(p).lengths == plain and shannon_code(p).is_valid
        if sum(map(Fraction, p.probs)) <= 1:
            assert plain == tuple(map(ceil_neg_lg, p.probs))
        for j in range(1, p.n + 1):
            code = j_shannon_code(p, j)
            assert code.lengths == pinned[j] and code.is_valid


def exp_scan_pmf(rng, n, variant):
    """n Exp(1) draws as multiples of 2^-52 whose exact sum is 1, the first
    draw's taking what the others leave, sorted: as they are ("at-1"), with
    p_1 raised by 9e-10 ("above-1") or with two entries 1e-320 appended
    ("subnormal")."""
    raw = [rng.expovariate(1.0) for _ in range(n)]
    total = math.fsum(raw)
    units = [max(1, round(x / total * 2 ** 52)) for x in raw[1:]]
    units.insert(0, 2 ** 52 - sum(units))
    probs = sorted((math.ldexp(u, -52) for u in units), reverse=True)
    if variant == "above-1":
        probs[0] += 9e-10
    elif variant == "subnormal":
        probs += [1e-320, 1e-320]
    return validate_pmf(probs)


class TestShannonAgainstFractions:
    """Both Shannon codes on Exp(1) pmfs, n from 2 to 1000, against the least
    k that ``least_shift_reference`` finds in Fractions."""

    @pytest.mark.parametrize("variant", ["at-1", "above-1", "subnormal"])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 1000])
    def test_lengths_are_the_least_k(self, n, variant):
        rng = random.Random(n)
        for _ in range(3):
            p = exp_scan_pmf(rng, n, variant)
            assert (sum(map(Fraction, p.probs)) == 1) == (variant == "at-1")
            plain, pinned = shannon_reference(p.probs, {1, 2, p.n})
            assert shannon_code(p).lengths == plain
            for j, lengths in pinned.items():
                assert j_shannon_code(p, j).lengths == lengths, j


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

    @pytest.mark.parametrize("j", [0, -1, 4])
    def test_j_outside_the_symbols_is_refused(self, j):
        with pytest.raises(CodingError) as info:
            j_shannon_code(validate_pmf([0.5, 0.25, 0.25]), j)
        assert str(info.value) == f"j must be in 1..3, got {j}"

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

    def test_an_empty_alphabet_is_refused(self):
        with pytest.raises(CodingError) as info:
            unary_code(0)
        assert str(info.value) == "alphabet size must be >= 1, got 0"

    def test_optimal_for_decaying_base(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = random_pmf(rng, n)
            best = brute_force_optimal(p, Objective.exp_average(0.4))
            from genhuff import exp_average_cost

            assert exp_average_cost(p, unary_code(n), 0.4) \
                == pytest.approx(best.min_value, abs=1e-12)


def sorted_canonical_codewords(lengths):
    """Canonical codewords by a stable sort on length: the reference for
    ``canonical_codewords``, which builds them per length block instead."""
    codes = [""] * len(lengths)
    value = -1  # so that the first codeword is all zeros
    prev_len = 0
    for idx in sorted(range(len(lengths)), key=lengths.__getitem__):
        li = lengths[idx]
        value = (value + 1) << (li - prev_len)
        if li > 0:
            bits = format(value, "b").zfill(li)
            assert len(bits) == li
            codes[idx] = bits
        prev_len = li
    return tuple(codes)


@st.composite
def incomplete_kraft_lengths(draw):
    """Shuffled lengths 1..24 with Kraft sum below 1, in runs of up to 700
    equal lengths, so that blocks cross the 8-bit table and 256-code edges."""
    runs = draw(st.lists(st.tuples(st.integers(1, 24), st.integers(1, 700)),
                         min_size=1, max_size=6))
    lengths = sorted(k for k, c in runs for _ in range(c))
    total = sum(1 << (24 - k) for k in lengths)
    while total >= 1 << 24:  # one length >= 1 is always below
        total -= 1 << (24 - lengths.pop(0))
    random.Random(draw(st.integers(0, 2 ** 32))).shuffle(lengths)
    return tuple(lengths)


@st.composite
def long_sparse_lengths(draw):
    """Shuffled lengths up to 1100 from runs of 1..600 equal lengths, with
    gaps between consecutive lengths below, at and above 8; complete or not.

    Walks down the canonical code space keeping ``free``, the count of
    unused words at the current length: a gap of g multiplies it by 2^g, a
    run uses some of it, and one word is kept free to go on.  A complete
    code keeps at most 300 free, so its gaps stay small enough (9 at most)
    for the last run to use up the rest; an incomplete code keeps its free
    word.
    """
    complete = draw(st.booleans())
    runs = draw(st.lists(st.tuples(st.one_of(st.integers(1, 10), st.integers(1, 1100)),
                                   st.one_of(st.integers(1, 8), st.integers(1, 300))),
                         min_size=1, max_size=60))
    lengths: list[int] = []
    k, free = 0, 1
    for gap, count in runs:
        if complete:
            gap = min(gap, (600 // free).bit_length() - 1)
        if k + gap > 1100:
            continue
        k += gap
        free <<= gap
        used = min(count, free - 1)
        if complete:
            used = max(used, free - 300)
        lengths += [k] * used
        free -= used
    if complete:
        lengths += [k] * free if k else [0]
    random.Random(draw(st.integers(0, 2 ** 32))).shuffle(lengths)
    return tuple(lengths)


@st.composite
def over_full_lengths(draw):
    """Lengths 0..40 with Kraft sum above 1, from runs of 1..600 equal lengths.

    Either the runs stay in the drawn order, any lengths in any order, or
    the shortest lengths are dropped until the sum is below 1 (or one
    length 0 is left) and the rest are shuffled or put longest first.
    Then, if the sum is not above 1, a run of c symbols of one length m,
    just enough to tip it over, goes in at a drawn place.  m is drawn and
    lowered until c is below 600, so the overflow often comes at a long
    length, after blocks that cross 256-word edges.
    """
    runs = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 600)),
                         min_size=1, max_size=8))
    lengths = [k for k, c in runs for _ in range(c)]
    order = draw(st.sampled_from(["runs", "shuffled", "longest first"]))
    if order != "runs":
        lengths.sort()
        total = sum(1 << (40 - k) for k in lengths)
        while total > 1 << 40 or total == 1 << 40 and len(lengths) > 1:
            total -= 1 << (40 - lengths.pop(0))
        if order == "shuffled":
            random.Random(draw(st.integers(0, 2 ** 32))).shuffle(lengths)
        else:
            lengths.reverse()
    slack = (1 << 40) - sum(1 << (40 - k) for k in lengths)
    if slack >= 0:
        m = draw(st.integers(0, 40))
        while slack >> (40 - m) >= 600:
            m -= 1
        at = draw(st.integers(0, len(lengths)))
        lengths[at:at] = [m] * ((slack >> (40 - m)) + 1)  # c 2^-m > slack / 2^40
    return tuple(lengths)


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

    def test_kraft_violation_message_is_short(self):
        n = 100_000
        lengths = (16,) * n  # Kraft sum n / 2^16
        with pytest.raises(KraftViolation) as exc:
            canonical_codewords(LengthVector(lengths))
        msg = str(exc.value)
        assert msg == f"Kraft sum {n / 65536!r} of {n} lengths exceeds 1 by at least 2^-1"
        assert len(msg) < 200
        over = tuple(range(1, 1101)) + (1100, 1100)  # Kraft sum 1 + 2^-1100
        with pytest.raises(KraftViolation, match=r"^Kraft sum 1\.0 of 1102 lengths exceeds 1 "
                                                 r"by at least 2\^-1100$"):
            canonical_codewords(LengthVector(over))

    def test_over_full_length_builds_no_strings(self, monkeypatch):
        # Kraft sum 600/512: length 9 overflows, and its block would cross
        # 256-word edges
        built = []
        monkeypatch.setattr(coder, "_WORDS", recording_rows(built))
        with pytest.raises(KraftViolation, match=r"^Kraft sum 1\.171875 of 600 lengths "
                                                 r"exceeds 1 by at least 2\^-3$"):
            canonical_codewords(LengthVector((9,) * 600))
        assert built == []

    def test_message_names_the_full_sum_not_the_running_one(self):
        # the running sum passes 1 at length 1, at 3/2; four words of length 20 follow
        with pytest.raises(KraftViolation) as exc:
            canonical_codewords(LengthVector((1, 1, 1) + (20,) * 4))
        assert str(exc.value) == ("Kraft sum 1.5000038146972656 of 7 lengths exceeds 1 "
                                  "by at least 2^-1")

    @given(over_full_lengths())
    @settings(max_examples=150, deadline=None)
    def test_over_full_is_refused_before_its_length_is_built(self, lengths):
        l = LengthVector(lengths)
        total = l.kraft_sum
        exponent = 0  # 2^exponent <= total - 1 < 2^(exponent + 1)
        while Fraction(2) ** exponent > total - 1:
            exponent -= 1
        while Fraction(2) ** (exponent + 1) <= total - 1:
            exponent += 1
        # the shortest length at which the running Kraft sum passes 1
        counts = Counter(lengths)
        running = Fraction(0)
        for over in sorted(counts):
            running += Fraction(counts[over], 2 ** over)
            if running > 1:
                break
        built = []
        with pytest.MonkeyPatch.context() as mp, pytest.raises(KraftViolation) as exc:
            mp.setattr(coder, "_WORDS", recording_rows(built))
            canonical_codewords(l)
        assert str(exc.value) == (f"Kraft sum {float(total)!r} of {len(lengths)} lengths "
                                  f"exceeds 1 by at least 2^{exponent}")
        assert all(k < over for k in built)

    def test_equals_sort_reference_at_block_edges(self):
        assert canonical_codewords(LengthVector((0,))) == sorted_canonical_codewords((0,)) == ("",)
        # length 10 starts at code 10 and crosses code 256; length 20 spans 20
        # runs of 256 codes; the symbols are interleaved out of length order
        lengths = (9,) * 5 + (10,) * 300 + (12,) * 3 + (20,) * 5000
        lengths = lengths[1::2] + lengths[0::2]
        got = canonical_codewords(LengthVector(lengths))
        assert got == sorted_canonical_codewords(lengths)
        # a block that ends exactly at a 256-word edge, then a length 1, 7,
        # 8 and 11 bits longer: the next word carries into the high bits
        for head in ((9,) * 256, (9,) * 100 + (10,) * 56, (4,) * 3 + (12,) * 200 + (13,) * 112):
            for gap in (1, 7, 8, 11):
                lengths = head + (max(head) + gap,) * 3
                assert canonical_codewords(LengthVector(lengths)) \
                    == sorted_canonical_codewords(lengths)

    def test_wide_free_count_on_long_incomplete_vectors(self):
        # (1, 2, 1000) leaves 2^998 words free at length 1000, the widest the
        # count gets; out of order, and with more lengths past it
        for lengths in ((1, 2, 1000), (1000, 2, 1), (1, 2, 1000, 1000, 3),
                        (1100, 2, 9, 300, 9, 1100, 3, 1099)):
            assert not LengthVector(lengths).is_complete
            assert canonical_codewords(LengthVector(lengths)) \
                == sorted_canonical_codewords(lengths)
        # out of order and over full at length 2, with a 1000-bit length after
        with pytest.raises(KraftViolation, match=r"^Kraft sum 1\.25 of 4 lengths exceeds 1 "
                                                 r"by at least 2\^-2$"):
            canonical_codewords(LengthVector((1000, 1, 1, 2)))

    @given(incomplete_kraft_lengths())
    @settings(max_examples=150, deadline=None)
    def test_equals_sort_reference_random_incomplete(self, lengths):
        assert canonical_codewords(LengthVector(lengths)) == sorted_canonical_codewords(lengths)

    @given(long_sparse_lengths())
    @settings(max_examples=120, deadline=None)
    def test_equals_sort_reference_long_sparse(self, lengths):
        assert canonical_codewords(LengthVector(lengths)) == sorted_canonical_codewords(lengths)

    def test_long_sparse_lengths_cover_both_kinds_and_every_gap(self):
        # the strategy above must reach what it is there for
        seen = {"complete": 0, "incomplete": 0, "gap < 8": 0, "gap > 8": 0, "deep": 0,
                "run > 256": 0}

        @given(long_sparse_lengths())
        @settings(max_examples=60, deadline=None, database=None, derandomize=True)
        def tally(lengths):
            seen["complete" if LengthVector(lengths).is_complete else "incomplete"] += 1
            steps = sorted(set(lengths))
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            seen["gap < 8"] += any(g < 8 for g in gaps)
            seen["gap > 8"] += any(g > 8 for g in gaps)
            seen["deep"] += max(lengths) > 900
            seen["run > 256"] += max(Counter(lengths).values()) > 256

        tally()
        assert all(seen.values()), seen

    def test_equals_sort_reference_on_deep_engine_codes(self, large_pmfs):
        p = large_pmfs["geometric"]
        for rule in SIX_RULES:
            lengths = generalized_huffman(p, rule).lengths
            assert canonical_codewords(lengths) == sorted_canonical_codewords(lengths.lengths)
        assert max(lengths) > 1000

    def test_equals_sort_reference_on_shuffled_engine_codes_and_j_shannon_codes(self):
        # a shuffled code is coded as its sorted lengths and handed back in
        # symbol order, as is a j-Shannon code whose pinned l_j breaks the
        # length order: l_1 = 2 at p_1 = 0.49 scales the rest by 0.75/0.51
        rng = np.random.default_rng(54)
        shuffled = random.Random(54)
        for n in (1, 2, 3, 17, 300, 3000):
            p = random_pmf(rng, n)
            for rule in SIX_RULES:
                lengths = list(generalized_huffman(p, rule).lengths)
                shuffled.shuffle(lengths)
                assert canonical_codewords(LengthVector(tuple(lengths))) \
                    == sorted_canonical_codewords(lengths)
            for j in sorted({1, 2, n // 2 + 1, n} & set(range(1, n + 1))):
                lengths = j_shannon_code(p, j)
                assert canonical_codewords(lengths) == sorted_canonical_codewords(lengths.lengths)
            if n >= 3:
                skewed = validate_pmf([0.49, 0.48] + [0.03 / (n - 2)] * (n - 2), normalize=True)
                lengths = j_shannon_code(skewed, 1)
                assert lengths.lengths[:2] == (2, 1)
                assert canonical_codewords(lengths) == sorted_canonical_codewords(lengths.lengths)

    def test_prefix_free_exhaustive_small(self):
        for n in range(1, 11):
            for lengths in kraft_length_tuples(n):
                assert canonical_codewords(LengthVector(lengths[::-1])) \
                    == sorted_canonical_codewords(lengths[::-1])
                words = canonical_codewords(LengthVector(lengths))
                assert words == sorted_canonical_codewords(lengths)
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
