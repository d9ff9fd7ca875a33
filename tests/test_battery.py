"""The public functions of core, coder and bounds at the edges of their inputs.

Every call either raises a ``CodingError`` or returns finite values, and
every length vector it returns is Kraft-valid; the engine's is complete.
"""

import math
import random

import pytest

from genhuff import bounds
from genhuff.coder import (CombineRule, canonical_codewords, generalized_huffman,
                           j_shannon_code, shannon_code)
from genhuff.core import (BoundReport, CodingError, LengthVector, Objective, Pmf,
                          renyi_entropy, shannon_entropy, validate_pmf)

SIZES = (1, 2, 17, 1000, 10 ** 4)


def _over_fsum(raw):
    total = math.fsum(raw)
    return [x / total for x in raw]


def dirichlet(n):
    rng = random.Random(n)
    return _over_fsum([rng.gammavariate(1.0, 1.0) for _ in range(n)])


def geometric(n):
    return _over_fsum([2.0 ** (-i / (n / 200)) for i in range(1, n + 1)])


def tie_heavy(n):
    rng = random.Random(n)
    return _over_fsum([rng.choice((1, 2, 3, 4, 6, 8)) for _ in range(n)])


def subnormal_tail(n):
    """A Dirichlet pmf of n - 2 entries, then two entries 1e-320, as far as n allows."""
    return (dirichlet(max(n - 2, 1)) + [1e-320, 1e-320])[:n]


SHAPES = (dirichlet, geometric, tie_heavy, subnormal_tail)

# the six benchmark objectives, then d and q at the edges of their ranges
OBJECTIVES = (
    Objective.avg(), Objective.max_pointwise(), Objective.dth_exp(0.5),
    Objective.exp_average(2.0), Objective.dth_exp(-0.5), Objective.exp_average(0.9),
    *map(Objective.dth_exp, (1e-300, -1.0 + 1e-9, 1e300)),
    *map(Objective.exp_average, (1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 0.5000000000000001,
                                 0.3, 1e300)),
)
ALPHAS = (1e-3, 0.3, 1.0 + 1e-12)


def _answer(call):
    """What ``call()`` returns, or None where it raises a ``CodingError``."""
    try:
        return call()
    except CodingError:
        return None


def _check(value):
    """Assert that a returned value is finite: a float, a report's ends, a pmf's
    entries or a vector's Kraft sum, which must be at most 1."""
    if isinstance(value, BoundReport):
        assert math.isfinite(value.lower) and math.isfinite(value.upper), value
    elif isinstance(value, LengthVector):
        assert value.is_valid, value.kraft_sum
    elif isinstance(value, Pmf):
        assert all(map(math.isfinite, value.probs))
    elif value is not None:
        assert math.isfinite(value), value


@pytest.mark.parametrize("raised", [False, True], ids=["sum-1", "p1-raised"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__)
def test_every_call_refuses_or_answers_finite_and_kraft_valid(shape, n, raised):
    # p_1 raised by 9e-10 moves the sum to within PMF_SUM_TOL above 1
    raw = sorted(shape(n), reverse=True)
    if raised:
        raw[0] += 9e-10
    p = validate_pmf(raw)
    last = p.n
    for obj in OBJECTIVES:
        result = _answer(lambda: generalized_huffman(p, CombineRule.for_objective(obj)))
        if result is not None:
            assert result.lengths.is_complete, obj
            assert math.isfinite(result.objective_value), obj
            assert [len(w) for w in result.codewords] == list(result.lengths)
        for j in {1, last}:
            _check(_answer(lambda: bounds.symbol_bounds(obj, p.probs[j - 1], j)))
        if obj.kind.value == "expavg":
            q = obj.param
            for j in {1, last}:
                _check(_answer(lambda: bounds.exp_avg_bounds(p, q, j)))
            _check(_answer(lambda: bounds.exp_avg_unit_bounds(p, q)))
            _check(_answer(lambda: bounds.exp_avg_bounds_l1(p, q)))
            _check(_answer(lambda: bounds.hat_transform(p, q)))
    codes = [_answer(lambda: shannon_code(p))]
    codes += [_answer(lambda: j_shannon_code(p, j)) for j in {1, last}]
    for code in codes:
        _check(code)
        if code is not None:
            words = _answer(lambda: canonical_codewords(code))
            assert words is None or [len(w) for w in words] == list(code)
    _check(_answer(lambda: shannon_entropy(p)))
    for alpha in ALPHAS:
        _check(_answer(lambda: renyi_entropy(p, alpha)))
