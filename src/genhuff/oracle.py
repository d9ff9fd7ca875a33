"""Exact ground truth for small alphabets: a level DP over full binary trees.

The space is every nondecreasing integer length vector with Kraft sum
exactly 1 (equivalently, every full binary tree shape by level profile);
its size grows like 1.794^n, 1639 vectors at n = 16.  For probabilities
sorted nonincreasing, restricting to nondecreasing lengths loses nothing:
giving the longer codeword to the less probable symbol never increases
any of the objectives here.  Equality rather than inequality in the Kraft
sum is likewise lossless, since shortening a codeword never hurts.  Both
facts are covered by self-tests rather than assumed.

* **The states.**  A vector is built a level at a time, top down: at a
  level with ``nodes`` open nodes and ``left`` unplaced symbols it places
  the k most probable of them as leaves and leaves the other nodes - k
  internal, with two children each.  k runs over
  ``range(max(0, 2 nodes - left), nodes)``, which leaves no open node
  without two symbols below it; where nodes == left the level takes every
  symbol and the vector is complete.  So (nodes, left) is a state, and
  ``_children`` lists each state's choices once, for every caller:
  ``_completions`` counts the vectors below a state, ``_unrank`` lists the
  space in level-profile order, and the minimizer below runs its table and
  its walk over them.
* **The recurrence** (Golin & Rote, IEEE Trans. IT 44(5), 1998).  With
  weights w_i = p_i^a and q = 2^s, every objective but MMPR is a monotone
  function of D = sum_i w_i (q^l_i - 1)/(q - 1) = sum over depths t of
  q^t W_t, W_t the weight of the symbols deeper than t.  (a, s) is (1, 0)
  for average redundancy, where D is the mean length, and the objective's
  pair otherwise: (1 + d, d) for the d-th exponential redundancy (Parker,
  SIAM J. Comput. 1980), (1, lg q) for exponential average (Humblet, IEEE
  Trans. IT 27(2), 1981).  Since sum w_i q^l_i = W + (q - 1) D, W the
  total weight, the value (1/s) lg(W + (q - 1) D) rises with D for every q,
  so there is one minimum to find and no cancellation near q = 1.  A
  state's least D below it, in units of q^t at its depth t, is
  C = min_k [W(k) + q C'], W(k) the weight of the left - k symbols its
  choice k sends deeper and C' the child's own; C = 0 where the vector is
  complete.  MMPR, max_i (l_i + lg p_i) = 1 + max over depths t of
  (t + lg p of the first symbol deeper than t), is the max-plus limit of
  the same recurrence: C = min_k max(lg p of the first symbol choice k
  sends deeper, 1 + C').
* **The lg domain.**  The table holds lg C, so that q^t W overflows
  nowhere, as at q = 1.7e308 or d = 1e6: a step is
  lg C = min_k lg(2^lg W(k) + 2^(s + lg C')), each sum shifted by its
  larger exponent (``_lg_add``); under MMPR it is ``max`` with s = 1.  The
  weights lg W are summed from the tail, one symbol at a time, since a
  difference of prefix sums cancels once p_1^a dominates.
* **The argmin set.**  The table's root holds the least lg D, L.  A walk
  then descends from the root into each child whose least completion,
  the lg D of the levels above it plus q^t times the child's C, lies under
  a line, and lists the vectors it completes there.  Each of them is
  scored with ``Objective.evaluate``, and the least float and those within
  ``ARGMIN_TOL`` of it are the result.  The line is L plus the width
  ``_line`` gives, which keeps every vector whose ``evaluate`` float
  is within ``ARGMIN_TOL`` of the least one, so the result is the one
  scoring every vector with ``evaluate`` gives.
* **The line's width.**  Let u = 2^-53, G the largest |a lg p_i| and
  T = G + |s| (n - 1), which bounds every term ``evaluate`` forms.
  ``evaluate``'s float is within e of the exact value of the same floats
  a lg p_i and s:

  - avg: e = 4u (n + G), each term p_i (l_i + lg p_i) rounded twice and
    the ``fsum`` once;
  - MMPR: e = u (n + G), one rounded sum l_i + lg p_i;
  - exponential: e = u (6T + 6 lg n + 16) / |s|.  Each term
    a lg p_i + s l_i is rounded by at most 2uT, which scales its power by
    2^(+-2uT).  The max-shifted lg-sum adds u (3T + 5 lg n + 13): ``pow``
    and ``fsum`` add relative errors of 4u and u, ``log2`` of a sum below
    2n adds 4u (lg n + 1), and the shift back rounds by u (T + lg n + 1).
    The division by s adds u |value|, at most u (T + lg n + 1) / |s|.

  The table and the walk round too.  Every quantity they form is at most
  T_L = G + |s| n + 2 lg n + 2 in size (s = 1 under MMPR).  Each
  ``_lg_add`` is within u (T_L + 6) of the exact lg-sum of its inputs,
  and exact, as ``max``, under MMPR: the rounding of its exponent
  z = b - a <= 0, at most u |z|, moves lg(1 + 2^z) by at most u |z| 2^z,
  below 0.6u.  Each shift by s or s t adds u T_L, and an lg-sum moves by
  no more than the larger error of its inputs.  The tail weights take n
  steps and a path crosses at most n levels, so a table entry is within
  n u (3 T_L + 12) of the exact least lg C below its state, and a walk's
  bound, which adds its own n steps, within twice that: both within
  delta = 8 u (n + 1) (T_L + 4).  Under avg delta also covers the
  weights 2^(lg p_i) against p_i.

  Take a vector whose ``evaluate`` float is within ``ARGMIN_TOL`` of the
  least float.  Its exact value is at most Delta = ARGMIN_TOL + 2e above
  that of the root's vector, whose exact lg D is at most L + delta.  So
  its own exact lg D is at most L + delta + Gamma, Gamma the step in lg D
  that a step Delta in value makes: Delta itself under MMPR,
  lg(1 + Delta / D) under avg, and lg(1 + |q^Delta - 1| (1 + W / (|q - 1| D)))
  under the exponential objectives, which is at least the exact step
  lg((q^(V + Delta) - W) / (q^V - W)) from a value V.  Each falls as D
  rises, so it is taken at D = 2^(L - delta), at most the root vector's
  exact D.  The walk's bound at each level above the vector is at most
  its exact lg D plus 2 delta, so the line is L + Gamma + 3 delta.  On a
  Dirichlet pmf at n = 16 that admits vectors 3e-12 to 1.3e-11 bits above
  the least under the benchmark's objectives.  Near s = 0, e grows like
  1/|s|, to ~0.02 bits at d = 1e-12 or q = 1 + 1e-12, which is
  ``evaluate``'s own cancellation: the line then holds every vector that
  float cannot tell from the least.

``evaluated_count`` is the size of the space, ``_completions(1, n)``,
though the walk lists only the vectors under its line.  The oracle never
seeds its bound from the engine, so it shares nothing with the algorithm
it checks.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator
from functools import cache

from .core import (CodingError, LengthVector, Objective, ObjectiveKind, Pmf, _Record, _set,
                   _spread)

__all__ = [
    "AlphabetTooLarge",
    "OracleResult",
    "kraft_length_tuples",
    "random_complete_lengths",
    "brute_force_optimal",
]

DEFAULT_MAX_N = 16
ARGMIN_TOL = 1e-12
_U = 2.0 ** -53


class AlphabetTooLarge(CodingError):
    pass


class OracleResult(_Record):
    """Minimum objective value with every minimizing monotone length vector.

    ``evaluated_count`` is the number of vectors in the space searched.
    """

    min_value: float
    argmin: tuple[LengthVector, ...]
    evaluated_count: int

    def __init__(self, min_value: float, argmin: tuple[LengthVector, ...],
                 evaluated_count: int):
        _set(self, "min_value", min_value)
        _set(self, "argmin", argmin)
        _set(self, "evaluated_count", evaluated_count)

    def argmin_lengths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(lv.lengths for lv in self.argmin)


@cache
def _children(nodes: int, left: int) -> tuple[tuple[int, int, int], ...]:
    """(k, child nodes, child left) for each choice of k leaves at a level with
    ``nodes`` open nodes and ``left`` unplaced symbols, 1 <= nodes < left:
    fewest leaves first (module docstring)."""
    return tuple((k, 2 * (nodes - k), left - k) for k in range(max(0, 2 * nodes - left), nodes))


@cache
def _completions(nodes: int, left: int) -> int:
    """Complete vectors below a level with ``nodes`` open nodes and ``left``
    unplaced symbols, 1 <= nodes <= left."""
    if nodes == left:
        return 1
    return sum(_completions(m, r) for _, m, r in _children(nodes, left))


@cache
def _states(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The states below the root (1, n) where a vector is not yet complete,
    each after every state below it: its index left^2 + nodes, and for each
    of its ``_children`` that child's left and index."""
    states: list[tuple[int, tuple[tuple[int, int], ...]]] = []

    def visit(nodes: int, left: int) -> None:
        index = left * left + nodes
        if nodes == left or index in seen:
            return
        seen.add(index)
        kids = _children(nodes, left)
        for _, m, r in kids:
            visit(m, r)
        states.append((index, tuple((r, r * r + m) for _, m, r in kids)))

    seen: set[int] = set()
    visit(1, n)
    return tuple(states)


def _unrank(n: int, index: int) -> tuple[int, ...]:
    """The vector at ``index`` of the level-profile order, 0 <= index <
    ``_completions(1, n)``: fewest leaves at depth 0 first, then at depth 1,
    and so on.  It is found level by level without listing the ones before
    it: each choice of k holds ``_completions`` of its level below."""
    lengths: list[int] = []
    depth, nodes, left = 0, 1, n
    while nodes < left:
        for k, m, r in _children(nodes, left):
            below = _completions(m, r)
            if index < below:
                break
            index -= below
        lengths += [depth] * k
        depth, nodes, left = depth + 1, m, r
    return tuple(lengths + [depth] * left)


def kraft_length_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each nondecreasing length vector with Kraft sum 1, once.

    Vectors come in level-profile order: by how many leaves sit at depth 0
    of a full binary tree, then at depth 1, and so on, fewest first.
    """
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    return (_unrank(n, index) for index in range(_completions(1, n)))


def random_complete_lengths(n: int, rng: random.Random) -> LengthVector:
    """A uniform draw from the ``kraft_length_tuples(n)`` vectors, made by
    unranking one ``rng.randrange`` index rather than listing them."""
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    return LengthVector(_unrank(n, rng.randrange(_completions(1, n))))


def _lg_add(a: float, b: float) -> float:
    """lg(2^a + 2^b), shifted by the larger so that neither power overflows:
    ``core.lg_sum_exp2`` on two terms, without the list and the ``fsum`` that
    make that 3-5x slower in the table's inner loop."""
    if a < b:
        a, b = b, a
    return a + math.log2(1.0 + 2.0 ** (b - a))


def _lg_expm1(z: float) -> float:
    """lg |2^z - 1| for a normal z: no overflow for large z, no cancellation near 0."""
    return max(z, 0.0) + math.log2(-math.expm1(-abs(z) * math.log(2.0)))


def _recurrence(obj: Objective, lgp: list[float]) -> tuple[list[float], float, Callable]:
    """(x, s, add): each symbol's lg weight a lg p_i, the step s and the sum
    in the lg domain, ``_lg_add``, or ``max`` for MMPR's max-plus limit."""
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return lgp, 1.0, max
    a, s = obj._family[:2] if obj._family else (1.0, 0.0)
    return (lgp if a == 1.0 else [a * g for g in lgp]), s, _lg_add


def _table(x: list[float], s: float, add: Callable) -> tuple[list[float], list[float]]:
    """(tail, least): tail[r] the lg weight of the last r symbols, summed from
    the tail, and least[left^2 + nodes] the least lg C of that state, -inf
    where the vector is complete."""
    n = len(x)
    tail = [-math.inf]
    for xi in reversed(x):
        tail.append(add(tail[-1], xi))
    least = [-math.inf] * (n + 1) ** 2
    for state, kids in _states(n):
        best = math.inf
        for r, child in kids:
            v = add(tail[r], s + least[child])
            if v < best:
                best = v
        least[state] = best
    return tail, least


def _walk(n: int, s: float, add: Callable, tail: list[float], least: list[float],
          line: float) -> list[tuple[float, LengthVector]]:
    """(lg D, vector) of each vector the walk completes under ``line``, in
    level-profile order, each made with its runs (module docstring)."""
    found: list[tuple[float, LengthVector]] = []

    def descend(nodes: int, left: int, depth: int, above: float,
                ks: tuple[int, ...], cs: tuple[int, ...]) -> None:
        shift = s * depth
        for k, m, r in _children(nodes, left):
            # v, the least lg D this level and those below it add through the
            # child; the bound adds the levels above, and an lg-sum is at least
            # its larger term, so the first test is the second's cheap half
            v = shift + add(tail[r], s + least[r * r + m])
            if v <= line and add(above, v) <= line:
                # the levels above the child's, this one's deeper weight included
                here = add(above, shift + tail[r])
                runs = (ks + (depth,), cs + (k,)) if k else (ks, cs)
                if m == r:
                    runs = runs[0] + (depth + 1,), runs[1] + (r,)
                    found.append((here, LengthVector._checked(tuple(_spread(*runs)), runs)))
                else:
                    descend(m, r, depth + 1, here, *runs)

    if n == 1:
        return [(-math.inf, LengthVector._checked((0,)))]
    descend(1, n, 0, -math.inf, (), ())
    return found


def _errors(obj: Objective, x: list[float], s: float) -> tuple[float, float]:
    """(e, delta): how far ``evaluate``'s float may lie from the exact value
    of the same floats a lg p_i = x_i and s, and a table entry or a walk's
    bound from its exact lg D (module docstring)."""
    n = len(x)
    top = max(map(abs, x))
    delta = 8 * _U * (n + 1) * (top + abs(s) * n + 2 * math.log2(n) + 6)
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return _U * (n + top), delta
    if obj.kind is ObjectiveKind.AVG_REDUNDANCY:
        return 4 * _U * (n + top), delta
    size = top + abs(s) * (n - 1)
    return _U * (6 * size + 6 * math.log2(n) + 16) / abs(s), delta


def _line(obj: Objective, s: float, w: float, least: float, e: float, delta: float) -> float:
    """The walk's line over the root's least lg D, ``least``, for the total lg
    weight w: least + Gamma(ARGMIN_TOL + 2e) + 3 delta (module docstring).
    At a subnormal s, where ``_lg_expm1(s)`` may be a bit off, e alone puts
    the line above every vector."""
    step = ARGMIN_TOL + 2 * e
    low = least - delta
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        gamma = step
    elif obj.kind is ObjectiveKind.AVG_REDUNDANCY:
        gamma = _lg_add(0.0, math.log2(step) - low)
    else:
        gamma = _lg_add(0.0, _lg_expm1(s * step) + _lg_add(0.0, w - low - _lg_expm1(s)))
    return least + gamma + 3 * delta


def brute_force_optimal(p: Pmf, obj: Objective, max_n: int = DEFAULT_MAX_N) -> OracleResult:
    """Minimize ``obj`` over every Kraft-tight monotone length vector.

    Returns the minimum and the full set of minimizers (values within
    ``ARGMIN_TOL`` of the minimum), sorted lexicographically: the floats
    and the vectors that scoring every vector with ``obj.evaluate`` gives.
    A level DP finds the least lg D, and a walk over its table lists the
    vectors under a line above it, widened by the rounding error of
    ``evaluate`` and of the table, each then scored with ``evaluate``
    (module docstring).  ``evaluated_count`` is the size of the space,
    which grows like 1.794^n; the table has O(n^2) states and O(n^3)
    steps, so raising ``max_n`` costs little, but near d = 0 or q = 1 the
    line holds every vector ``evaluate`` cannot tell apart, thousands at
    n = 40.
    """
    if p.n > max_n:
        raise AlphabetTooLarge(f"n={p.n} exceeds the oracle cap {max_n}")
    x, s, add = _recurrence(obj, list(map(math.log2, p.probs)))
    tail, least = _table(x, s, add)
    root = least[p.n * p.n + 1]
    line = _line(obj, s, tail[-1], root, *_errors(obj, x, s)) if p.n > 1 else math.inf
    scored = [(obj.evaluate(p, lv), lv) for _, lv in _walk(p.n, s, add, tail, least, line)]
    best = min(v for v, _ in scored)
    argmin = sorted((lv for v, lv in scored if v <= best + ARGMIN_TOL),
                    key=lambda lv: lv.lengths)
    return OracleResult(best, tuple(argmin), _completions(1, p.n))
