"""Exact ground truth for small alphabets: a level DP over full binary trees.

The space is every nondecreasing integer length vector with Kraft sum
exactly 1 (equivalently, every full binary tree shape by level profile);
its size grows like 1.794^n, 5269 vectors at n = 18.  That is
``DEFAULT_MAX_N``, the package's one alphabet cap: ``verify`` reads it for
its campaign and its witnesses.  For probabilities sorted nonincreasing,
restricting to nondecreasing lengths loses nothing:
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
  symbol and the vector is complete.  A choice reads one coordinate, the
  excess e = left - nodes, and its j = nodes - k internal nodes: the child
  is (2j, e + j), with excess e - j, and j runs over 1..min(nodes, e), most
  first for level-profile order.  So every reader indexes (e, j), and
  all but the walk read one cached per-n plan, ``_plan``: row e lists,
  for each j, the tail index e + j of the choice's deeper weight and the
  child's (e - j, t), t = min(nodes, excess) of the child.  The table
  (next bullet) and ``_unrank`` iterate its rows; its counts, the vectors
  below a state with t = min(nodes, e), are each a prefix sum over j <= t
  of a row's children's, where the table takes a prefix minimum.  The
  walk keeps its own j loop over the table's steps.
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
  complete.  W(k) is the weight of the last e + j symbols, so a step reads
  only (e, j): the table keeps one step per (e, j), read off the plan's
  row e, and a state's C is the least step of row e over
  j <= min(nodes, e), a prefix minimum.  Since e + j <= n, j runs over
  1..min(e, n - e): floor(n^2/4) steps, and n + floor(n^2/4) lg-adds with
  the tail weights; the plan's index arithmetic is done once per n, not
  per call.  MMPR,
  max_i (l_i + lg p_i) = 1 + max over depths t of (t + lg p of the first
  symbol deeper than t), is the max-plus limit of the same recurrence:
  C = min_k max(lg p of the first symbol choice k sends deeper, 1 + C').
* **The lg domain.**  The table holds lg C, so that q^t W overflows
  nowhere, as at q = 1.7e308 or d = 1e6: a step is
  lg C = min_k lg(2^lg W(k) + 2^(s + lg C')), each sum shifted by its
  larger exponent; under MMPR it is ``max`` with s = 1.  The table and the
  walk form each such lg-add inline, as the very expression ``_lg_add``
  evaluates, larger term first, and pick the lg-sum or the max-plus form
  once per call, so each float is the one a call to ``_lg_add`` or ``max``
  would give.  The weights lg W are summed from the tail, one symbol at a
  time, since a difference of prefix sums cancels once p_1^a dominates.
* **The argmin set.**  The table's root holds the least lg D, L.  A walk
  then descends from the root into each child whose least completion,
  the lg D of the levels above it plus q^t times the child's C, lies under
  a line, and lists the vectors it completes there.  Each listed vector is
  scored with ``Objective.evaluate``, and the least float and those within
  ``ARGMIN_TOL`` of it are the result.  The line is L plus the width
  ``_line`` gives, which keeps every vector whose ``evaluate`` float
  is within ``ARGMIN_TOL`` of the least one, so the result is the one
  scoring every vector with ``evaluate`` gives.  The walk is a loop over
  an explicit stack: each state pushes its children under the line least
  j first, so the most j pops first and the listing keeps level-profile
  order.  No function refers to itself, so a call leaves nothing for the
  cycle collector; its table and listing go by reference count as it
  returns or raises.
* **The line's width.**  Let u = 2^-53, G the largest |a lg p_i| and
  T = G + |s| (n - 1), which bounds every term ``evaluate`` forms.
  ``evaluate``'s float is within e of the exact value of the same floats
  a lg p_i and s:

  - avg: e = 4u (n + G), each term p_i (l_i + lg p_i) rounded twice and
    the ``fsum`` once;
  - MMPR: e = u (n + G), one rounded sum l_i + lg p_i;
  - exponential, |s| >= 1/16: e = u (6T + 6 lg n + 16) / |s|.  Each term
    a lg p_i + s l_i is rounded by at most 2uT, which scales its power by
    2^(+-2uT).  The max-shifted lg-sum adds u (3T + 5 lg n + 13): ``pow``
    and ``fsum`` add relative errors of 4u and u, ``log2`` of a sum below
    2n adds 4u (lg n + 1), and the shift back rounds by u (T + lg n + 1).
    The division by s adds u |value|, at most u (T + lg n + 1) / |s|.
  - exponential, |s| < 1/16: e = u (K (32 + 5 |s| K) + 3 G' N), with
    N = n - 1, G' = 1.07 G >= max |lg p_i| (a >= 15/16 there) and
    K = N + G'.  ``evaluate``'s centred form is within
    u (2G' + 2B + R (27 + 5Z)) of the exact value of the weights p/S, S
    the exact sum, at this s (its comment derives it).  There B, the
    largest |l_i + lg p_i| (d-th) or l_i, and R, their spread, are at most
    K, and Z = |s| R ln 2.
    That value weighs symbol i by p_i 2^(s lg p_i) / S (d-th) or p_i / S,
    and the table by 2^(x_i), x_i = a lg p_i rounded: the two differ by
    factors 2^(eps_i) / S, |eps_i| <= eta = 4.3u G'.  So the value of p/S
    is the table's plus h(0)/s, the same for every vector, plus
    (h(s) - h(0))/s, h(t) the lg of the mean of 2^eps under the weights
    2^(x_i + t l_i) less lg S.  That is h'(t) at some t between 0 and s, a
    difference of two means of l whose weights are within 2^(+-2 eta) of
    each other, at most (2^(2 eta) - 1) N / 2 <= 3u G' N.  So e bounds the
    float against the exact value of the table's floats, up to a shift
    that every vector shares and that the differences below do not see.
    ``evaluate`` falls back to the lg-sum only where some |z| passes
    ~709, which needs n past 15,000 here.

  The table and the walk round too.  Every quantity they form is at most
  T_L = G + |s| n + 2 lg n + 2 in size (s = 1 under MMPR).  Each lg-add,
  as ``_lg_add`` forms it, is within u (T_L + 6) of the exact lg-sum of
  its inputs, and exact, as ``max``, under MMPR: the rounding of its exponent
  z = b - a <= 0, at most u |z|, moves lg(1 + 2^z) by at most u |z| 2^z,
  below 0.6u.  Each shift by s or s t adds u T_L, and an lg-sum moves by
  no more than the larger error of its inputs.  The tail weights take n
  steps and a path crosses at most n levels, so a table entry is within
  n u (3 T_L + 12) of the exact least lg C below its state, and a walk's
  bound, which adds its own n steps, within twice that: both within
  delta = 8 u (n + 1) (T_L + 4).  Under avg delta also covers the
  weights 2^(lg p_i) against p_i.  The walk's bound lg(2^above + 2^v), the
  lg D above a child and the least below it, is not itself formed: the walk
  tests v against the state's room lg(2^line - 2^above), which is the same
  test in exact arithmetic.  The room is 2^line - 2^above to a few u
  relative, and its lg and its sum with the line round by u (|lg| + |room|);
  near the test, where 2^v is a share 2^(room - line) of 2^line, that moves
  the bound it stands for by at most u (|line| + 8).  The line exceeds T_L
  by no more than its width, so this is a few u (T_L + 4), inside the
  (2n + 8) u (T_L + 4) that delta leaves over the walk's 6 n u (T_L + 4).

  Take a vector whose ``evaluate`` float is within ``ARGMIN_TOL`` of the
  least float.  Its exact value is at most Delta = ARGMIN_TOL + 2e above
  that of the root's vector, whose exact lg D is at most L + delta.  So
  its own exact lg D is at most L + delta + Gamma, Gamma the step in lg D
  that a step Delta in value makes: Delta itself under MMPR,
  lg(1 + Delta / D) under avg, and lg(1 + |q^Delta - 1| (1 + W / (|q - 1| D)))
  under the exponential objectives, which is at least the exact step
  lg((q^(V + Delta) - W) / (q^V - W)) from a value V.  Each falls as D
  rises, so it is taken at D = 2^(L - delta), at most the root vector's
  exact D.  ``_lg_expm1`` takes lg |q^Delta - 1| as lg |s| + lg Delta +
  lg ln 2 where s Delta is subnormal, as at d = 5e-324, rather than form
  the product.  The walk's bound at each level above the vector is at
  most its exact lg D plus 2 delta, so the line is L + Gamma + 3 delta.
  On a Dirichlet pmf at n = 16 that admits vectors 3e-12 to 1.3e-11 bits
  above the least under the benchmark's objectives, and near d = 0 or
  q = 1, where e is ~3e-13 at n = 40, it admits one to three vectors on
  the tests' pmfs.

``evaluated_count`` is the size of the space, the plan's root count,
O(n^2) ints counted once per n, though the walk lists only the vectors
under its line, and refuses with ``ListingTooLarge`` to list more than
``LISTING_BUDGET``.  The oracle never seeds its bound from the engine, so
it shares nothing with the algorithm it checks.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator
from functools import cache
from itertools import accumulate

from .core import (_SMALL_SCALE, CodingError, LengthVector, Objective, ObjectiveKind, Pmf,
                   _lg_add, _Record, _set, _spread)

__all__ = [
    "AlphabetTooLarge",
    "ListingTooLarge",
    "OracleResult",
    "kraft_length_tuples",
    "random_complete_lengths",
    "brute_force_optimal",
]

DEFAULT_MAX_N = 18
ARGMIN_TOL = 1e-12
LISTING_BUDGET = 10_000
_U = 2.0 ** -53
_LN2 = math.log(2.0)


class AlphabetTooLarge(CodingError):
    pass


class ListingTooLarge(CodingError):
    """The walk would list more than ``LISTING_BUDGET`` vectors under its line."""


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
def _plan(n: int) -> tuple[list[tuple[tuple[int, int, int], ...]], list[list[int]]]:
    """(rows, counts), the level structure of n symbols that the table,
    ``_unrank`` and the space's count read (module docstring).  rows[e]
    holds, for j = 1..min(e, n - e) internal nodes at a level with excess
    e, the tail index e + j of the weight the choice sends deeper and the
    child's (excess, t), with 2j nodes, excess e - j and t = min(nodes,
    excess).  counts[e][t] is the number of complete vectors below a state
    with excess e and t, the prefix sum over row e of its children's
    counts, as the table's least is the prefix minimum; counts[0] is
    [1, 1], so the space is counts[n - 1][1] for every n >= 1."""
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    rows: list[tuple[tuple[int, int, int], ...]] = [()]
    counts = [[1, 1]]
    for e in range(1, n):
        row = tuple((e + j, e - j, min(2 * j, e - j)) for j in range(1, min(e, n - e) + 1))
        rows.append(row)
        counts.append(list(accumulate([counts[c][t] for _, c, t in row], initial=0)))
    return rows, counts


def _space(n: int) -> int:
    """The number of vectors in the space, ``_plan(n)``'s root count."""
    return _plan(n)[1][n - 1][1]


def _unrank(n: int, index: int) -> tuple[int, ...]:
    """The vector at ``index`` of the level-profile order, 0 <= index <
    ``_space(n)``: fewest leaves at depth 0 first, then at depth 1, and so
    on.  It is found level by level without listing the ones before it:
    each choice of j internal nodes, read from the plan's row most j first,
    holds its child's count."""
    rows, counts = _plan(n)
    lengths: list[int] = []
    depth, nodes, e = 0, 1, n - 1
    while e:
        row = rows[e]
        for j in range(min(nodes, e), 0, -1):
            _, c, t = row[j - 1]
            if index < (below := counts[c][t]):
                break
            index -= below
        lengths += [depth] * (nodes - j)
        depth, nodes, e = depth + 1, 2 * j, c
    return tuple(lengths + [depth] * nodes)


def kraft_length_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each nondecreasing length vector with Kraft sum 1, once.

    Vectors come in level-profile order: by how many leaves sit at depth 0
    of a full binary tree, then at depth 1, and so on, fewest first.
    """
    return (_unrank(n, index) for index in range(_space(n)))


def random_complete_lengths(n: int, rng: random.Random) -> LengthVector:
    """A uniform draw from the ``kraft_length_tuples(n)`` vectors, made by
    unranking one ``rng.randrange`` index rather than listing them."""
    return LengthVector(_unrank(n, rng.randrange(_space(n))))


def _lg_expm1(s: float, k: float = 1.0) -> float:
    """lg |2^(s k) - 1| for k > 0: no overflow for large s k, no cancellation near
    0, and where s k is subnormal or 0, lg |s| + lg k + lg ln 2, without forming
    s k: 2^z - 1 = z ln 2 (1 + O(z)), and O(z) is far below an ulp there."""
    if abs(z := s * k) < 2.0 ** -1022:
        return math.log2(abs(s)) + math.log2(k) + math.log2(math.log(2.0))
    return max(z, 0.0) + math.log2(-math.expm1(-abs(z) * math.log(2.0)))


def _recurrence(obj: Objective, lgp: list[float]) -> tuple[list[float], float, Callable]:
    """(x, s, add): each symbol's lg weight a lg p_i, the step s and the sum
    in the lg domain, ``_lg_add``, or ``max`` for MMPR's max-plus limit; the
    table and the walk form that sum inline and read ``add`` to pick which."""
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return lgp, 1.0, max
    a, s = obj._family[:2] if obj._family else (1.0, 0.0)
    return (lgp if a == 1.0 else [a * g for g in lgp]), s, _lg_add


def _table(x: list[float], s: float, add: Callable) -> tuple[list[float], list[list[float]]]:
    """(tail, steps): tail[r] the lg weight of the last r symbols, summed from
    the tail, and steps[e][j - 1] the least lg C through a choice of j internal
    nodes at a level with excess e = left - nodes, one per entry of the
    cached plan's row e (module docstring).  A state's least lg C is the
    minimum of steps[e][:min(nodes, e)], and steps[-1][0] the root's.

    ``add``, ``_lg_add`` or MMPR's ``max``, picks the row loop once per call
    and is never called: each of the n + floor(n^2/4) lg-adds is formed
    inline as the very expression ``_lg_add`` evaluates, larger term first,
    and each ``max`` as ``max`` picks, so every float is the one the calls
    would give."""
    n = len(x)
    rows = _plan(n)[0]
    log2 = math.log2
    lg_sum = add is not max
    tail = [-math.inf]
    for b in reversed(x):
        a = tail[-1]
        if lg_sum:
            if a < b:
                a, b = b, a
            tail.append(a + log2(1.0 + 2.0 ** (b - a)))
        else:
            tail.append(b if a < b else a)
    # least[c][t], the least lg C of a state with excess c and min(nodes, c)
    # = t, a prefix minimum of row c; a state with no excess is complete
    steps: list[list[float]] = [[]]
    least = [[-math.inf]]
    for choices in rows[1:]:
        row: list[float] = []
        mins, best = [math.inf], math.inf
        if lg_sum:
            for r, c, t in choices:
                a, b = tail[r], s + least[c][t]
                if a < b:
                    a, b = b, a
                v = a + log2(1.0 + 2.0 ** (b - a))
                row.append(v)
                best = v if v < best else best
                mins.append(best)
        else:
            for r, c, t in choices:
                a, b = tail[r], s + least[c][t]
                v = b if a < b else a
                row.append(v)
                best = v if v < best else best
                mins.append(best)
        steps.append(row)
        least.append(mins)
    return tail, steps


def _walk(n: int, s: float, add: Callable, tail: list[float], steps: list[list[float]],
          line: float) -> list[tuple[float, LengthVector]]:
    """(lg D, vector) of each vector the walk completes under ``line``, in
    level-profile order, each made with its runs (module docstring); past
    ``LISTING_BUDGET`` of them it raises ``ListingTooLarge``.

    A loop over an explicit stack of states (nodes, e, depth, lg D above,
    runs): a state pushes its children under the line least j first, so the
    child with the most internal nodes pops first and the listing keeps
    level-profile order.  No function here refers to itself, so a call
    leaves nothing for the cycle collector.

    A child's bound is lg(2^above + 2^v), v the table's least lg D of this
    level and those below it through the child, and it lies under the line
    exactly where v <= room = lg(2^line - 2^above), the lg D the line leaves
    below the state.  So each state forms its room once, as line +
    lg(-expm1((above - line) ln 2)), and each child costs one compare; under
    MMPR's ``max`` the room is the line itself.  A state whose ``above`` is
    at or over the line (under ``max``, over it) has no room, and nothing
    below it is listed; in the lg form its room would be lg 0.  The room's
    own rounding, a few u relative on 2^line - 2^above, moves the test it
    stands for, lg(2^above + 2^v) <= line, by at most u (|line| + 8), about
    as much as the one lg-add that bound took, and within the 2 delta slack
    the line keeps for the walk's bounds (module docstring).  So every
    vector within ``ARGMIN_TOL`` of the least float is still listed, and the
    results do not change.  ``add`` picks the form; each pushed child's lg D
    above it is formed inline as ``_lg_add`` or ``max`` gives it."""
    log2, expm1 = math.log2, math.expm1
    lg_sum = add is not max
    found: list[tuple[float, LengthVector]] = []
    stack: list[tuple[int, int, int, float, tuple[int, ...], tuple[int, ...]]] = [
        (1, n - 1, 0, -math.inf, (), ())]
    while stack:
        nodes, e, depth, above, ks, cs = stack.pop()
        if not e:
            if len(found) == LISTING_BUDGET:
                raise ListingTooLarge(f"n={n}: the walk lists more than {LISTING_BUDGET} vectors")
            runs = ks + (depth,), cs + (nodes,)
            found.append((above, LengthVector._checked(tuple(_spread(*runs)), runs)))
            continue
        if lg_sum:
            if above >= line:
                continue
            room = line + log2(-expm1((above - line) * _LN2))
        elif above > line:
            continue
        else:
            room = line
        shift = s * depth
        row = steps[e]
        kd = ks + (depth,)
        for j in range(1, (nodes if nodes < e else e) + 1):
            if shift + row[j - 1] <= room:
                # the levels above the child's, this one's deeper weight included
                a, b = above, shift + tail[e + j]
                if lg_sum:
                    if a < b:
                        a, b = b, a
                    here = a + log2(1.0 + 2.0 ** (b - a))
                else:
                    here = b if a < b else a
                if j < nodes:
                    stack.append((2 * j, e - j, depth + 1, here, kd, cs + (nodes - j,)))
                else:
                    stack.append((2 * j, e - j, depth + 1, here, ks, cs))
    return found


def _errors(obj: Objective, x: list[float], s: float) -> tuple[float, float]:
    """(e, delta): how far ``evaluate``'s float may lie from the exact value
    of the same floats a lg p_i = x_i and s, up to a shift every vector
    shares at |s| < 1/16, and a table entry or a walk's bound from its exact
    lg D (module docstring)."""
    n = len(x)
    top = max(map(abs, x))
    delta = 8 * _U * (n + 1) * (top + abs(s) * n + 2 * math.log2(n) + 6)
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return _U * (n + top), delta
    if obj.kind is ObjectiveKind.AVG_REDUNDANCY:
        return 4 * _U * (n + top), delta
    if abs(s) < _SMALL_SCALE:
        g = 1.07 * top
        size = n - 1 + g
        return _U * (size * (32 + 5 * abs(s) * size) + 3 * g * (n - 1)), delta
    size = top + abs(s) * (n - 1)
    return _U * (6 * size + 6 * math.log2(n) + 16) / abs(s), delta


def _line(obj: Objective, s: float, w: float, least: float, e: float, delta: float) -> float:
    """The walk's line over the root's least lg D, ``least``, for the total lg
    weight w: least + Gamma(ARGMIN_TOL + 2e) + 3 delta (module docstring)."""
    step = ARGMIN_TOL + 2 * e
    low = least - delta
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        gamma = step
    elif obj.kind is ObjectiveKind.AVG_REDUNDANCY:
        gamma = _lg_add(0.0, math.log2(step) - low)
    else:
        gamma = _lg_add(0.0, _lg_expm1(s, step) + _lg_add(0.0, w - low - _lg_expm1(s)))
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
    which grows like 1.794^n; the table takes n + floor(n^2/4) lg-adds
    over one cached per-n plan, which the count and the unranking read
    too, so raising ``max_n`` costs little.  Where more than
    ``LISTING_BUDGET`` vectors lie under the line, it raises
    ``ListingTooLarge`` rather than list them.
    """
    if p.n > max_n:
        raise AlphabetTooLarge(f"n={p.n} exceeds the oracle cap {max_n}")
    x, s, add = _recurrence(obj, list(map(math.log2, p.probs)))
    tail, steps = _table(x, s, add)
    line = _line(obj, s, tail[-1], steps[-1][0], *_errors(obj, x, s)) if p.n > 1 else math.inf
    scored = [(obj.evaluate(p, lv), lv) for _, lv in _walk(p.n, s, add, tail, steps, line)]
    best = min(v for v, _ in scored)
    argmin = sorted((lv for v, lv in scored if v <= best + ARGMIN_TOL),
                    key=lambda lv: lv.lengths)
    return OracleResult(best, tuple(argmin), _space(p.n))
