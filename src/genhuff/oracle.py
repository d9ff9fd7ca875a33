"""Exhaustive ground truth for small alphabets.

The space is every nondecreasing integer length vector with Kraft sum
exactly 1 (equivalently, every full binary tree shape by level profile);
its size grows like 1.794^n, 1639 vectors at n = 16.  For probabilities
sorted nonincreasing, restricting to nondecreasing lengths loses nothing:
giving the longer codeword to the less probable symbol never increases
any of the objectives here.  Equality rather than inequality in the Kraft
sum is likewise lossless, since shortening a codeword never hurts.  Both
facts are covered by self-tests rather than assumed.

The minimizer walks the space depth first (``_walk``).  It chooses how
many leaves sit at each depth, fewest first, and never enters a branch
that holds no complete tree, so each step either descends a level or
finishes a vector.  The lengths of one vector and of the next share the
prefix above the deepest level that changed, and the walk rewrites only
the rest.  ``kraft_length_tuples`` lists the space in the same order but
unranks each vector from its index (``_unrank``), so a test that scores
its vectors one by one shares no code with the walk.

The minimizer tables each symbol's term at each depth once per call with
``Objective.terms``, the code ``Objective.evaluate`` runs, and binds the
objective's reducer once.  The walk keeps the term list of the current
vector the same way it keeps its lengths, and each vector's value is the
reducer applied to that list.  So each value is the float
``Objective.evaluate`` gives for that ``LengthVector``, because the code is
the same, and a ``LengthVector`` is built only for the minimizers.
(Under MMPR ``evaluate`` takes the max over each run's first term only,
which is the same float: see ``Objective.evaluate``.)

The minimizer cuts the walk by branch and bound, and stays exact.  It
bounds a subtree first by the relaxation, which is cheap, and where that
does not cut, by the floors.

* **The bound.**  A subtree of the walk is fixed by the leaves placed so
  far: down to some depth D the symbols ``0..first-1`` have their lengths,
  and the ``left`` symbols after them hang from ``nodes`` open nodes at
  depth D + 1, nodes < left.  Each of them has a floor.  Number them
  j = 0..left-1.  For j <= left - 2, the j + 1 symbols up to j have
  lengths at most l_j, so their Kraft share is at least (j + 1) 2^-l_j,
  and it is less than the open share nodes 2^-(D+1), because the symbols
  after j take some.  So l_j >= D + 1 + t, t the least with
  j + 1 < nodes 2^t.  The last symbol is no shorter than the one before
  it.  The floors are thus nodes - 1 symbols at depth D + 1, then nodes at
  D + 2, 2 nodes at D + 3 and so on, the last symbol with the one before
  it.  (Row D + 1 for all of them is a floor too, but a weak one: on the
  ``oracle`` benchmark's pmfs it leaves about twice as many vectors to
  score and bounds to take.)  Each table entry is a monotone
  function of the depth, as a float, in the direction that raises the
  value: fl(p (l + lg p)), fl(l + lg p), fl((1+d) lg p + d l) and
  fl(lg p + l lg q) are each a rounded monotone function of l, and
  rounding is monotone.  For d > 0 and q > 1 the terms rise with l and the
  value is the reducer's result over a positive scale; for d < 0 and
  q < 1 they fall and the scale is negative.  So the reducer applied to
  the placed terms followed by each later symbol's term at its floor is,
  in exact arithmetic on those floats, at most the value of every vector
  in the subtree.
* **Why the floats keep it.**  ``fsum`` is correctly rounded and ``max``
  is exact, and both are monotone in each argument, so for avg and MMPR
  the computed bound is at most every computed value below it, and a
  subtree is skipped when its bound exceeds ``best + ARGMIN_TOL``, the
  line ``brute_force_optimal`` keeps vectors under.  Nothing it skips is a
  minimizer or within ``ARGMIN_TOL`` of one, because ``best`` only falls.
* **The margin for the two exponential objectives** (``_margin``).  Their
  reducer computes lg(sum 2^x_i) / s, with m = max x_i, as
  m + log2(fsum(2^(x_i - m))), and is not monotone as computed, so the
  cut allows for its rounding error.  Let u = 2^-53, T bound every |x_i|
  in the table, and take libm's ``pow`` and ``log2`` to within 2 ulps.
  Each x_i - m is rounded by at most u |x_i - m| <= 2uT, which scales its
  power by 2^(+-2uT); ``pow`` and ``fsum`` add relative errors of at most
  4u and u (a power that underflows loses less than 2^-1073 against a sum
  of at least 1, the largest term being exactly 1); so lg of the sum is
  off by at most 2uT + 8u.  ``log2`` of a sum below 2n adds 4u (lg n + 1),
  and m + log2(..) is rounded by u (T + lg n + 1).  The sum is at most
  u (3T + 5 lg n + 13), and the division by s adds u |value|, at most
  u (T + lg n + 1) / |s|.  So a computed value is within
  e = u (4T + 6 lg n + 14) / |s| of the exact one, and a vector under a
  bound is at least the bound minus 2e.  The walk skips a subtree when
  its bound exceeds best + ARGMIN_TOL + margin, with
  margin = 16 u (T + lg n + 2) / |s|, which covers 2e and the rounding of
  that sum.  T is taken over rows 0 and n - 1, where each monotone entry
  has its extremes.  The margin is ~6e-14 bits for the benchmark's
  objectives at n = 16.  Where |s| is tiny it grows, to ~0.02 bits at
  d = +-1e-12 or q = 1 +- 1e-12, and the cut then skips only subtrees
  worse than the best by more than that.
* **The relaxation** (``_relaxation``).  The unplaced symbols fill the open
  capacity C = nodes 2^-(D+1) exactly: with w_j = 2^-l_j, sum w_j = C in
  every completion (Kraft equality).  Over real w_j > 0 with that sum,
  their part of the value (their sum 2^x_i, under the exponential
  objectives) has a least or a largest value, which bounds the subtree as
  one term after the placed ones.  P is their mass and s = lg q:

  - avg: sum p_j (l_j + lg p_j) >= P (lg P - lg C), by Gibbs' inequality
    for p_j / P against w_j / C.
  - MMPR: max (l_j + lg p_j) >= lg P - lg C: for M the max, w_j >= p_j 2^-M,
    so C >= P 2^-M.
  - d-th exponential: sum p_j^(1+d) w_j^-d >= P^(1+d) C^-d for d > 0, by
    Hoelder's inequality (w^-d is convex), and <= for -1 < d < 0 (it is
    concave), where the reducer's division by d turns the order back.  So
    the term is (1+d) lg P - d lg C.
  - exp average: sum p_j w_j^-s >= A^(1+s) C^-s with A = sum p_j^(1/(1+s))
    for s > 0, and <= for -1 < s < 0, so the term is
    (1+s) lg A - s lg C.  lg A is taken by ``lg_sum_exp2`` over
    lg p_j / (1+s): near q = 1/2 the powers themselves underflow.  For
    s <= -1 (q <= 1/2) w^-s is convex, so the largest sum sits at a corner,
    one symbol taking all of C, far from any completion: there is no term,
    and the walk uses the floors alone.

  Each holds with equality at w_j proportional to p_j (to p_j^(1/(1+s))
  under exp average), the real-valued optimum.  It cuts where the floors,
  which ignore the probabilities, do not: on the ``oracle`` benchmark's
  pmfs it brings the vectors scored per op from ~49 to ~29 and the bounds
  taken from ~41 to ~26 (seed 32).
* **The allowance** (``_allowance``).  The relaxed term is computed in
  floats, and the table entries are not the exact terms either, so the
  term is moved toward a lower value by an allowance: down where the
  scale (1, d or s) is positive, up where it is negative.  Write each
  entry as a lg p + b l (times p under avg), with (a, b) = (1, 1) for avg
  and MMPR, (fl(1+d), d) and (1, fl(lg q)), and take d and fl(lg q) as the
  exact parameters.  Let G = max |fl(lg p_j)| and
  W = |a| (G + lg n + 2) + |b| (n + 1): every quantity the entries and the
  term are made of (lg p_j, lg P, (1+s) lg A, l, lg C) is at most
  |a| (G + 1) + |b| n in size.  With ``log2`` and ``pow`` to 2 ulps
  and ``fsum`` and each other operation to u, an entry is within 7uW of
  its exact value (under avg, so is their sum, the p_j summing to at most
  1), and the term within 11uW of its own; in total at most 16uW.  (Under
  exp average lg p_j is divided by the float 1 + s and lg A multiplied by
  the same float, so an error of order uG / (1+s) in lg A comes back as
  one of order uG.)  The allowance is 32uW, which covers that and the
  rounding of the move: ~1e-13 for the benchmark's objectives at n = 16,
  and 1e-7 in the term (1e-13 in the value) at d = 1e6.  The reducer, in
  exact arithmetic, then gives the placed terms followed by the moved term
  at most the value it gives every completion's terms.  For avg and MMPR
  the floats keep that as above, and the margin stays 0.  For the exponential
  objectives the margin still covers the reducer's rounding: the moved
  term lies in [-T - 2 allowance, T + lg n] for s > 0, and in
  [-T - 2 allowance, 2 allowance] for s < 0 (the exact term is at most lg
  of a sum of at most n entries, and at least a lg p_min, or at most 0).
  So it adds at most u (3 lg n + 6 allowance) / |s| to e, and twice that
  is below the u (8T + 4 lg n + 4) / |s| by which the margin exceeds 2e:
  T >= G >= lg n where s > 0, and the allowance is far below T.
* **The counts.**  ``evaluated_count`` is the size of the space,
  ``_completions(1, n)``, whatever the cut skips: ``_completions`` is a
  memoised count of the vectors below a level, over (open nodes, unplaced
  symbols).  ``scored_count`` is the number of vectors actually reduced.
  A subtree with at most ``_SMALL_SUBTREE`` completions is walked, not
  bounded: a bound costs about what scoring one vector does.

So minimum, argmin set and ``evaluated_count`` are those of calling
``Objective.evaluate`` on each ``LengthVector`` of the space.  The oracle
never seeds its best value from the engine, so it shares nothing with the
algorithm it checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Sequence

from .core import CodingError, LengthVector, Objective, ObjectiveKind, Pmf, lg_sum_exp2

__all__ = [
    "AlphabetTooLarge",
    "OracleResult",
    "kraft_length_tuples",
    "brute_force_optimal",
]

DEFAULT_MAX_N = 16
ARGMIN_TOL = 1e-12
_SMALL_SUBTREE = 2


class AlphabetTooLarge(CodingError):
    pass


@dataclass(frozen=True)
class OracleResult:
    """Minimum objective value with every minimizing monotone length vector.

    ``evaluated_count`` is the number of vectors in the space searched,
    whatever the cut skips; ``scored_count``, at most that, is the number the
    walk reduced to a value.
    """

    min_value: float
    argmin: tuple[LengthVector, ...]
    evaluated_count: int
    scored_count: int

    def argmin_lengths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(lv.lengths for lv in self.argmin)


@cache
def _completions(nodes: int, left: int) -> int:
    """Complete vectors below a level with ``nodes`` open nodes and ``left``
    unplaced symbols, 1 <= nodes <= left: the walk's choices of k from there."""
    if nodes == left:
        return 1
    return sum(_completions(2 * (nodes - k), left - k)
               for k in range(max(0, 2 * nodes - left), nodes))


def _walk(rows: Sequence[Sequence[float]], reduce: Callable[[list], float],
          relax: tuple[Sequence[float], Sequence[float]] | None, margin: float
          ) -> tuple[float, list[tuple[float, tuple[int, ...]]], int]:
    """Score each complete nondecreasing length vector the cut keeps, and
    return the least value, the (value, lengths) pairs that were within
    ``ARGMIN_TOL`` of the least value when scored, and the number scored.

    A vector's value is ``reduce`` over ``rows[lengths[i]][i]``, n =
    ``len(rows)``.  At each depth the walk places ``k`` of the ``left``
    unplaced symbols on the ``nodes`` open nodes, k ascending, and leaves
    the other ``nodes - k`` as internal nodes with two children each.  No
    full binary tree with n leaves is deeper than n - 1, so depths run from
    0 to n - 1.

    From the first vector scored on, the walk skips every subtree of more
    than ``_SMALL_SUBTREE`` vectors whose bound exceeds the limit
    ``best + ARGMIN_TOL + margin``.  The bound is ``reduce`` over its placed
    terms followed by one relaxed term for the symbols lo.. after them,
    ``heads[lo] - slopes[lo] lg C`` from ``relax = (heads, slopes)``, and
    where that does not exceed the limit, followed by each later symbol's
    term at its floor (module docstring).
    """
    n = len(rows)
    lengths = [0] * n
    values = [0.0] * n
    # per depth on the current path: open nodes, unplaced symbols, leaves placed
    nodes_at = [0] * n
    left_at = [0] * n
    k_at = [0] * n
    # no bound before the first vector: it would cut nothing and cost a reduce
    limit = None
    best = math.inf
    candidates: list[tuple[float, tuple[int, ...]]] = []
    scored = 0
    if relax is not None:
        heads, slopes = relax
        lgs = [0.0, *map(math.log2, range(1, n + 1))]
    depth, nodes, left = 0, 1, n
    while True:
        if nodes == left:
            # a level with as many open nodes as symbols is all leaves
            first = n - left
            lengths[first:] = [depth] * left
            values[first:] = rows[depth][first:]
            scored += 1
            v = reduce(values)
            if v < best - ARGMIN_TOL:
                best = v
                candidates = [(v, tuple(lengths))]
            elif v <= best + ARGMIN_TOL:
                candidates.append((v, tuple(lengths)))
                best = min(best, v)
            limit = best + ARGMIN_TOL + margin
            depth -= 1
        else:
            # open the level one leaf short of the fewest that leave every
            # open node two children (that k is feasible whenever any k is);
            # the step below places the last one
            k = max(0, 2 * nodes - left) - 1
            nodes_at[depth], left_at[depth], k_at[depth] = nodes, left, k
            if k > 0:
                first = n - left
                lengths[first:first + k] = [depth] * k
                values[first:first + k] = rows[depth][first:first + k]
        # place one more leaf at the deepest level that takes one, and enter
        # the subtree below it unless the cut skips it
        while True:
            if depth < 0:
                return best, candidates, scored
            nodes, left = nodes_at[depth], left_at[depth]
            k = k_at[depth] + 1
            # the pruning rule: a level is opened only where nodes < left,
            # so k = nodes would strand symbols; any k < nodes leaves an
            # internal node, and with no depth limit the symbols left fit
            if k == nodes:
                depth -= 1
                continue
            k_at[depth] = k
            if k:
                i = n - left + k - 1
                lengths[i] = depth
                values[i] = rows[depth][i]
            nodes, left = 2 * (nodes - k), left - k
            if limit is not None and _completions(nodes, left) > _SMALL_SUBTREE:
                lo = n - left
                bound = values[:lo]
                if relax is not None:
                    # the relaxation: symbols lo.. at their real optimum
                    # on the open capacity C = nodes 2^-(depth+1)
                    bound.append(heads[lo] - slopes[lo] * (lgs[nodes] - (depth + 1)))
                    if reduce(bound) > limit:
                        continue
                    bound.pop()
                # the floors: symbols lo..hi-1 at depth d, the run
                # doubling from nodes - 1 at depth + 1, and the last
                # symbol in the run before it
                hi, width, d = lo + nodes - 1, nodes, depth + 1
                while hi < n - 1:
                    bound += rows[d][lo:hi]
                    lo, hi, width, d = hi, hi + width, 2 * width, d + 1
                bound += rows[d][lo:]
                if reduce(bound) > limit:
                    continue
            break
        depth += 1


def _unrank(n: int, index: int) -> tuple[int, ...]:
    """The vector at ``index`` of the level-profile order, 0 <= index <
    ``_completions(1, n)``: fewest leaves at depth 0 first, then at depth 1,
    and so on, the order ``_walk`` visits.  It is found level by level
    without listing the ones before it: each choice of k holds
    ``_completions`` of its level below."""
    lengths: list[int] = []
    depth, nodes, left = 0, 1, n
    while nodes < left:
        for k in range(max(0, 2 * nodes - left), nodes):
            below = _completions(2 * (nodes - k), left - k)
            if index < below:
                break
            index -= below
        lengths += [depth] * k
        depth, nodes, left = depth + 1, 2 * (nodes - k), left - k
    return tuple(lengths + [depth] * left)


def kraft_length_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each nondecreasing length vector with Kraft sum 1, once.

    Vectors come in level-profile order: by how many leaves sit at depth 0
    of a full binary tree, then at depth 1, and so on, fewest first.
    """
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    return (_unrank(n, index) for index in range(_completions(1, n)))


def _coefficients(obj: Objective) -> tuple[float, float]:
    """(a, b) with each table entry a lg p + b l (times p under avg)."""
    if obj.kind is ObjectiveKind.DTH_EXP:
        return 1.0 + obj.param, obj.param
    if obj.kind is ObjectiveKind.EXP_AVERAGE:
        return 1.0, math.log2(obj.param)
    return 1.0, 1.0


def _allowance(obj: Objective, lgp: Sequence[float]) -> float:
    """How far the relaxed term is moved toward a lower value, 32 u W with
    W = |a| (G + lg n + 2) + |b| (n + 1) (module docstring)."""
    n = len(lgp)
    a, b = _coefficients(obj)
    top = max(map(abs, lgp))
    return 32 * 2.0 ** -53 * (abs(a) * (top + math.log2(n) + 2) + abs(b) * (n + 1))


def _relaxation(obj: Objective, probs: Sequence[float], lgp: Sequence[float]
                ) -> tuple[list[float], list[float]] | None:
    """(heads, slopes): the symbols lo.. on an open capacity C take the
    relaxed term ``heads[lo] - slopes[lo] lg C``, the least their part of
    the value can be over real lengths (module docstring), moved by the
    allowance toward a lower value.  None under exp average with
    fl(lg q) <= -1, that is q <= 1/2, which has no such term."""
    n = len(probs)
    a, b = _coefficients(obj)
    if obj.kind is ObjectiveKind.EXP_AVERAGE:
        if not b > -1.0:
            return None
        # lg sum p_j^(1/(1+s)) as a log-sum: the powers underflow near q = 1/2
        root = [g / (1.0 + b) for g in lgp]
        heads = [(1.0 + b) * lg_sum_exp2(root[lo:]) for lo in range(n)]
        slopes = [b] * n
    else:
        mass = [math.fsum(probs[lo:]) for lo in range(n)]
        lg_mass = list(map(math.log2, mass))
        if obj.kind is ObjectiveKind.AVG_REDUNDANCY:
            heads, slopes = list(map(operator.mul, mass, lg_mass)), mass
        else:
            heads, slopes = [a * x for x in lg_mass], [b] * n
    # the value rises with the term where the scale b is positive, and falls
    # where it is negative
    shift = math.copysign(_allowance(obj, lgp), b)
    return [h - shift for h in heads], slopes


def _margin(obj: Objective, rows: Sequence[Sequence[float]]) -> float:
    """How far above ``best + ARGMIN_TOL`` a bound must lie before the cut
    trusts it: 0 for avg and MMPR, whose reducers are monotone as computed,
    and 16 u (T + lg n + 2) / |s| for the two exponential ones (module
    docstring)."""
    if obj.kind in (ObjectiveKind.AVG_REDUNDANCY, ObjectiveKind.MAX_POINTWISE):
        return 0.0
    scale = _coefficients(obj)[1]
    top = max(map(abs, rows[0] + rows[-1]))
    return 16 * 2.0 ** -53 * (top + math.log2(len(rows)) + 2) / abs(scale)


def _term_rows(obj: Objective, probs: tuple[float, ...], lgp: list[float]
               ) -> list[list[float]]:
    """rows[l][i] = symbol i's term at length l, l = 0..n-1: one ``terms`` call over
    the n x n grid, sliced into rows."""
    n = len(probs)
    table = obj.terms(probs * n, lgp * n, (range(n), (n,) * n))
    return [table[lo:lo + n] for lo in range(0, n * n, n)]


def brute_force_optimal(p: Pmf, obj: Objective, max_n: int = DEFAULT_MAX_N) -> OracleResult:
    """Minimize ``obj`` over every Kraft-tight monotone length vector.

    Returns the full set of minimizers (values within 1e-12 of the
    minimum), sorted lexicographically.  The walk skips each subtree whose
    lower bound, the relaxation's or the floors', shows it holds no such
    vector, and the result is the one scoring every vector gives (module
    docstring).  ``evaluated_count`` is the size of the space, whatever the
    cut skips; it grows like 1.794^n, so raise ``max_n`` consciously.
    ``scored_count`` is how many of them were scored, ~10-160 of 1639 on
    Dirichlet pmfs at n = 16 under the benchmark's objectives.
    """
    if p.n > max_n:
        raise AlphabetTooLarge(f"n={p.n} exceeds the oracle cap {max_n}")
    lgp = list(map(math.log2, p.probs))
    rows = _term_rows(obj, p.probs, lgp)
    relax = _relaxation(obj, p.probs, lgp)
    best, candidates, scored = _walk(rows, obj.reducer(), relax, _margin(obj, rows))
    argmin = sorted(lv for v, lv in candidates if v <= best + ARGMIN_TOL)
    return OracleResult(best, tuple(LengthVector._checked(lv) for lv in argmin),
                        _completions(1, p.n), scored)
