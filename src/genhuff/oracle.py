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
finishes a vector.  Which steps there are, and in which order, depends on
n alone, so the walk runs from a table of them (``_steps``), built for
each n on first use and cached.  A step holds its depth, the symbols it
places there (a level's first step the fewest it can, each later step
one more), the first symbol lo left unplaced, and either the fill of a
finished vector or, where the cut may skip the subtree below, the lg C
its bound takes and the subtree's step count, so that a cut is one jump.
Symbols are counted from the end, so a step depends only on its depth,
open nodes, unplaced symbols and k, and a step the table for n - 1 holds
too is that object: the tables up to n = 16 hold 532 distinct steps in
~124 KB, 3,712 of them in the walk at n = 16; up to n = 18, 771 in
~300 KB, 11,919 at n = 18.  The values of one vector and of the next
share the prefix above the deepest level that changed, and the walk
rewrites only the rest; the lengths of the vectors it keeps are read back
from the table (``_lengths_at``).  ``kraft_length_tuples`` lists the
space in the same order but unranks each vector from its index
(``_unrank``), which reads no table, so a test that scores its vectors one
by one shares no code with the walk.

The minimizer tables each symbol's term at each depth once per call, row
by row, with ``Objective.term_rows``, and binds the objective's reducer
once.  ``term_rows`` is the twin of ``Objective.terms``, the code
``Objective.evaluate`` runs: each entry is made by the same IEEE
operations, in the same order, as ``terms`` makes that symbol's term at
that length, so it is the same float.  The walk keeps the term list of the
current vector the same way it keeps its lengths, and each vector's value
is the reducer applied to that list.  So each value is the float
``Objective.evaluate`` gives for that ``LengthVector``, because the
operations are the same, and a ``LengthVector`` is built only for the
minimizers.
(Under MMPR ``evaluate`` takes the max over each run's first term only,
which is the same float: see ``Objective.evaluate``.)  Under the two
exponential objectives the walk scores from a table of powers instead, and
only the vectors it keeps are scored as above (the power table, below).

The minimizer cuts the walk by branch and bound, and stays exact.  It
bounds a subtree by the relaxation alone.

* **The bound.**  A subtree of the walk is fixed by the leaves placed so
  far: down to some depth D the symbols ``0..first-1`` have their lengths,
  and the ``left`` symbols after them hang from ``nodes`` open nodes at
  depth D + 1, nodes < left, which give them the open capacity
  C = nodes 2^-(D+1).  Its bound is the reducer applied to the placed terms
  followed by one relaxed term for the symbols after them (the relaxation,
  below), which in exact arithmetic on those floats is at most the value
  of every vector in the subtree.  Each table entry is a monotone function
  of the depth, as a float, in the direction that raises the value:
  fl(p (l + lg p)), fl(l + lg p) and, under the exponential objectives
  (a, s) of ``Objective``, fl(a lg p + s l) are each a rounded monotone
  function of l, and rounding is monotone.  For s > 0 (d > 0, q > 1) the
  terms rise with l and the value is the reducer's result over a positive
  scale; for s < 0 they fall and the scale is negative.  So rows 0 and
  n - 1 of the table hold each symbol's extremes, which the margin and the
  power table use.
* **Why the floats keep it.**  ``fsum`` is correctly rounded and ``max``
  is exact, so for avg and MMPR the computed bound is at most every
  computed value below it, and a subtree is skipped when its bound exceeds
  ``best + ARGMIN_TOL``, the line ``brute_force_optimal`` keeps vectors
  under.  Nothing it skips is a minimizer or within ``ARGMIN_TOL`` of one,
  because ``best`` only falls.  The exponential reducers are not monotone
  as computed, so their cut allows for the rounding (the margin), and
  where the walk scores them as powers, which round differently from
  ``evaluate``, it keeps a wider line of candidates and rescores them with
  the reducer (the power table).
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
* **The power table** (``_powers``).  The reducer takes n powers for each
  vector it scores and up to n for each bound it takes, though the table
  has only n^2 distinct terms.  So under the exponential objectives the
  walk reads each term x once per call as the entry 2^(x - M), M the
  table's largest term, scores a list of entries as
  (M + log2(fsum(entries))) / s, and enters the relaxed term t as
  2^(t - M).  Each term is monotone in l, so rows 0 and n - 1 hold the
  extremes; where they span fewer than ``_POWER_SPAN`` = 1000 bits, every
  entry is a normal float in [2^-1000, 1], which holds on every objective
  of the benchmark and of ``verify``.  A wider table, such as d = 1e4 or
  q = 1e200, keeps the terms and the reducer, since there only the
  reducer's per-list shift keeps the powers finite.

  The error, with u, T and libm as in the margin: each x - M, at most 2T
  in size, is rounded by at most 2uT, and ``pow`` and ``fsum`` add relative
  errors of 4u and u, so lg of the sum S is off by at most 2uT + 8u, as in
  the reducer.  But S no longer starts at 1: a scored list holds symbol 0's
  entry, and so does every bound, the placed terms of symbols 0..lo-1 and
  one relaxed entry with lo >= 1 (a bound is taken only after the first
  vector, below a level that placed a leaf, so symbol 0 is placed).
  Symbol 0's term at any depth is at least M - R,
  R = |rows[n-1][0] - rows[0][0]|, |s| (n - 1) up to rounding (the largest
  term of each row is symbol 0's).  So |lg S| <= R + lg n + 1, and
  ``log2`` adds up to 4uR more than in the reducer.  M + log2(S) and the
  division by s round as there.  A power value is thus within
  e' = e + 4u (n - 1) of the exact value, e the reducer's error.  A
  relaxed entry adds 2u allowance to the rounding of t - M, which lies in
  [-2T - 2 allowance, lg n + 2 allowance] by the range of t in the
  margin's proof; the margin's slack covers that as it covers the relaxed
  term there.  So the cut's margin grows by 8u (n - 1).

  The rescoring: a power value and the reducer's float for the same vector
  differ by at most d' = e + e'.  A vector whose float is within
  ``ARGMIN_TOL`` of the least float has a power value within
  ``ARGMIN_TOL`` + 2d' of the least power value, so the walk widens its
  candidate line by 2 margin + 8u (n - 1), which covers 2d' = 4e + 8u (n - 1)
  and the rounding of that line, and the cut keeps every subtree that holds
  such a vector, the limit being the line plus the margin.
  ``brute_force_optimal`` then scores each candidate with the reducer over
  the terms and keeps the least float and those within ``ARGMIN_TOL`` of
  it: the minimizer is a candidate, so these are the floats and the vectors
  that scoring the whole space gives.  The widening is 1e-13 to 4e-13 bits
  for the benchmark's objectives at n = 16, and 0.03 to 0.1 bits at
  d = +-1e-12 or q = 1 +- 1e-12, where the cut then scores up to twice as
  many vectors.
* **The relaxation** (``_relaxation``).  The unplaced symbols fill the open
  capacity C = nodes 2^-(D+1) exactly: with w_j = 2^-l_j, sum w_j = C in
  every completion (Kraft equality).  Over real w_j > 0 with that sum,
  their part of the value (their sum 2^x_i, under the exponential
  objectives) has a least or a largest value, which bounds the subtree as
  one term after the placed ones.  P is their mass:

  - avg: sum p_j (l_j + lg p_j) >= P (lg P - lg C), by Gibbs' inequality
    for p_j / P against w_j / C.
  - MMPR: max (l_j + lg p_j) >= lg P - lg C: for M the max, w_j >= p_j 2^-M,
    so C >= P 2^-M.
  - exponential: with (a, s) the objective's, their sum of
    2^(a lg p_j + s l_j) is sum p_j^a w_j^-s >= A^(1+s) C^-s, where
    A = sum p_j^(a/(1+s)), for s > 0 by Hoelder's inequality (w^-s is
    convex), and <= for -1 < s < 0 (it is concave), where the reducer's
    division by s turns the order back.  So the term is
    (1+s) lg A - s lg C.  With the roots r_j = a lg p_j / (1+s), which fall
    with j, lg A of the symbols lo.. is r_0 + lg sum_(j >= lo) 2^(r_j - r_0):
    one power per symbol, taken once per call, and one ``fsum`` per suffix.
    The roots are lg p_j / ((1+s)/a), and (1+s)/a is 1 + s under exp
    average (a = 1) and exactly 1 under the d-th objective (a = 1 + s),
    whose roots are lg p_j and whose A is the mass P.  Where a power is not
    a normal float, as near q = 1/2, where the roots span more than the
    float range, each suffix takes ``lg_sum_exp2``, which shifts by the
    suffix's own largest root, r_lo, instead.  For s <= -1, which only exp
    average reaches (q <= 1/2), w^-s is convex, so the largest sum sits at
    a corner, one symbol taking all of C, far from any completion: there is
    no term, and the walk takes no bound but scores every vector.

  Each holds with equality at w_j proportional to p_j (to p_j^(a/(1+s))
  under the exponential objectives), the real-valued optimum.  On the
  ``oracle`` benchmark's pmfs the walk scores 32.9 vectors per op and takes
  17.7 bounds (seed 32).
* **The allowance** (``_allowance``).  The relaxed term is computed in
  floats, and the table entries are not the exact terms either, so the
  term is moved toward a lower value by an allowance: down where the
  scale (1 or s) is positive, up where it is negative.  Write each entry
  as a lg p + s l (times p under avg), with (a, s) = (1, 1) for avg and
  MMPR and the objective's otherwise, (fl(1+d), d) or (1, fl(lg q)), and
  take d and fl(lg q) as the exact parameters.  Let G = max |fl(lg p_j)|
  and W = |a| (G + lg n + 2) + |s| (n + 1): every quantity the entries and
  the term are made of (lg p_j, lg P, (1+s) lg A, l, lg C) is at most
  |a| (G + 1) + |s| n in size.  With ``log2`` and ``pow`` to 2 ulps
  and ``fsum`` and each other operation to u, an entry is within 7uW of
  its exact value (under avg, so is their sum, the p_j summing to at most
  1), and the term within 11uW of its own under avg and MMPR, 19uW under
  the exponential objectives; in total at most 26uW.

  Under the exponential objectives the head (1+s) lg A carries most of
  that.  Write t = fl(1 + s); the roots' divisor fl(t / a) is t / a
  exactly, t under exp average and 1 under the d-th objective, where
  t = a.  So r_j = fl(fl(lg p_j) / (t / a)), the d-th one fl(lg p_j)
  itself.  Let m = r_0 be the largest root and R = |r_(n-1)| the largest
  |r_j|, so that t R <= |a| G (1 + 2u).  At the rounded t, each r_j is off
  by at most 4uR from ``log2`` and uR from the division, and r_j - m,
  which lies in [-R, 0], is rounded by at most uR; ``pow`` and ``fsum``
  add relative errors of 4u and u to a suffix's sum S of powers, where
  every power is a normal float (the one-pass form runs only there), so
  8u to lg S; lg S lies in [-R - 1, lg n], so ``log2`` adds
  4u (R + lg n + 1); and m + log2(S) is rounded by u (R + lg n + 1).  So
  lg A is off by at most u (11R + 5 lg n + 13).  The product by t adds
  u t (R + lg n), and t's own rounding, relative u, moves t lg A by as
  much, its derivative in t being lg A less a weighted mean of the r_j.
  That is u (13 |a| G + t (7 lg n + 13)) up to terms in u^2, at most 13uW,
  as t is a under the d-th objective and at most 1 + |s| under exp
  average.  (The per-suffix form shifts by r_lo, so its sums lie in
  [1, n] and its error is smaller.)  Then lg C is off by 4u lg n + un,
  and -s lg C, the subtraction and the move's own subtraction add at most
  6uW in all.

  The allowance is 32uW, which covers the 26uW and the rounding of the
  move: ~1e-13 for the benchmark's objectives at n = 16, and 1e-7 in the
  term (1e-13 in the value) at d = 1e6.  The reducer, in
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
  symbols).  ``scored_count`` is the number of vectors the walk scored; the
  rescoring of the candidates is not counted.
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
import random
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import cache

from .core import (CodingError, LengthVector, Objective, ObjectiveKind, Pmf, _Record, _set,
                   lg_sum_exp2)

__all__ = [
    "AlphabetTooLarge",
    "OracleResult",
    "kraft_length_tuples",
    "random_complete_lengths",
    "brute_force_optimal",
]

DEFAULT_MAX_N = 16
ARGMIN_TOL = 1e-12
_SMALL_SUBTREE = 2
# a term table spanning fewer bits is scored as powers of two (module docstring)
_POWER_SPAN = 1000.0


class AlphabetTooLarge(CodingError):
    pass


class OracleResult(_Record):
    """Minimum objective value with every minimizing monotone length vector.

    ``evaluated_count`` is the number of vectors in the space searched,
    whatever the cut skips; ``scored_count``, at most that, is the number the
    walk reduced to a value.
    """

    min_value: float
    argmin: tuple[LengthVector, ...]
    evaluated_count: int
    scored_count: int

    def __init__(self, min_value: float, argmin: tuple[LengthVector, ...],
                 evaluated_count: int, scored_count: int):
        _set(self, "min_value", min_value)
        _set(self, "argmin", argmin)
        _set(self, "evaluated_count", evaluated_count)
        _set(self, "scored_count", scored_count)

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


@cache
def _steps(n: int) -> tuple[tuple, ...]:
    """The walk's steps over the vectors of n symbols, in the order it takes
    them (``_walk``), built on first use and cached.

    A step (depth, first, lo, placed, lg_c, skip) places symbols first..lo-1,
    ``placed`` of them, at ``depth``.  With ``skip`` None it finishes a
    vector, the symbols lo.. one level deeper.  Otherwise the subtree below
    it is the next ``skip`` steps, and ``lg_c`` is the lg C of its bound,
    lg nodes - (depth + 1) for the ``nodes`` open nodes below it, where that
    subtree holds more than ``_SMALL_SUBTREE`` vectors, None elsewhere.
    Symbol indices are negative, counted from the end, so that a step is
    the same in every table that holds it.  The first step, the root,
    places nothing.
    """
    # a step equal to one of the table for n - 1 is that object, and the
    # lookup is dropped after the build
    shared = {step: step for step in _steps(n - 1)} if n > 1 else {}
    below: dict[tuple[int, int, int], list[tuple]] = {}
    # the symbol indices, one int object each, shared by the steps
    index = [-left for left in range(n + 1)]

    def level(depth: int, nodes: int, left: int) -> list[tuple]:
        # the steps below a level, the same wherever the walk reaches it
        key = depth, nodes, left
        steps = below.get(key)
        if steps is None:
            steps = below[key] = []
            first = index[left]
            # k from the fewest leaves that leave every open node two children
            # (that k is feasible whenever any k is) up to nodes - 1: a level
            # is opened only where nodes < left, so k = nodes would strand
            # symbols, and any k < nodes leaves an internal node
            for k in range(max(0, 2 * nodes - left), nodes):
                child, lo = 2 * (nodes - k), index[left - k]
                if child == -lo:
                    # as many open nodes as symbols: all leaves
                    sub, lg_c, skip = [], None, None
                else:
                    sub = level(depth + 1, child, -lo)
                    lg_c = (math.log2(child) - (depth + 1)
                            if _completions(child, -lo) > _SMALL_SUBTREE else None)
                    skip = len(sub)
                step = depth, first, lo, lo - first, lg_c, skip
                steps.append(shared.setdefault(step, step))
                steps += sub
                first = lo
        return steps

    sub = level(0, 1, n)
    # with one symbol the root is the vector
    root = -1, index[n], index[n], 0, None, len(sub) if sub else None
    return shared.setdefault(root, root), *sub


def _lengths_at(steps: tuple[tuple, ...], stop: int, n: int) -> tuple[int, ...]:
    """The lengths of the vector that ``steps[stop]`` finishes: each step on
    its path places the symbols up to its lo at its depth."""
    lengths: list[int] = []
    i = 0
    while True:
        depth, _, lo, _, _, skip = steps[i]
        if i == stop:
            lengths += [depth] * (n + lo - len(lengths))
            return (*lengths, *[depth + 1] * -lo)
        if skip is None or i + skip < stop:
            # a vector or a subtree before the stop
            i += 1 if skip is None else skip + 1
        else:
            lengths += [depth] * (n + lo - len(lengths))
            i += 1


def _walk(rows: Sequence[Sequence[float]], reduce: Callable[[list], float],
          relax: Callable[[int, float], float] | None, margin: float, widen: float = 0.0
          ) -> tuple[float, list[tuple[float, tuple[int, ...]]], int]:
    """Score each complete nondecreasing length vector the cut keeps, and
    return the least value, the (value, lengths) pairs that were within
    ``ARGMIN_TOL + widen`` of the least value when scored, and the number
    scored.  ``ARGMIN_TOL`` is read at each call.

    A vector's value is ``reduce`` over ``rows[lengths[i]][i]``, n =
    ``len(rows)``.  At each depth the walk places ``k`` of the ``left``
    unplaced symbols on the ``nodes`` open nodes, k ascending, and leaves
    the other ``nodes - k`` as internal nodes with two children each.  No
    full binary tree with n leaves is deeper than n - 1, so depths run from
    0 to n - 1.  Each choice of k is a step of ``_steps(n)``, which copies
    the terms of the symbols it places from ``rows`` into the term list.

    From the first vector scored on, the walk skips every subtree of more
    than ``_SMALL_SUBTREE`` vectors whose bound exceeds the limit
    ``best + ARGMIN_TOL + widen + margin``.  The bound is ``reduce`` over its
    placed terms followed by one relaxed entry for the symbols lo.. after
    them, ``relax(lo, lg C)`` (module docstring).  With ``relax`` None the
    walk takes no bound and scores every vector.
    """
    n = len(rows)
    values = [0.0] * n
    # no bound before the first vector: it would cut nothing and cost a reduce
    limit = None
    best = math.inf
    tol = ARGMIN_TOL + widen
    # (value, index of the step that finished it)
    found: list[tuple[float, int]] = []
    scored = 0
    steps = _steps(n)
    i, end = 0, len(steps)
    while i < end:
        depth, first, lo, placed, lg_c, skip = steps[i]
        i += 1
        if placed == 1:
            values[first] = rows[depth][first]
        elif placed:
            values[first:lo] = rows[depth][first:lo]
        if skip is None:
            values[lo:] = rows[depth + 1][lo:]
            scored += 1
            v = reduce(values)
            if v < best - tol:
                best = v
                found = [(v, i - 1)]
            elif v <= best + tol:
                found.append((v, i - 1))
                best = min(best, v)
            if relax is not None:
                limit = best + tol + margin
        elif lg_c is not None and limit is not None:
            # the relaxation: symbols lo.. at their real optimum on the open
            # capacity C = nodes 2^-(depth+1)
            if reduce(values[:lo] + [relax(n + lo, lg_c)]) > limit:
                i += skip
    return best, [(v, _lengths_at(steps, at, n)) for v, at in found], scored


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


def random_complete_lengths(n: int, rng: random.Random) -> LengthVector:
    """A uniform draw from the ``kraft_length_tuples(n)`` vectors, made by
    unranking one ``rng.randrange`` index rather than listing them."""
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    return LengthVector(_unrank(n, rng.randrange(_completions(1, n))))


def _coefficients(obj: Objective) -> tuple[float, float]:
    """(a, s) with each table entry a lg p + s l (times p under avg)."""
    return obj._family[:2] if obj._family else (1.0, 1.0)


def _allowance(obj: Objective, lgp: Sequence[float]) -> float:
    """How far the relaxed term is moved toward a lower value, 32 u W with
    W = |a| (G + lg n + 2) + |s| (n + 1) (module docstring)."""
    n = len(lgp)
    a, s = _coefficients(obj)
    top = max(map(abs, lgp))
    return 32 * 2.0 ** -53 * (abs(a) * (top + math.log2(n) + 2) + abs(s) * (n + 1))


def _relaxation(obj: Objective, probs: Sequence[float], lgp: Sequence[float]
                ) -> tuple[list[float], list[float]] | None:
    """(heads, slopes): the symbols lo.. on an open capacity C take the
    relaxed term ``heads[lo] - slopes[lo] lg C``, the least their part of
    the value can be over real lengths (module docstring), moved by the
    allowance toward a lower value.  Under the exponential objectives
    (1+s) lg A is taken for every suffix from one power per symbol,
    2^(root_j - root_0), and per suffix by ``lg_sum_exp2`` where one of
    those powers is not a normal float.  None where s <= -1, which only
    exponential average reaches, at q <= 1/2, and which has no such term."""
    n = len(probs)
    a, s = _coefficients(obj)
    if obj._family is not None:
        if not s > -1.0:
            return None
        # the roots a lg p_j / (1+s), lg p_j under d-th, where (1+s)/a is 1.0, fall
        # with j: root[0] is every suffix's largest; near q = 1/2 they span more
        # than the float range
        t = 1.0 + s
        ratio = t / a
        root = [g / ratio for g in lgp]
        top = root[0]
        pw = [2.0 ** (r - top) for r in root]
        if min(pw) >= sys.float_info.min:
            fsum, log2 = math.fsum, math.log2
            heads = [t * (top + log2(fsum(pw[lo:]))) for lo in range(n)]
        else:
            heads = [t * lg_sum_exp2(root[lo:]) for lo in range(n)]
        slopes = [s] * n
    else:
        mass = [math.fsum(probs[lo:]) for lo in range(n)]
        lg_mass = list(map(math.log2, mass))
        if obj.kind is ObjectiveKind.AVG_REDUNDANCY:
            heads, slopes = list(map(operator.mul, mass, lg_mass)), mass
        else:
            heads, slopes = lg_mass, [s] * n
    # the value rises with the term where the scale s is positive, and falls
    # where it is negative
    shift = math.copysign(_allowance(obj, lgp), s)
    return [h - shift for h in heads], slopes


def _margin(obj: Objective, rows: Sequence[Sequence[float]]) -> float:
    """How far above ``best + ARGMIN_TOL`` a bound must lie before the cut
    trusts it: 0 for avg and MMPR, whose reducers are monotone as computed,
    and 16 u (T + lg n + 2) / |s| for the two exponential ones (module
    docstring)."""
    if obj._family is None:
        return 0.0
    top = max(map(abs, rows[0] + rows[-1]))
    return 16 * 2.0 ** -53 * (top + math.log2(len(rows)) + 2) / abs(obj._family[1])


def _powers(obj: Objective, rows: Sequence[list[float]]
            ) -> tuple[list[list[float]], float] | None:
    """(table, top) with table[l][i] = 2^(rows[l][i] - top), top the largest
    entry, under the two exponential objectives where rows 0 and n - 1, which
    hold each symbol's extremes, span fewer than ``_POWER_SPAN`` bits; None
    elsewhere (module docstring)."""
    if obj._family is None:
        return None
    ends = rows[0] + rows[-1]
    top = max(ends)
    if not top - min(ends) < _POWER_SPAN:
        return None
    return [[2.0 ** (x - top) for x in row] for row in rows], top


def _power_reducer(obj: Objective, top: float) -> Callable[[list[float]], float]:
    """The value from a list of power-table entries: lg(2^top fsum(entries)) / s."""
    s = obj._family[1]
    log2, fsum = math.log2, math.fsum
    return lambda entries: (top + log2(fsum(entries))) / s


def _relaxed_entry(relax: tuple[list[float], list[float]] | None, top: float | None
                   ) -> Callable[[int, float], float] | None:
    """The walk's relaxed entry for the symbols lo.. on a capacity C, from lo and
    lg C: the term ``heads[lo] - slopes[lo] lg C`` of ``relax = (heads, slopes)``,
    or 2^(term - top) in the power table."""
    if relax is None:
        return None
    heads, slopes = relax
    if top is None:
        return lambda lo, lg_c: heads[lo] - slopes[lo] * lg_c
    return lambda lo, lg_c: 2.0 ** (heads[lo] - slopes[lo] * lg_c - top)


def brute_force_optimal(p: Pmf, obj: Objective, max_n: int = DEFAULT_MAX_N) -> OracleResult:
    """Minimize ``obj`` over every Kraft-tight monotone length vector.

    Returns the full set of minimizers (values within 1e-12 of the
    minimum), sorted lexicographically.  The walk skips each subtree whose
    relaxed lower bound shows it holds no such vector (under exp average
    with q <= 1/2 there is no such bound and it scores every vector), and
    the result is the one scoring every vector gives (module docstring).
    Under the two exponential objectives, where rows 0 and n - 1 of the
    term table span fewer than 1000 bits, the walk scores from a table of
    powers 2^(term - M), widening its cut and its candidate line by that
    form's error bound, and the minimum and the minimizers come from
    rescoring its candidates with ``obj.reducer()`` over the terms, the
    floats ``Objective.evaluate`` gives; a wider table is scored by the
    reducer throughout.  ``evaluated_count`` is the size of the space,
    whatever the cut skips; it grows like 1.794^n, and so does the walk's
    step table, built once per n and kept (about 2.26 steps per vector:
    3,712 at n = 16, 11,919 at n = 18), so raise ``max_n`` consciously.
    ``scored_count`` is how many of them were scored, ~4-210 of 1639 on
    Dirichlet pmfs at n = 16 under the benchmark's objectives.
    """
    if p.n > max_n:
        raise AlphabetTooLarge(f"n={p.n} exceeds the oracle cap {max_n}")
    lgp = list(map(math.log2, p.probs))
    rows = obj.term_rows(p.probs, lgp)
    relax = _relaxation(obj, p.probs, lgp)
    margin = _margin(obj, rows)
    powers = _powers(obj, rows)
    if powers is None:
        _, candidates, scored = _walk(rows, obj.reducer(), _relaxed_entry(relax, None), margin)
    else:
        # the power form's error widens the cut and the candidate line, and
        # the candidates are rescored from the rows (module docstring)
        table, top = powers
        extra = 8 * 2.0 ** -53 * (p.n - 1)
        _, found, scored = _walk(table, _power_reducer(obj, top), _relaxed_entry(relax, top),
                                 margin + extra, 2 * margin + extra)
        reduce = obj.reducer()
        candidates = [(reduce([rows[l][i] for i, l in enumerate(lv)]), lv) for _, lv in found]
    best = min(v for v, _ in candidates)
    argmin = sorted(lv for v, lv in candidates if v <= best + ARGMIN_TOL)
    return OracleResult(best, tuple(LengthVector._checked(lv) for lv in argmin),
                        _completions(1, p.n), scored)
