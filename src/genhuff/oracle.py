"""Exhaustive ground truth for small alphabets.

Enumerates every nondecreasing integer length vector with Kraft sum
exactly 1 (equivalently, every full binary tree shape by level profile)
and minimizes an objective over them.  For probabilities sorted
nonincreasing, restricting to nondecreasing lengths loses nothing: giving
the longer codeword to the less probable symbol never increases any of
the objectives here.  Equality rather than inequality in the Kraft sum is
likewise lossless, since shortening a codeword never hurts.  Both facts
are covered by self-tests rather than assumed.

One depth-first walk (``_walk``) serves both the enumeration and the
minimizer.  It chooses how many leaves sit at each depth, fewest first,
and never enters a branch that holds no complete tree, so each step
either descends a level or finishes a vector.  The lengths of one vector
and of the next share the prefix above the deepest level that changed,
and the walk rewrites only the rest.

The minimizer tables each symbol's term at each depth once per call with
``Objective.terms``, the code ``Objective.evaluate`` runs, and binds the
objective's reducer once.  The walk keeps the term list of the current
vector the same way it keeps its lengths, and each vector's value is the
reducer applied to that list.  So minimum, argmin set and count are those
of calling ``Objective.evaluate`` on each ``LengthVector``, because the code
is the same, and a ``LengthVector`` is built only for the minimizers.
(Under MMPR ``evaluate`` takes the max over each run's first term only,
which is the same float: see ``Objective.evaluate``.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import CodingError, LengthVector, Objective, Pmf

__all__ = [
    "AlphabetTooLarge",
    "OracleResult",
    "kraft_length_tuples",
    "brute_force_optimal",
]

DEFAULT_MAX_N = 16
ARGMIN_TOL = 1e-12


class AlphabetTooLarge(CodingError):
    pass


@dataclass(frozen=True)
class OracleResult:
    """Minimum objective value with every minimizing monotone length vector."""

    min_value: float
    argmin: tuple[LengthVector, ...]
    evaluated_count: int

    def argmin_lengths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(lv.lengths for lv in self.argmin)


def _walk(n: int, rows: Sequence[Sequence] | None = None
          ) -> Iterator[tuple[list[int], list | None]]:
    """Yield ``(lengths, values)`` once per complete nondecreasing length vector.

    Both are lists the walk reuses, so a caller copies what it keeps.
    ``values[i]`` is ``rows[lengths[i]][i]``; without ``rows`` it is None.
    At each depth the walk places ``k`` of the ``left`` unplaced symbols on
    the ``nodes`` open nodes, k ascending, and leaves the other ``nodes - k``
    as internal nodes with two children each.  No full binary tree with n
    leaves is deeper than n - 1, so depths run from 0 to n - 1.
    """
    lengths = [0] * n
    values = None if rows is None else [None] * n
    out = (lengths, values)
    # per depth on the current path: open nodes, unplaced symbols, leaves placed
    nodes_at = [0] * n
    left_at = [0] * n
    k_at = [0] * n
    depth, nodes, left = 0, 1, n
    while True:
        # descend with the fewest leaves that leave every open node two
        # children; that k is feasible whenever any k is, so no test here.
        # A level with as many open nodes as symbols is all leaves.
        while nodes != left:
            k = max(0, 2 * nodes - left)
            nodes_at[depth], left_at[depth], k_at[depth] = nodes, left, k
            if k:
                first = n - left
                lengths[first:first + k] = [depth] * k
                if rows is not None:
                    values[first:first + k] = rows[depth][first:first + k]
            nodes, left = 2 * (nodes - k), left - k
            depth += 1
        if left:
            first = n - left
            lengths[first:] = [depth] * left
            if rows is not None:
                values[first:] = rows[depth][first:]
        yield out
        # back up to the deepest level above the last that takes one more leaf
        while True:
            depth -= 1
            if depth < 0:
                return
            nodes, left = nodes_at[depth], left_at[depth]
            k = k_at[depth] + 1
            # the pruning rule: a level is recorded only where nodes < left,
            # so k = nodes would strand symbols; any k < nodes leaves an
            # internal node, and with no depth limit the symbols left fit
            if k < nodes:
                break
        k_at[depth] = k
        i = n - left + k - 1
        lengths[i] = depth
        if rows is not None:
            values[i] = rows[depth][i]
        nodes, left = 2 * (nodes - k), left - k
        depth += 1


def kraft_length_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each nondecreasing length vector with Kraft sum 1, once.

    Vectors are generated by choosing how many leaves sit at each depth of
    a full binary tree, fewest first.
    """
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    for lengths, _ in _walk(n):
        yield tuple(lengths)


def brute_force_optimal(p: Pmf, obj: Objective, max_n: int = DEFAULT_MAX_N) -> OracleResult:
    """Minimize ``obj`` over every Kraft-tight monotone length vector.

    Returns the full set of minimizers (values within 1e-12 of the
    minimum), sorted lexicographically.  Raise ``max_n`` consciously: the
    number of tree shapes grows like 1.794^n.
    """
    if p.n > max_n:
        raise AlphabetTooLarge(f"n={p.n} exceeds the oracle cap {max_n}")
    lgp = list(map(math.log2, p.probs))
    rows = [obj.terms(p.probs, lgp, ((li,), (p.n,))) for li in range(p.n)]
    reduce = obj.reducer()
    best = float("inf")
    candidates: list[tuple[float, tuple[int, ...]]] = []
    count = 0
    for lengths, terms in _walk(p.n, rows):
        count += 1
        v = reduce(terms)
        if v < best - ARGMIN_TOL:
            best = v
            candidates = [(v, tuple(lengths))]
        elif v <= best + ARGMIN_TOL:
            candidates.append((v, tuple(lengths)))
            best = min(best, v)
    argmin = sorted(lv for v, lv in candidates if v <= best + ARGMIN_TOL)
    return OracleResult(best, tuple(LengthVector(lv) for lv in argmin), count)
