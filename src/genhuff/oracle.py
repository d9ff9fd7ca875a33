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

The minimizer tables each symbol's term at each depth once per call, with
the expression the objective's evaluator in ``core`` uses (``lg p_i`` is
taken once per symbol), and the walk keeps the term list of the current
vector the same way it keeps its lengths.  Each vector is then reduced by
the evaluator's own reducer: ``math.fsum``, ``max``, or ``lg_sum_exp2``
divided by d or by lg q.  Every term is the float the evaluator computes
for that symbol and length, and the reducer sees the same list in the
same order (``fsum`` is correctly rounded, so its sum would not depend on
the order anyway).  So minimum, argmin set and count are bit for bit
those of calling ``Objective.evaluate`` on each ``LengthVector``, and a
``LengthVector`` is built only for the minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .core import CodingError, LengthVector, Objective, ObjectiveKind, Pmf, lg, lg_sum_exp2

__all__ = [
    "InfeasibleMaxLen",
    "AlphabetTooLarge",
    "OracleResult",
    "kraft_length_tuples",
    "enumerate_kraft_lengths",
    "brute_force_optimal",
]

DEFAULT_MAX_N = 16
ARGMIN_TOL = 1e-12


class InfeasibleMaxLen(CodingError):
    pass


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


def _depth_cap(n: int, max_len: int | None) -> int:
    """The deepest level the walk may use: ``max_len``, default and at most n - 1.

    No full binary tree with n leaves is deeper than n - 1, so a larger cap
    admits the same vectors.
    """
    if n < 1:
        raise CodingError(f"alphabet size must be >= 1, got {n}")
    deepest = max(n - 1, 0 if n == 1 else 1)
    if max_len is None:
        return deepest
    min_depth = (n - 1).bit_length()
    if max_len < min_depth:
        raise InfeasibleMaxLen(f"max_len {max_len} cannot hold {n} leaves "
                               f"(needs >= {min_depth})")
    return min(max_len, deepest)


def _walk(n: int, max_len: int, rows: Sequence[Sequence] | None = None
          ) -> Iterator[tuple[list[int], list | None]]:
    """Yield ``(lengths, values)`` once per complete nondecreasing length vector.

    Both are lists the walk reuses, so a caller copies what it keeps.
    ``values[i]`` is ``rows[lengths[i]][i]``; without ``rows`` it is None.
    At each depth the walk places ``k`` of the ``left`` unplaced symbols on
    the ``nodes`` open nodes, k ascending, and leaves the other ``nodes - k``
    as internal nodes with two children each.
    """
    lengths = [0] * n
    values = None if rows is None else [None] * n
    out = (lengths, values)
    # per depth on the current path: open nodes, unplaced symbols, leaves placed
    nodes_at = [0] * (max_len + 1)
    left_at = [0] * (max_len + 1)
    k_at = [0] * (max_len + 1)
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
            # the pruning rule: the symbols still unplaced must fit under
            # the internal nodes without passing max_len.  Each extra leaf
            # lowers that capacity by at least as much as it lowers the
            # count, so the first k that fails ends this level.
            if k <= min(nodes, left) and left - k <= (nodes - k) << (max_len - depth):
                break
        k_at[depth] = k
        i = n - left + k - 1
        lengths[i] = depth
        if rows is not None:
            values[i] = rows[depth][i]
        nodes, left = 2 * (nodes - k), left - k
        depth += 1


def kraft_length_tuples(n: int, max_len: int | None = None) -> Iterator[tuple[int, ...]]:
    """The vectors of ``enumerate_kraft_lengths`` as plain tuples, in the same order."""
    cap = _depth_cap(n, max_len)
    for lengths, _ in _walk(n, cap):
        yield tuple(lengths)


def enumerate_kraft_lengths(n: int, max_len: int | None = None) -> Iterator[LengthVector]:
    """Yield each nondecreasing length vector with Kraft sum 1, once.

    Vectors are generated by choosing how many leaves sit at each depth of
    a full binary tree.  ``max_len`` defaults to n - 1, the deepest any
    optimal tree can be.
    """
    for lengths in kraft_length_tuples(n, max_len):
        yield LengthVector(lengths)


def _term_table(p: Pmf, obj: Objective, max_len: int
                ) -> tuple[list[list[float]], Callable[[list[float]], float]]:
    """Per-depth rows of each symbol's term, and the reducer that turns a vector's terms
    into its value; both as ``core``'s evaluator for ``obj`` computes them."""
    lgp = [lg(pi) for pi in p]
    depths = range(max_len + 1)
    if obj.kind is ObjectiveKind.AVG_REDUNDANCY:
        return [[pi * (li + g) for pi, g in zip(p, lgp)] for li in depths], math.fsum
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return [[li + g for g in lgp] for li in depths], max
    if obj.kind is ObjectiveKind.DTH_EXP:
        d = obj.param
        return ([[(1.0 + d) * g + d * li for g in lgp] for li in depths],
                lambda terms: lg_sum_exp2(terms) / d)
    lgq = lg(obj.param)
    return [[g + li * lgq for g in lgp] for li in depths], lambda terms: lg_sum_exp2(terms) / lgq


def brute_force_optimal(p: Pmf, obj: Objective, max_n: int = DEFAULT_MAX_N,
                        max_len: int | None = None) -> OracleResult:
    """Minimize ``obj`` over every Kraft-tight monotone length vector.

    Returns the full set of minimizers (values within 1e-12 of the
    minimum), sorted lexicographically.  Raise ``max_n`` consciously: the
    number of tree shapes grows like 1.794^n.
    """
    if p.n > max_n:
        raise AlphabetTooLarge(f"n={p.n} exceeds the oracle cap {max_n}")
    cap = _depth_cap(p.n, max_len)
    rows, reduce = _term_table(p, obj, cap)
    best = float("inf")
    candidates: list[tuple[float, tuple[int, ...]]] = []
    count = 0
    for lengths, terms in _walk(p.n, cap, rows):
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
