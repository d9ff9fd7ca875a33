"""Output checks for the genhuff benchmark.

Every check here is written against the definition of a correct answer,
not against the engine's code: the Kraft sum is summed in integers, the
prefix property is tested on the sorted codeword list, and the reference
objective value comes from a merge that tracks root weights only.
"""

from __future__ import annotations

import heapq
import math

VALUE_TOL = 1e-9


def kraft_is_one(lengths) -> bool:
    """sum_i 2^-l_i == 1, decided exactly as sum_i 2^(L-l_i) == 2^L."""
    top = max(lengths)
    return sum(1 << (top - l) for l in lengths) == 1 << top


def code_problem(lengths, codewords) -> str | None:
    """Why (lengths, codewords) is not a complete binary prefix code, or None."""
    lengths = list(lengths)
    codewords = list(codewords)
    if len(lengths) != len(codewords):
        return f"{len(lengths)} lengths but {len(codewords)} codewords"
    if not kraft_is_one(lengths):
        return "Kraft sum is not exactly 1"
    for i, (w, l) in enumerate(zip(codewords, lengths)):
        if len(w) != l:
            return f"codeword {i} has {len(w)} bits, length says {l}"
    if set("".join(codewords)) - {"0", "1"}:
        return "codeword holds a character other than 0 or 1"
    ordered = sorted(codewords)
    # in sorted order a word that prefixes any other word prefixes its successor
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return f"codeword {a!r} is a prefix of {b!r}"
    return None


def _lg_add(x: float, y: float) -> float:
    """lg(2^x + 2^y) without leaving the log domain."""
    hi, lo = (x, y) if x >= y else (y, x)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def reference_value(probs, kind: str, param: float | None) -> float:
    """Optimal objective value from a merge that keeps root weights only.

    ``kind`` is an objective name as the CLI spells it (avg, mmpr, dexp,
    expavg).  The value follows from the root weight W: lg W for mmpr,
    ((1+d)/d) lg W for dexp, log_q W for expavg, and the sum of merged
    weights minus the entropy for avg.
    """
    if kind == "avg":
        heap = list(probs)
        heapq.heapify(heap)
        merged = []
        while len(heap) > 1:
            w = heapq.heappop(heap) + heapq.heappop(heap)
            merged.append(w)
            heapq.heappush(heap, w)
        return math.fsum(merged) + math.fsum(p * math.log2(p) for p in probs)
    if kind == "expavg":
        q = param
        heap = list(probs)
        heapq.heapify(heap)
        while len(heap) > 1:
            heapq.heappush(heap, q * (heapq.heappop(heap) + heapq.heappop(heap)))
        return math.log(heap[0]) / math.log(q)
    # mmpr and dexp double weights per level, so they merge base-2 logs
    heap = [math.log2(p) for p in probs]
    heapq.heapify(heap)
    if kind == "mmpr":
        while len(heap) > 1:
            a = heapq.heappop(heap)
            heapq.heappush(heap, 1.0 + max(a, heapq.heappop(heap)))
        return heap[0]
    d = param
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        heapq.heappush(heap, (d + _lg_add((1.0 + d) * a, (1.0 + d) * b)) / (1.0 + d))
    return (1.0 + d) / d * heap[0]


def value_problem(got: float, want: float, what: str) -> str | None:
    if math.isclose(got, want, rel_tol=VALUE_TOL, abs_tol=VALUE_TOL):
        return None
    return f"objective value {got!r} differs from the {what} {want!r}"
