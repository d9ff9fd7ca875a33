"""Machine-speed calibration: fixed work, timed between the ops of a run.

The benchmark runs on shared machines whose speed swings by up to a
factor of two over seconds to minutes, in CPU time as much as in wall
time.  A plain timing then says more about when a run happened than
about the program.  So the runner times a fixed piece of work that owes
nothing to genhuff between every two ops, and scales each op's CPU time
by (reference time / measured time) of the two calibration samples
around it.  The reported figures are the op's times at the reference
speed: on an idle machine running at that speed they are plain wall
times.  A change to genhuff moves them; a change in machine speed, which
slows the calibration as much as the op, does not.  Ops and calibration
samples alike are timed in CPU seconds (``child.cpu_s``), so the turns
other work takes on the same CPUs count for neither.

A calibration has to slow down as the op does, so each kind of op has
its own:

* ``Interp`` is small pure-Python interpreter work (dict, heap, float,
  str and ``Fraction`` operations), for small in-process ops (oracle).
* ``Huffman`` is a textbook Huffman code over n seeded weights: heap
  merges, a parent dict, a depth walk, canonical codeword strings and a
  ``Fraction`` Kraft sum.  It is the same mix of work and memory traffic
  as a genhuff engine op at large n, whose speed on a busy host moves
  with memory and page-fault costs that ``Interp`` does not feel.
* ``Child`` starts a fresh isolated interpreter (``-I``, so it never sees
  this tree's ``src``) that imports numpy and a few stdlib modules, for
  ops and set-up that start a child.  numpy is there because its import
  (shared libraries, BLAS threads) is most of a genhuff child's time and
  slows by its own factor when the host is busy; it comes from the
  environment, so a change to genhuff, dropping numpy included, leaves
  the calibration as it was.

The in-process calibrations run with the garbage collector off, so the
heap an op leaves behind cannot change their cost.
"""

from __future__ import annotations

import gc
import heapq
import random
import sys
from fractions import Fraction

from child import cpu_s, run_child

CHILD_IMPORTS = "import argparse, csv, fractions, json, numpy, statistics"


def _interp_unit() -> None:
    d = {}
    heap = []
    s = Fraction(0)
    x = 0.5
    for i in range(600):
        k = (i * 2654435761) % 1000003
        d[k] = str(k)
        heapq.heappush(heap, x)
        x = x * 1.0001 + 0.3
        if i % 40 == 0:
            s += Fraction(1, 1 << (i % 37))
    sorted(d)
    while heap:
        heapq.heappop(heap)


def _timed_without_gc(work, *args) -> float:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = cpu_s(children=False)
        work(*args)
        return cpu_s(children=False) - t0
    finally:
        if was_enabled:
            gc.enable()


class Interp:
    """``units`` interpreter units; one unit takes UNIT_REF_S at the reference speed."""

    UNIT_REF_S = 0.0004

    def __init__(self, units: int):
        self.units = units
        self.ref_s = units * self.UNIT_REF_S
        for _ in range(20):  # warm-up
            _interp_unit()

    def _work(self) -> None:
        for _ in range(self.units):
            _interp_unit()

    def sample(self) -> float:
        return _timed_without_gc(self._work)


def _textbook_huffman(weights: list[float]) -> tuple[list[str], Fraction]:
    n = len(weights)
    heap = [(w, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    parent = {}
    node = n
    while len(heap) > 1:
        a, ia = heapq.heappop(heap)
        b, ib = heapq.heappop(heap)
        parent[ia] = parent[ib] = node
        heapq.heappush(heap, (a + b, node))
        node += 1
    root = node - 1
    depth = {root: 0}
    for k in range(root - 1, -1, -1):  # a parent is always numbered above its children
        depth[k] = depth[parent[k]] + 1
    words = [""] * n
    code, prev = 0, 0
    for length, i in sorted((depth[i], i) for i in range(n)):
        code <<= length - prev
        prev = length
        words[i] = format(code, f"0{length}b")
        code += 1
    kraft = sum(Fraction(1, 1 << depth[i]) for i in range(0, n, 4))
    return words, kraft


class Huffman:
    """A textbook Huffman code over ``n`` seeded weights, which takes ``ref_s`` at the
    reference speed."""

    def __init__(self, n: int, ref_s: float):
        rng = random.Random(n)
        self.weights = [rng.random() + 1e-3 for _ in range(n)]
        self.ref_s = ref_s
        _textbook_huffman(self.weights)  # warm-up

    def sample(self) -> float:
        return _timed_without_gc(_textbook_huffman, self.weights)


class Child:
    """One isolated interpreter importing CHILD_IMPORTS; REF_S at the reference speed."""

    REF_S = 0.15

    def __init__(self, env: dict):
        self.env = env
        self.ref_s = self.REF_S
        self.sample()  # warm-up: byte-compiled stdlib in the page cache

    def sample(self) -> float:
        t0 = cpu_s(children=True)
        code, _, err = run_child([sys.executable, "-I", "-c", CHILD_IMPORTS], self.env)
        elapsed = cpu_s(children=True) - t0
        if code != 0:
            raise RuntimeError(f"calibration child failed with exit code {code}:\n{err}")
        return elapsed


def at_reference(times: list[float], samples: list[float], ref_s: float) -> list[float]:
    """Scale ``times[i]``, taken between ``samples[i]`` and ``samples[i + 1]``, to the
    reference speed, read from the mean of those two samples.

    Over minutes of recorded ops, run medians read from the two samples
    nearest each op spread less than those read from a wider window of
    samples (wide, oracle), or about as little (cli).
    """
    if len(samples) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} samples, got {len(samples)}")
    return [t * ref_s * 2.0 / (samples[i] + samples[i + 1]) for i, t in enumerate(times)]
