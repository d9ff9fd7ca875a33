"""Spans around genhuff's public functions, patched in from outside the package.

A span is recorded at each call of a patched name while the tracer is
enabled.  Spans are folded into per-(name, tag) totals as they close, so
memory stays flat however many calls a run makes: call count, inclusive
time and self time (the span minus the part its child spans cover).  A
span nested in a span of the same name, as when one bounds function calls
another, adds to its parent's inclusive time only once.  The tag is the
combining rule of the nearest enclosing engine call, which gives the
per-rule split.

The wrapper's own work around a child span would otherwise land in its
parent's self time and, on a parent with thousands of cheap children
(the oracle around ``Objective.evaluate``), skew the split.  ``leak_s``
is that cost per span, measured once on a no-op; each child span moves
it out of its parent's self time, so it shows as tracing overhead
instead.

Names are patched where they are looked up: a module that imported a
function by value holds its own binding, so each binding is patched on
its own.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: dict[tuple[str, str | None], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[str, str | None], float] = defaultdict(float)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.leak_s = 0.0
        self.leak_s = self._measure_leak()

    def patch(self, owner, attr: str, name: str, tag_of=None, count=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper; properties are wrapped too.

        ``tag_of(args)`` names the span's tag; without it the span takes its
        parent's.  ``count(args, result)`` returns counters to add under the
        span's tag; it runs after the span has closed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.fget if isinstance(original, property) else original
        wrapped = self._wrap(func, name, tag_of, count)
        setattr(owner, attr, property(wrapped) if isinstance(original, property) else wrapped)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, func, name, tag_of, count):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            parent = stack[-1] if stack else None
            tag = tag_of(args) if tag_of else (parent[1] if parent else None)
            frame = [name, tag, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec = spans[(name, tag)]
                rec[0] += 1
                rec[2] += elapsed - frame[2]
                if parent is None or parent[0] != name:
                    rec[1] += elapsed
                if parent is not None:
                    parent[2] += elapsed + self.leak_s
            if count:
                t0 = clock()
                for key, value in count(args, result).items():
                    counts[(key, tag)] += value
                if parent is not None:
                    parent[2] += clock() - t0
            return result

        return spanned

    def _measure_leak(self, calls: int = 20000) -> float:
        """Seconds per child span that fall outside the child's own timed window."""
        def noop():
            pass

        def loop(fn):
            for _ in range(calls):
                fn()

        child = self._wrap(noop, "leak.child", None, None)
        parent = self._wrap(loop, "leak.parent", None, None)
        self.enabled = True
        try:
            best = float("inf")
            for _ in range(3):
                self.spans.clear()
                start = time.perf_counter()
                loop(noop)
                bare = time.perf_counter() - start
                parent(child)
                best = min(best, (self.spans[("leak.parent", None)][2] - bare) / calls)
        finally:
            self.enabled = False
            self.spans.clear()
        return max(best, 0.0)

    def total(self, name: str, field: int, tag=...) -> float:
        """Sum of a span field (0 calls, 1 inclusive s, 2 self s) over tags, or for one tag."""
        return sum(rec[field] for (n, t), rec in self.spans.items()
                   if n == name and (tag is ... or t == tag))

    def count_total(self, key: str, tag=...) -> float:
        return sum(v for (k, t), v in self.counts.items()
                   if k == key and (tag is ... or t == tag))
