"""In-memory span recorder used by traced benchmark passes.

Spans are opened and closed around calls into public flatstir functions,
either where the benchmark calls them itself or by replacing the name a
calling module looks up (``patch``).  Spans nest on a stack; when one
closes, its duration is added to its parent's child time, so

    self time = span duration - time covered by its child spans.

A stream span wraps a generator: every ``next()`` is a short span under
whatever span the consumer has open, so the consumer's self time
excludes the time spent producing items.  Spans are aggregated per name
(calls, total, child time, items) and stay in memory until the pass
writes its summary at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, total s, child s, items]
        self.counters: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        agg = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with every call recorded as a span; ``on_result`` sees each result."""

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_stream(self, name: str, fn):
        """``fn`` returning an iterator whose every ``next()`` is a span; items are counted."""

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                items = iter(fn(*args, **kwargs))
            finally:
                self.exit()
            while True:
                self.enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.spans[name][3] += 1
                yield item

        return traced

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": t - ch, "items": i}
                for name, (c, t, ch, i) in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


@contextmanager
def patch(replacements):
    """Temporarily set ``module.attr = value`` for each (module, attr, value)."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
