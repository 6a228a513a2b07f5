"""Spans and counters recorded around calls into teleportsim, from outside.

A traced function is wrapped once and the wrapper is bound wherever a module
holds the original object, so every caller's view changes: a call
`explorer.run_teleport(...)` inside the sweep engine is recorded just like the
benchmark's own `teleport.run_teleport(...)`. Functions called hundreds of
times per unit (the bisection leaves) get a call counter and no span.

A span is (name, start_ns, end_ns, parent span index, unit id). Spans are kept
in memory and written out once, when the run ends. Self time is a span's
duration minus the durations of its direct children; the benchmark is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# called more than 100 times per unit in bisection: counted, not spanned
COUNTED_ONLY = frozenset({
    "qlinalg.binary_entropy",
    "channel.make_channel",
    "channel.channel_entropy",
})


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.unit = -1
        self.spans: list = []
        self.calls: Counter = Counter()
        self.fails: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.fails[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit)

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets: dict, modules) -> None:
        """Wrap each `name -> (module, attribute)` target at every binding site.

        `modules` are all modules whose globals may hold the original function.
        """
        for name, (module, attr) in targets.items():
            original = getattr(module, attr)
            make = self._counter if name in COUNTED_ONLY else self._span
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def self_ns(self) -> Counter:
        """Total self time per span name, in nanoseconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,unit\n")
            for name, start, end, parent, unit in self.spans:
                fh.write(f"{name},{start},{end},{parent},{unit}\n")


def loaded_modules(prefixes) -> list:
    """Loaded modules whose name equals or starts with one of the prefixes."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and any(n == p or n.startswith(p + ".") for p in prefixes)]
