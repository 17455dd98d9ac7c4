"""Spans around calls into the program's public functions, installed
from outside the program.

A :class:`Tracer` replaces a function or method with a wrapper that
records a span (id, name, start, end, parent) around each call.  Spans
stay in memory and are written out when the run ends, as JSON lines
and as Chrome trace-event JSON (load it in ``chrome://tracing`` or
Perfetto).  A layer's self time is its spans' durations minus the time
their child spans cover.

Hot layers are called hundreds of thousands of times per run, so
aggregates (count, total, self time, per parent) are kept for every
call, while individual span records are kept for the first
``keep_per_name`` calls of each name only; the aggregates, not the
kept records, feed the per-layer metrics.  Open spans are kept per
thread, so concurrent client threads each get their own parent chain.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self, keep_per_name: int = 2000):
        self.keep_per_name = keep_per_name
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.by_parent: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # name -> accumulated observation (see ``observe``)
        self.observed: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._kept: dict[str, int] = defaultdict(int)
        # Per thread: the open frames, [child seconds, id, name].
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self.origin = _clock()
        # Seconds inside layer spans under the benchmark's "op" spans.
        self.covered = 0.0

    # -- recording ----------------------------------------------------------------

    def _enter(self, name: str) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0, next(self._ids), name]
        parent = stack[-1] if stack else None
        stack.append(frame)
        return frame, parent, _clock()

    def _exit(self, name: str, frame, parent, start: float) -> None:
        end = _clock()
        self._local.stack.pop()
        duration = end - start
        if parent is not None:
            parent[0] += duration
        with self._lock:
            self._record(name, frame, parent, start, end, duration)

    def _record(self, name, frame, parent, start, end, duration) -> None:
        own = duration - frame[0]
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += own
        pname = parent[2] if parent is not None else None
        row = self.by_parent[(name, pname)]
        row[0] += 1
        row[1] += duration
        row[2] += own
        if self._kept[name] < self.keep_per_name:
            self._kept[name] += 1
            self.spans.append((frame[1], name, start - self.origin,
                               end - self.origin,
                               parent[1] if parent is not None else 0))

    def span(self, name: str):
        """A context manager recording one span (used by the benchmark's
        own loop around each operation); the time its child spans
        cover counts towards ``covered``."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.state = tracer._enter(name)
                return self

            def __exit__(self, *exc):
                tracer._exit(name, *self.state)
                with tracer._lock:
                    tracer.covered += self.state[0][0]
                return False

        return _Span()

    def wrap(self, name: str, fn, observe=None, reentrant: bool = True):
        """``fn`` wrapped to record a span named ``name``.  ``observe``
        is called with the result and returns a number accumulated
        under ``name`` (e.g. generated bytes).  With ``reentrant``
        false, calls made while a span of the same name is open are not
        recorded (recursive functions)."""
        tracer = self
        depth = [0]

        def wrapper(*args, **kwargs):
            if not reentrant and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            state = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, *state)
                depth[0] -= 1
            if observe is not None:
                tracer.observed[name] += observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing -----------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, observe=None,
              reentrant: bool = True) -> None:
        """Replace ``owner.attr`` (a module function or a class
        attribute) with a recording wrapper.  Module-level copies made
        by ``from module import attr`` in other loaded modules are
        replaced too, so callers that bound the name at
        import time are traced as well."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        wrapper = self.wrap(name, original, observe, reentrant)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            if module is owner or module is None:
                continue
            if getattr(module, "__dict__", {}).get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def mean_ms(self, name: str, parent: str | None = None,
                self_time: bool = False) -> float:
        if parent is None:
            row = self.totals.get(name)
        else:
            row = self.by_parent.get((name, parent))
        if not row or not row[0]:
            return 0.0
        return (row[2] if self_time else row[1]) / row[0] * 1000.0

    def write(self, jsonl_path: str, chrome_path: str) -> None:
        with open(jsonl_path, "w") as f:
            for sid, name, start, end, parent in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
        events = [
            {"name": name, "ph": "X", "ts": start * 1e6,
             "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
             "args": {"id": sid, "parent": parent}}
            for sid, name, start, end, parent in self.spans
        ]
        with open(chrome_path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
