"""Per-layer tracing of the beamcycle package, installed from outside it.

``Tracer.install`` wraps every public function of every ``beamcycle``
module, in every module namespace that bound it (``validation`` binds
``max_beams`` and ``rate_slope`` itself, for example), so a call is traced
whichever module makes it. Each wrapped call is a span: name, start, end,
parent and the operation it belongs to. A span's self time is its
duration minus the union of its children's intervals; the union matters
because ``cli`` fans ``optimize_design`` out over worker threads whose
spans overlap. Work submitted to a ``ThreadPoolExecutor`` bound in a
package module keeps the submitting span as its parent.

Counts and times are aggregated per thread and merged on request; spans
are kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Callable

PACKAGE = "beamcycle"

# Called once per candidate beam count inside max_beams' linear scan, about
# n_max**2 times per design; a wrapper there would multiply the traced
# run's time several-fold. Its time stays in max_beams' self time.
UNWRAPPED = frozenset({"optimize.beam_count_threshold"})

# Spans deeper than SPAN_DEPTH below the operation, or past SPAN_CAP, are
# aggregated but not kept, which bounds the trace's memory.
SPAN_DEPTH = 3
SPAN_CAP = 200_000


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _ThreadState:
    __slots__ = ("stack", "totals", "extra", "spans", "dropped")

    def __init__(self):
        self.stack: list[list] = []  # frames: [start, child intervals, span id, op id, depth]
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.extra: dict[str, float] = {}  # counters filled by result hooks
        self.spans: list[tuple] = []
        self.dropped = 0


def _close(
    state: _ThreadState, name: str, frame: list, parent: list | None, end: float
) -> None:
    """Account a finished span to its thread's totals and its parent."""
    start, children, span_id, op_id, depth = frame
    duration = end - start
    totals = state.totals.get(name)
    if totals is None:
        totals = state.totals[name] = [0, 0.0, 0.0]
    totals[0] += 1
    totals[1] += duration
    totals[2] += duration - covered_length(children) if children else duration
    if parent is not None:
        parent[1].append((start, end))  # list.append is atomic across threads
    if depth <= SPAN_DEPTH and len(state.spans) < SPAN_CAP:
        state.spans.append((op_id, span_id, parent[2] if parent else 0, name, start, end))
    else:
        state.dropped += 1


class Tracer:
    """Wraps the package's public functions while installed.

    ``hooks`` maps a span name to ``hook(counters, result)``, called after
    each successful call so counts can be taken from what a layer returned.
    """

    def __init__(self, hooks: dict[str, Callable[[dict, object], None]] | None = None):
        self.hooks = hooks or {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.removeprefix(PACKAGE + ".")
            for name, obj in vars(module).items():
                key = f"{short}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and key not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(obj, key)
        executor = self._executor_class()
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
                elif obj is ThreadPoolExecutor:
                    self._patch(module, name, executor)

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, module, name: str, value) -> None:
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _wrap(self, fn: Callable, name: str) -> Callable:
        hook = self.hooks.get(name)
        local = self._local
        new_state = self._state
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [
                0.0, [], next(ids),
                parent[3] if parent else 0, parent[4] + 1 if parent else 0,
            ]
            stack.append(frame)
            frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                _close(state, name, frame, parent, end)
            if hook is not None:
                hook(state.extra, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; spans inside share ``op_id``."""
        state = self._state()
        frame = [0.0, [], next(self._ids), op_id, 0]
        state.stack.append(frame)
        frame[0] = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            state.stack.pop()
            _close(state, "bench.op", frame, None, end)

    def _executor_class(self) -> type:
        tracer = self

        def adopt(parent, fn, *args, **kwargs):
            if parent is None:
                return fn(*args, **kwargs)
            stack = tracer._state().stack
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._state().stack
                parent = stack[-1] if stack else None
                return super().submit(adopt, parent, fn, *args, **kwargs)

        return TracedExecutor

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds), all threads."""
        merged: dict[str, list] = {}
        for state in self._states:
            for name, (calls, incl, own) in state.totals.items():
                m = merged.setdefault(name, [0, 0.0, 0.0])
                m[0] += calls
                m[1] += incl
                m[2] += own
        return {name: tuple(v) for name, v in merged.items()}

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for state in self._states:
            for name, value in state.extra.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def write_spans(self, path: Path) -> int:
        """Write every kept span as JSON; returns the number kept."""
        spans = sorted(s for state in self._states for s in state.spans)
        names = sorted({s[3] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["op", "span", "parent", "name", "start_s", "end_s"],
            "names": names,
            "dropped": sum(state.dropped for state in self._states),
            "spans": [[o, s, p, index[n], a, b] for o, s, p, n, a, b in spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
        return len(spans)
