"""Spans around the library's public functions, installed from outside it.

``Tracer.install()`` replaces each traced function with a wrapper at the
module attribute its callers look it up through (for example
``bclab.harness.simulate_ensemble``, the name ``run_experiment`` calls),
and wraps the ``bounds`` and ``measures`` methods of every interval family
class.  Nothing under ``src/`` is edited.  Spans stay in memory; the
caller reads ``Tracer.spans`` when the work is done.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

from bclab import harness, intervals, processes

# (module, attribute, span name): every call path of a run and its
# reverify goes through one of these attributes.
TRACED_FUNCTIONS = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "emit_report", "harness.emit_report"),
    (harness, "load_run", "harness.load_run"),
    (harness, "report_from_records", "harness.report_from_records"),
    (harness, "run_digest", "harness.run_digest"),
    (harness, "marginal_measure", "harness.marginal_measure"),
    (harness, "simulate_ensemble", "processes.simulate_ensemble"),
    (harness, "check_f_criteria", "criteria.check_f_criteria"),
    (harness, "lsv_calibration", "processes.lsv_calibration"),
    (processes, "lsv_calibration", "processes.lsv_calibration"),
    (processes, "init_from_uniforms", "processes.init_from_uniforms"),
)
TRACED_METHODS = ("bounds", "measures")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    phase: str
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "run"
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the caller that started it
        return self._owner_stack[-1] if self._owner_stack else None

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, 0.0, self._parent(stack), self.phase,
                        threading.get_ident())
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        for module, attr, name in TRACED_FUNCTIONS:
            self._patch(module, attr, name)
        for cls in vars(intervals).values():
            if isinstance(cls, type) and issubclass(cls, intervals.IntervalFamily):
                for attr in TRACED_METHODS:
                    if attr in vars(cls):
                        self._patch(cls, attr, f"intervals.{attr}")

    def _patch(self, owner, attr, name):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(i, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s.end - s.start) - covered)
        return out

    def totals(self, phases=None) -> tuple[dict, dict]:
        """({name: summed self time}, {name: summed duration}) over phases."""
        self_sum: dict[str, float] = {}
        dur_sum: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if phases is not None and s.phase not in phases:
                continue
            self_sum[s.name] = self_sum.get(s.name, 0.0) + own
            if s.parent is None or self.spans[s.parent].name != s.name:
                dur_sum[s.name] = dur_sum.get(s.name, 0.0) + (s.end - s.start)
        return self_sum, dur_sum
