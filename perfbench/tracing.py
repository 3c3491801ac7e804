"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every ``subsetcal``
module namespace that holds it, so a caller that looks the name up at call
time goes through the wrapper; ``uninstall`` puts the originals back.  Nothing
under ``src/`` changes.

A span records (id, parent id, command id, thread id, name, start, end,
counts).  Spans stay in memory until the run ends.  Rows that
``runner.parallel_indexed`` runs get a ``runner.row`` span whose parent is the
enclosing ``parallel_indexed`` span, and blocks that ``studies.min_distances``
hands to its own thread pool get the ``min_distances`` span as parent.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (module, function): the layer boundaries the per-layer metrics read.
TRACED = (
    ("runner", "parallel_indexed"),
    ("studies", "run_study"),
    ("studies", "min_distances"),
    ("mismatch", "draw_realized"),
    ("mismatch", "find_best"),
    ("csdac", "sample_dac"),
    ("csdac", "calibrate_amplitude_eses"),
    ("csdac", "linearity"),
    ("csdac", "calibrate_timing"),
    ("csdac", "delay_errors"),
    ("csdac", "duty_errors"),
    ("csdac", "sample_selfheal"),
    ("csdac", "self_heal_ses"),
    ("csdac", "healed_linearity"),
    ("hrmixer", "sample_receiver"),
    ("hrmixer", "calibrate_even_order"),
    ("hrmixer", "calibrate_odd_order"),
    ("hrmixer", "measure_harmonic_power"),
    ("hrmixer", "effective_lo"),
    ("hrmixer", "sweep_hrr"),
    ("waveform", "fourier_coeff"),
    ("reporting", "emit_figure"),
    ("reporting", "emit_json"),
    ("reporting", "write_manifest"),
)


def _self_heal_counts(result) -> dict:
    cells = [cell for attempt in result.trace["attempts"] for cell in attempt["cells"]]
    return {
        "trials": sum(cell["trials"] for cell in cells),
        "restarts": result.trace["toplevel_restarts"],
        "backups_used": sum(len(cell["backups_used"]) for cell in cells),
        "cells_healed": sum(1 for cell in cells if cell["healed"]),
    }


def _cal_counts(result) -> dict:
    steps = result[1].steps
    return {
        "steps": len(steps),
        "committed": sum(1 for s in steps if s.objective_after < s.objective_before),
    }


# Counts read from arguments and results at the boundary.
COUNTS = {
    "studies.run_study": lambda args, result: {"samples": args[0].samples},
    "mismatch.draw_realized": lambda args, result: {"resamples": result[1]},
    "csdac.self_heal_ses": lambda args, result: _self_heal_counts(result),
    "hrmixer.calibrate_even_order": lambda args, result: _cal_counts(result),
    "hrmixer.calibrate_odd_order": lambda args, result: _cal_counts(result),
    "reporting.emit_figure": lambda args, result: {"bytes": os.path.getsize(result[0])},
    "reporting.emit_json": lambda args, result: {"bytes": os.path.getsize(result)},
    "reporting.write_manifest": lambda args, result: {"bytes": os.path.getsize(result)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._commands = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- span stack per thread ------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, command id) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (0, 0)

    def call(self, name, fn, args, kwargs, parent=None, counts=None):
        stack = self._stack()
        parent_id, command = parent if parent is not None else self.current()
        if name == "cli.main":
            command = next(self._commands)
        span_id = next(self._ids)
        stack.append((span_id, command))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        record = [span_id, parent_id, command, threading.get_ident(), name, start, end, None]
        if counts is not None:
            record[7] = counts(args, result)
        self.spans.append(record)
        return result

    # -- installing wrappers --------------------------------------------

    def _wrap(self, name, fn):
        counts = COUNTS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts=counts)

        return traced

    def _wrap_parallel_indexed(self, fn):
        def traced(n, row_fn, threads=1):
            return self.call("runner.parallel_indexed", _rows, (fn, n, row_fn, threads, self), {})

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "subsetcal" or key.startswith("subsetcal.")]
        for module_name, function in TRACED:
            original = getattr(sys.modules[f"subsetcal.{module_name}"], function)
            name = f"{module_name}.{function}"
            if name == "runner.parallel_indexed":
                wrapper = self._wrap_parallel_indexed(original)
            else:
                wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(function) is original:
                    self._installed.append((module, function, original))
                    setattr(module, function, wrapper)
        studies = sys.modules["subsetcal.studies"]
        self._installed.append((studies, "ThreadPoolExecutor", studies.ThreadPoolExecutor))
        studies.ThreadPoolExecutor = _executor_class(self)

    def uninstall(self) -> None:
        while self._installed:
            module, function, original = self._installed.pop()
            setattr(module, function, original)


def _rows(parallel_indexed, n, row_fn, threads, tracer):
    """Run parallel_indexed with a ``runner.row`` span around each row."""
    parent = tracer.current()
    return parallel_indexed(
        n, lambda i: tracer.call("runner.row", row_fn, (i,), {}, parent=parent), threads
    )


def _executor_class(tracer: Tracer):
    class SpanExecutor(ThreadPoolExecutor):
        """Runs each task under the span that submitted it."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task():
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()

            return super().submit(task)

    return SpanExecutor


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_totals(spans: list[list]) -> dict[str, float]:
    """Per function name: calls, total span time, self time and summed counts."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[5], span[6]))
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for span_id, _, _, _, name, start, end, counts in spans:
        add(name + ".calls", 1)
        add(name + ".s", end - start)
        add(name + ".self_s", end - start - _covered(start, end, children.get(span_id, [])))
        for key, value in (counts or {}).items():
            add(f"{name}.{key}", value)
    return totals
