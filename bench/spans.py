"""Spans around the program's layer functions, recorded from outside.

``photon_work.cli`` and ``photon_work.analysis`` call every layer through
module attributes, so replacing those attributes with timing wrappers
traces a run without editing the program.  A span records its name,
start, end, parent span and thread.  The current span lives in a
context variable, and the analysis thread pool is swapped for one that
runs each task in a copy of the submitting context, so spans opened in
worker threads attach to the ``detuning_scan`` span that queued them.

Spans stay in memory; :func:`layer_metrics` reduces one traced run to
the per-layer metrics.  A layer's self time is its span minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    samples: int  # time-grid samples the call handled
    work: int  # layer-specific work count (RK4 steps, mode steps)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_out(args, out):
    return out.n, 0


def _traj_out(args, out):
    return out.grid.n, 0


def _traj_arg(args, out):
    return args[0].grid.n, 0


def _bloch(args, out):
    return out.grid.n, out.grid.n - 1


def _oracle(args, out):
    return out.grid.n, (out.grid.n - 1) * out.mode_grid.n_modes


# (module, attribute, span name, counter of samples and work)
LAYERS = (
    ("cli", "run", "cli.run", None),
    ("cli", "full_cycle_grid", "dynamics.full_cycle_grid", _grid_out),
    ("analysis", "full_cycle_grid", "dynamics.full_cycle_grid", _grid_out),
    ("cli", "closed_form_trajectory", "dynamics.closed_form_trajectory", _traj_out),
    ("analysis", "closed_form_trajectory", "dynamics.closed_form_trajectory", _traj_out),
    ("cli", "closed_form_psi", "dynamics.closed_form_psi", None),
    ("cli", "effective_trajectory", "effective.effective_trajectory", None),
    ("cli", "thermo_report", "thermo.thermo_report", _traj_arg),
    ("analysis", "thermo_report", "thermo.thermo_report", _traj_arg),
    ("cli", "detuning_scan", "analysis.detuning_scan", None),
    ("cli", "compare_equivalences", "analysis.compare_equivalences", None),
    ("analysis", "integrate_bloch", "semiclassical.integrate_bloch", _bloch),
    (
        "analysis",
        "work_total_and_decomposition",
        "semiclassical.work_total_and_decomposition",
        None,
    ),
    ("cli", "init_single_photon", "oracle.init_single_photon", None),
    ("cli", "propagate", "oracle.propagate", _oracle),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))
SELF_TIMES = ("cli.run", "analysis.detuning_scan", "analysis.compare_equivalences")

# Per-layer metric names and units, in print order.
PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.s"] = "s"
    PER_LAYER[f"{_name}.calls"] = "count"
for _name in SELF_TIMES:
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update(
    {
        "cli.rows_written": "count",
        "cli.bytes_written": "B",
        "cli.rows_per_s": "1/s",
        "semiclassical.steps_per_s": "1/s",
        "oracle.mode_steps_per_s": "1/s",
        "thermo.samples_per_s": "1/s",
        "grid.samples": "count",
        "analysis.pool_busy": "ratio",
        "analysis.threads": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
    }
)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=0)

    def wrap(self, name: str, fn, counter=None):
        current = self._current
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
            samples, work = counter(args, out) if counter else (0, 0)
            spans.append(
                Span(sid, parent, name, start, end, threading.get_ident(), samples, work)
            )
            return out

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every layer attribute that exists; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, name, counter in LAYERS:
                mod = modules[mod_name]
                if hasattr(mod, attr):
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self.wrap(name, getattr(mod, attr), counter))
            pool_owner = modules["analysis"]
            if hasattr(pool_owner, "ThreadPoolExecutor"):
                saved.append((pool_owner, "ThreadPoolExecutor", pool_owner.ThreadPoolExecutor))
                pool_owner.ThreadPoolExecutor = _ContextPool
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans, rows: int, nbytes: int) -> dict:
    """Per-layer metrics of one traced run (without the trace.* ones)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def total(name, field="duration"):
        return sum(getattr(s, field) for s in spans if s.name == name)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = sum(
            s.duration
            - _covered(s.start, s.end, [(c.start, c.end) for c in children.get(s.sid, ())])
            for s in spans
            if s.name == name
        )
    out["cli.rows_written"] = rows
    out["cli.bytes_written"] = nbytes
    out["cli.rows_per_s"] = rate(rows, out["cli.run.self_s"])
    out["semiclassical.steps_per_s"] = rate(
        total("semiclassical.integrate_bloch", "work"), out["semiclassical.integrate_bloch.s"]
    )
    out["oracle.mode_steps_per_s"] = rate(
        total("oracle.propagate", "work"), out["oracle.propagate.s"]
    )
    out["thermo.samples_per_s"] = rate(
        total("thermo.thermo_report", "samples"), out["thermo.thermo_report.s"]
    )
    out["grid.samples"] = total("dynamics.full_cycle_grid", "samples") + total(
        "oracle.propagate", "samples"
    )

    scans = [s for s in spans if s.name == "analysis.detuning_scan"]
    busy = 0.0
    capacity = 0.0
    threads = set()
    for scan in scans:
        kids = children.get(scan.sid, ())
        scan_threads = {c.thread for c in kids}
        threads |= scan_threads
        busy += sum(c.duration for c in kids)
        capacity += scan.duration * max(len(scan_threads), 1)
    out["analysis.pool_busy"] = busy / capacity if capacity > 0 else 0.0
    out["analysis.threads"] = len(threads)
    return out
