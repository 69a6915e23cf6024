"""Span tracing for the benchmark's traced runs.

`install` wraps, at run time, every module binding of each traced public
function of cmx, so a call is caught whichever module makes it: both
``cmx.dec.exterior_derivative`` and the ``cmx.dynamics`` binding of it
are replaced.  Spans and counters stay in memory; `layer_metrics` turns
them into the per-layer metrics and `write_spans` saves them when the run
ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import statistics
import sys
import time

from cmx import (config, contact, dec, dynamics, fiber, infogeo, scenarios,
                 snapshots, timeseries)

__all__ = ["Tracer", "install", "layer_metrics", "self_time_shares", "write_spans"]


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self._open = []

    def _enter(self, name):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def wrap(self, fn, name, count=None):
        """``fn`` recording one span per call.

        ``name`` is a span name or a callable of the call's arguments that
        returns one; ``count(counters, args, result)`` runs after the span
        closes, so its cost lands in the caller's self time.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced


def _d_name(alpha):
    return "dec.d_dual" if alpha.dual else "dec.d_primal"


def _count_d(counters, args, out):
    alpha = args[0]
    counters["dec.d.cells"] += alpha.data.size // alpha.ncomp
    counters["dec.d.bytes"] += alpha.data.nbytes + out.data.nbytes


def _count_step(counters, args, out):
    counters["dynamics.step.cells"] += out.energy.data.size


def _count_file(key, path_arg):
    def count(counters, args, _):
        counters[key] += os.path.getsize(args[path_arg])
    return count


def _count_rows_written(counters, args, _):
    counters["timeseries.write.rows"] += len(args[0])


def _count_rows_read(counters, _, rows):
    counters["timeseries.read.rows"] += len(rows)


# (module, public function, span name, counter)
_FUNCTIONS = (
    (dec, "exterior_derivative", _d_name, _count_d),
    (dec, "wedge", "dec.wedge", None),
    (dec, "resample", "dec.resample", None),
    (fiber, "energy_density", "fiber.energy_density", None),
    (fiber, "phase_residuals", "fiber.phase_residuals", None),
    (fiber, "intensity_from_induction", "fiber.constitutive", None),
    (fiber, "induction_from_intensity", "fiber.constitutive", None),
    (fiber, "contact_hamiltonian_density", "fiber.hamiltonian_density", None),
    (fiber, "coenergy_density", "fiber.coenergy_density", None),
    (dynamics, "step_induction", "dynamics.step", _count_step),
    (dynamics, "step_intensity", "dynamics.step", _count_step),
    (dynamics, "poynting_report", "dynamics.report", None),
    (dynamics, "run_scenario", "dynamics.run_scenario", None),
    (snapshots, "write_snapshot", "snapshots.write", _count_file("snapshots.write.bytes", 1)),
    (snapshots, "read_snapshot", "snapshots.read", _count_file("snapshots.read.bytes", 0)),
    (timeseries, "write_timeseries", "timeseries.write", _count_rows_written),
    (timeseries, "read_timeseries", "timeseries.read", _count_rows_read),
    (config, "parse_config", "config.parse", None),
    (scenarios, "medium_from_preset", "scenarios.medium", None),
    (scenarios, "initial_from_preset", "scenarios.initial", None),
    (contact, "integrate_flow", "contact.integrate_flow", None),
    (contact, "legendre_transform", "contact.legendre_transform", None),
    (contact, "contact_hamiltonian_field", "contact.hamiltonian_field", None),
    (contact, "restricted_field", "contact.restricted_field", None),
    (infogeo, "pythagoras_check", "infogeo.pythagoras", None),
    (infogeo, "alpha_connection", "infogeo.alpha_connection", None),
)

# (class, method, span name): FormField temporaries and fiber-point construction
_METHODS = (
    (dec.FormField, "__add__", "dec.arith"),
    (dec.FormField, "__sub__", "dec.arith"),
    (dec.FormField, "__mul__", "dec.arith"),
    (dec.FormField, "__rmul__", "dec.arith"),
    (dec.FormField, "__neg__", "dec.arith"),
    (infogeo.FiberPoint, "__init__", "infogeo.fiber_point"),
)


def install(tracer):
    """Replace every cmx binding of the traced functions and methods."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "cmx" or n.startswith("cmx.")]
    for module, attr, name, count in _FUNCTIONS:
        original = getattr(module, attr)
        traced = tracer.wrap(original, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    for cls, attr, name in _METHODS:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))


def _ratio(a, b):
    return a / b if b else 0.0


def _aggregate(spans):
    """Per span name: calls, self time, durations, and calls made inside a report."""
    child = [0.0] * len(spans)
    in_report = [False] * len(spans)
    for i, (_, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            in_report[i] = in_report[parent] or spans[parent][0] == "dynamics.report"
    calls = collections.Counter()
    self_s = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    per_report = collections.Counter()
    for i, (name, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
        durations[name].append(t1 - t0)
        per_report[name] += in_report[i]
    return calls, self_s, durations, per_report


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by name (units in BENCHMARK.json)."""
    calls, self_s, durations, per_report = _aggregate(tracer.spans)
    c = tracer.counters

    def total(name):
        return sum(durations[name])

    def median_ms(name):
        return statistics.median(durations[name]) * 1e3 if durations[name] else 0.0

    d_calls = calls["dec.d_primal"] + calls["dec.d_dual"]
    d_self = self_s["dec.d_primal"] + self_s["dec.d_dual"]
    m = {}
    for name in ("dec.d_primal", "dec.d_dual", "dec.wedge", "dec.resample", "dec.arith",
                 "fiber.energy_density", "fiber.constitutive", "dynamics.step",
                 "contact.integrate_flow", "contact.legendre_transform",
                 "infogeo.fiber_point"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["dec.d.ns_per_cell"] = _ratio(d_self, c["dec.d.cells"]) * 1e9
    m["dec.d.bytes_min"] = _ratio(c["dec.d.bytes"], d_calls)
    m["dec.d.gb_per_s"] = _ratio(c["dec.d.bytes"], d_self) / 1e9
    for name in ("fiber.energy_density", "fiber.phase_residuals"):
        m[f"{name}.per_report"] = _ratio(per_report[name], calls["dynamics.report"])
    for name in ("fiber.hamiltonian_density", "fiber.coenergy_density",
                 "dynamics.run_scenario", "contact.hamiltonian_field",
                 "contact.restricted_field", "infogeo.pythagoras",
                 "infogeo.alpha_connection"):
        m[f"{name}.self_s"] = self_s[name]
    m["dynamics.step.ms_p50"] = median_ms("dynamics.step")
    m["dynamics.step.ns_per_cell"] = _ratio(total("dynamics.step"),
                                            c["dynamics.step.cells"]) * 1e9
    m["dynamics.report.calls"] = calls["dynamics.report"]
    m["dynamics.report.ms_p50"] = median_ms("dynamics.report")
    m["dynamics.report_over_step"] = _ratio(m["dynamics.report.ms_p50"],
                                            m["dynamics.step.ms_p50"])
    for kind in ("write", "read"):
        name = f"snapshots.{kind}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.bytes"] = c[f"{name}.bytes"]
        m[f"{name}.mb_per_s"] = _ratio(c[f"{name}.bytes"], total(name)) / 1e6
        m[f"timeseries.{kind}.rows"] = c[f"timeseries.{kind}.rows"]
        m[f"timeseries.{kind}.s"] = total(f"timeseries.{kind}")
    for name in ("config.parse", "scenarios.medium", "scenarios.initial"):
        m[f"{name}.s"] = _ratio(total(name), calls[name])
    for suite in ("contact", "dec", "fiber", "infogeo", "io_checks"):
        m[f"verify.{suite}.s"] = total(f"verify.{suite}")
    return m


def self_time_shares(tracer, wall_s):
    """Share of a pass's wall time spent in each layer's own code."""
    _, self_s, _, _ = _aggregate(tracer.spans)
    shares = collections.defaultdict(float)
    for name, seconds in self_s.items():
        shares[name.split(".")[0]] += seconds / wall_s
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def write_spans(tracer, path):
    """Save the spans as CSV: index, name, start, end, parent index."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,name,start,end,parent\n")
        for i, (name, t0, t1, parent) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")
