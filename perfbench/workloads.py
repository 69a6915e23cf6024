"""The benchmark's workloads and the loop that measures them.

A simulate workload repeats what ``cmx simulate`` does, through public
calls only: parse the config; build the mesh, medium, scheme and initial
state; run the scenario with a timing sink (plus the CLI's snapshot sink
where the config asks for snapshots); write the CSV.  It then reads back
what it wrote and checks it.  ``verify_quick`` runs the quick verification
suites over consecutive seeds, each followed by a small simulate run.

A run repeats its workload's unit of work ("rep") until ``--seconds``
have passed and reports medians over the reps.  A traced run does a fixed
number of reps untraced and then the same reps traced, so its call counts
repeat exactly and the difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import json
import os
import resource
import statistics
import time

import numpy as np

from cmx import config, dynamics, fiber, snapshots, timeseries, verify

import machine
import tracing

_AXIS_PAIRS = [(a, p) for a in (1, 2, 3) for p in (1, 2, 3) if a != p]

# The verify_quick suites; suite_dynamics is left out (20 s, covered by the
# simulate workloads, and it holds criterion 08, which fails by design).
_SUITES = ("contact", "dec", "fiber", "infogeo")


def _axis_pair(seed):
    """(propagation axis, polarization axis), 1-based, chosen by the seed."""
    return _AXIS_PAIRS[int(np.random.default_rng(seed).integers(len(_AXIS_PAIRS)))]


def slab_config(seed):
    centre = 16.0 + 32.0 * float(np.random.default_rng(seed).random())
    return ("grid.dims = 64 64 64\n"
            "medium.preset = sech_slab 2.0 8.0 1.0\n"
            f"initial.preset = gaussian_pulse {centre!r} 4.0 1.0\n"
            "scheme.orientation = DB\n"
            "scheme.cfl = 0.5\n"
            "scheme.steps = 50\n"
            "scheme.cadence = 25\n")


def eh_config(seed):
    axis, pol = _axis_pair(seed)
    return ("grid.dims = 32 32 32\n"
            "medium.preset = uniform 2.0 3.0\n"
            f"initial.preset = plane_wave {axis} 16.0 {pol} 1.0\n"
            "scheme.orientation = EH\n"
            "scheme.cfl = 0.5\n"
            "scheme.steps = 100\n"
            "scheme.cadence = 1\n")


def archive_config(seed):
    axis, pol = _axis_pair(seed)
    return ("grid.dims = 48 48 48\n"
            "medium.preset = vacuum\n"
            f"initial.preset = plane_wave {axis} 16.0 {pol} 1.0\n"
            "scheme.orientation = DB\n"
            "scheme.cfl = 0.5\n"
            "scheme.steps = 16\n"
            "scheme.cadence = 2\n"
            "outputs.snapshot_stride = 2\n")


def smoke_config(seed):
    """The small simulate run that follows each verify_quick seed's suites."""
    axis, pol = _axis_pair(seed)
    return ("grid.dims = 16 16 16\n"
            "medium.preset = uniform 2.0 3.0\n"
            f"initial.preset = plane_wave {axis} 16.0 {pol} 1.0\n"
            "scheme.orientation = DB\n"
            "scheme.cfl = 0.5\n"
            "scheme.steps = 32\n"
            "scheme.cadence = 1\n")


@dataclasses.dataclass
class Tally:
    """Operations checked and failed, plus the counts the traced run reports."""

    attempted: int = 0
    failed: int = 0
    format_errors: int = 0
    checks: int = 0
    checks_failed: int = 0

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok
        return ok

    def add(self, other):
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))


class DigestStore:
    """Output digests by (cmx sources, numpy version, config text).

    Every simulate run is compared with every earlier run of the same
    config, in this process and in earlier ones, so the same workload and
    seed must give byte-identical outputs.
    """

    def __init__(self, path, source_sha):
        self.path = path
        self._prefix = f"{source_sha}\n{np.__version__}\n"
        try:
            with open(path, encoding="utf-8") as fh:
                self._known = json.load(fh)
        except FileNotFoundError:
            self._known = {}

    def agrees(self, config_text, digest):
        key = hashlib.sha256((self._prefix + config_text).encode()).hexdigest()
        return self._known.setdefault(key, digest) == digest

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


@dataclasses.dataclass
class Context:
    workdir: str
    digests: DigestStore
    span: object = lambda name: contextlib.nullcontext()


@dataclasses.dataclass
class Rep:
    """Timings of one unit of work; ``checks`` per ``checks_s`` gives checks_per_s."""

    setup_s: float
    run_s: float
    cell_steps: int
    intervals: list
    readback_s: float
    checks: int
    checks_s: float
    digest: dict


def _sha256_files(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _reported_steps(scheme):
    """The step index of each report row, as ``run_scenario`` emits them."""
    return [0] + [k for k in range(1, scheme.steps + 1)
                  if k % scheme.cadence == 0 or k == scheme.steps]


def simulate(text, ctx, tally):
    """One ``cmx simulate`` run of a config text, checked and read back."""
    t0 = time.perf_counter()
    cfg = dataclasses.replace(config.parse_config(text), out_dir=ctx.workdir)
    mesh = cfg.build_mesh()
    medium = cfg.build_medium(mesh)
    scheme = cfg.build_scheme(mesh, medium)
    initial = cfg.build_initial(mesh, medium, scheme)
    setup_s = time.perf_counter() - t0

    ticks = []
    sinks = [lambda state, step: ticks.append(time.perf_counter())]
    if cfg.snapshot_stride > 0:
        def snapshot_sink(state, step, _dir=cfg.out_dir, _stride=cfg.snapshot_stride):
            if step % _stride == 0:
                snapshots.write_snapshot(
                    state, os.path.join(_dir, f"snapshot_{step:06d}.cmx"))
        sinks.append(snapshot_sink)
    t0 = time.perf_counter()
    _, reports = dynamics.run_scenario(initial, medium, scheme, sinks=sinks)
    run_s = time.perf_counter() - t0
    ts_path = os.path.join(cfg.out_dir, "timeseries.csv")
    timeseries.write_timeseries(reports, ts_path)

    # gate: the bounds cmx.verify applies to the same quantities
    div_bound = 1e-12 * initial.field_scale() / mesh.spacing
    ham_bound = (1e-10 * reports[0].psi_total
                 if cfg.initial_preset[0] == "plane_wave" else np.inf)
    for row in reports:
        tally.op(row.div_D_max <= div_bound and row.div_B_max <= div_bound
                 and abs(row.hamiltonian_functional) <= ham_bound)

    steps = _reported_steps(scheme)
    snapshot_paths = sorted(glob.glob(os.path.join(cfg.out_dir, "snapshot_*.cmx")))
    t0 = time.perf_counter()
    back = timeseries.read_timeseries(ts_path)
    for i, row in enumerate(reports):
        tally.op(i < len(back) and back[i] == row)
    for path in snapshot_paths:
        step = int(os.path.basename(path)[len("snapshot_"):-len(".cmx")])
        row = back[steps.index(step)]
        try:
            state = snapshots.read_snapshot(path)
        except snapshots.SnapshotFormatError:
            tally.format_errors += 1
            tally.op(False)
            continue
        psi = fiber.functional(fiber.energy_density(state.D, state.B, medium))
        tally.op(psi == row.psi_total and state.time == row.time)
    readback_s = time.perf_counter() - t0

    digest = {"timeseries.csv": _sha256_files([ts_path]),
              "snapshots": _sha256_files(snapshot_paths) if snapshot_paths else None}
    tally.op(ctx.digests.agrees(text, digest))
    for path in snapshot_paths:
        os.remove(path)
    return Rep(setup_s=setup_s, run_s=run_s,
               cell_steps=int(np.prod(cfg.dims)) * scheme.steps,
               intervals=np.diff(ticks).tolist(), readback_s=readback_s,
               checks=len(reports), checks_s=run_s, digest=digest)


def verify_seed(seed, ctx, tally):
    """The quick suites at one seed, then the small simulate run at that seed."""
    checks_s = 0.0
    results = []
    for name in (*_SUITES, "io_checks"):
        t0 = time.perf_counter()
        with ctx.span(f"verify.{name}"):
            if name == "io_checks":
                results += verify.io_checks(seed)
            else:
                results += verify.run_suites(name, seed=seed)
        checks_s += time.perf_counter() - t0
    for result in results:
        tally.checks += 1
        tally.checks_failed += not tally.op(result.passed)
    rep = simulate(smoke_config(seed), ctx, tally)
    return dataclasses.replace(rep, checks=len(results), checks_s=checks_s)


@dataclasses.dataclass(frozen=True)
class Workload:
    """``rep(seed, index, ctx, tally)`` does one unit of work; ``dims`` is its largest mesh."""

    rep: object
    dims: tuple
    trace_reps: int


def _simulate_workload(config_of):
    return lambda seed, index, ctx, tally: simulate(config_of(seed), ctx, tally)


WORKLOADS = {
    "db_slab_64": Workload(_simulate_workload(slab_config), (64, 64, 64), 2),
    "eh_report_32": Workload(_simulate_workload(eh_config), (32, 32, 32), 3),
    "db_archive_48": Workload(_simulate_workload(archive_config), (48, 48, 48), 4),
    "verify_quick": Workload(
        lambda seed, index, ctx, tally: verify_seed(seed + index, ctx, tally),
        (16, 16, 16), 4),
}


def _repeat(workload, seed, ctx, tally, count=None, seconds=None):
    """Reps until ``count`` are done, or (at least one) until ``seconds`` pass.

    Returns the reps and the wall time of each.
    """
    reps, walls = [], []
    start = time.perf_counter()
    while (len(reps) < count if count is not None
           else not reps or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        reps.append(workload.rep(seed, len(reps), ctx, tally))
        walls.append(time.perf_counter() - t0)
    return reps, walls


TAIL_BLOCK = 100


def tail(intervals):
    """(value, percentile, n) of the interval tail.

    The intervals, in run order, are cut into blocks of 100; each block's
    tail is its 90th percentile, the highest with ten intervals beyond it,
    and the run reports the median over blocks.  A fixed block keeps the
    percentile the same however many intervals a faster or slower run
    fits in.  Below one block there is no tail and the median stands in.
    """
    blocks = [sorted(intervals[i:i + TAIL_BLOCK])[-11]
              for i in range(0, len(intervals) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    if not blocks:
        return statistics.median(intervals), 50.0, len(intervals)
    return statistics.median(blocks), 90.0, len(blocks) * TAIL_BLOCK


def end_to_end(reps):
    """End-to-end metrics of a run's reps.

    Rates are totals over the run (all work over all time) and read-back is
    the mean over reps: on a shared machine whose speed drifts for seconds
    at a time, per-rep medians flip between a fast and a slow mode.
    """
    intervals = [x for rep in reps for x in rep.intervals]
    tail_s, pct, n = tail(intervals)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "cell_steps_per_s": sum(r.cell_steps for r in reps) / sum(r.run_s for r in reps),
        "interval_ms.p50": statistics.median(intervals) * 1e3,
        "interval_ms.tail": tail_s * 1e3,
        "readback_s": statistics.fmean(r.readback_s for r in reps),
        "checks_per_s": sum(r.checks for r in reps) / sum(r.checks_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"interval_ms.tail": f"p{pct:g} of {n} intervals",
                     "reps": len(reps)}


def run(name, seed, seconds, trace, root, src_dir, out_dir):
    """One benchmark run: (metrics by name, Tally, notes to print)."""
    workload = WORKLOADS[name]
    workdir = os.path.join(out_dir, f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir)
    facts = machine.facts(root, src_dir, out_dir, workload.dims)
    ctx = Context(workdir, DigestStore(os.path.join(out_dir, "digests.json"),
                                       facts["source_sha256"]))
    tally = Tally()
    notes = {}
    try:
        if not trace:
            reps, _ = _repeat(workload, seed, ctx, tally, seconds=seconds)
            metrics, notes = end_to_end(reps)
        else:
            # a warm-up rep keeps first-call costs out of the overhead comparison
            workload.rep(seed, 0, ctx, tally)
            reps, untraced = _repeat(workload, seed, ctx, tally, count=workload.trace_reps)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            ctx.span = tracer.span
            traced = Tally()
            _, walls = _repeat(workload, seed, ctx, traced, count=workload.trace_reps)
            overhead_s = statistics.median(t - u for t, u in zip(walls, untraced))
            tally.add(traced)
            metrics = tracing.layer_metrics(tracer)
            metrics.update({
                "snapshots.format_errors": traced.format_errors,
                "verify.checks": traced.checks,
                "verify.checks_failed": traced.checks_failed,
                "trace.overhead_s": overhead_s,
                "trace.overhead_share": overhead_s / statistics.median(untraced),
            })
            notes["self_time_share"] = tracing.self_time_shares(tracer, sum(walls))
            notes["rep_wall_s"] = {"untraced": untraced, "traced": walls}
            spans_path = os.path.join(out_dir, f"spans-{name}-s{seed}.csv")
            tracing.write_spans(tracer, spans_path)
            notes["spans"] = os.path.relpath(spans_path, root)
        facts["numpy_copy_gb_per_s"] = machine.copy_gb_per_s((3, *workload.dims))
        if trace:
            metrics["numpy.copy_gb_per_s"] = facts["numpy_copy_gb_per_s"]
    finally:
        facts["loadavg_end"] = os.getloadavg()
        ctx.digests.save()
        for path in glob.glob(os.path.join(workdir, "*")):
            os.remove(path)
        os.rmdir(workdir)
    notes["digest"] = {"config_seed": seed, **reps[0].digest}
    return metrics, tally, {"facts": facts, **notes}
