"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports cmx from that checkout's
``src`` directory (never an installed copy), runs one workload on one
fresh single-threaded process, prints each metric by name with its unit,
the operation counts, the output digest and the machine facts, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  Everything it writes
goes under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("db_slab_64", "eh_report_32", "db_archive_48", "verify_quick")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join(SRC, "cmx", "__init__.py")):
        return _fail(f"no cmx sources under {SRC}")

    # single-threaded numpy: the variables must be set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import cmx
    if os.path.dirname(os.path.abspath(cmx.__file__)) != os.path.join(SRC, "cmx"):
        return _fail(f"imported cmx from {cmx.__file__}, not from {SRC}")
    os.makedirs(OUT, exist_ok=True)
    tempfile.tempdir = OUT  # the verification suites' temporary files stay in the checkout
    import workloads

    metrics, tally, notes = workloads.run(args.workload, args.seed, args.seconds,
                                          bool(args.trace), ROOT, SRC, OUT)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        mismatch = {m["name"] for m in declared} ^ set(metrics)
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for m in declared:
        note = notes.get(m["name"])
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(f"ops = {tally.attempted}")
    print(f"ops_failed = {tally.failed}")
    for key in ("reps", "digest", "self_time_share", "rep_wall_s", "spans", "facts"):
        if key in notes:
            print(f"{key}: {json.dumps(notes[key])}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
