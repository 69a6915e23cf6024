"""Command-line front end: simulate, verify, transform.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import ConfigError, parse_config
from .contact import ConvergenceError, Generator, legendre_transform
from .dynamics import run_scenario
from .snapshots import write_snapshot
from .timeseries import write_timeseries
from .verify import SUITES, format_results, run_suites


def _cmd_simulate(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        for lineno, msg in exc.errors:
            print(f"{args.config}:{lineno}: {msg}", file=sys.stderr)
        return 1

    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if args.print_config:
        sys.stdout.write(cfg.to_text())
        return 0

    mesh = cfg.build_mesh()
    medium = cfg.build_medium(mesh)
    scheme = cfg.build_scheme(mesh, medium)
    initial = cfg.build_initial(mesh, medium, scheme)

    os.makedirs(cfg.out_dir, exist_ok=True)
    sinks = []
    if cfg.snapshot_stride > 0:
        def snapshot_sink(state, step, _dir=cfg.out_dir,
                          _stride=cfg.snapshot_stride):
            if step % _stride == 0:
                write_snapshot(state, os.path.join(_dir, f"snapshot_{step:06d}.cmx"))
        sinks.append(snapshot_sink)

    _, reports = run_scenario(initial, medium, scheme, sinks=sinks)
    ts_path = os.path.join(cfg.out_dir, "timeseries.csv")
    write_timeseries(reports, ts_path)
    last = reports[-1]
    print(f"{scheme.steps} steps on {'x'.join(map(str, cfg.dims))}, "
          f"dt={scheme.dt:.6g} (cfl={scheme.cfl:.3g})")
    print(f"psi_total={last.psi_total!r} div_D_max={last.div_D_max:.3e} "
          f"poynting_residual={last.poynting_balance_residual:.3e}")
    print(f"time series written to {ts_path}")
    return 0


def _cmd_verify(args):
    try:
        results = run_suites(args.suite, seed=args.seed)
    except KeyError:
        print(f"unknown suite {args.suite!r}; choose from: "
              f"{', '.join([*SUITES, 'all'])}", file=sys.stderr)
        return 2
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_transform(args):
    coeffs = np.asarray(args.psi_quadratic, dtype=float)
    p = np.asarray(args.p, dtype=float)
    if np.any(coeffs <= 0):
        print("quadratic coefficients must be positive for a convex transform",
              file=sys.stderr)
        return 1
    gen = Generator.quadratic(np.diag(coeffs))
    try:
        value, argmax = legendre_transform(gen, p)
    except ConvergenceError as exc:
        print(f"transform failed: {exc}", file=sys.stderr)
        return 1
    print(f"value = {float(value)!r}")
    print("argmax =", " ".join(repr(float(v)) for v in argmax))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmx",
        description="Staggered-grid Maxwell evolution with contact-geometric "
                    "diagnostics, plus its verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured scenario")
    sim.add_argument("--config", required=True, help="path to a key = value config file")
    sim.add_argument("--out", default=None, help="override the output directory")
    sim.add_argument("--print-config", action="store_true",
                     help="echo the effective configuration and exit")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", help="one of: " + ", ".join([*SUITES, "all"]))
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    tra = sub.add_parser(
        "transform",
        help="total Legendre transform of a diagonal quadratic at a point")
    tra.add_argument("--psi-quadratic", nargs=6, type=float, required=True,
                     metavar="C", help="diagonal Hessian coefficients")
    tra.add_argument("--p", nargs=6, type=float, required=True, metavar="P",
                     help="dual point at which to evaluate")
    tra.set_defaults(func=_cmd_transform)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 -- map any runtime failure to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
