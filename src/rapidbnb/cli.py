"""Command line front end: solve one MPS instance, report text or JSON.

Exit codes: 0 on any completed solve (infeasible is an answer), 1 when
the solve fails (unbounded relaxation, numerical breakdown, a propagator
that does not converge), 2 when the input file cannot be parsed or an
output file (`--emit-events`, `--solution-out`) cannot be opened, 3 when
the configuration is rejected.  Both output files are opened, and
truncated, before the solve starts, so an unwritable path fails at once;
they stay empty when the solve fails, and the solution file also when
no solution was found.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack

import numpy as np

from .mipsearch import ConfigError, MipConfig, SolveError, solve
from .model import ModelError, fmt_g
from .mps import MpsParseError, parse_mps
from .propagation import PropagationCycleError
from .rapid import RapidConfig


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rapidbnb",
        description="branch-and-bound IP solver with a learning CP probe")
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("solve", help="solve one MPS instance")
    s.add_argument("path", help="MPS file (fixed or free format)")
    s.add_argument("--rapid", choices=("off", "root", "local"), default="off",
                   help="where the CP probe may fire (default: off)")
    s.add_argument("--criteria", default="degeneracy", metavar="LIST",
                   help="comma list of trigger criteria (default: degeneracy)")
    s.add_argument("--freq-f", type=int, default=5, metavar="F",
                   help="first probe depth below the root (default: 5)")
    s.add_argument("--freq-beta", type=float, default=4.0, metavar="B",
                   help="depth schedule base, finite and > 1 (default: 4)")
    s.add_argument("--max-conflicts", type=int, default=10, metavar="K",
                   help="probe conflicts transferred per call (default: 10)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--node-limit", type=int, default=None, metavar="N")
    s.add_argument("--time-limit", type=float, default=3600.0, metavar="SEC")
    s.add_argument("--emit-events", default=None, metavar="PATH",
                   help="write the line-delimited event log here")
    s.add_argument("--json", action="store_true",
                   help="print one JSON object instead of text")
    s.add_argument("--solution-out", default=None, metavar="PATH",
                   help="write the incumbent as '<var> <value>' lines")
    return p


def _finite_or_none(x: float | None) -> float | None:
    return x if x is not None and math.isfinite(x) else None


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        instance, diags = parse_mps(args.path)
    except (MpsParseError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for w in diags.warnings:
        print(f"warning: {w}", file=sys.stderr)

    try:
        criteria = frozenset(s for s in args.criteria.split(",") if s)
        config = MipConfig(
            node_limit=args.node_limit, time_limit=args.time_limit,
            seed=args.seed, rapid_mode=args.rapid,
            rapid=RapidConfig(criteria=criteria, f=args.freq_f,
                              beta=args.freq_beta,
                              max_transferred_conflicts=args.max_conflicts))
        config.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    with ExitStack() as outputs:
        try:
            events_fh, solution_fh = (
                outputs.enter_context(open(path, "w")) if path else None
                for path in (args.emit_events, args.solution_out))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            result = solve(instance, config)
        except (SolveError, ArithmeticError, np.linalg.LinAlgError,
                PropagationCycleError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if events_fh is not None:
            events_fh.write("\n".join(result.events) + "\n")
        if solution_fh is not None and result.solution is not None:
            for name, val in zip(instance.var_names, result.solution):
                solution_fh.write(f"{name} {fmt_g(val)}\n")

    if args.json:
        payload = {
            "status": result.status,
            "objective": _finite_or_none(result.objective),
            "dual_bound": _finite_or_none(result.dual_bound),
            "nodes": result.nodes,
            "rl_calls": result.rl_calls,
            "criterion_counts": result.criterion_counts,
            "wall_seconds": result.wall_seconds,
            "seed": result.seed,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        obj = fmt_g(result.objective) if result.objective is not None else "-"
        print(f"status     {result.status}")
        print(f"objective  {obj}")
        print(f"dual bound {fmt_g(result.dual_bound)}")
        print(f"nodes      {result.nodes}")
        print(f"time       {result.wall_seconds:.3f}s")
        print(f"rl calls   {result.rl_calls}")
        tallies = " ".join(f"{k}={v}" for k, v in
                           sorted(result.criterion_counts.items()))
        print(f"criteria   {tallies}")
    return 0


def main(argv: list[str] | None = None) -> int:
    # the parser requires a command, and "solve" is the only one
    return cmd_solve(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
