"""The measuring process: set-up, warm-up, then timed or traced solves.

    python3 perfbench/measure.py --workload NAME --dir DIR --seconds S --trace 0|1

DIR holds the generated `*.mps` files; the result goes to DIR/result.json.
`rapidbnb` must be importable (run.py puts `src` on PYTHONPATH).  The
solver sees only the MPS files.

Timed mode (--trace 0): set-up is timed SETUP_REPS times (import of
`rapidbnb` plus parsing every file, each scaled to the reference speed by
the calibration chunks around it), one untimed warm-up solve runs, then
whole rounds over all instances repeat while another round fits in S
seconds.  Each solve is timed with `time.process_time()` after a
`gc.collect()`, and followed by an untimed calibration chunk; the run's
speed factor is CHUNK_REF_S over the chunks' mean time.

Traced mode (--trace 1): a traced warm-up solve, one pass without
tracing, then one pass with every layer boundary wrapped, each with its
own speed factor.  The two passes must solve identically, and the traced
counts must match the warm-up's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy  # the solver's dependency, loaded before any timing

import workloads
from tracer import Tracer

SETUP_REPS = 7
# CPU seconds one calibration_chunk() takes on the reference machine: a
# shared 2-vCPU VM with Python 3.11.7 and numpy 2.4.6
CHUNK_REF_S = 0.020


def calibration_chunk() -> float:
    """CPU seconds of fixed interpreter and numpy work that shares no
    code with the solver.  On a VM that shares its host, identical solver
    work took up to 45% more CPU time in one run than in another; this
    chunk's time moves with it, so it measures the speed the run got.
    It runs after a gc.collect(), with the last solve's result freed, so
    the heap the solver leaves behind does not weigh on it."""
    gc.collect()
    t0 = time.process_time()
    rows = [[(i * 7 + j) % 13 - 6.0 for j in range(12)] for i in range(40)]
    acc, seen = 0.0, {}
    for _ in range(250):
        for r in rows:
            s = 0.0
            for v in r:
                s += v * 0.5
            key = int(s) % 17
            seen[key] = seen.get(key, 0) + 1
            acc += s
    a = numpy.arange(144, dtype=float).reshape(12, 12) + numpy.eye(12) * 50.0
    for _ in range(600):
        acc += float(numpy.linalg.solve(a, a[0])[0])
    return time.process_time() - t0


def import_rapidbnb():
    """A fresh import of the package: its modules run again."""
    for name in [m for m in sys.modules
                 if m == "rapidbnb" or m.startswith("rapidbnb.")]:
        del sys.modules[name]
    import rapidbnb
    return rapidbnb


def mip_config(rb, name: str):
    w = workloads.WORKLOADS[name]
    rapid = rb.RapidConfig() if w.criteria is None else \
        rb.RapidConfig(criteria=frozenset(w.criteria))
    return rb.MipConfig(rapid_mode=w.rapid_mode, rapid=rapid)


def fingerprint(res) -> dict:
    """What two solves of the same input must agree on exactly."""
    cp_nodes = sum(int(line.rsplit(" ", 1)[1]) for line in res.events
                   if line.startswith("rl "))
    return {"status": res.status, "objective": res.objective,
            "nodes": res.nodes, "lp_iters": res.stats.iter_lp,
            "cp_nodes": cp_nodes,
            "events": hashlib.sha256(
                "\n".join(res.events).encode()).hexdigest()}


def timed_solve(solve, instance, config) -> tuple[dict, object]:
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        res = solve(instance, config)
    except Exception as exc:  # noqa: BLE001 - a failed solve is reported
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        return {"cpu": cpu, "wall": wall, "error": repr(exc)}, None
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    return {"cpu": cpu, "wall": wall, "fp": fingerprint(res)}, res


def answer(res) -> dict:
    return {"status": res.status, "objective": res.objective,
            "solution": None if res.solution is None
            else [float(v) for v in res.solution]}


def run_timed(name: str, paths: list[Path], seconds: float) -> dict:
    import_rapidbnb()           # first import writes bytecode; untimed
    # each repetition is scaled by the chunks on either side of it: set-up
    # is short, and the speed it gets differs from the solves' later on
    setup = []
    before = calibration_chunk()
    for _ in range(SETUP_REPS):
        t0 = time.process_time()
        rb = import_rapidbnb()
        instances = [rb.mps.parse_mps(p)[0] for p in paths]
        elapsed = time.process_time() - t0
        after = calibration_chunk()
        setup.append(elapsed * 2 * CHUNK_REF_S / (before + after))
        before = after
    config = mip_config(rb, name)

    warm, _ = timed_solve(rb.solve, instances[0], config)
    rounds: list[list[dict]] = []
    answers: list[dict | None] = []
    chunks: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        solves = []
        for inst in instances:
            rec, res = timed_solve(rb.solve, inst, config)
            solves.append(rec)
            if not rounds:
                answers.append(None if res is None else answer(res))
            del res
            chunks.append(calibration_chunk())
        rounds.append(solves)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    mismatches = []
    if warm.get("fp") != rounds[0][0].get("fp"):
        mismatches.append(f"{paths[0].name}: warm-up and timed solve differ")
    for r, solves in enumerate(rounds[1:], start=1):
        for path, a, b in zip(paths, rounds[0], solves):
            if a.get("fp") != b.get("fp"):
                mismatches.append(f"{path.name}: round {r} differs from round 0")
    return {"setup_s": setup, "rounds": rounds, "answers": answers,
            "mismatches": mismatches,
            "speed_factor": CHUNK_REF_S / statistics.fmean(chunks)}


def run_traced(name: str, paths: list[Path], out_dir: Path) -> dict:
    rb = import_rapidbnb()
    tracer = Tracer(rb)
    with tracer.installed():
        instances = [rb.mps.parse_mps(p)[0] for p in paths]
    config = mip_config(rb, name)

    warm = Tracer(rb)
    with warm.installed():
        warm.solve(instances[0], config)

    plain, answers, plain_chunks = [], [], []
    for inst in instances:
        rec, res = timed_solve(rb.solve, inst, config)
        plain.append(rec)
        answers.append(None if res is None else answer(res))
        del res
        plain_chunks.append(calibration_chunk())

    traced, mismatches, traced_chunks = [], [], []
    with tracer.installed():
        for i, (path, inst) in enumerate(zip(paths, instances)):
            rec, res = timed_solve(tracer.solve, inst, config)
            del res
            traced_chunks.append(calibration_chunk())
            traced.append(rec)
            if "fp" not in rec:
                continue
            own = tracer.last_counts
            if rec["fp"] != plain[i].get("fp"):
                mismatches.append(f"{path.name}: traced and untraced solves differ")
            if own["lp.node_iters"] + own["lp.sb_iters"] != rec["fp"]["lp_iters"] \
                    or own["cp.nodes"] != rec["fp"]["cp_nodes"]:
                mismatches.append(f"{path.name}: traced counts miss solver work")
            if i == 0 and own != warm.last_counts:
                mismatches.append(f"{path.name}: traced counts differ between "
                                  "the warm-up and the traced pass")
    tracer.write_spans(out_dir / "spans.csv")
    mps_bytes = sum(p.stat().st_size for p in paths)
    return {"rounds": [plain, traced], "answers": answers,
            "mismatches": mismatches, "metrics": tracer.metrics(mps_bytes),
            "layer_self_s": dict(tracer.self_times()),
            "speed_factors": [CHUNK_REF_S / statistics.fmean(c)
                              for c in (plain_chunks, traced_chunks)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    paths = sorted(args.dir.glob("*.mps"))
    if not paths:
        print(f"no MPS files in {args.dir}", file=sys.stderr)
        return 2
    if args.trace:
        out = run_traced(args.workload, paths, args.dir)
    else:
        out = run_timed(args.workload, paths, args.seconds)
    out["instances"] = [p.name for p in paths]
    out["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.dir / "result.json", "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
