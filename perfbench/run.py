"""Solve benchmark for rapidbnb: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Instances are generated and written to
MPS under .perfbench_out/ before anything is timed; measure.py solves
them in a separate process with `src` on its path and one BLAS/OpenMP
thread; check.py then verifies every answer against HiGHS in a third
process.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
Lines before it starting with "# " are a readable report.  Exit code 0
means a result was printed; anything else means the benchmark could not
run (no solver source, a crashed child), and nothing was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402

MEASURE_TIMEOUT = 150   # seconds; a run must end within 180
CHECK_TIMEOUT = 20
FINISHED = ("optimal", "infeasible")


def generate(name: str, seed: int, out_dir: Path) -> None:
    """Write the workload's MPS files and their row lists."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    models = workloads.models(name, seed)
    for m in models:
        (out_dir / f"{m.name}.mps").write_text(gen.write_mps(m))
    (out_dir / "models.json").write_text(
        json.dumps({f"{m.name}.mps": asdict(m) for m in models}))


def run_child(args: list[str], env: dict, timeout: float) -> None:
    proc = subprocess.run([sys.executable, *args], env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(args[0]).name} exited with "
                           f"{proc.returncode}")


def cross_run_check(root: Path, workload: str, seed: int,
                    result: dict) -> tuple[list[str], str]:
    """Compare the first pass's solve records (status, objective, counts,
    event-log hash) with those of an earlier run of the same workload and
    seed on the same solver and benchmark source, timed or traced; the
    first such run stores them.  Returns the mismatches and a report line."""
    h = hashlib.sha256()
    for tree in (root / "src", HERE):
        for f in sorted(tree.rglob("*.py")):
            h.update(f.relative_to(tree).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    store = root / ".perfbench_out" / "fingerprints" / \
        f"{workload}-{seed}-{h.hexdigest()[:16]}.json"
    mine = {inst: s.get("fp")
            for inst, s in zip(result["instances"], result["rounds"][0])}
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(mine, sort_keys=True))
        tmp.replace(store)
        return [], f"first run of this seed and source; records stored in {store.name}"
    earlier = json.loads(store.read_text())
    bad = [f"{inst}: differs from an earlier run of this seed"
           for inst in sorted(set(mine) | set(earlier))
           if mine.get(inst) != earlier.get(inst)]
    return bad, f"{len(mine) - len(bad)} of {len(mine)} solves as in {store.name}"


def end_to_end(result: dict) -> dict:
    """CPU times at the reference machine's speed: solve times scaled by
    the run's speed factor, set-up already scaled by measure.py (see
    measure.calibration_chunk)."""
    from rapidbnb.bench import TIME_SHIFT, shifted_geomean

    rounds, f = result["rounds"], result["speed_factor"]
    per_instance = [f * statistics.median(r[i]["cpu"] for r in rounds)
                    for i in range(len(rounds[0]))]
    return {
        "solve_cpu_sgm_s": (shifted_geomean(per_instance, TIME_SHIFT), "s"),
        "solve_cpu_total_s": (sum(per_instance), "s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }


def report(name: str, seed: int, result: dict, verdicts: dict,
           trace: bool) -> None:
    rounds = result["rounds"]
    cpu = [sum(s["cpu"] for s in r) for r in rounds]
    wall = [sum(s["wall"] for s in r) for r in rounds]
    print(f"# workload {name} seed {seed}: {len(rounds[0])} instances, "
          f"{len(rounds)} passes")
    bad = {k: v for k, v in verdicts.items() if v != "ok"}
    print(f"# HiGHS check: {len(verdicts) - len(bad)} of {len(verdicts)} "
          "instances agree")
    for inst, why in bad.items():
        print(f"#   {inst}: {why}")
    for line in result["mismatches"]:
        print(f"# determinism: {line}")
    print(f"# determinism across runs: {result['cross_run']}")
    if trace:
        f0, f1 = result["speed_factors"]
        print(f"# untraced pass cpu {cpu[0]:.3f} s wall {wall[0]:.3f} s "
              f"speed factor {f0:.4f}; traced pass cpu {cpu[1]:.3f} s "
              f"wall {wall[1]:.3f} s speed factor {f1:.4f}; tracing "
              f"overhead at reference speed {cpu[1] * f1 - cpu[0] * f0:+.3f} s "
              f"({(cpu[1] * f1 / (cpu[0] * f0) - 1) * 100:+.1f}%)")
        layers = result["layer_self_s"]
        total = sum(v for k, v in layers.items() if k != "mps")
        shares = ", ".join(f"{k} {v / total * 100:.1f}%"
                           for k, v in sorted(layers.items(),
                                              key=lambda kv: -kv[1])
                           if k != "mps")
        print(f"# traced self-time shares of solve: {shares}")
    else:
        print("# pass cpu " + " ".join(f"{c:.3f}" for c in cpu)
              + " s; wall " + " ".join(f"{w:.3f}" for w in wall)
              + f" s; speed factor {result['speed_factor']:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rapidbnb" / "__init__.py").is_file():
        print("perfbench: no solver source at src/rapidbnb; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))   # for rapidbnb.bench in end_to_end
    out_dir = root / ".perfbench_out" / f"{args.workload}-{args.seed}-t{args.trace}"
    generate(args.workload, args.seed, out_dir)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(src))
    try:
        run_child([str(HERE / "measure.py"), "--workload", args.workload,
                   "--dir", str(out_dir), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], env, MEASURE_TIMEOUT)
        run_child([str(HERE / "check.py"), str(out_dir)], env, CHECK_TIMEOUT)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads((out_dir / "result.json").read_text())
    verdicts = json.loads((out_dir / "check.json").read_text())
    cross, result["cross_run"] = cross_run_check(root, args.workload,
                                                 args.seed, result)
    result["mismatches"] += cross

    failed = attempted = 0
    for solves in result["rounds"]:
        for inst, s in zip(result["instances"], solves):
            attempted += 1
            ok = verdicts[inst] == "ok" and "fp" in s \
                and s["fp"]["status"] in FINISHED
            failed += not ok
    report(args.workload, args.seed, result, verdicts, bool(args.trace))
    metrics = result["metrics"] if args.trace else end_to_end(result)
    print(json.dumps({
        "correct": not result["mismatches"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
