"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py

Run from the repository root.  It runs run.py timed for seeds 1..10,
every workload in turn for each seed, so that drift of the machine's
speed over the minutes of the run hits every workload alike; the run
length is BENCHMARK.json's run_seconds.  Then, per workload, it runs
run.py traced with seed 1 and prints:

- each end-to-end metric's median and quartile spread over the seeds,
  with wall time next to CPU time;
- the traced run's self-time share per layer and its tracing overhead;
- for clause-local and int-local, the same instances solved with
  rapid_mode=off, the paper's comparison.

Runs are sequential; expect about 35 s per timed run and 60 s per traced
one, and 11 minutes for the rapid_mode=off solves of clause-local.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# before numpy loads: the rapid_mode=off comparison solves in this process
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

import workloads  # noqa: E402

SEEDS = range(1, 11)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    result = json.loads(Path(".perfbench_out", f"{workload}-{seed}-t{trace}",
                             "result.json").read_text())
    return line, result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def off_comparison(workload: str, seed: int) -> tuple[float, float]:
    """CPU seconds to solve the workload's instances with its own
    configuration and with rapid_mode=off, one solve each."""
    sys.path.insert(0, str(Path("src").resolve()))
    import dataclasses

    import gen
    import rapidbnb
    from measure import mip_config

    config = mip_config(rapidbnb, workload)
    off = dataclasses.replace(config, rapid_mode="off")
    totals = [0.0, 0.0]
    for model in workloads.models(workload, seed):
        instance, _ = rapidbnb.parse_mps(gen.write_mps(model))
        for k, cfg in enumerate((config, off)):
            t0 = time.process_time()
            rapidbnb.solve(instance, cfg)
            totals[k] += time.process_time() - t0
    return totals[0], totals[1]


def main() -> int:
    first = SEEDS[0]
    rows: dict[str, dict[str, list[float]]] = {w: {} for w in workloads.WORKLOADS}
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            line, result = run(name, seed, 0)
            row = rows[name]
            for k, m in line["metrics"].items():
                row.setdefault(k, []).append(m["value"])
            first_pass = result["rounds"][0]
            row.setdefault("raw_cpu_total_s", []).append(
                sum(s["cpu"] for s in first_pass))
            row.setdefault("raw_wall_total_s", []).append(
                sum(s["wall"] for s in first_pass))
            row.setdefault("speed_factor", []).append(result["speed_factor"])
            row.setdefault("passes", []).append(len(result["rounds"]))
            row.setdefault("failed", []).append(line["failed"])
            row.setdefault("incorrect", []).append(not line["correct"])

    for name in workloads.WORKLOADS:
        print(f"## {name}: seeds {first}..{SEEDS[-1]}, --seconds {SECONDS}")
        for k, vals in rows[name].items():
            if k in ("failed", "incorrect", "passes"):
                print(f"  {k}: {' '.join(str(int(v)) for v in vals)}")
                continue
            med, iqr = spread(vals)
            print(f"  {k:20s} median {med:10.4f}  IQR/median {iqr:.3f}  "
                  f"range {min(vals):.4f}..{max(vals):.4f}")

        line, result = run(name, first, 1)
        f0, f1 = result["speed_factors"]
        cpu0 = f0 * sum(s["cpu"] for s in result["rounds"][0])
        cpu1 = f1 * sum(s["cpu"] for s in result["rounds"][1])
        layers = result["layer_self_s"]
        total = sum(v for k, v in layers.items() if k != "mps")
        print(f"  traced seed {first}: overhead {cpu1 - cpu0:+.3f} s cpu "
              f"({(cpu1 / cpu0 - 1) * 100:+.1f}%) on {cpu0:.3f} s at "
              f"reference speed; correct {line['correct']}, "
              f"failed {line['failed']} of {line['attempted']}")
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1]):
            if k != "mps":
                print(f"    {k:10s} {v:8.3f} s  {v / total * 100:5.1f}%")
        print("    " + ", ".join(
            f"{k} {m['value']:g}" for k, m in line["metrics"].items()
            if m["unit"] != "s"))

        if workloads.WORKLOADS[name].rapid_mode != "off":
            own, off = off_comparison(name, first)
            print(f"  seed {first}: cpu {own:.3f} s as configured, "
                  f"{off:.3f} s with rapid_mode=off")
    return 0


if __name__ == "__main__":
    sys.exit(main())
