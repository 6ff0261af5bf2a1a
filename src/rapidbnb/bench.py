"""Batch harness: run instance directories under several configurations
and aggregate the way solver benchmarks are reported: shifted geometric
means, per-(instance, seed) observations, and an affected/unaffected
split by solving path.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from .mipsearch import MipConfig, solve
from .mps import parse_mps
from .rapid import RapidConfig

TIME_SHIFT = 1.0
NODES_SHIFT = 100.0
_FINISHED = ("optimal", "infeasible")


class MissingPairError(KeyError):
    """affected_split got baseline/treatment rows with different keys."""


@dataclass
class RunRecord:
    instance: str
    seed: int
    config: str
    status: str
    time: float
    nodes: int
    objective: float | None
    branch_hash: str
    error: str = ""


@dataclass
class ConfigSummary:
    config: str
    runs: int
    solved: int
    time: float
    nodes: float
    time_q: float
    nodes_q: float
    time_quartiles: tuple[float, float, float]
    nodes_quartiles: tuple[float, float, float]


def shifted_geomean(values, shift: float) -> float:
    """exp(mean(log(v + shift))) - shift; equals v on constant input."""
    vals = [float(v) for v in values]
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    if not shift > 0:
        raise ValueError("shift must be positive")
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v + shift) for v in vals) / len(vals)) - shift


def branching_hash(events) -> str:
    """Hash of the branching-decision sequence in an event log."""
    h = hashlib.sha256()
    for line in events:
        if line.startswith("branch "):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def run_suite(directory, configs: dict[str, MipConfig],
              seeds) -> list[RunRecord]:
    """Every (instance, seed, config) combination, one RunRecord each.

    Per-run failures land in the record's error field; the suite always
    finishes.  Returns an empty list (with nothing else) on an empty dir.
    """
    paths = sorted(Path(directory).glob("*.mps"))
    records: list[RunRecord] = []
    for path in paths:
        for seed in seeds:
            for name, cfg in configs.items():
                run_cfg = dataclasses.replace(cfg, seed=seed)
                try:
                    instance, _ = parse_mps(path)
                    res = solve(instance, run_cfg)
                    records.append(RunRecord(
                        instance=path.name, seed=seed, config=name,
                        status=res.status, time=res.wall_seconds,
                        nodes=res.nodes, objective=res.objective,
                        branch_hash=branching_hash(res.events)))
                except Exception as exc:  # noqa: BLE001 - suite must survive
                    records.append(RunRecord(
                        instance=path.name, seed=seed, config=name,
                        status="error", time=0.0, nodes=0, objective=None,
                        branch_hash="", error=str(exc)))
    return records


def affected_split(baseline: list[RunRecord], treatment: list[RunRecord],
                   ) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """Split (instance, seed) keys by whether the solving path changed."""
    base = {(r.instance, r.seed): r for r in baseline}
    treat = {(r.instance, r.seed): r for r in treatment}
    if base.keys() != treat.keys():
        missing = sorted(base.keys() ^ treat.keys())
        raise MissingPairError(f"unmatched (instance, seed) keys: {missing}")
    affected, unaffected = [], []
    for key in sorted(base):
        if base[key].branch_hash != treat[key].branch_hash:
            affected.append(key)
        else:
            unaffected.append(key)
    return affected, unaffected


def _quartiles(values) -> tuple[float, float, float]:
    vals = sorted(float(v) for v in values)
    if not vals:
        return (0.0, 0.0, 0.0)
    if len(vals) == 1:
        return (vals[0], vals[0], vals[0])
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return (q[0], q[1], q[2])


def summarize(records: list[RunRecord], baseline: str) -> list[ConfigSummary]:
    """Per-config aggregates with time_Q/nodes_Q relative to `baseline`."""
    configs: dict[str, list[RunRecord]] = {}
    for r in records:
        configs.setdefault(r.config, []).append(r)
    if baseline not in configs:
        raise ValueError(f"baseline config {baseline!r} not in the records")
    sgm: dict[str, tuple[float, float]] = {}
    for name, rows in configs.items():
        sgm[name] = (shifted_geomean([r.time for r in rows], TIME_SHIFT),
                     shifted_geomean([r.nodes for r in rows], NODES_SHIFT))
    base_t, base_n = sgm[baseline]
    out = []
    for name, rows in configs.items():
        t, n = sgm[name]
        out.append(ConfigSummary(
            config=name, runs=len(rows),
            solved=sum(1 for r in rows if r.status in _FINISHED),
            time=t, nodes=n,
            time_q=t / base_t if base_t > 0 else 1.0,
            nodes_q=n / base_n if base_n > 0 else 1.0,
            time_quartiles=_quartiles(r.time for r in rows),
            nodes_quartiles=_quartiles(r.nodes for r in rows)))
    out.sort(key=lambda s: s.config)
    return out


_COLUMNS = ("config", "runs", "solved", "time", "nodes", "time_Q", "nodes_Q",
            "time_q25", "time_q50", "time_q75",
            "nodes_q25", "nodes_q50", "nodes_q75")


def _summary_row(s: ConfigSummary) -> list:
    return [s.config, s.runs, s.solved,
            round(s.time, 4), round(s.nodes, 2),
            round(s.time_q, 4), round(s.nodes_q, 4),
            round(s.time_quartiles[0], 4), round(s.time_quartiles[1], 4),
            round(s.time_quartiles[2], 4),
            round(s.nodes_quartiles[0], 2), round(s.nodes_quartiles[1], 2),
            round(s.nodes_quartiles[2], 2)]


def write_csv(summaries: list[ConfigSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_COLUMNS)
        for s in summaries:
            w.writerow(_summary_row(s))


def to_markdown(summaries: list[ConfigSummary]) -> str:
    lines = ["| " + " | ".join(_COLUMNS) + " |",
             "|" + "---|" * len(_COLUMNS)]
    for s in summaries:
        lines.append("| " + " | ".join(str(v) for v in _summary_row(s)) + " |")
    return "\n".join(lines) + "\n"


def directional_report(directory, seeds=(0,)) -> dict:
    """Feasibility-suite comparison of the probe against the baseline.

    Runs `--rapid off` vs `--rapid local --criteria degeneracy`, returns
    shifted geomeans, their ratios, and the affected/unaffected split.
    Directional only: nothing here asserts an improvement.
    """
    configs = {
        "default": MipConfig(rapid_mode="off"),
        "rapid": MipConfig(rapid_mode="local",
                           rapid=RapidConfig(criteria=frozenset({"degeneracy"}))),
    }
    records = run_suite(directory, configs, seeds)
    base = [r for r in records if r.config == "default"]
    treat = [r for r in records if r.config == "rapid"]
    affected, unaffected = affected_split(base, treat)
    summaries = summarize(records, baseline="default")
    by_name = {s.config: s for s in summaries}
    report = {
        "instances": len({r.instance for r in records}),
        "seeds": list(seeds),
        "runs": len(records),
        "default": {"time": by_name["default"].time,
                    "nodes": by_name["default"].nodes,
                    "solved": by_name["default"].solved},
        "rapid": {"time": by_name["rapid"].time,
                  "nodes": by_name["rapid"].nodes,
                  "solved": by_name["rapid"].solved},
        "time_ratio": by_name["rapid"].time_q,
        "nodes_ratio": by_name["rapid"].nodes_q,
        "affected": len(affected),
        "unaffected": len(unaffected),
        "markdown": to_markdown(summaries),
    }
    return report
