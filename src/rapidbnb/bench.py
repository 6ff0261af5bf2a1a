"""Shifted geometric means, the affected/unaffected split of paired runs,
and a directional report of the probe over an instance directory.
`perfbench` takes `TIME_SHIFT` and `shifted_geomean` from here for its
`solve_cpu_sgm_s`; `import rapidbnb` does not load this module."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections.abc import Mapping
from pathlib import Path

from .mipsearch import MipConfig, solve
from .mps import parse_mps
from .rapid import RapidConfig

TIME_SHIFT = 1.0
NODES_SHIFT = 100.0
_FINISHED = ("optimal", "infeasible")


class MissingPairError(KeyError):
    """affected_split got baseline/treatment runs with different keys."""


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


def affected_split(baseline: Mapping[tuple[str, int], str],
                   treatment: Mapping[tuple[str, int], str],
                   ) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """Split the keys of two (instance, seed) -> branching-hash mappings
    by whether the hash changed."""
    if baseline.keys() != treatment.keys():
        missing = sorted(baseline.keys() ^ treatment.keys())
        raise MissingPairError(f"unmatched (instance, seed) keys: {missing}")
    keys = sorted(baseline)
    return ([k for k in keys if baseline[k] != treatment[k]],
            [k for k in keys if baseline[k] == treatment[k]])


def directional_report(directory, seeds=(0,)) -> dict:
    """Feasibility-suite comparison of the probe against the baseline.

    Runs every *.mps file in `directory` at every seed under `--rapid off`
    and `--rapid local --criteria degeneracy`, and returns shifted
    geomeans, their ratios, and the affected/unaffected split.  A run
    that raises counts as unsolved, with time and nodes 0.
    Directional only: nothing here asserts an improvement.
    """
    configs = {
        "default": MipConfig(rapid_mode="off"),
        "rapid": MipConfig(rapid_mode="local",
                           rapid=RapidConfig(criteria=frozenset({"degeneracy"}))),
    }
    paths = sorted(Path(directory).glob("*.mps"))
    if not paths:
        raise ValueError(f"no *.mps files in {directory}")
    # config -> (instance, seed) -> (solved, seconds, nodes, branching hash)
    runs: dict[str, dict] = {name: {} for name in configs}
    for path in paths:
        for seed in seeds:
            for name, cfg in configs.items():
                try:
                    res = solve(parse_mps(path)[0],
                                dataclasses.replace(cfg, seed=seed))
                    run = (res.status in _FINISHED, res.wall_seconds,
                           res.nodes, branching_hash(res.events))
                except Exception:  # noqa: BLE001 - the report must finish
                    run = (False, 0.0, 0, "")
                runs[name][path.name, seed] = run

    sides, hashes = {}, {}
    for name, by_key in runs.items():
        solved, times, nodes, _ = zip(*by_key.values())
        sides[name] = {"time": shifted_geomean(times, TIME_SHIFT),
                       "nodes": shifted_geomean(nodes, NODES_SHIFT),
                       "solved": sum(solved)}
        hashes[name] = {key: run[3] for key, run in by_key.items()}
    affected, unaffected = affected_split(hashes["default"], hashes["rapid"])

    def ratio(name, key):
        base = sides["default"][key]
        return sides[name][key] / base if base > 0 else 1.0

    lines = ["| config | runs | solved | time | nodes | time_Q | nodes_Q |",
             "|---|---|---|---|---|---|---|"]
    for name, side in sides.items():
        lines.append(f"| {name} | {len(runs[name])} | {side['solved']} | "
                     f"{round(side['time'], 4)} | {round(side['nodes'], 2)} | "
                     f"{round(ratio(name, 'time'), 4)} | "
                     f"{round(ratio(name, 'nodes'), 4)} |")
    return {
        "instances": len(paths),
        "seeds": list(seeds),
        "runs": sum(len(by_key) for by_key in runs.values()),
        "default": sides["default"],
        "rapid": sides["rapid"],
        "time_ratio": ratio("rapid", "time"),
        "nodes_ratio": ratio("rapid", "nodes"),
        "affected": len(affected),
        "unaffected": len(unaffected),
        "markdown": "\n".join(lines) + "\n",
    }
