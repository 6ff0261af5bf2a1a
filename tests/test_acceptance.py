"""Acceptance gate.  One test per numbered criterion; each prints a
single "criterion N: PASS" line with the measured quantities, so a
`pytest -v -s` run reads as a checklist.  Criterion 10 is a report-shape
check only and asserts no performance direction.
"""

import json
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from rapidbnb.cli import main as cli_main
from rapidbnb.conflict import BoundDisjunction, to_knapsack
from rapidbnb.cpsearch import CpConfig, node_limit_from_iters
from rapidbnb.lp import DegeneracyInfo, measure_degeneracy, solve_lp
from rapidbnb.mipsearch import MipConfig, SearchStats, SolveResult, _Solve
from rapidbnb.model import Instance
from rapidbnb.mps import write_mps
from rapidbnb.propagation import Outcome, Propagator
from rapidbnb import rapid
from rapidbnb.rapid import (CRITERION_NAMES, RapidConfig, evaluate_criteria,
                            is_rl_depth)

SUITE_SIZE = 200
SUITE_SEED = 20240817
TOL = 1e-6


def report(criterion: int, detail: str) -> None:
    print(f"\ncriterion {criterion}: PASS  ({detail})")


def rl_config(seed: int = 1) -> MipConfig:
    # probe on a dense schedule so the tiny suite still exercises it; at
    # the root only degeneracy and a zero-cost scope can fire, below it
    # also a search that has found no solution yet
    return MipConfig(rapid_mode="local", seed=seed,
                     rapid=RapidConfig(criteria=frozenset({"degeneracy",
                                                           "obj", "nsols"}),
                                       f=1, beta=2.0))


@dataclass
class Recorded:
    """One solve and what a `SearchRecorder` saw during it."""

    result: SolveResult
    global_constraints: list[BoundDisjunction]
    probes: list[tuple[int, oracles.ProbeRecord]]   # (node depth, probe)
    analyses: list[oracles.AnalysisRecord]


def solve_recorded(inst, config, rec: oracles.SearchRecorder) -> Recorded:
    """Solve under the active recorder.  The global constraints are read
    off the solve after its run; each probe gets the depth of its node
    from the `rl` line the transfer wrote for it, in order."""
    first_probe, first_analysis = len(rec.probes), len(rec.analyses)
    solver = _Solve(inst, config)
    res = solver.run()
    depths = [int(tok[tok.index("depth") + 1])
              for tok in map(str.split, res.events) if tok[0] == "rl"]
    probes = rec.probes[first_probe:]
    assert len(depths) == len(probes)
    return Recorded(res, [d for _, d in solver.global_constraints],
                    list(zip(depths, probes)), rec.analyses[first_analysis:])


class SuiteEntry:
    def __init__(self, inst, verdict, value, points, runs):
        self.inst = inst
        self.verdict = verdict      # enumeration: "optimal" | "infeasible"
        self.value = value
        self.points = points        # every feasible point
        self.runs = runs            # {"off": Recorded, "rl": Recorded}


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(SUITE_SEED)
    t0 = time.monotonic()
    entries = []
    with oracles.SearchRecorder() as rec:
        while len(entries) < SUITE_SIZE:
            flat = len(entries) % 5 == 2   # every fifth: constant objective
            inst = oracles.random_instance(rng, allow_zero_objective=flat)
            verdict, value, _ = oracles.enumerate_optimum(inst)
            runs = {"off": solve_recorded(
                        inst, MipConfig(rapid_mode="off", seed=1), rec),
                    "rl": solve_recorded(inst, rl_config(), rec)}
            entries.append(SuiteEntry(inst, verdict, value,
                                      oracles.feasible_points(inst), runs))
    elapsed = time.monotonic() - t0
    return entries, elapsed


def test_criterion_01_exactness(suite):
    entries, elapsed = suite
    n_opt = n_inf = 0
    for k, e in enumerate(entries):
        for mode, run in e.runs.items():
            res = run.result
            assert res.status == e.verdict, \
                f"case {k} ({mode}): {res.status} vs {e.verdict}"
            if e.verdict == "optimal":
                assert res.objective == pytest.approx(e.value, abs=TOL), \
                    f"case {k} ({mode}): {res.objective} vs {e.value}"
        n_opt += e.verdict == "optimal"
        n_inf += e.verdict == "infeasible"
    assert n_opt + n_inf == SUITE_SIZE
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is 120s"
    report(1, f"{SUITE_SIZE} instances x 2 modes, {n_opt} optimal, "
              f"{n_inf} infeasible, {elapsed:.1f}s")


def _disjunction_holds(d: BoundDisjunction, x: np.ndarray) -> bool:
    return any(x[j] >= v - TOL for j, v in d.lower_lits) or \
        any(x[j] <= v + TOL for j, v in d.upper_lits)


class ClaimAudit:
    """Checks learned constraints and probe claims against feasible
    points: global constraints against all of them, a probe's claims
    against those inside the box its scope had before the probe ran.
    Each is checked as a disjunction and also as the knapsack row it has
    over that box (the instance's for global constraints), if any."""

    def __init__(self):
        self.claims = Counter()     # "global", "root probe", "local"
        self.checked = self.violations = self.rows = 0

    def _check(self, d: BoundDisjunction, pts: np.ndarray,
               lin=None) -> None:
        if not len(pts):
            return
        sat = np.zeros(len(pts), dtype=bool)
        for j, v in d.lower_lits:
            sat |= pts[:, j] >= v - TOL
        for j, v in d.upper_lits:
            sat |= pts[:, j] <= v + TOL
        self.violations += int((~sat).sum())
        if lin is not None:
            self.rows += 1
            act = pts[:, list(lin.cols)] @ np.asarray(lin.coefs)
            self.violations += int((act > lin.rhs + TOL).sum())
        self.checked += len(pts)

    def add(self, inst: Instance, run: Recorded, pts: np.ndarray) -> None:
        for d in run.global_constraints:
            self.claims["global"] += 1
            self._check(d, pts, to_knapsack(d, inst.lower, inst.upper))
        for depth, probe in run.probes:
            inside = ((pts >= probe.scope_lower - TOL).all(axis=1)
                      & (pts <= probe.scope_upper + TOL).all(axis=1))
            for d in probe.claims():
                self.claims["local" if depth > 0 else "root probe"] += 1
                self._check(d, pts[inside], to_knapsack(
                    d, probe.scope_lower, probe.scope_upper))


def test_criterion_02_learned_constraint_validity(suite, monkeypatch):
    entries, _ = suite
    audit = ClaimAudit()
    for e in entries:
        for run in e.runs.values():
            audit.add(e.inst, run, e.points)
    suite_total = sum(audit.claims.values())
    # the suite envelope learns little; audit a conflict-heavy corpus
    # through the same entry point on top of it
    with oracles.SearchRecorder() as rec:
        for seed, n, m in ((31, 16, 67), (202, 18, 76), (7, 18, 76)):
            rng = np.random.default_rng(seed)
            for _ in range(4):
                inst = oracles.random_sat_instance(rng, n=n, m=m)
                pts = oracles.feasible_points(inst)
                for cfg in (MipConfig(rapid_mode="off", seed=1,
                                      node_limit=400), rl_config()):
                    audit.add(inst, solve_recorded(inst, cfg, rec), pts)
        # weighted clause instances keep the root probe quiet (the leaves
        # criterion has no evidence there), so transfers land node-local
        monkeypatch.setattr(rapid, "RATIO_THRESHOLD", 2.0)
        local_cfg = MipConfig(
            rapid_mode="local", seed=1,
            rapid=RapidConfig(criteria=frozenset({"leaves"}), f=1, beta=2.0))
        for seed, n, m in ((31, 16, 67), (202, 18, 76), (11, 18, 72)):
            rng = np.random.default_rng(seed)
            for _ in range(4):
                base = oracles.random_sat_instance(rng, n=n, m=m)
                weights = rng.integers(1, 4, size=n).astype(float)
                inst = Instance(weights, base.rows, base.lower, base.upper,
                                np.flatnonzero(base.integer_mask))
                audit.add(inst, solve_recorded(inst, local_cfg, rec),
                          oracles.feasible_points(inst))
    claims = audit.claims
    assert audit.violations == 0
    assert claims["global"] >= 50 and claims["local"] >= 10
    report(2, f"{claims['global']} global constraints, {claims['local']} "
              f"local and {claims['root probe']} root probe claims "
              f"({suite_total} from the exactness suite), "
              f"{audit.checked} point checks, {audit.rows} claims also "
              f"checked as rows, 0 violations")


def test_criterion_03_one_uip_structure(suite):
    entries, _ = suite
    analyses = [a for e in entries for run in e.runs.values()
                for a in run.analyses]
    # top up from probe runs on clause systems if the suite ran clean
    rng = np.random.default_rng(31)
    with oracles.SearchRecorder(require=()) as rec:
        while len(analyses) + len(rec.analyses) < 50:
            inst = oracles.random_sat_instance(rng, n=16, m=67)
            oracles.probe(inst, inst.root_box(),
                          CpConfig(node_limit=2000, seed=5))
    analyses += rec.analyses
    bad = sum(1 for a in analyses if not a.is_one_uip())
    assert bad == 0 and len(analyses) >= 50
    report(3, f"{len(analyses)} conflicts, all with one literal from the "
              f"failure's level and violated at their origin node")


def test_criterion_04_knapsack_equivalence():
    rng = np.random.default_rng(404)
    n_checked = 0
    while n_checked < 100:
        n = int(rng.integers(1, 7))
        lower = rng.integers(-3, 1, size=n).astype(float)
        upper = lower + rng.integers(1, 4, size=n)
        k = int(rng.integers(1, n + 1))
        chosen = rng.choice(n, size=k, replace=False)
        lows, ups = [], []
        for j in chosen:
            if rng.random() < 0.5:
                lows.append((int(j), lower[j] + 1.0))
            else:
                ups.append((int(j), upper[j] - 1.0))
        d = BoundDisjunction(lower_lits=tuple(lows), upper_lits=tuple(ups))
        row = to_knapsack(d, lower, upper)
        assert row is not None
        for x in oracles.integer_grid(lower, upper):
            assert _disjunction_holds(d, x) == \
                (row.activity(x) <= row.rhs + TOL)
        n_checked += 1
    report(4, "100 disjunctions, satisfying sets identical by enumeration")


def test_criterion_05_formula_checks():
    table = {0: 500, 10: 500, 500: 500, 2000: 2000, 5000: 5000,
             10**6: 5000}
    for it, expect in table.items():
        got = node_limit_from_iters(it)
        assert got == expect == min(5000, max(500, it))
    hits = {d for d in range(1001) if is_rl_depth(d, 5, 4.0)}
    assert hits == {0, 5, 20, 80, 320}
    report(5, f"probe budget table exact on {sorted(table)}; "
              f"depth schedule hits exactly {sorted(hits)}")


def _fired(stats=None, share=0.0, face=1.0, **stat_kwargs):
    st = stats or SearchStats(**stat_kwargs)
    info = DegeneracyInfo(degenerate_share=share, face_ratio=face)
    inst = Instance(np.ones(2), [], np.zeros(2), np.ones(2), [0, 1])
    return evaluate_criteria(st, info, instance=inst, box=inst.root_box(),
                             enabled=frozenset(CRITERION_NAMES))


def test_criterion_06_trigger_boundaries():
    # degenerate share, strict
    assert "degeneracy" not in _fired(share=0.80)
    assert "degeneracy" in _fired(share=0.8001)
    # face ratio, strict
    assert "degeneracy" not in _fired(face=2.0)
    assert "degeneracy" in _fired(face=2.0001)
    # leaf ratio at exactly 10x and just above
    assert "leaves" not in _fired(leaves_infeasible=20, leaves_cutoff=2)
    assert "leaves" in _fired(leaves_infeasible=21, leaves_cutoff=2)
    # leaf ratio with a zero denominator
    assert "leaves" not in _fired(leaves_infeasible=0, leaves_cutoff=0)
    assert "leaves" in _fired(leaves_infeasible=1, leaves_cutoff=0)
    # dual bound stalled vs moved
    assert "dualbound" in _fired(dual_bound=2.0, root_dual_bound=2.0)
    assert "dualbound" not in _fired(dual_bound=2.1, root_dual_bound=2.0)
    # solution count
    assert "nsols" in _fired(n_solutions=0)
    assert "nsols" not in _fired(n_solutions=1)
    report(6, "nine boundary cases fire exactly per the strict comparisons")


def test_criterion_07_propagation_soundness(suite):
    entries, _ = suite
    n_reduced = 0
    rng = np.random.default_rng(777)
    for k, e in enumerate(entries):
        pts = e.points
        box = e.inst.root_box()
        res = Propagator(e.inst).to_fixpoint(box)
        if res.outcome is Outcome.INFEASIBLE:
            assert pts.shape[0] == 0, f"case {k} cut off feasible points"
        else:
            for x in pts:
                assert (x >= np.asarray(box.lower) - TOL).all() and \
                    (x <= np.asarray(box.upper) + TOL).all(), f"case {k} lost a point"
            n_reduced += res.outcome is Outcome.REDUCED
        # row order must not change the fixpoint
        perm = rng.permutation(e.inst.num_rows)
        shuffled = Instance(e.inst.c, [e.inst.rows[i] for i in perm],
                            e.inst.lower, e.inst.upper,
                            np.flatnonzero(e.inst.integer_mask))
        box2 = shuffled.root_box()
        res2 = Propagator(shuffled).to_fixpoint(box2)
        assert res2.outcome is res.outcome or \
            Outcome.INFEASIBLE not in (res.outcome, res2.outcome)
        if res.outcome is not Outcome.INFEASIBLE \
                and res2.outcome is not Outcome.INFEASIBLE:
            assert np.allclose(box.lower, box2.lower)
            assert np.allclose(box.upper, box2.upper)
    report(7, f"{len(entries)} fixpoints, {n_reduced} with reductions, "
              f"no feasible point lost, order independent")


def test_criterion_08_lp_oracle():
    rng = np.random.default_rng(808)
    n_optimal = 0
    for k in range(100):
        inst = oracles.random_lp(rng)
        status, value, _ = oracles.lp_vertex_optimum(inst)
        res = solve_lp(inst, inst.root_box())
        assert res.status.name.lower() == status, f"case {k}"
        if status == "optimal":
            assert res.objective == pytest.approx(value, abs=TOL), f"case {k}"
            n_optimal += 1
    assert n_optimal >= 10
    # flat objective: everything nonbasic prices out to zero
    n_flat = 0
    for k in range(30):
        base = oracles.random_lp(rng)
        flat = Instance(np.zeros(base.num_vars), base.rows,
                        base.lower, base.upper, [])
        res = solve_lp(flat, flat.root_box())
        if res.status.name != "OPTIMAL":
            continue
        info = measure_degeneracy(res, flat.root_box())
        assert info.degenerate_share == 1.0
        n_flat += 1
    assert n_flat >= 10
    report(8, f"100 LPs match vertex enumeration within 1e-6 "
              f"({n_optimal} optimal); share = 1.0 on {n_flat} "
              f"flat-objective LPs")


def test_criterion_09_determinism(tmp_path, capsys):
    rng = np.random.default_rng(909)
    paths = []
    for k in range(3):
        inst = oracles.random_sat_instance(rng, n=12, m=50)
        p = tmp_path / f"det{k}.mps"
        write_mps(inst, p)
        paths.append(p)
    n_pairs = 0
    for p in paths:
        takes = []
        for run in range(2):
            log = tmp_path / f"{p.stem}-take{run}.log"
            code = cli_main(["solve", str(p), "--json", "--rapid", "local",
                             "--criteria", "degeneracy,nsols",
                             "--seed", "7", "--emit-events", str(log)])
            out = capsys.readouterr().out
            assert code == 0
            payload = json.loads(out)
            payload["wall_seconds"] = 0.0     # the only clock in the output
            takes.append((json.dumps(payload, sort_keys=True),
                          log.read_bytes()))
        assert takes[0][0] == takes[1][0], f"{p.name}: JSON differs"
        assert takes[0][1] == takes[1][1], f"{p.name}: event log differs"
        n_pairs += 1
    report(9, f"{n_pairs} instances, JSON and event log byte-identical "
              f"across reruns (wall clock field excluded)")


def test_criterion_10_directional_report(tmp_path):
    from rapidbnb.bench import directional_report
    rng = np.random.default_rng(1010)
    n_inst = 12
    for k in range(n_inst):
        inst = oracles.random_sat_instance(rng, n=12, m=45)
        write_mps(inst, tmp_path / f"feas{k}.mps")
    rep = directional_report(tmp_path, seeds=(0,))
    assert rep["instances"] == n_inst
    assert rep["runs"] == 2 * n_inst
    assert rep["affected"] + rep["unaffected"] == n_inst
    for side in ("default", "rapid"):
        assert rep[side]["time"] >= 0.0
        assert rep[side]["nodes"] >= 0.0
        assert 0 <= rep[side]["solved"] <= n_inst
    assert math.isfinite(rep["time_ratio"]) and rep["time_ratio"] > 0
    assert math.isfinite(rep["nodes_ratio"]) and rep["nodes_ratio"] > 0
    lines = rep["markdown"].strip().splitlines()
    assert lines[0].startswith("| config") and len(lines) == 4
    report(10, f"report well-formed over {n_inst} feasibility instances: "
               f"time ratio {rep['time_ratio']:.3f}, nodes ratio "
               f"{rep['nodes_ratio']:.3f}, {rep['affected']} affected "
               f"(directional only, not asserted)")
