"""When and how to fire the probe search inside the LP-based solve.

Six trigger criteria, an exponentially thinning depth schedule, and the
transfer of everything the probe learned: constraints, bounds, a
solution, or a finished subtree.  The probe adds its inference counts
to the host's branching table itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conflict import BoundDisjunction, LearnedConstraint, LearnedRecord
from .cpsearch import CpConfig, CpStatus, cp_search, node_limit_from_iters
from .lp import DegeneracyInfo, measure_degeneracy
from .model import (FEAS_TOL, GAP_TOL, INF, EmptyBoxError, Instance, Side,
                    fmt_g)

CRITERION_NAMES = ("dualbound", "leaves", "degeneracy", "obj", "nsols", "sblps")
# only box-shaped evidence exists before any branching has happened
ROOT_CRITERIA = frozenset({"degeneracy", "obj", "nsols"})
# trigger thresholds; every comparison against them is strict
RATIO_THRESHOLD = 10.0
DEGENERACY_SHARE_THRESHOLD = 0.80
FACE_RATIO_THRESHOLD = 2.0
OBJ_SUPPORT_SLACK = 0


@dataclass
class RapidConfig:
    criteria: frozenset[str] = frozenset({"degeneracy"})
    f: int = 5
    beta: float = 4.0
    max_transferred_conflicts: int = 10


@dataclass
class CriterionReport:
    """Fired flags plus the quantity each threshold was compared against."""

    fired: dict[str, bool]
    measured: dict[str, float]


@dataclass
class TransferSummary:
    node_id: int
    depth: int
    status: CpStatus
    criteria_fired: tuple[str, ...]
    conflicts_attached: int
    bounds_applied: int
    solution_installed: bool
    solution_rejected: bool
    cp_nodes: int
    finalized: bool
    scope_emptied: bool = False


def is_rl_depth(d: int, f: int, beta: float) -> bool:
    """True at depth 0 and at f, f*beta, f*beta^2, ...  Exact rational
    walk, so no floating log ever misclassifies a depth."""
    if beta <= 1:
        raise ValueError("beta must be > 1")
    if d == 0:
        return True
    if d < f:
        return False
    t = Fraction(f)
    step = Fraction(beta)
    target = Fraction(d)
    while t < target:
        t *= step
    return t == target


def _ratio(num: float, den: float) -> float:
    if den > 0:
        return num / den
    return INF if num > 0 else 0.0


def evaluate_criteria(stats, lp_degeneracy: DegeneracyInfo, *,
                      instance: Instance, box) -> CriterionReport:
    """Measure all six triggers against the search statistics, the LP
    degeneracy and the node box.  All threshold comparisons are strict."""
    fired: dict[str, bool] = {}
    measured: dict[str, float] = {}

    delta = 0.0 if stats.dual_bound == stats.root_dual_bound \
        else abs(stats.dual_bound - stats.root_dual_bound)
    measured["dualbound"] = delta
    fired["dualbound"] = delta <= 1e-9

    measured["leaves"] = _ratio(stats.leaves_infeasible, stats.leaves_cutoff)
    fired["leaves"] = stats.leaves_infeasible > \
        RATIO_THRESHOLD * stats.leaves_cutoff

    measured["degeneracy"] = lp_degeneracy.degenerate_share
    measured["face_ratio"] = lp_degeneracy.face_ratio
    fired["degeneracy"] = (
        lp_degeneracy.degenerate_share > DEGENERACY_SHARE_THRESHOLD
        or lp_degeneracy.face_ratio > FACE_RATIO_THRESHOLD)

    unfixed_support = sum(
        1 for j in range(instance.num_vars)
        if instance.c[j] != 0.0 and box.upper[j] - box.lower[j] > 1e-6)
    measured["obj"] = float(unfixed_support)
    fired["obj"] = unfixed_support <= OBJ_SUPPORT_SLACK

    measured["nsols"] = float(stats.n_solutions)
    fired["nsols"] = stats.n_solutions == 0

    measured["sblps"] = _ratio(stats.sb_no_improvement,
                               stats.sb_objective_changed)
    evaluated = stats.sb_no_improvement + stats.sb_objective_changed
    fired["sblps"] = evaluated >= 1 and stats.sb_no_improvement > \
        RATIO_THRESHOLD * stats.sb_objective_changed

    return CriterionReport(fired=fired, measured=measured)


def maybe_run(node, stats, instance: Instance, config: RapidConfig,
              at_root: bool, *, seed: int, lp_result, box, extra_constraints,
              alloc_cid, events: list[str], global_box=None,
              global_sink=None, deadline=None) -> TransferSummary | None:
    """Fire the probe when the depth schedule and a criterion both say so.

    Returns None when nothing ran.  The CP seed is the solve's `seed`
    xor node id so distinct nodes probe differently but reruns are
    identical.  The probe stops at `deadline`, a `time.monotonic()` value.
    """
    if not is_rl_depth(node.depth, config.f, config.beta):
        return None
    if not bool(instance.integer_mask.all()):
        return None      # the probe handles pure integer scopes only
    degen = measure_degeneracy(lp_result, instance.num_rows)
    report = evaluate_criteria(stats, degen, instance=instance, box=box)
    enabled = frozenset(config.criteria)
    if at_root:
        enabled &= ROOT_CRITERIA
    fired = [n for n in CRITERION_NAMES if n in enabled and report.fired[n]]
    for name in fired:
        stats.criterion_fires[name] += 1
    events.append(f"criteria node {node.id} depth {node.depth} "
                  f"fired {','.join(fired) if fired else '-'}")
    if not fired:
        return None
    stats.rl_calls += 1
    cp_cfg = CpConfig(node_limit=node_limit_from_iters(stats.iter_lp),
                      seed=seed ^ node.id,
                      incumbent_bound=stats.incumbent_value,
                      deadline=deadline)
    outcome = cp_search(instance, box, cp_cfg,
                        extra_constraints=tuple(extra_constraints),
                        branching=stats.branching)
    return transfer(outcome, node, stats, config=config, instance=instance,
                    box=box, at_root=at_root, alloc_cid=alloc_cid,
                    events=events, global_box=global_box,
                    global_sink=global_sink, criteria_fired=tuple(fired))


def transfer(outcome, node, stats, *, config: RapidConfig, instance: Instance,
             box, at_root: bool, alloc_cid, events: list[str],
             global_box=None, global_sink=None,
             criteria_fired: tuple[str, ...] = ()) -> TransferSummary:
    """Hand the probe's findings to the host search.

    Constraints go global at the root and node-local below it; bound
    tightenings mutate the box (below the root also as one-literal local
    constraints, so descendants re-derive them during replay); a solution
    is installed only after verification against the original instance.
    """
    # the probe's claims are all relative to the scope it started from
    scope_lower = np.array(box.lower)
    scope_upper = np.array(box.upper)

    ranked = sorted(outcome.conflicts,
                    key=lambda lc: (0 if lc.linear is not None else 1,
                                    lc.length))
    n_conf = 0
    for lc in ranked[:config.max_transferred_conflicts]:
        cid = alloc_cid()
        if at_root and global_sink is not None:
            global_sink.append((cid, lc))
            scope = "global"
        else:
            node.locals_own.append((cid, lc))
            scope = "local"
        stats.branching.bump(lc.disjunction.literals())
        events.append(f"lconstr {cid} node {node.id} level {node.depth} "
                      f"scope {scope} size {lc.length} form {lc.form}")
        stats.learned.append(LearnedRecord(scope, lc, scope_lower,
                                           scope_upper))
        n_conf += 1
    stats.audits.extend(outcome.audits)

    n_bounds = 0
    scope_emptied = False
    if outcome.status is CpStatus.NODE_LIMIT:
        deltas = [(j, Side.LOWER, float(outcome.box.lower[j]))
                  for j in range(instance.num_vars)
                  if outcome.box.lower[j] > box.lower[j] + FEAS_TOL]
        deltas += [(j, Side.UPPER, float(outcome.box.upper[j]))
                   for j in range(instance.num_vars)
                   if outcome.box.upper[j] < box.upper[j] - FEAS_TOL]
        try:
            for j, side, value in deltas:
                box.tighten(j, side, value)
                if at_root:
                    if global_box is not None and global_box is not box:
                        global_box.tighten(j, side, value)
                else:
                    lit = ((j, value),)
                    d1 = BoundDisjunction(lower_lits=lit, upper_lits=()) \
                        if side is Side.LOWER else \
                        BoundDisjunction(lower_lits=(), upper_lits=lit)
                    lc1 = LearnedConstraint(d1)
                    node.locals_own.append((alloc_cid(), lc1))
                    stats.learned.append(LearnedRecord(
                        "local", lc1, scope_lower, scope_upper))
                n_bounds += 1
        except EmptyBoxError:
            scope_emptied = True

    sol_installed = False
    sol_rejected = False
    if outcome.solution is not None:
        xs = outcome.solution
        if instance.check_point(xs):
            val = instance.objective_value(xs)
            if val < stats.incumbent_value - GAP_TOL:
                stats.incumbent = xs.copy()
                stats.incumbent_value = val
                stats.n_solutions += 1
                sol_installed = True
                events.append(f"incumbent {fmt_g(val)} node {node.id} origin rl")
        else:
            sol_rejected = True
            events.append(f"rl-solution-rejected node {node.id}")

    finalized = outcome.status is not CpStatus.NODE_LIMIT or scope_emptied
    summary = TransferSummary(
        node_id=node.id, depth=node.depth, status=outcome.status,
        criteria_fired=criteria_fired, conflicts_attached=n_conf,
        bounds_applied=n_bounds, solution_installed=sol_installed,
        solution_rejected=sol_rejected, cp_nodes=outcome.nodes,
        finalized=finalized, scope_emptied=scope_emptied)
    events.append(f"rl node {node.id} depth {node.depth} "
                  f"status {outcome.status.value} conflicts {n_conf} "
                  f"bounds {n_bounds} solution {int(sol_installed)} "
                  f"cpnodes {outcome.nodes}")
    return summary
