"""Propagation-only depth-first search over pure integer scopes.

This is the fast companion search: no LP anywhere, just propagation to a
fixpoint per node, bounding against the box optimum of the objective (the
pseudo solution, kept as a float list), conflict analysis on every pruned
node until the conflict outgrows the length cap, and inference-guided
branching that dives toward the pseudo solution.  It stops at its node
budget, or earlier once it holds a solution and a tenth of the budget
(`STALL_FRAC`) has passed without a better one: the search is meant to
be short, and a proof of optimality it cannot finish is wasted.  It
returns what it learned: short conflicts, scope-valid bound tightenings
and possibly a solution.  Its inference counts go straight into the
caller's table.  It searches on the trail and propagator of the node it
probes, in levels above the node's, and leaves both as it found them.

Conflicts whose proof leans on the objective cutoff hold only for
improving solutions.  They still propagate inside this search (that is
sound while optimizing) but they are never returned to the caller and
never tighten the scope box; see the `tainted` tracking in `conflict`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .branching import BranchingStats, select_inference_branching
from .conflict import CUTOFF_REASON, BoundDisjunction, Trail, analyze_1uip
from .model import FEAS_TOL, BoundBox, EmptyBoxError, Instance, Side
from .propagation import Outcome, Propagator


class CpStatus(Enum):
    # stopped by the node budget, a stall after a solution or the deadline
    NODE_LIMIT = "node-limit-reached"
    OPTIMAL = "solved-optimal"
    INFEASIBLE = "solved-infeasible"


# longest conflict the probe stores, as a share of the variable count
MAX_CONFLICT_FRAC = 0.05
# nodes without a better solution that stop a probe holding one, as a
# share of its node budget
STALL_FRAC = 0.1


@dataclass
class CpConfig:
    node_limit: int
    seed: int = 0
    incumbent_bound: float = math.inf
    deadline: float | None = None     # time.monotonic() value that stops it


@dataclass
class CpOutcome:
    status: CpStatus
    conflicts: list[BoundDisjunction]
    box: BoundBox
    solution: np.ndarray | None
    nodes: int


def node_limit_from_iters(iter_lp: int) -> int:
    """Probe budget coupled to the LP iterations done so far: node LPs
    and the strong-branching LPs that were solved.  A node LP handed its
    strong-branching child's result still adds that result's iterations,
    so the budget is the one solving it again would give.  A tenth of
    it without a better solution stops a probe that holds one."""
    return min(5000, max(500, int(iter_lp)))


def pseudo_solution(box: BoundBox, c: np.ndarray) -> np.ndarray:
    """Box optimum of the objective: upper bound under negative cost,
    lower bound otherwise (zero cost rests at the lower bound)."""
    return np.array(_box_optimum(box, (c < 0).tolist()))


def _box_optimum(box: BoundBox, negative: list[bool]) -> list[float]:
    # `pseudo_solution` on the box's lists, given the signs of c < 0
    return [u if neg else lo
            for lo, u, neg in zip(box.lower, box.upper, negative)]


def cp_search(instance: Instance, trail: Trail, prop: Propagator,
              config: CpConfig,
              branching: BranchingStats | None = None) -> CpOutcome:
    """Run the probe on `instance` restricted to `trail.box`, its scope,
    on `trail` and on `prop`, which holds only constraints valid there.

    Levels up to `trail.level` are the scope's; the probe opens its own
    above them, adds its conflicts under ids above every id in `prop`,
    and leaves trail, box and `prop` as it found them.  It branches on
    the inference counts in `branching` and adds its own to them.  Two
    runs with equal inputs, seeds and tables give identical outcomes.
    """
    n = instance.num_vars
    int_mask = instance.integer_mask
    if not bool(int_mask.all()):
        raise ValueError("the probe search handles pure integer scopes only")
    c = instance.c

    box, scope = trail.box, trail.box.copy()
    base, entry, size = trail.level, trail.mark(), len(prop.items)
    next_cid = max((item.cid for item in prop.items), default=-1) + 1

    rng = random.Random(config.seed)
    table = branching if branching is not None else BranchingStats()
    cap = math.ceil(MAX_CONFLICT_FRAC * n)
    conflicts: list[BoundDisjunction] = []
    tainted_ids: set[int] = set()
    global_fix: dict[tuple[int, Side], float] = {}
    cbar = float(config.incumbent_bound)
    best: np.ndarray | None = None
    scope_infeasible = False
    nodes = 0
    stall = max(1, int(STALL_FRAC * config.node_limit))
    improved_at = 0     # node count when `best` last improved
    # stack entries: (trail mark of the parent, level, branch or None)
    # branch = (var, side, bound value)
    stack: list[tuple[int, int, tuple | None]] = [(entry, base, None)]
    # a cutoff leans on the objective's bounds, whose sides only c fixes
    cutoff_reasons = [(j, Side.LOWER if c[j] > 0 else Side.UPPER)
                      for j in range(n) if c[j] != 0.0]
    negative = (c < 0).tolist()
    # the pseudo solution's objective sums only the nonzero costs
    cost_terms = [(j, a) for j, a in enumerate(c.tolist()) if a != 0.0]
    rows = [(row.cols, row.coefs, row.rhs + FEAS_TOL) for row in instance.rows]

    def apply_global_fix() -> bool:
        for (v, s), val in global_fix.items():
            try:
                box.tighten(v, s, val)
            except EmptyBoxError:
                return False
        return True

    def handle_failure() -> None:
        """Analyze the recorded failure; an empty scope ends the search."""
        nonlocal next_cid, scope_infeasible
        out = analyze_1uip(trail, int_mask, tainted_ids, cap, base)
        if out.root_failure:
            # nothing (left) in the scope, or nothing improving if tainted
            scope_infeasible = not out.tainted
            stack.clear()
            return
        d = out.disjunction
        if d is None or d.size > cap:
            return
        cid = next_cid
        next_cid += 1
        prop.add_constraint(cid, d)
        if out.tainted:
            tainted_ids.add(cid)
            return
        conflicts.append(d)
        if d.size == 1:
            (v, s, val), = d.literals()
            if (s is Side.LOWER and val > scope.upper[v] + FEAS_TOL) or \
               (s is Side.UPPER and val < scope.lower[v] - FEAS_TOL):
                scope_infeasible = True
                stack.clear()
                return
            key = (v, s)
            cur = global_fix.get(key)
            if cur is None or (val > cur if s is Side.LOWER else val < cur):
                global_fix[key] = val

    while stack and nodes < config.node_limit:
        if best is not None and nodes - improved_at >= stall:
            break
        if config.deadline is not None and time.monotonic() > config.deadline:
            break
        mark, level, branch = stack.pop()
        nodes += 1
        trail.rewind(mark)
        if not apply_global_fix():
            continue
        if branch is not None:
            var, side, bound_value = branch
            try:
                # a learned unit may already imply the bound: search anyway
                trail.branch(var, side, bound_value, level)
            except EmptyBoxError:
                continue  # incompatible with bounds learned meanwhile
        res = prop.to_fixpoint(box, trail)
        if branch is not None:
            table.add_inferences(var, len(res.deductions))
        if res.outcome is Outcome.INFEASIBLE:
            handle_failure()
            continue

        xl = _box_optimum(box, negative)
        obj = sum([a * xl[j] for j, a in cost_terms])
        if obj >= cbar - FEAS_TOL:  # cannot improve here, ties included
            trail.fail(CUTOFF_REASON, cutoff_reasons)
            handle_failure()
            continue
        # Row.activity's terms and order on floats: the same sums
        if all(sum([a * xl[j] for j, a in zip(cols, coefs)]) <= lim
               for cols, coefs, lim in rows):
            best = np.array(xl)
            cbar = obj
            improved_at = nodes
            continue

        choice = select_inference_branching(box, int_mask, table, xl, rng)
        if choice is None:
            continue  # fixed point violates a row only within tolerance
        var, v = choice
        mark2 = trail.mark()
        down = (mark2, level + 1, (var, Side.UPPER, float(v)))
        up = (mark2, level + 1, (var, Side.LOWER, float(v + 1)))
        if xl[var] <= v:
            stack.extend((up, down))   # dive into the half holding x-bar
        else:
            stack.extend((down, up))

    if stack:   # cut short by the node limit, a stall or the deadline
        status = CpStatus.NODE_LIMIT
    elif scope_infeasible or best is None:
        status = CpStatus.INFEASIBLE
    else:
        status = CpStatus.OPTIMAL

    # what the scope's own fixpoint deduced; then back to the entry state,
    # the learned units written past the trail included
    facts = [ch for ch in trail.changes[entry:] if ch.level == base]
    trail.rewind(entry)
    trail.level = base
    for v, s in global_fix:
        (box.lower if s is Side.LOWER else box.upper)[v] = scope.get(v, s)
    prop.truncate(size)

    if not scope_infeasible:
        try:
            for ch in facts:
                scope.tighten(ch.var, ch.side, ch.value)
            for (v, s), val in global_fix.items():
                scope.tighten(v, s, val)
        except EmptyBoxError:
            # two individually valid facts that cross: the scope is empty
            if best is None:
                status = CpStatus.INFEASIBLE

    return CpOutcome(status=status, conflicts=conflicts, box=scope,
                     solution=best, nodes=nodes)
