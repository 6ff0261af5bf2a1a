"""LP-based branch and bound with conflict learning and the probe hook.

Node selection is best bound with depth-first plunging.  Open nodes
store no boxes: a node keeps its branching bound and its own local
constraints, and its state (box, trail and propagator) is built level
by level, one propagation round each, which also gives conflict
analysis correct decision levels for free.  The root's state is the
one the global box was propagated with, and its LP, when optimal, is the
root LP solved over that box.  The solve keeps the state of the last
node it processed and switches it to the next node along the tree path,
as SCIP does (Achterberg 2007): the trail is rewound to the deepest
level on the next node's path that the state completed, the locals
attached below it are detached, and the levels below are opened again,
with the log lines a build from the root would write.  A probe below the
root writes its bound tightenings on the trail and adds locals to its
level, which the next switch opens again.  Only a change of the globals
(a conflict or a bound the root's probe keeps, a conflict learned
globally) drops the kept state, so a switched state is the one a build
from the root gives, down to the constraint order: rows, globals, path
locals.

A node's strong-branching LPs for the variable it branches on go with
its two children, each until that child is processed: a child whose box
after its fixpoint and warm start are still exactly those of its
strong-branching LP gets that result from its own `solve_lp` call.

The probe hook has two halves: `rapid.maybe_run` decides whether to
probe a node and runs the probe on the node's own trail and propagator,
and `_Solve._transfer` applies what it found (conflicts, bound
tightenings, a solution, or the settled node) to the solve's state.

Learned scopes: conflicts derived from purely global reasoning are kept
globally; anything whose derivation touched a node-local constraint is
discarded (the node is being pruned anyway, and re-scoping buys nothing
at this scale).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .branching import BranchingStats
from .conflict import BoundDisjunction, Trail, analyze_1uip, to_knapsack
from .cpsearch import CpOutcome, CpStatus
from .lp import (KeptLp, LpResult, LpStatus, LpWorkspace, solve_lp,
                 strong_branch)
from .model import (FEAS_TOL, GAP_TOL, INF, INT_TOL, BoundBox, EmptyBoxError,
                    Instance, Side, fmt_g)
from .propagation import Outcome, Propagator
from .rapid import CRITERION_NAMES, RapidConfig, maybe_run

PLUNGE_CAP = 10
SB_DEPTH_CAP = 4
SB_CANDIDATES = 5


class ConfigError(ValueError):
    """Rejected solver configuration."""


class SolveError(RuntimeError):
    """The solve cannot continue (unbounded relaxation and friends)."""


@dataclass
class SearchStats:
    dual_bound: float = -INF
    root_dual_bound: float = -INF
    incumbent: np.ndarray | None = None
    incumbent_value: float = INF
    n_solutions: int = 0
    leaves_infeasible: int = 0
    leaves_cutoff: int = 0
    sb_no_improvement: int = 0
    sb_objective_changed: int = 0
    branching: BranchingStats = field(default_factory=BranchingStats)
    # every node and strong-branching LP's iterations, a node LP handed
    # its strong-branching child's result included
    iter_lp: int = 0
    # seconds spent switching the kept node state to each next node (the
    # rewind, detach and descent, or after a change of the globals the
    # build from the root)
    switching_time: float = 0.0
    rl_calls: int = 0
    criterion_fires: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in CRITERION_NAMES})


def record_leaf(kind: str, stats: SearchStats,
                point: np.ndarray | None = None,
                value: float | None = None) -> None:
    if kind == "infeasible":
        stats.leaves_infeasible += 1
    elif kind == "cutoff":
        stats.leaves_cutoff += 1
    elif kind == "improving":
        stats.n_solutions += 1
        stats.incumbent = np.array(point, dtype=float)
        stats.incumbent_value = float(value)
    else:
        raise ValueError(f"unknown leaf kind {kind!r}")


@dataclass
class Node:
    id: int
    parent: "Node | None"
    depth: int
    lower_bound: float
    # the bound that branching added to the parent's box; None at the root
    branch: tuple[int, Side, float] | None = None
    locals_own: list[tuple[int, BoundDisjunction]] = field(default_factory=list)
    basis: np.ndarray | None = None
    # how far branching moved the parent's LP value of the branched variable
    branch_distance: float = 0.0
    parent_obj: float = math.nan
    # the parent's strong-branching LP of this child, until it is processed
    sb_lp: KeptLp | None = None

    def path(self) -> list["Node"]:
        """Ancestors from depth 1 down to this node, root excluded."""
        chain: list[Node] = []
        nd: Node | None = self
        while nd is not None and nd.depth > 0:
            chain.append(nd)
            nd = nd.parent
        chain.reverse()
        return chain


@dataclass
class _NodeState:
    """What processing a node built: its box and trail, the propagator
    with every constraint active at it, and per level it completed, that
    level's node, the trail mark after its fixpoint and how many
    constraints the propagator held then.  Which of those are node-local
    the path says: each node's `locals_own`."""

    trail: Trail
    prop: Propagator
    levels: list[tuple[Node, int, int]] = field(default_factory=list)

    def complete(self, nd: Node) -> None:
        self.levels.append((nd, self.trail.mark(), len(self.prop.items)))

    def ancestor_depth(self, node: Node) -> int:
        """Depth of the deepest level completed here on `node`'s path,
        `node` included; the root level is on every path."""
        levels = self.levels
        while node.depth >= len(levels) or levels[node.depth][0] is not node:
            node = node.parent
        return node.depth

    def rewind(self, depth: int) -> None:
        """Back to the end of level `depth`'s fixpoint: the trail to its
        mark, the propagator to the constraints it held then."""
        _, mark, n_items = self.levels[depth]
        self.trail.rewind(mark)
        self.prop.truncate(n_items)
        del self.levels[depth + 1:]


@dataclass
class MipConfig:
    node_limit: int | None = None
    time_limit: float = 3600.0
    seed: int = 0
    rapid_mode: str = "off"          # off | root | local
    rapid: RapidConfig = field(default_factory=RapidConfig)

    def validate(self) -> None:
        if self.node_limit is not None and self.node_limit < 0:
            raise ConfigError("node limit must be nonnegative")
        if not self.time_limit > 0:
            raise ConfigError("time limit must be positive")
        if self.rapid_mode not in ("off", "root", "local"):
            raise ConfigError(f"unknown rapid mode {self.rapid_mode!r}")
        r = self.rapid
        if r.f < 1:
            raise ConfigError("frequency offset f must be >= 1")
        if not (r.beta > 1 and math.isfinite(r.beta)):
            raise ConfigError("frequency base beta must be finite and > 1")
        if r.max_transferred_conflicts < 0:
            raise ConfigError("max transferred conflicts must be >= 0")
        bad = set(r.criteria) - set(CRITERION_NAMES)
        if bad:
            raise ConfigError(f"unknown criteria: {sorted(bad)}")


@dataclass
class SolveResult:
    status: str
    objective: float | None
    dual_bound: float
    nodes: int
    rl_calls: int
    criterion_counts: dict[str, int]
    wall_seconds: float
    seed: int
    solution: np.ndarray | None
    stats: SearchStats
    events: list[str]


class _Solve:
    def __init__(self, instance: Instance, config: MipConfig):
        config.validate()
        self.inst = instance
        self.cfg = config
        self.stats = SearchStats()
        self.events: list[str] = []
        self.global_box = instance.root_box()
        self.global_constraints: list[tuple[int, BoundDisjunction]] = []
        self.next_cid = instance.num_rows
        self.heap: list[tuple[float, int, Node]] = []
        self.root = Node(id=1, parent=None, depth=0, lower_bound=-INF)
        self.next_node: Node | None = None
        # the state of the last node processed, or of the root fixpoint
        # before the root is processed; None when none can be switched
        self.kept: _NodeState | None = None
        # the optimal root LP, until the root node takes it
        self.root_lp: LpResult | None = None
        # what every LP of this solve shares
        self.lp_workspace = LpWorkspace(instance)
        self.plunge = 0
        self.nodes_processed = 0
        self.next_id = 1
        self.exhausted = False
        self.timed_out = False
        self.t0 = time.monotonic()
        self.deadline = self.t0 + config.time_limit

    # -- plumbing ----------------------------------------------------

    def log(self, line: str) -> None:
        self.events.append(line)

    def _alloc_cid(self) -> int:
        cid = self.next_cid
        self.next_cid += 1
        return cid

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def _propagator(self) -> Propagator:
        prop = Propagator(self.inst)
        for cid, d in self.global_constraints:
            prop.add_constraint(cid, d)
        return prop

    def _push(self, node: Node) -> None:
        heapq.heappush(self.heap, (node.lower_bound, node.id, node))

    def _dual_now(self) -> float:
        vals = [self.heap[0][0]] if self.heap else []
        if self.next_node is not None:
            vals.append(self.next_node.lower_bound)
        return min(vals, default=self.stats.incumbent_value)

    def _leaf(self, node: Node, action: str, kind: str | None = None) -> None:
        if kind is not None:
            record_leaf(kind, self.stats)
        dual = self._dual_now()
        self.stats.dual_bound = dual
        self.log(f"node {node.id} depth {node.depth} action {action} "
                 f"bound {fmt_g(node.lower_bound)} dual {fmt_g(dual)}")

    def _fractional(self, x: np.ndarray) -> list[int]:
        xs = x.tolist()
        return [j for j in self.inst.integer_indices
                if abs(xs[j] - round(xs[j])) > INT_TOL]

    # -- conflict handling -------------------------------------------

    def _on_propagation_conflict(self, node: Node, trail: Trail) -> None:
        local_ids = {cid for nd in node.path() for cid, _ in nd.locals_own}
        out = analyze_1uip(trail, self.inst.integer_mask, local_ids)
        if out.root_failure:
            # the proof used nothing below the root: globally infeasible
            if not out.tainted:
                self.exhausted = True
            return
        d = out.disjunction
        if d is None:
            return
        if out.tainted:
            # derivation leaned on a node-local constraint; not globally valid
            self.log(f"conflict node {node.id} size {d.size} scope discarded")
            return
        self.stats.branching.bump(d.literals())
        self.log(f"conflict node {node.id} size {d.size} scope global")
        self.kept = None        # the globals change
        if d.size == 1:
            try:
                self.global_box.tighten(*d.literals()[0])
            except EmptyBoxError:
                self.exhausted = True
            return
        self.global_constraints.append((self._alloc_cid(), d))

    # -- node processing ---------------------------------------------

    def _fixpoint(self, node: Node, state: _NodeState) -> bool:
        res = state.prop.to_fixpoint(state.trail.box, state.trail)
        if res.outcome is Outcome.INFEASIBLE:
            self._on_propagation_conflict(node, state.trail)
            return False
        return True

    def _descend(self, node: Node, nd: Node, state: _NodeState) -> bool:
        """Open level nd.depth on top of `state`: nd's branching bound,
        its own locals, one fixpoint.  False means `node` died there."""
        try:
            state.trail.branch(*nd.branch, nd.depth)
        except EmptyBoxError:
            return False
        for cid, d in nd.locals_own:
            state.prop.add_constraint(cid, d)
            self.log(f"lattach {cid} node {node.id}")
        if not self._fixpoint(node, state):
            return False
        state.complete(nd)
        return True

    def _root_state(self, node: Node) -> _NodeState | None:
        """A fresh state at the root level over the global box and
        constraints, kept; None means `node` died there."""
        state = _NodeState(Trail(self.global_box.copy()), self._propagator())
        if not self._fixpoint(node, state):
            return None
        state.complete(self.root)
        self.kept = state
        return state

    def _switch(self, node: Node) -> _NodeState | None:
        """Node's state: the kept one rewound to the deepest level it
        completed on node's path, or a fresh one from the root when the
        globals changed; then the levels below, one `_descend` each.
        None means the node died on the way, which keeps the state
        unless the conflict it died of was learned globally."""
        state, path = self.kept, node.path()
        if state is not None:
            depth = state.ancestor_depth(node)
            state.rewind(depth)
            # the log lines a build from the root writes for the locals kept
            for nd in path[:depth]:
                for cid, _ in nd.locals_own:
                    self.log(f"lattach {cid} node {node.id}")
        elif (state := self._root_state(node)) is None:
            return None
        for nd in path[len(state.levels) - 1:]:
            if not self._descend(node, nd, state):
                return None
        assert len(state.levels) == node.depth + 1, "one level per depth"
        return state

    def _process(self, node: Node) -> None:
        inst, stats = self.inst, self.stats
        t_switch = time.perf_counter()
        lp, self.root_lp = self.root_lp, None
        sb_lp, node.sb_lp = node.sb_lp, None
        state = self._switch(node)
        stats.switching_time += time.perf_counter() - t_switch
        if state is None:
            self._leaf(node, "infeasible", kind="infeasible")
            return
        box = state.trail.box

        # the root reuses the root LP unless the deadline has passed since;
        # then this LP stops before its first pivot and the root stays
        # open, like any node taken off the queue too late
        if lp is None or time.monotonic() > self.deadline:
            lp = solve_lp(inst, box, warm_basis=node.basis,
                          deadline=self.deadline, workspace=self.lp_workspace,
                          known=sb_lp)
            stats.iter_lp += lp.iterations
        if lp.status is LpStatus.UNBOUNDED:
            raise SolveError("LP relaxation is unbounded; finite bounds required")
        if lp.status is LpStatus.INFEASIBLE:
            self._leaf(node, "infeasible", kind="infeasible")
            return
        if lp.status is LpStatus.ITERATION_LIMIT:
            if time.monotonic() > self.deadline:
                # stopped by the time limit, not the cap: the node stays open
                self._push(node)
                self.timed_out = True
                return
            self._branch_fallback(node, box)
            return

        obj = float(lp.objective)
        node.lower_bound = max(node.lower_bound, obj)
        if node.branch is not None and math.isfinite(node.parent_obj):
            var, side, _ = node.branch
            # direction 1 is the up child, the one given a lower bound
            stats.branching.observe(var, int(side is Side.LOWER),
                                    obj - node.parent_obj,
                                    node.branch_distance)
        if node.lower_bound >= stats.incumbent_value - GAP_TOL:
            self._leaf(node, "cutoff", kind="cutoff")
            return
        x = lp.x        # already clipped to this box
        fractional = self._fractional(x)
        if not fractional:
            self._finish_integral(node, box, x)
            return

        if self.cfg.rapid_mode != "off" and \
                (node.depth == 0 or self.cfg.rapid_mode == "local"):
            outcome = maybe_run(
                node, stats, inst, self.cfg.rapid, seed=self.cfg.seed,
                lp_result=lp, trail=state.trail, prop=state.prop,
                events=self.events, deadline=self.deadline)
            if outcome is not None:
                if node.depth > 0:
                    # the transfer adds locals: reopen this level next
                    del state.levels[node.depth:]
                if self._transfer(node, state.trail, outcome):
                    return
                if node.lower_bound >= stats.incumbent_value - GAP_TOL:
                    self._leaf(node, "cutoff", kind="cutoff")
                    return
                x = np.clip(x, box.lower, box.upper)
                fractional = self._fractional(x)
                if not fractional:
                    self._finish_integral(node, box, x)
                    return

        if node.depth <= SB_DEPTH_CAP:
            self._strong_branch_round(node, box, lp, obj, x, fractional)
        var = stats.branching.ranked(fractional)[0]
        self._branch(node, box, lp.basis_status, obj, float(x[var]), var,
                     sb_lps=self.lp_workspace.take_children(var))

    def _transfer(self, node: Node, trail: Trail,
                  outcome: CpOutcome) -> bool:
        """Keep what the probe found at `node` in `trail.box`, its scope.

        Conflicts go global at the root and node-local below it; bound
        tightenings of a probe stopped by its budget go onto the trail, at
        the root as scope writes that the global box takes too, and below
        it as one-literal locals that descendants derive again; a solution
        is installed only after verification against the original
        instance.  True means the probe settled the node, whose leaf is
        already logged.
        """
        inst, stats, box = self.inst, self.stats, trail.box
        at_root = node.depth == 0

        # linear first, then shorter; `box` is still the scope box the
        # probe ran over, so a conflict's form is the one it had there
        ranked = sorted(((to_knapsack(d, box.lower, box.upper) is None, d)
                         for d in outcome.conflicts),
                        key=lambda t: (t[0], t[1].size))
        kept = ranked[:self.cfg.rapid.max_transferred_conflicts]
        scope = "global" if at_root else "local"
        sink = self.global_constraints if at_root else node.locals_own
        for disjunctive, d in kept:
            cid = self._alloc_cid()
            sink.append((cid, d))
            stats.branching.bump(d.literals())
            form = "disjunction" if disjunctive else "linear"
            self.log(f"lconstr {cid} node {node.id} level {node.depth} "
                     f"scope {scope} size {d.size} form {form}")

        n_bounds = 0
        emptied = False
        if outcome.status is CpStatus.NODE_LIMIT:
            deltas = [(j, Side.LOWER, float(outcome.box.lower[j]))
                      for j in range(inst.num_vars)
                      if outcome.box.lower[j] > box.lower[j] + FEAS_TOL]
            deltas += [(j, Side.UPPER, float(outcome.box.upper[j]))
                       for j in range(inst.num_vars)
                       if outcome.box.upper[j] < box.upper[j] - FEAS_TOL]
            try:
                for j, side, value in deltas:
                    if at_root:
                        trail.write(j, side, value)
                        self.global_box.tighten(j, side, value)
                    else:
                        # the reason is the cid the local gets below
                        trail.apply(j, side, value, self.next_cid, ())
                        lit = ((j, value),)
                        d1 = BoundDisjunction(lower_lits=lit, upper_lits=()) \
                            if side is Side.LOWER else \
                            BoundDisjunction(lower_lits=(), upper_lits=lit)
                        node.locals_own.append((self._alloc_cid(), d1))
                    n_bounds += 1
            except EmptyBoxError:
                emptied = True
        if at_root and (kept or n_bounds):
            self.kept = None        # the globals change

        installed = False
        if outcome.solution is not None:
            xs = outcome.solution
            if inst.check_point(xs):
                val = inst.objective_value(xs)
                if val < stats.incumbent_value - GAP_TOL:
                    record_leaf("improving", stats, xs, val)
                    installed = True
                    self.log(f"incumbent {fmt_g(val)} node {node.id} "
                             "origin rl")
            else:
                self.log(f"rl-solution-rejected node {node.id}")

        self.log(f"rl node {node.id} depth {node.depth} "
                 f"status {outcome.status.value} conflicts {len(kept)} "
                 f"bounds {n_bounds} solution {int(installed)} "
                 f"cpnodes {outcome.nodes}")
        if outcome.status is CpStatus.INFEASIBLE or emptied:
            self._leaf(node, "rl-infeasible", kind="infeasible")
            return True
        if outcome.status is not CpStatus.NODE_LIMIT:
            self._leaf(node, "rl-optimal")
            return True
        return False

    def _finish_integral(self, node: Node, box: BoundBox, x: np.ndarray) -> None:
        inst, stats = self.inst, self.stats
        ints = inst.integer_mask
        xr = np.clip(x, box.lower, box.upper)
        xr[ints] = np.round(xr[ints])
        if not inst.check_point(xr):
            # integral LP point that fails exact verification: knife-edge
            self._leaf(node, "integral-rejected", kind="infeasible")
            return
        val = inst.objective_value(xr)
        if val < stats.incumbent_value - GAP_TOL:
            record_leaf("improving", stats, xr, val)
            self.log(f"incumbent {fmt_g(val)} node {node.id}")
            self._leaf(node, "integral")
        else:
            self._leaf(node, "cutoff", kind="cutoff")

    def _strong_branch_round(self, node: Node, box: BoundBox, lp, obj: float,
                             x: np.ndarray, fractional: list[int]) -> None:
        """Strong-branch the SB_CANDIDATES best-scored fractional variables
        to set their missing pseudo-costs.  One with both directions set is
        skipped, not replaced: it solves no LP and adds nothing to the
        `sb_*` counters or `iter_lp` (reliability branching, threshold 1)."""
        stats, table = self.stats, self.stats.branching
        for j in table.ranked(fractional)[:SB_CANDIDATES]:
            if (j, 0) in table.pc_count and (j, 1) in table.pc_count:
                continue
            dn, up, iters = strong_branch(self.inst, box, j, lp,
                                          deadline=self.deadline,
                                          workspace=self.lp_workspace)
            stats.iter_lp += iters
            for child in (dn, up):
                # an infeasible child or an unmoved objective is no gain
                if child is None or abs(child - obj) <= 1e-6:
                    stats.sb_no_improvement += 1
                else:
                    stats.sb_objective_changed += 1
            f_dn = x[j] - math.floor(x[j])
            if dn is not None and (j, 0) not in table.pc_count:
                table.observe(j, 0, dn - obj, f_dn)
            if up is not None and (j, 1) not in table.pc_count:
                table.observe(j, 1, up - obj, 1.0 - f_dn)

    def _branch(self, node: Node, box: BoundBox, basis, obj: float,
                xv: float, var: int, capped: bool = False,
                sb_lps: tuple[KeptLp | None, KeptLp | None] = (None, None),
                ) -> None:
        """Split `var` at its value `xv`: x <= v in one child and
        x >= v + 1 in the other, v = floor(xv) inside the box.  `sb_lps`
        holds the (down, up) strong-branching LPs of `var`, which the
        children's own LPs return when their boxes are still equal."""
        v = int(math.floor(xv))
        v = int(min(max(v, box.lower[var]), box.upper[var] - 1))
        down = Node(id=self._new_id(), parent=node, depth=node.depth + 1,
                    lower_bound=node.lower_bound,
                    branch=(var, Side.UPPER, float(v)), basis=basis,
                    branch_distance=xv - v, parent_obj=obj,
                    sb_lp=sb_lps[0])
        up = Node(id=self._new_id(), parent=node, depth=node.depth + 1,
                  lower_bound=node.lower_bound,
                  branch=(var, Side.LOWER, float(v + 1)), basis=basis,
                  branch_distance=v + 1.0 - xv, parent_obj=obj,
                  sb_lp=sb_lps[1])
        self.log(f"branch node {node.id} depth {node.depth} var {var} "
                 f"point {v} frac {fmt_g(xv - v)} "
                 f"down {down.id} up {up.id}")
        preferred, other = (down, up) if xv - v <= 0.5 else (up, down)
        if not capped and self.plunge < PLUNGE_CAP:
            self.plunge += 1
            self.next_node = preferred
            self._push(other)
        else:
            self._push(down)
            self._push(up)
        self._leaf(node, "branched-capped" if capped else "branched")

    def _branch_fallback(self, node: Node, box: BoundBox) -> None:
        # an iteration-capped LP has no point and no proven bound: keep the
        # parent's bound and split the first unfixed integer at its midpoint
        unfixed = [j for j in self.inst.integer_indices
                   if box.upper[j] - box.lower[j] > 0.5]
        if not unfixed:
            if len(self.inst.integer_indices) < self.inst.num_vars:
                raise SolveError("simplex iteration cap on a node with "
                                 "every integer fixed")
            # every column is an integer fixed in the box: its one point
            # decides the node
            self._finish_integral(node, box, np.array(box.lower))
            return
        var = unfixed[0]
        mid = float(math.floor((box.lower[var] + box.upper[var]) / 2.0))
        self._branch(node, box, None, math.nan, mid, var, capped=True)

    # -- main loop ---------------------------------------------------

    def run(self) -> SolveResult:
        inst, stats = self.inst, self.stats
        # root propagation is globally valid: fold it into the global box,
        # and keep its state for the root node
        root = self.root
        state = self._root_state(root)
        if state is None:
            return self._finish("infeasible")
        self.global_box = state.trail.box.copy()
        root_lp = solve_lp(inst, self.global_box, deadline=self.deadline,
                           workspace=self.lp_workspace)
        stats.iter_lp += root_lp.iterations
        if root_lp.status is LpStatus.INFEASIBLE:
            return self._finish("infeasible")
        if root_lp.status is LpStatus.UNBOUNDED:
            raise SolveError("LP relaxation is unbounded; finite bounds required")
        root_dual = float(root_lp.objective) \
            if root_lp.status is LpStatus.OPTIMAL else -INF
        stats.root_dual_bound = root_dual
        stats.dual_bound = root_dual
        root.lower_bound = root_dual
        root.basis = root_lp.basis_status
        if root_lp.status is LpStatus.OPTIMAL:
            # the root node's box is the one this LP was solved over
            self.root_lp = root_lp
        self._push(root)

        limit = INF if self.cfg.node_limit is None else self.cfg.node_limit
        status: str | None = None
        while True:
            node = self.next_node
            self.next_node = None
            if node is None:
                if not self.heap:
                    break
                lb, _, node = heapq.heappop(self.heap)
                self.plunge = 0
                if stats.incumbent is not None and \
                        lb >= stats.incumbent_value - GAP_TOL:
                    self.heap.clear()   # best open bound is already cut off
                    break
            if self.nodes_processed >= limit:
                self._push(node)
                status = "nodelimit"
                break
            if time.monotonic() > self.deadline:
                self._push(node)
                status = "timelimit"
                break
            self._process(node)
            if self.timed_out:
                status = "timelimit"
                break
            self.nodes_processed += 1
            if self.exhausted:
                break
        return self._finish(status)

    def _finish(self, status: str | None) -> SolveResult:
        stats = self.stats
        if status is None:
            status = "optimal" if stats.incumbent is not None else "infeasible"
        if status == "optimal":
            stats.dual_bound = stats.incumbent_value
        elif status == "infeasible":
            stats.dual_bound = INF
        else:
            stats.dual_bound = self._dual_now()
        objective = stats.incumbent_value if stats.incumbent is not None else None
        wall = time.monotonic() - self.t0
        self.log(f"done status {status} nodes {self.nodes_processed} "
                 f"dual {fmt_g(stats.dual_bound)} "
                 f"primal {fmt_g(objective) if objective is not None else '-'}")
        return SolveResult(status=status, objective=objective,
                           dual_bound=stats.dual_bound,
                           nodes=self.nodes_processed,
                           rl_calls=stats.rl_calls,
                           criterion_counts=dict(stats.criterion_fires),
                           wall_seconds=wall, seed=self.cfg.seed,
                           solution=stats.incumbent, stats=stats,
                           events=self.events)


def solve(instance: Instance, config: MipConfig | None = None) -> SolveResult:
    """Solve to proven optimality (statuses: optimal, infeasible,
    nodelimit, timelimit).  Deterministic per (instance, config, seed)."""
    return _Solve(instance, config if config is not None else MipConfig()).run()
