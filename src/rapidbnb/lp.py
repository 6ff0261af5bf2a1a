"""Bounded-variable simplex and LP-based probing helpers.

Dense implementation over columns [structural | slack].  Every LP, cold
or warm, runs a bounded dual simplex (Koberstein 2005, PhD thesis, TU
Paderborn) from a start made dual feasible in one step: each nonbasic
column that prices out moves to the bound its reduced cost points at
where that bound is finite (a bound flip), and otherwise has its reduced
cost taken off its cost (a cost shift).  A warm node or strong-branching
LP, whose parent's optimal basis stays dual feasible after a bound
change, needs neither; a cold slack basis needs flips for its
negative-cost columns.  In the dual phase the basic value furthest
outside its bounds leaves, and the ratio test over the movable nonbasic
columns keeps every reduced cost's sign.  Its infeasibility proofs hold
whatever the cost.  A basis it makes primal feasible under a shifted
cost, or with a reduced cost that tolerances left of the wrong sign,
goes on in primal phase 2 with Dantzig pricing under the true cost,
which is also where an unbounded LP is found.  Both phases fall back to
Bland's rule after a run of non-improving pivots, so termination is
guaranteed.

The solver keeps `Binv`, the dense inverse of the basis matrix, for the
whole LP: each iteration recomputes the basic values, the duals and the
entering column's direction as three matrix-vector products with it
(a dual pivot also takes its pivot row, one row of it times T),
and a basis change updates it in O(m^2) by one rank-1 (eta) update that
reuses the ratio test's direction, written as the broadcast product
`w[:, None] * row`: the products `np.outer` forms, without its call
overhead.  A bound flip leaves it as it is.  It is rebuilt from scratch
(one O(m^3) inversion) after every REFACTOR_INTERVAL updates and
whenever the recomputed point misses `T x = b` by more than
RESIDUAL_TOL relative to the size of b, so rounding errors of the
updates cannot pile up.  Both rules depend only
on pivot counts and values, so the solve stays deterministic.

The LPs of one solve share an `LpWorkspace`, which builds T, b, the
padded cost and the residual limit once.  It keeps the inverse of the
last warm basis it inverted, so an LP starting from the same basis
columns (a node's strong-branching children, then its plunge child)
takes a copy of it instead of one O(m^3) inversion of its own; the copy
is bit for bit what that inversion gives.  It also holds the finished
child LPs of the current strong-branching round: the tree takes the two
of the variable it branches on into its child nodes, and a child node
whose box and warm start equal its strong-branching child's exactly is
handed that result by `solve_lp` instead of solving the LP again.

The nonbasic values are built once per LP and kept: a pivot or bound
flip rewrites only the entering, leaving or flipped column, so an
iteration costs no pass over every column's bounds.

The linear algebra stays in numpy, but pricing, the ratio tests and the
start's flips and shifts are scalar loops over Python lists of plain ints
and floats.  The basis is kept both ways: a list for the loops and an
`np.intp` array, patched at each pivot, for numpy's fancy indexing,
which would otherwise convert the list on every call.  With a few dozen
columns the per-call overhead of numpy dominates: vectorized pricing
measured slower than these loops, and
comparing an `np.int8` entry with an `IntEnum` member costs about fifty
times a plain int comparison.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import FEAS_TOL, INT_TOL, BoundBox, Instance

PIVOT_TOL = 1e-9
DEGEN_TOL = 1e-6
REFACTOR_INTERVAL = 50   # rank-1 updates of Binv between two inversions
RESIDUAL_TOL = 1e-9      # max |b - T x| over 1 + max |b| that forces one


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"


# basis status codes, plain ints for the simplex loops
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2


@dataclass
class LpResult:
    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    basis_status: np.ndarray | None = None   # length n + m, BASIC/AT_LOWER/AT_UPPER
    reduced_costs: np.ndarray | None = None  # length n + m, zero on basics
    iterations: int = 0


@dataclass
class DegeneracyInfo:
    degenerate_share: float
    face_ratio: float


def default_iteration_cap(n: int, m: int) -> int:
    return 10 * (n + m) + 1000


def _bounds(box: BoundBox) -> bytes:
    """The box's lower then upper bounds as float64 bytes: equal exactly
    when the boxes are, -0.0 and 0.0 apart."""
    return np.array(box.lower + box.upper).tobytes()


@dataclass
class KeptLp:
    """A finished LP result with the box and warm start it came from."""
    result: LpResult
    bounds: bytes               # `_bounds` of its box
    start: np.ndarray | None    # its warm basis

    def answers(self, box: BoundBox, warm_basis: np.ndarray | None) -> bool:
        """True when `box` and `warm_basis` are exactly its own."""
        start = self.start
        same_start = warm_basis is start or (
            warm_basis is not None and start is not None
            and np.array_equal(warm_basis, start))
        return same_start and _bounds(box) == self.bounds


class LpWorkspace:
    """What the LPs of one instance share: T = [A | I], b, the padded cost
    and the residual limit, all read-only, and the inverse of the last
    warm basis inverted, with that basis's column list.

    `sb_children` holds the current strong-branching round: per variable,
    its (down, up) child LPs that the simplex finished, None for a child
    that was empty or stopped by the deadline or the iteration cap.
    `take_children` hands the branched variable's pair to the tree and
    drops the rest, so a round keeps at most two results, each until its
    child node is processed."""

    def __init__(self, instance: Instance):
        A, b = instance.dense()
        m = instance.num_rows
        self.T = np.hstack([A, np.eye(m)])
        self.b = b
        self.cost = np.concatenate([instance.c, np.zeros(m)])
        self.residual_limit = RESIDUAL_TOL * (
            1.0 + float(np.abs(b).max(initial=0.0)))
        self.T.flags.writeable = self.cost.flags.writeable = False
        self.basis: list[int] | None = None
        self.Binv: np.ndarray | None = None
        self.sb_children: dict[int, tuple[KeptLp | None, KeptLp | None]] = {}

    def inverse(self, basis: list[int]) -> np.ndarray:
        """A copy of the inverse of T[:, basis], which the LP may update in
        place; raises LinAlgError, and keeps nothing, when it is singular."""
        if basis != self.basis:
            self.Binv = np.linalg.inv(self.T[:, basis])
            self.basis = basis.copy()    # the LP pivots its own list
        return self.Binv.copy()

    def take_children(self, var: int) -> tuple[KeptLp | None, KeptLp | None]:
        """The (down, up) children kept from strong branching on `var` in
        the current round, or Nones; every other child of the round is
        dropped."""
        children = self.sb_children.pop(var, (None, None))
        self.sb_children.clear()
        return children


class _Simplex:
    def __init__(self, ws: LpWorkspace, box: BoundBox,
                 warm_basis: np.ndarray | None, cap: int,
                 deadline: float | None):
        self.m, self.N = ws.T.shape
        self.n = self.N - self.m
        self.T, self.b, self.cost = ws.T, ws.b, ws.cost
        self.residual_limit = ws.residual_limit
        self.lo: list[float] = box.lower + [0.0] * self.m
        self.hi: list[float] = box.upper + [math.inf] * self.m
        # fixed columns never move
        self.movable = [j for j in range(self.N)
                        if not self.hi[j] - self.lo[j] <= INT_TOL]
        self.cap = cap
        self.deadline = deadline
        self.iterations = 0
        self.bland = False
        self.no_improve = 0
        self.bland_after = 3 * self.N
        self.status: list[int] = []
        self.basis: list[int] = []
        self.basis_idx: np.ndarray     # `basis` as an index array
        self.Binv: np.ndarray        # inverse of T[:, basis]
        self.updates = 0             # rank-1 updates since the last inversion
        # value vector and reduced costs of the last iteration at the optimum
        self.x: np.ndarray | None = None
        self.red: np.ndarray | None = None
        self._install_start(ws, warm_basis)
        self.basis_idx = np.array(self.basis, dtype=np.intp)
        # nonbasic values, zero on the basis; a column whose status bound
        # is infinite takes `_nb_start_value`'s
        lo, hi, start = self.lo, self.hi, self._nb_start_value
        xn = [0.0] * self.N
        for j, st in enumerate(self.status):
            if st != BASIC:
                v = hi[j] if st == AT_UPPER else lo[j]
                xn[j] = v if math.isfinite(v) else start(j)
        self.xn = np.array(xn)

    # ---- setup -----------------------------------------------------

    def _nb_start_value(self, j: int) -> float:
        lo, hi = self.lo[j], self.hi[j]
        if self.status[j] == AT_UPPER:
            if math.isfinite(hi):
                return hi
            self.status[j] = AT_LOWER
        if math.isfinite(lo):
            return lo
        if math.isfinite(hi):
            self.status[j] = AT_UPPER
            return hi
        return 0.0

    def _install_start(self, ws: LpWorkspace,
                       warm: np.ndarray | None) -> None:
        """Start from the basis status vector `warm`; one of the wrong
        length, with the wrong number of basic columns or singular gives
        way to the slack basis."""
        if warm is not None and warm.shape == (self.N,):
            status = warm.tolist()
            basis = [j for j, st in enumerate(status) if st == BASIC]
            if len(basis) == self.m:
                try:
                    # the inversion doubles as the singularity check
                    self.Binv = ws.inverse(basis)
                except np.linalg.LinAlgError:
                    pass
                else:
                    self.basis, self.status = basis, status
                    return
        self.Binv = np.eye(self.m)
        self.basis = list(range(self.n, self.N))
        self.status = [AT_LOWER] * self.n + [BASIC] * self.m

    # ---- core linear algebra ----------------------------------------

    def _refactor(self) -> None:
        self.Binv = np.linalg.inv(self.T[:, self.basis_idx])
        self.updates = 0

    def _recompute(self) -> np.ndarray:
        """Full value vector consistent with the current basis."""
        x = self.xn.copy()
        if not self.m:
            return x
        if self.updates >= REFACTOR_INTERVAL:
            self._refactor()
        rhs = self.b - self.T @ x
        basis = self.basis_idx
        x[basis] = self.Binv @ rhs
        if float(np.maximum.reduce(np.abs(self.b - self.T @ x))) > \
                self.residual_limit:
            self._refactor()
            x[basis] = self.Binv @ rhs
        return x

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        if not self.m:
            return cost.copy()
        y = cost[self.basis_idx] @ self.Binv
        return cost - y @ self.T

    def _update(self, pos: int, w: np.ndarray) -> None:
        """Binv after column basis[pos] leaves for the column whose
        direction Binv @ T[:, j] is w."""
        Binv = self.Binv
        row = Binv[pos] / w[pos]
        Binv -= w[:, None] * row
        Binv[pos] = row
        self.updates += 1

    # ---- pivoting ----------------------------------------------------

    def _entering(self, red: list[float]) -> tuple[int, int] | None:
        """Pick a nonbasic column and a movement sign, or None at optimum."""
        status, lo, hi = self.status, self.lo, self.hi
        best = None
        best_score = PIVOT_TOL
        for j in self.movable:
            st = status[j]
            if st == BASIC:
                continue
            d = red[j]
            sgn = 0
            if st == AT_LOWER:
                if d < -PIVOT_TOL:
                    sgn = 1
                elif d > PIVOT_TOL and not math.isfinite(lo[j]):
                    sgn = -1  # started free at zero, may go down
            else:
                if d > PIVOT_TOL:
                    sgn = -1
                elif d < -PIVOT_TOL and not math.isfinite(hi[j]):
                    sgn = 1
            if sgn == 0:
                continue
            if self.bland:
                return j, sgn
            if abs(d) > best_score:
                best_score = abs(d)
                best = (j, sgn)
        return best

    def _ratio_test(self, w: list[float], j: int, sgn: int,
                    x: list[float]) -> tuple[float, int | None, int]:
        """Largest step t for entering column j, whose direction is w,
        moving with sign sgn.

        Returns (t, leaving_position_in_basis | None, leaving_bound_side).
        leaving None means the entering column hits its own other bound.
        """
        lo, hi, basis = self.lo, self.hi, self.basis
        t_best = math.inf
        leave_pos = None
        leave_side = AT_LOWER
        for pos, i in enumerate(basis):
            rate = -sgn * w[pos]
            if abs(rate) <= PIVOT_TOL:
                continue
            if rate > 0:  # value increases
                target, side = hi[i], AT_UPPER
            else:
                target, side = lo[i], AT_LOWER
            if not math.isfinite(target):
                continue
            t = (target - x[i]) / rate
            if t < 0.0:
                t = 0.0
            if t < t_best - PIVOT_TOL or (t < t_best + PIVOT_TOL and
                                          (leave_pos is None or i < basis[leave_pos])):
                t_best = t
                leave_pos = pos
                leave_side = side
        own_range = hi[j] - lo[j]
        if math.isfinite(own_range) and own_range < t_best - PIVOT_TOL:
            return own_range, None, AT_LOWER
        return t_best, leave_pos, leave_side

    def _pivot(self, j: int, leave_pos: int | None, leave_side: int,
               w: np.ndarray) -> None:
        xn = self.xn
        if leave_pos is None:
            # bound flip, basis and Binv unchanged
            self.status[j] = AT_UPPER if self.status[j] == AT_LOWER else AT_LOWER
            xn[j] = self._nb_start_value(j)
            return
        self._update(leave_pos, w)
        i = self.basis[leave_pos]
        self.basis[leave_pos] = j
        self.basis_idx[leave_pos] = j
        self.status[j] = BASIC
        xn[j] = 0.0
        self.status[i] = leave_side
        xn[i] = self._nb_start_value(i)

    # ---- phases ------------------------------------------------------

    def _leaving(self, x: list[float]) -> tuple[int, int] | None:
        """The basis position whose value lies furthest outside its
        bounds, and the bound it leaves at, or None once every basic value
        is within FEAS_TOL of its bounds.  Bland's rule takes the lowest
        column index among the violated ones instead."""
        lo, hi = self.lo, self.hi
        best = None
        best_viol = FEAS_TOL
        best_col = self.N
        for pos, i in enumerate(self.basis):
            xi = x[i]
            if xi < lo[i] - FEAS_TOL:
                viol, side = lo[i] - xi, AT_LOWER
            elif xi > hi[i] + FEAS_TOL:
                viol, side = xi - hi[i], AT_UPPER
            else:
                continue
            if self.bland:
                if i < best_col:
                    best_col = i
                    best = (pos, side)
            elif viol > best_viol:
                best_viol = viol
                best = (pos, side)
        return best

    def _dual_ratio_test(self, alpha: list[float], red: list[float],
                         side: int) -> int | None:
        """The entering column for a leaving row whose pivot row is
        `alpha`, or None when no column can move its basic value towards
        the bound it leaves at `side`: then the LP is infeasible.

        Takes the smallest ratio |d_j| / |alpha_j| over the movable
        nonbasic columns whose move pushes that value the right way, so
        every reduced cost keeps its sign.  Ties go to the largest
        |alpha_j|, then to the lowest index; Bland's rule takes the lowest
        index among them.
        """
        status, lo = self.status, self.lo
        # one unit up of column j moves the leaving value by -alpha_j, and
        # the value must rise to a lower bound and fall to an upper one
        sign = -1.0 if side == AT_LOWER else 1.0
        best = None
        best_t = math.inf
        best_a = 0.0
        for j in self.movable:
            st = status[j]
            if st == BASIC:
                continue
            a = alpha[j]
            size = abs(a)
            if size <= PIVOT_TOL:
                continue
            if st == AT_UPPER:          # can only fall
                if a * sign > 0.0:
                    continue
                d = -red[j]
            elif math.isfinite(lo[j]):  # at its lower bound, can only rise
                if a * sign < 0.0:
                    continue
                d = red[j]
            else:                       # free at zero: either way
                d = abs(red[j])
            t = max(d, 0.0) / size
            if t < best_t - PIVOT_TOL or (t < best_t + PIVOT_TOL and
                                          not self.bland and size > best_a):
                best_t = t
                best_a = size
                best = j
        return best

    def _dual_start(self, red: np.ndarray) -> np.ndarray:
        """Make the start dual feasible for its reduced costs `red`, and
        return the cost the dual phase runs under.

        Each movable nonbasic column that prices out moves to the bound
        its reduced cost points at, where that bound is finite (a bound
        flip).  Where it is not, the column's reduced cost is taken off a
        copy of the cost and `red` reads zero there (a cost shift); the
        duals stay as they are, since only a nonbasic cost changes.
        """
        status, lo, hi, xn = self.status, self.lo, self.hi, self.xn
        cost = self.cost
        red_l = red.tolist()
        for j in self.movable:
            d = red_l[j]
            if status[j] == BASIC or abs(d) <= PIVOT_TOL:
                continue
            side, bound = (AT_UPPER, hi[j]) if d < 0.0 else (AT_LOWER, lo[j])
            if not math.isfinite(bound):
                if cost is self.cost:
                    cost = cost.copy()
                cost[j] -= d
                red[j] = 0.0
            elif status[j] != side:
                status[j] = side
                xn[j] = bound
        return cost

    def _dual(self, x: np.ndarray, red: np.ndarray,
              cost: np.ndarray) -> LpStatus | None:
        """Bounded dual simplex under `cost` from a basis whose reduced
        costs `red` (with its values `x`) are dual feasible.

        Each pivot moves a basic value that breaks a bound (`_leaving`)
        to that bound, and the dual objective cost @ x never falls.  Once
        every basic value is within its bounds the basis is optimal,
        unless `cost` is shifted or tolerances left a reduced cost of the
        wrong sign: then it returns None, and primal phase 2 goes on from
        this basis under the true cost.  An infeasibility proof holds
        whatever the cost.
        """
        prev = -math.inf
        while True:
            if self.iterations >= self.cap:
                return LpStatus.ITERATION_LIMIT
            if self.deadline is not None and time.monotonic() > self.deadline:
                return LpStatus.ITERATION_LIMIT
            leave = self._leaving(x.tolist())
            if leave is None:
                if cost is not self.cost or \
                        self._entering(red.tolist()) is not None:
                    return None
                self.x, self.red = x, red
                return LpStatus.OPTIMAL
            objective = float(cost @ x)
            if objective < prev + PIVOT_TOL:
                self.no_improve += 1
                if self.no_improve >= self.bland_after:
                    self.bland = True
            else:
                self.no_improve = 0
            prev = objective
            pos, side = leave
            alpha = self.Binv[pos] @ self.T
            q = self._dual_ratio_test(alpha.tolist(), red.tolist(), side)
            if q is None:
                return LpStatus.INFEASIBLE
            self._pivot(q, pos, side, self.Binv @ self.T[:, q])
            self.iterations += 1
            x = self._recompute()
            red = self._reduced_costs(cost)

    def run(self) -> LpStatus:
        """Dual simplex from the start `_dual_start` makes dual feasible,
        then primal phase 2 where the dual phase hands on."""
        red = self._reduced_costs(self.cost)
        cost = self._dual_start(red)
        status = self._dual(self._recompute(), red, cost)
        if status is not None:
            return status
        self.no_improve = 0
        return self._primal()

    def _primal(self) -> LpStatus:
        """Primal simplex under the true cost from a primal feasible basis."""
        prev = math.inf
        while True:
            if self.iterations >= self.cap:
                return LpStatus.ITERATION_LIMIT
            if self.deadline is not None and time.monotonic() > self.deadline:
                return LpStatus.ITERATION_LIMIT
            x = self._recompute()
            objective = float(self.cost @ x)
            if objective > prev - PIVOT_TOL:
                self.no_improve += 1
                if self.no_improve >= self.bland_after:
                    self.bland = True
            else:
                self.no_improve = 0
            prev = objective

            red = self._reduced_costs(self.cost)
            choice = self._entering(red.tolist())
            if choice is None:
                self.x, self.red = x, red
                return LpStatus.OPTIMAL
            j, sgn = choice
            w = self.Binv @ self.T[:, j]
            t, leave_pos, leave_side = self._ratio_test(w.tolist(), j, sgn,
                                                        x.tolist())
            if not math.isfinite(t):
                return LpStatus.UNBOUNDED
            self._pivot(j, leave_pos, leave_side, w)
            self.iterations += 1

    # ---- extraction ----------------------------------------------------

    def result(self, status: LpStatus, box: BoundBox) -> LpResult:
        basis_status = np.array(self.status, dtype=np.int8)
        if status is not LpStatus.OPTIMAL:
            return LpResult(status, iterations=self.iterations,
                            basis_status=basis_status)
        red = self.red
        red[self.basis_idx] = 0.0  # exactly zero on the basis
        xs = self.x[:self.n].copy()
        np.clip(xs, box.lower, box.upper, out=xs)
        return LpResult(LpStatus.OPTIMAL, x=xs,
                        objective=float(self.cost[:self.n] @ xs),
                        basis_status=basis_status,
                        reduced_costs=red,
                        iterations=self.iterations)


def solve_lp(instance: Instance, box: BoundBox,
             warm_basis: np.ndarray | None = None,
             deadline: float | None = None, *,
             workspace: LpWorkspace | None = None,
             known: KeptLp | None = None) -> LpResult:
    """Solve the LP relaxation over `box`.

    Deterministic for identical inputs.  `warm_basis` takes a previous
    result's basis_status; an unusable one is silently ignored, and a warm
    solve whose linear algebra breaks down is solved again cold.  Once
    `time.monotonic()` passes `deadline`, the solve stops before its next
    pivot with ITERATION_LIMIT.  `workspace`, built for `instance`, shares
    T and warm inverses among the LPs of one solve; without it the LP
    builds its own, with the same answer.  `known`, an LP of `instance`
    kept from earlier, is returned as it is, the very object, when its
    box and warm start equal `box` and `warm_basis` exactly and
    `deadline` has not passed: the result this call would compute.
    """
    if box.is_empty():
        return LpResult(LpStatus.INFEASIBLE)
    if known is not None and known.answers(box, warm_basis) and (
            deadline is None or time.monotonic() <= deadline):
        return known.result
    if workspace is None:
        workspace = LpWorkspace(instance)
    cap = default_iteration_cap(instance.num_vars, instance.num_rows)
    try:
        sx = _Simplex(workspace, box, warm_basis, cap, deadline)
        status = sx.run()
    except np.linalg.LinAlgError:
        if warm_basis is not None:
            return solve_lp(instance, box, None, deadline,
                            workspace=workspace)
        raise
    return sx.result(status, box)


def measure_degeneracy(result: LpResult, box: BoundBox) -> DegeneracyInfo:
    """Dual-degeneracy share and optimal-face size ratio of `result`, the
    optimal LP over `box`.

    Counts structural columns that `box` leaves unfixed only: a fixed
    variable cannot move off its bound, so its reduced cost says nothing
    about alternative optima.  share = degenerate nonbasic / nonbasic;
    face_ratio = (basic + degenerate nonbasic) / max(1, rows).  Both are
    NaN-free.
    """
    if result.basis_status is None or result.reduced_costs is None:
        raise ValueError("degeneracy needs an optimal LP result")
    n = len(box.lower)
    num_rows = len(result.basis_status) - n
    st = result.basis_status[:n]
    red = result.reduced_costs[:n]
    fixed = (np.array(box.upper) - np.array(box.lower)) <= INT_TOL
    nonbasic = (st != BASIC) & ~fixed
    degen = nonbasic & (np.abs(red) <= DEGEN_TOL)
    n_nonbasic = int(nonbasic.sum())
    n_degen = int(degen.sum())
    n_basic = int((st == BASIC).sum())
    # no nonbasic columns left: vacuously every one of them is degenerate
    share = 1.0 if n_nonbasic == 0 else n_degen / n_nonbasic
    ratio = (n_basic + n_degen) / max(1, num_rows)
    return DegeneracyInfo(degenerate_share=share, face_ratio=ratio)


def strong_branch(instance: Instance, box: BoundBox, var: int,
                  parent: LpResult, deadline: float | None = None, *,
                  workspace: LpWorkspace | None = None,
                  ) -> tuple[float | None, float | None, int]:
    """Probe both children of branching on `var` at the parent LP value.

    Each child is an ordinary LP warm-started from the parent's basis, the
    same solve a node LP makes, in the same `workspace`, which keeps the
    children the simplex finished in `sb_children[var]`.  Returns (down
    objective, up objective, simplex iterations); None stands for an
    infeasible child or one stopped at `deadline` or by the iteration cap.
    """
    assert parent.x is not None and parent.objective is not None
    frac = float(parent.x[var])
    iters = 0
    objs: list[float | None] = [None, None]
    kept: list[KeptLp | None] = [None, None]
    for k in (0, 1):
        child = box.copy()
        if k == 0:
            child.upper[var] = float(math.floor(frac + INT_TOL))
        else:
            child.lower[var] = float(math.ceil(frac - INT_TOL))
        if child.is_empty():
            continue
        res = solve_lp(instance, child, warm_basis=parent.basis_status,
                       deadline=deadline, workspace=workspace)
        iters += res.iterations
        objs[k] = res.objective
        # only a finished result, never one the deadline or the cap stopped
        if workspace is not None and \
                res.status is not LpStatus.ITERATION_LIMIT:
            kept[k] = KeptLp(res, _bounds(child), parent.basis_status)
    if workspace is not None:
        workspace.sb_children[var] = (kept[0], kept[1])
    return objs[0], objs[1], iters
