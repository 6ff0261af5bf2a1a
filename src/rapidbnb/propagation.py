"""Bound propagation: one propagator per constraint form, and a fixpoint
driver.  All three propagators share one deduction shape.

Clauses (learned bound disjunctions and `RowKind.CLAUSE` rows) run a
two-watched-literal scheme; knapsack rows walk their heaviest-first
integer weights with early exit; every other row uses residual activity
bounding.  A learned conflict propagates as its disjunction even when it
has a linear form (`LearnedConstraint.linear`): on sub-boxes of the box
it was learned over, residual activity on that row deduces the same
units, values and reasons at about twice the cost.  Every deduction
carries the minimal set of bounds its propagator actually read, so a
conflict graph can be reconstructed from the trail alone.

Watch lists are search-local mutable state: they are (re)built when a
constraint enters a Propagator and never shared between searches.  They
survive backtracking unrepaired because undoing bound changes can only
turn false literals non-false, which keeps watched invariants intact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conflict import BoundDisjunction, LearnedConstraint, Trail
from .model import FEAS_TOL, INT_TOL, BoundBox, Instance, Row, RowKind, Side


class PropagationCycleError(RuntimeError):
    """The fixpoint loop exceeded its evaluation budget; a propagator is
    oscillating instead of converging, which is a bug."""


class Outcome(enum.Enum):
    FIXPOINT = "fixpoint"      # nothing to do
    REDUCED = "reduced"        # tightened at least one bound, then stabilized
    INFEASIBLE = "infeasible"


@dataclass
class Deduction:
    var: int
    side: Side
    value: float
    reason: tuple[tuple[int, Side], ...]


@dataclass
class RowInfeasible:
    reason: tuple[tuple[int, Side], ...]


@dataclass
class PropagationResult:
    outcome: Outcome
    deductions: list[tuple[int, Side, float]]
    failed_constraint: int | None = None


def propagate_linear_row(row: Row, box: BoundBox, int_mask: np.ndarray,
                         ) -> list[Deduction] | RowInfeasible:
    """Residual-activity strengthening for one <= row.

    The minimum activity uses the lower bound under positive coefficients
    and the upper bound under negative ones; those are exactly the bounds
    reported as reasons.  Bounds for integer variables are rounded.
    """
    contrib: list[float] = []
    reads: list[tuple[int, Side]] = []
    minact = 0.0
    n_inf = 0
    for j, a in zip(row.cols, row.coefs):
        if a > 0:
            val = a * box.lower[j]
            reads.append((j, Side.LOWER))
        else:
            val = a * box.upper[j]
            reads.append((j, Side.UPPER))
        contrib.append(val)
        if val == -np.inf:
            n_inf += 1
        else:
            minact += val

    if n_inf == 0 and minact > row.rhs + FEAS_TOL:
        return RowInfeasible(tuple(reads))

    deds: list[Deduction] = []
    for k, (j, a) in enumerate(zip(row.cols, row.coefs)):
        if n_inf - (1 if contrib[k] == -np.inf else 0) > 0:
            continue  # residual activity unbounded below without j
        rest = minact if contrib[k] == -np.inf else minact - contrib[k]
        residual = row.rhs - rest
        if a > 0:
            value = residual / a
            if int_mask[j]:
                value = float(np.floor(value + INT_TOL))
            if value < box.upper[j] - FEAS_TOL:
                reason = tuple(reads[:k] + reads[k + 1:])
                if value < box.lower[j] - FEAS_TOL:
                    return RowInfeasible(reason + ((j, Side.LOWER),))
                deds.append(Deduction(j, Side.UPPER, value, reason))
        else:
            value = residual / a
            if int_mask[j]:
                value = float(np.ceil(value - INT_TOL))
            if value > box.lower[j] + FEAS_TOL:
                reason = tuple(reads[:k] + reads[k + 1:])
                if value > box.upper[j] + FEAS_TOL:
                    return RowInfeasible(reason + ((j, Side.UPPER),))
                deds.append(Deduction(j, Side.LOWER, value, reason))
    return deds


def propagate_knapsack(row: Row, box: BoundBox) -> list[Deduction] | RowInfeasible:
    """Exact integer propagation for a knapsack row.

    Items fixed to one fill the capacity; any free item that no longer
    fits is fixed to zero.  Walking weights heaviest-first allows an
    early exit at the first item that fits.
    """
    # an integer load exceeds floor(rhs + tol) exactly when it exceeds this
    capacity = row.rhs + INT_TOL
    used = 0
    reason: list[tuple[int, Side]] = []
    for j, w in row.weights:
        if box.lower[j] >= 0.5:
            used += w
            reason.append((j, Side.LOWER))
    if used > capacity:
        return RowInfeasible(tuple(reason))
    frozen = tuple(reason)
    deds: list[Deduction] = []
    for j, w in row.weights:
        if box.lower[j] >= 0.5 or box.upper[j] <= 0.5:
            continue
        if used + w > capacity:
            deds.append(Deduction(j, Side.UPPER, 0.0, frozen))
        else:
            break  # everything lighter fits as well
    return deds


_TRUE, _FALSE, _OPEN = 1, -1, 0


def _lit_state(lit: tuple[int, Side, float], box: BoundBox) -> int:
    var, side, val = lit
    if side is Side.LOWER:
        if box.lower[var] >= val - INT_TOL:
            return _TRUE
        if box.upper[var] < val - INT_TOL:
            return _FALSE
    else:
        if box.upper[var] <= val + INT_TOL:
            return _TRUE
        if box.lower[var] > val + INT_TOL:
            return _FALSE
    return _OPEN


def _lit_falsifier(lit: tuple[int, Side, float]) -> tuple[int, Side]:
    var, side, _ = lit
    return (var, Side.UPPER if side is Side.LOWER else Side.LOWER)


def propagate_watched(lits: Sequence[tuple[int, Side, float]], box: BoundBox,
                      watch: list[int]) -> Deduction | RowInfeasible | None:
    """Two-watched propagation over a disjunction of bound literals.

    No work happens while either watched literal is satisfiable.  When a
    watch goes false it scans once for a replacement; failing that, the
    remaining watch is forced (unit) or the constraint reports failure.
    """
    if len(lits) == 1:
        st = _lit_state(lits[0], box)
        if st == _TRUE:
            return None
        if st == _FALSE:
            return RowInfeasible((_lit_falsifier(lits[0]),))
        var, side, val = lits[0]
        return Deduction(var, side, val, ())

    for slot in (0, 1):
        if _lit_state(lits[watch[slot]], box) == _FALSE:
            other = watch[1 - slot]
            for idx in range(len(lits)):
                if idx != other and idx != watch[slot] and \
                        _lit_state(lits[idx], box) != _FALSE:
                    watch[slot] = idx
                    break
    s0 = _lit_state(lits[watch[0]], box)
    s1 = _lit_state(lits[watch[1]], box)
    if s0 == _TRUE or s1 == _TRUE:
        return None
    if s0 == _FALSE and s1 == _FALSE:
        return RowInfeasible(tuple(_lit_falsifier(l) for l in lits))
    if s0 == _FALSE or s1 == _FALSE:
        unit_idx = watch[1] if s0 == _FALSE else watch[0]
        unit = lits[unit_idx]
        reason = tuple(_lit_falsifier(l) for i, l in enumerate(lits)
                       if i != unit_idx)
        return Deduction(unit[0], unit[1], unit[2], reason)
    return None


def clause_literals(row: Row) -> tuple[tuple[int, Side, float], ...]:
    # a RowKind.CLAUSE row as literals: -1 gives x_j >= 1, +1 gives x_j <= 0
    return tuple((j, Side.LOWER, 1.0) if a < 0 else (j, Side.UPPER, 0.0)
                 for j, a in zip(row.cols, row.coefs))


class _Item:
    __slots__ = ("cid", "row", "lits", "watch")

    def __init__(self, cid: int, row: Row | None = None,
                 lits: tuple[tuple[int, Side, float], ...] | None = None):
        self.cid = cid
        self.row = row
        self.lits = lits
        self.watch = [0, min(1, len(lits) - 1)] if lits is not None else None


class Propagator:
    """All constraints active for one search scope, with fixpoint driving.

    Instance rows keep their row index as constraint id; learned
    constraints must be registered under ids that do not collide.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.int_mask = instance.integer_mask
        self.items: list[_Item] = []
        for i, row in enumerate(instance.rows):
            self.add_constraint(i, row)

    def add_constraint(self, cid: int,
                       con: Row | BoundDisjunction | LearnedConstraint) -> None:
        if isinstance(con, LearnedConstraint):
            con = con.disjunction
        if isinstance(con, BoundDisjunction):
            self.items.append(_Item(cid, lits=con.literals()))
        elif con.kind is RowKind.CLAUSE:
            self.items.append(_Item(cid, lits=clause_literals(con)))
        else:
            self.items.append(_Item(cid, row=con))

    def _evaluate(self, item: _Item, box: BoundBox,
                  ) -> list[Deduction] | Deduction | RowInfeasible | None:
        if item.lits is not None:
            return propagate_watched(item.lits, box, item.watch)
        row = item.row
        if row.kind is RowKind.KNAPSACK:
            return propagate_knapsack(row, box)
        return propagate_linear_row(row, box, self.int_mask)

    def to_fixpoint(self, box: BoundBox,
                    trail: Trail | None = None) -> PropagationResult:
        """Round-robin all constraints until a full quiet pass.

        Raises PropagationCycleError past 1000 evaluations per constraint,
        which indicates a non-converging propagator rather than big input.
        """
        if trail is None:
            trail = Trail(box)
        assert trail.box is box
        guard = 1000 * max(1, len(self.items))
        evals = 0
        applied: list[tuple[int, Side, float]] = []

        def cross_fail(item: _Item, d: Deduction) -> bool:
            if d.side is Side.LOWER and d.value > box.upper[d.var] + FEAS_TOL:
                trail.fail(item.cid, d.reason + ((d.var, Side.UPPER),))
                return True
            if d.side is Side.UPPER and d.value < box.lower[d.var] - FEAS_TOL:
                trail.fail(item.cid, d.reason + ((d.var, Side.LOWER),))
                return True
            return False

        while True:
            changed = False
            for item in self.items:
                evals += 1
                if evals > guard:
                    raise PropagationCycleError(
                        f"no fixpoint after {guard} constraint evaluations")
                res = self._evaluate(item, box)
                if res is None:
                    continue
                if isinstance(res, RowInfeasible):
                    trail.fail(item.cid, res.reason)
                    return PropagationResult(Outcome.INFEASIBLE, applied, item.cid)
                if isinstance(res, Deduction):
                    res = [res]
                for d in res:
                    if cross_fail(item, d):
                        return PropagationResult(Outcome.INFEASIBLE, applied,
                                                 item.cid)
                    if trail.apply(d.var, d.side, d.value, item.cid, d.reason):
                        applied.append((d.var, d.side, d.value))
                        changed = True
            if not changed:
                break
        outcome = Outcome.REDUCED if applied else Outcome.FIXPOINT
        return PropagationResult(outcome, applied)
