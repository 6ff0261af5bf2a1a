"""Bound propagation: one propagator per constraint form, and a fixpoint
driver.  All three propagators share one deduction shape.

Clauses (learned bound disjunctions and `RowKind.CLAUSE` rows) run a
two-watched-literal scheme; knapsack rows walk their heaviest-first
integer weights with early exit; every other row uses residual activity
bounding.  A learned conflict is only ever its disjunction, so no row is
built for it: where it has a linear form (`conflict.to_knapsack` over
the box it was learned in), residual activity on that row would deduce
the same units, values and reasons on sub-boxes of that box, at about
twice the cost.  Every deduction
carries the minimal set of bounds its propagator actually read, so a
conflict graph can be reconstructed from the trail alone.

Residual activity skips a row whose slack covers its widest term's
range, as SCIP's linear constraint handler does with `maxactdelta`
(Achterberg 2007, ch. 7), and slices each deduction's reason from a
tuple kept on the row (`Row.prepared`).

Watches are mutable state of one Propagator, which a probe shares with
its node: a clause's two watch indices, and per variable the clauses
watching a lower- and an upper-bound literal on it, built when the
clause enters it and left where a search moved them (see below).

The fixpoint driver evaluates only dirty constraints, in the manner of
Chaff and MiniSat.  A row is dirtied when a bound its minimum activity
reads tightens (SCIP's linear handler reacts to the same events): a
tighter opposite bound only makes each candidate bound harder to beat,
or for a knapsack leaves an item out that the walk would have found
fitting.  A clause is dirtied only when a tightening may falsify a
watched literal, unless the other watch is true.  A clause's verdict
depends on the box alone: it fails when every literal is false, deduces
the one non-false literal when that is open, and is quiet otherwise.  A
clean clause has a true watch or two non-false ones, so each evaluation
skipped would have been quiet; since a clean row's last evaluation, its
read bounds have not moved and its other bounds have only tightened,
its own deductions among them, so evaluating it again would change
nothing.  Skipping both leaves the trail, and so every conflict,
exactly as a full round-robin would.

A rewind returns the driver to the fixpoint it left, the way a
watched-literal solver backtracks without touching a watch.  Each quiet
fixpoint leaves a record of the trail mark it ended at, with every
constraint clean, and the next fixpoint diffs the box against the
deepest record whose mark is still on the trail, instead of against
the deeper state the rewind undid; since the record the bounds have
only tightened, so the diff wakes what deductions would have.  A clause
whose watches moved below that record moved them onto literals that
were non-false on a box inside the record's, so they are non-false on
the record's box too.  That holds only while every box since the
record lay inside it, so a box outside it (a bound loosened past the
trail) drops every record and dirties every constraint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .conflict import BoundChange, BoundDisjunction, Trail
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


_INF = math.inf
_NEG_INF = -math.inf


# a skipped row's slack must beat its widest term by this share of the
# magnitudes in play (rhs, the widest term, and the largest term and
# minimum activity through `pos`); the per-term pass rounds away less than
# a tenth of it, so the skip never hides a deduction the terms would make
SKIP_MARGIN = 1e-14


# one (column, side) pair object per value, shared by the reads of every
# row, so a row's reads cost one pointer per term; at most two entries per
# column index
_PAIRS: dict[tuple[int, Side], tuple[int, Side]] = {}


def _reads(row: Row) -> tuple[tuple[int, Side], ...]:
    # the bounds residual activity reads, in column order: a failure's
    # reason, and a deduction's less its own column.  Built on a linear
    # row's first deduction or failure and kept in `row.prepared`; the
    # slot of a knapsack or clause row holds its weights or literals
    if row.kind is not RowKind.LINEAR or not row.prepared:
        pairs = [(j, Side.LOWER if a > 0 else Side.UPPER)
                 for j, a in zip(row.cols, row.coefs)]
        reads = tuple([_PAIRS.setdefault(p, p) for p in pairs])
        if row.kind is not RowKind.LINEAR:
            return reads
        row.prepared = reads
    return row.prepared


def propagate_linear_row(row: Row, box: BoundBox, int_mask: Sequence[bool],
                         ) -> list[Deduction] | RowInfeasible:
    """Residual-activity strengthening for one <= row.

    The minimum activity uses the lower bound under positive coefficients
    and the upper bound under negative ones; those are exactly the bounds
    reported as reasons.  Finite bounds for integer variables are rounded.

    A row whose slack `rhs - minact` is at least its widest term's range
    `reach = max |a_j| (u_j - l_j)`, plus `SKIP_MARGIN` times the largest
    magnitude in play, returns `[]` before the per-term pass: each
    candidate bound then lies at or beyond the opposite bound, so no term
    can deduce anything.  That holds while integer columns carry integral
    bounds, which `Instance` and every propagator keep.
    """
    lower, upper = box.lower, box.upper
    rhs = row.rhs
    minact = reach = pos = 0.0
    n_inf = 0
    for j, a in zip(row.cols, row.coefs):
        if a > 0:
            lo = lower[j]
            val = a * lo
            span = a * (upper[j] - lo)
        else:
            up = upper[j]
            val = a * up
            span = a * (lower[j] - up)
        if span > reach:
            reach = span
        minact += val
        if val > 0:
            pos += val
    if not minact > _NEG_INF:
        # a term is unbounded below: count those and sum the others
        minact = 0.0
        for j, a in zip(row.cols, row.coefs):
            val = a * lower[j] if a > 0 else a * upper[j]
            if val == _NEG_INF:
                n_inf += 1
            else:
                minact += val

    if n_inf == 0:
        if minact > rhs + FEAS_TOL:
            return RowInfeasible(_reads(row))
        # every term and minact lie within [-(pos - minact), pos]
        if rhs - minact >= reach + SKIP_MARGIN * (
                abs(rhs) + reach + pos + pos - minact):
            return []
    elif n_inf > 1:
        return []   # every residual activity is unbounded below

    deds: list[Deduction] = []
    full = None
    for k, (j, a) in enumerate(zip(row.cols, row.coefs)):
        val = a * lower[j] if a > 0 else a * upper[j]
        if val == _NEG_INF:
            rest = minact
        elif n_inf:
            continue  # residual activity unbounded below without j
        else:
            rest = minact - val
        value = (rhs - rest) / a
        if a > 0:
            if int_mask[j] and _NEG_INF < value < _INF:
                value = float(math.floor(value + INT_TOL))
            if value < upper[j] - FEAS_TOL:
                full = full or _reads(row)
                reason = full[:k] + full[k + 1:]
                if value < lower[j] - FEAS_TOL:
                    return RowInfeasible(reason + ((j, Side.LOWER),))
                deds.append(Deduction(j, Side.UPPER, value, reason))
        else:
            if int_mask[j] and _NEG_INF < value < _INF:
                value = float(math.ceil(value - INT_TOL))
            if value > lower[j] + FEAS_TOL:
                full = full or _reads(row)
                reason = full[:k] + full[k + 1:]
                if value > upper[j] + FEAS_TOL:
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
    lower, upper = box.lower, box.upper
    used = 0
    reason: list[tuple[int, Side]] = []
    weights = row.prepared
    for j, w in weights:
        if lower[j] >= 0.5:
            used += w
            reason.append((j, Side.LOWER))
    if used > capacity:
        return RowInfeasible(tuple(reason))
    frozen = tuple(reason)
    deds: list[Deduction] = []
    for j, w in weights:
        if lower[j] >= 0.5 or upper[j] <= 0.5:
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

    # each watch's state is computed once, and once for its replacement;
    # the box does not change here, so the states stay current
    w0, w1 = watch
    s0 = _lit_state(lits[w0], box)
    if s0 == _FALSE:
        for idx in range(len(lits)):
            if idx != w1 and idx != w0:
                st = _lit_state(lits[idx], box)
                if st != _FALSE:
                    w0, s0 = idx, st
                    break
    s1 = _lit_state(lits[w1], box)
    if s1 == _FALSE:
        for idx in range(len(lits)):
            if idx != w0 and idx != w1:
                st = _lit_state(lits[idx], box)
                if st != _FALSE:
                    w1, s1 = idx, st
                    break
    watch[0], watch[1] = w0, w1
    if s0 == _TRUE or s1 == _TRUE:
        return None
    if s0 == _FALSE and s1 == _FALSE:
        return RowInfeasible(tuple(_lit_falsifier(l) for l in lits))
    if s0 == _FALSE or s1 == _FALSE:
        unit_idx = w1 if s0 == _FALSE else w0
        unit = lits[unit_idx]
        reason = tuple(_lit_falsifier(l) for i, l in enumerate(lits)
                       if i != unit_idx)
        return Deduction(unit[0], unit[1], unit[2], reason)
    return None


def clause_literals(row: Row) -> tuple[tuple[int, Side, float], ...]:
    # a clause row as literals: -1 gives x_j >= 1, +1 gives x_j <= 0.
    # Built once for a RowKind.CLAUSE row and kept in `row.prepared`
    if row.kind is RowKind.CLAUSE and row.prepared:
        return row.prepared
    lits = tuple((j, Side.LOWER, 1.0) if a < 0 else (j, Side.UPPER, 0.0)
                 for j, a in zip(row.cols, row.coefs))
    if row.kind is RowKind.CLAUSE:
        row.prepared = lits
    return lits


def _tightened(box: BoundBox, snap: tuple[list[float], list[float]],
               ) -> tuple[list[int], list[int]] | None:
    # the columns whose lower bound rose and whose upper bound fell since
    # the snapshot, or None when a bound loosened: the box is not inside
    # the snapshot's.  A side that equals it as a whole costs one comparison
    lower, upper = box.lower, box.upper
    snap_lower, snap_upper = snap
    rose = [] if lower == snap_lower else \
        [j for j, v in enumerate(lower) if v != snap_lower[j]]
    fell = [] if upper == snap_upper else \
        [j for j, v in enumerate(upper) if v != snap_upper[j]]
    for j in rose:
        if lower[j] < snap_lower[j]:
            return None
    for j in fell:
        if upper[j] > snap_upper[j]:
            return None
    return rose, fell


class _Item:
    __slots__ = ("idx", "cid", "row", "lits", "watch")

    def __init__(self, idx: int, cid: int, row: Row | None = None,
                 lits: tuple[tuple[int, Side, float], ...] | None = None):
        self.idx = idx
        self.cid = cid
        self.row = row
        self.lits = lits
        self.watch = [0, min(1, len(lits) - 1)] if lits is not None else None


class Propagator:
    """All constraints active for one search scope, with fixpoint driving.

    Instance rows keep their row index as constraint id; learned
    constraints must be registered under ids that do not collide.
    `truncate` detaches those added last, as a rewind past their level.

    Between fixpoints `records` keeps, per quiet fixpoint still on the
    trail, `(mark, change, snapshot, size)`: the trail's length and last
    change (None at mark 0) at its end, its bounds and its number of
    constraints; marks rise and boxes shrink up the list.
    `occ[side][j]` lists the rows whose minimum activity reads that
    bound of variable j: the lower one under a positive coefficient
    (every knapsack weight), the upper one under a negative one.
    `watch_lower[j]` and `watch_upper[j]` list the clauses watching a
    lower- or upper-bound literal on j, and `_evaluate` moves a clause
    when its watches move.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.int_mask: list[bool] = instance.integer_mask.tolist()
        self.items: list[_Item] = []
        n = instance.num_vars
        self.occ: tuple[list[list[int]], list[list[int]]] = (
            [[] for _ in range(n)], [[] for _ in range(n)])
        self.watch_lower: list[list[int]] = [[] for _ in range(n)]
        self.watch_upper: list[list[int]] = [[] for _ in range(n)]
        self.records: list[tuple[int, BoundChange | None,
                                 tuple[list[float], list[float]], int]] = []
        for i, row in enumerate(instance.rows):
            self.add_constraint(i, row)

    def add_constraint(self, cid: int, con: Row | BoundDisjunction) -> None:
        idx = len(self.items)
        if isinstance(con, BoundDisjunction):
            item = _Item(idx, cid, lits=con.literals())
        elif con.kind is RowKind.CLAUSE:
            item = _Item(idx, cid, lits=clause_literals(con))
        else:
            item = _Item(idx, cid, row=con)
            for occ in self._occurrences(con):
                occ.append(idx)
        if item.lits is not None:
            for lit in item.lits[:2]:       # the literals watched first
                self._watchers(lit).append(idx)
        self.items.append(item)

    def truncate(self, size: int) -> None:
        """Detach every constraint after the first `size`, with its watch
        and occurrence entries: the inverse of `add_constraint`.
        Fixpoint records that held more go too."""
        for item in self.items[size:]:
            if item.lits is not None:
                for w in set(item.watch):
                    self._watchers(item.lits[w]).remove(item.idx)
            else:
                for occ in self._occurrences(item.row):
                    occ.remove(item.idx)
        del self.items[size:]
        records = self.records
        while records and records[-1][3] > size:
            records.pop()

    def _occurrences(self, row: Row) -> list[list[int]]:
        # per term, the occurrence list of the bound its minimum activity reads
        lows, ups = self.occ
        return [lows[j] if a > 0 else ups[j]
                for j, a in zip(row.cols, row.coefs)]

    def _watchers(self, lit: tuple[int, Side, float]) -> list[int]:
        var, side, _ = lit
        return (self.watch_lower if side is Side.LOWER
                else self.watch_upper)[var]

    def _evaluate(self, item: _Item, box: BoundBox,
                  ) -> list[Deduction] | Deduction | RowInfeasible | None:
        lits = item.lits
        if lits is not None:
            watch = item.watch
            w0, w1 = watch
            res = propagate_watched(lits, box, watch)
            if watch[0] != w0 or watch[1] != w1:
                for old, new in ((w0, watch[0]), (w1, watch[1])):
                    if old != new:
                        self._watchers(lits[old]).remove(item.idx)
                        self._watchers(lits[new]).append(item.idx)
            return res
        row = item.row
        if row.kind is RowKind.KNAPSACK:
            return propagate_knapsack(row, box)
        return propagate_linear_row(row, box, self.int_mask)

    def _wake(self, dirty: list[bool], watchers: list[int], var: int,
              box: BoundBox) -> None:
        """Dirty the clauses among `watchers`, each watching a literal on
        `var` that a tightening of var may falsify, whose other watch is
        not true."""
        items = self.items
        for k in watchers:
            if dirty[k]:
                continue
            item = items[k]
            lits = item.lits
            w0, w1 = item.watch
            other = _lit_state(lits[w1] if lits[w0][0] == var else lits[w0],
                               box)
            if other != _TRUE:
                dirty[k] = True

    def _mark_moved(self, box: BoundBox, trail: Trail) -> list[bool]:
        """The dirty flags a fixpoint starts from: the constraints the top
        record still on the trail held clean unless a bound they read
        tightened since, and later ones dirty.  With no record, or a box
        outside it (a bound loosened past the trail), every constraint
        is dirty."""
        records, changes = self.records, trail.changes
        while records:
            mark, change, snap, size = records[-1]
            if mark > len(changes) or \
                    (changes[mark - 1] if mark else None) is not change:
                records.pop()
                continue
            moved = _tightened(box, snap)
            if moved is None:
                break
            dirty = [False] * size + [True] * (len(self.items) - size)
            self._dirty_moved(dirty, box, *moved)
            return dirty
        records.clear()
        return [True] * len(self.items)

    def _dirty_moved(self, dirty: list[bool], box: BoundBox,
                     rose: list[int], fell: list[int]) -> None:
        # a risen lower bound dirties the rows that read it and may
        # falsify upper-bound literals; the same for a fallen upper bound
        occ_lower, occ_upper = self.occ
        lows, ups = self.watch_lower, self.watch_upper
        for j in rose:
            for i in occ_lower[j]:
                dirty[i] = True
            if ups[j]:
                self._wake(dirty, ups[j], j, box)
        for j in fell:
            for i in occ_upper[j]:
                dirty[i] = True
            if lows[j]:
                self._wake(dirty, lows[j], j, box)

    def _stop(self, box: BoundBox, trail: Trail, outcome: Outcome,
              applied: list[tuple[int, Side, float]]) -> PropagationResult:
        # a quiet fixpoint leaves a record: a new one on top when the
        # trail grew since the top one, else in its place
        if outcome is not Outcome.INFEASIBLE:
            changes, records = trail.changes, self.records
            mark = len(changes)
            record = (mark, changes[-1] if mark else None,
                      (list(box.lower), list(box.upper)), len(self.items))
            if records and records[-1][0] == mark:
                records[-1] = record
            else:
                records.append(record)
        return PropagationResult(outcome, applied)

    def to_fixpoint(self, box: BoundBox,
                    trail: Trail | None = None) -> PropagationResult:
        """Passes over the dirty constraints, in index order, until a pass
        applies nothing.

        A fixpoint starts from the last quiet one still on the trail
        while the box lies inside it, and otherwise with every constraint
        dirty (`_mark_moved`).  A constraint is dirty when it was added
        since, and when a bound moved since its last evaluation in a way
        that may change its verdict (see the module docstring): by
        another constraint's deduction, or, since that fixpoint, by
        branching or bounds written past the trail.  Without `trail` the
        call runs on a fresh one: it drops every record above mark 0 and
        replaces that one, so the next call on another trail diffs
        against this call's fixpoint, or dirties every constraint if its
        box is not inside it.  A clean constraint's evaluation would
        change nothing, so the result is the same trail as evaluating
        every constraint in every pass.  Its own deductions do not dirty
        a constraint, because no propagator reads a bound it deduces:
        residual activity deduces the side of a bound it does not read, a
        clause's unit literal becomes true, and a knapsack fixes free
        items to zero while it reads only the items fixed to one.

        Failures come from the propagators alone: no deduction crosses
        the opposite bound by more than FEAS_TOL, which is where
        `BoundBox.tighten` would raise.  Residual activity returns
        RowInfeasible for such a bound itself, a knapsack deduces x_j <= 0
        only for items whose lower bound is 0, and a clause deduces only a
        literal that is not false (INT_TOL == FEAS_TOL).  A row never
        repeats a column, so applying one of its deductions cannot make a
        later one cross.

        Raises PropagationCycleError past 1000 evaluations per constraint,
        which indicates a non-converging propagator rather than big input.
        """
        if trail is None:
            trail = Trail(box)
        assert trail.box is box
        dirty = self._mark_moved(box, trail)
        items, occ = self.items, self.occ
        watch_lower, watch_upper = self.watch_lower, self.watch_upper
        guard = 1000 * max(1, len(items))
        evals = 0
        applied: list[tuple[int, Side, float]] = []

        while True:
            changed = False
            for i, item in enumerate(items):
                if not dirty[i]:
                    continue
                dirty[i] = False
                evals += 1
                if evals > guard:
                    raise PropagationCycleError(
                        f"no fixpoint after {guard} constraint evaluations")
                res = self._evaluate(item, box)
                if not res:
                    continue
                if isinstance(res, RowInfeasible):
                    trail.fail(item.cid, res.reason)
                    return self._stop(box, trail, Outcome.INFEASIBLE, applied)
                if isinstance(res, Deduction):
                    res = [res]
                for d in res:
                    if trail.apply(d.var, d.side, d.value, item.cid, d.reason):
                        applied.append((d.var, d.side, d.value))
                        changed = True
                        for k in occ[d.side][d.var]:
                            if k != i:
                                dirty[k] = True
                        watchers = (watch_upper if d.side is Side.LOWER
                                    else watch_lower)[d.var]
                        if watchers:
                            self._wake(dirty, watchers, d.var, box)
            if not changed:
                break
        return self._stop(box, trail, Outcome.REDUCED if applied
                          else Outcome.FIXPOINT, applied)
