"""The trail of bound changes and no-good learning.

A search records every accepted bound change on one trail.  Deductions
keep the bounds their propagator read, plus the constraint that fired;
analysis finds the changes behind them only where it resolves.  When a
failure is recorded, resolving backwards from its antecedents until a
single bound change of the deepest level remains yields the first unique
implication point cut; negating the cut gives a bound disjunction that
every feasible point of the searched problem satisfies.

Two bookkeeping details matter for soundness:

* Bound changes up to the scope's own level hold throughout the scope,
  so their literals are dropped from cuts (standard strengthening).
* Each inference step used by the proof names a constraint id.  If any
  of those ids is conditionally valid (an objective-cutoff pseudo-reason
  or a constraint derived from one), the resulting cut only holds for
  improving solutions; callers get a `tainted` flag and must keep such
  cuts out of stores that promise validity for all feasible points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import BoundBox, Row, Side

BRANCH_REASON = -1
CUTOFF_REASON = -2


@dataclass(slots=True)
class BoundChange:
    var: int
    side: Side
    value: float
    level: int
    reason: int                      # constraint id, BRANCH_REASON, or CUTOFF_REASON
    reads: tuple[tuple[int, Side], ...]   # bounds this deduction read
    old_value: float                 # bound before the change, for undo
    shadowed: int | None             # previous trail position on (var, side)


@dataclass
class Failure:
    reason: int
    antecedents: tuple[int, ...]


class Trail:
    """Every accepted bound change of one search over `box`, in order,
    with the level and reason it was made at, plus the last failure.

    Propagators talk to this object: `apply` tightens the box and, when
    the bound actually moved, records the deduction with the bounds it
    read; `antecedents` finds their trail positions when asked.
    """

    def __init__(self, box: BoundBox) -> None:
        self.box = box
        self.changes: list[BoundChange] = []
        self.failure: Failure | None = None
        self.level = 0
        self._last: dict[tuple[int, Side], int] = {}

    def mark(self) -> int:
        return len(self.changes)

    def antecedents(self, p: int) -> tuple[int, ...]:
        """Per bound change `p` read, the position of the last change on it
        below `p`: still what it was when `p` was applied (rewinds pop)."""
        changes, last = self.changes, self._last
        out = []
        for key in changes[p].reads:
            q = last.get(key)
            while q is not None and q >= p:
                q = changes[q].shadowed
            if q is not None:
                out.append(q)
        return tuple(out)

    def branch(self, var: int, side: Side, value: float, level: int) -> bool:
        """Open decision level `level`; later deductions record it too."""
        self.level = level
        return self.apply(var, side, value, BRANCH_REASON, ())

    def apply(self, var: int, side: Side, value: float, reason: int,
              reason_bounds: tuple[tuple[int, Side], ...]) -> bool:
        old = self.box.get(var, side)
        if not self.box.tighten(var, side, value):
            return False
        key = (var, side)
        self.changes.append(BoundChange(
            var, side, float(value), self.level, reason,
            reason_bounds, old, self._last.get(key)))
        self._last[key] = len(self.changes) - 1
        return True

    def fail(self, reason: int, reason_bounds: Iterable[tuple[int, Side]]) -> None:
        self.failure = Failure(reason, tuple(   # start values have no position
            self._last[k] for k in reason_bounds if k in self._last))

    def rewind(self, mark: int) -> None:
        """Undo every change after `mark` in the box and forget the failure."""
        box = self.box
        while len(self.changes) > mark:
            ch = self.changes.pop()
            key = (ch.var, ch.side)
            if ch.shadowed is None:
                del self._last[key]
            else:
                self._last[key] = ch.shadowed
            (box.lower if ch.side is Side.LOWER else box.upper)[ch.var] = \
                ch.old_value
        self.failure = None


@dataclass(frozen=True)
class BoundDisjunction:
    """`or` over bound literals: x_i >= lam for (i, lam) in lower_lits,
    x_i <= mu for (i, mu) in upper_lits.  Index sets are disjoint and the
    literal values are integral.  Empty means unsatisfiable everywhere,
    which callers use as an infeasibility proof, never as a constraint.
    """

    lower_lits: tuple[tuple[int, float], ...]
    upper_lits: tuple[tuple[int, float], ...]

    @property
    def size(self) -> int:
        return len(self.lower_lits) + len(self.upper_lits)

    def literals(self) -> tuple[tuple[int, Side, float], ...]:
        lows = tuple((v, Side.LOWER, val) for v, val in self.lower_lits)
        ups = tuple((v, Side.UPPER, val) for v, val in self.upper_lits)
        return lows + ups

    def __str__(self) -> str:
        parts = [f"x{v} >= {val:g}" for v, val in self.lower_lits]
        parts += [f"x{v} <= {val:g}" for v, val in self.upper_lits]
        return " or ".join(parts) if parts else "<empty>"


@dataclass
class AnalysisOutcome:
    disjunction: BoundDisjunction | None
    tainted: bool
    root_failure: bool = False


def analyze_1uip(trail: Trail, int_mask: np.ndarray,
                 tainted_ids: frozenset[int] | set[int],
                 cap: int | None = None, base: int = 0) -> AnalysisOutcome:
    """First-UIP cut for the recorded failure.

    Resolution happens at the deepest level actually present among the
    failure's antecedents, so stale failures coming out of replayed
    trails analyze correctly too.  Levels up to `base` count as level 0.

    A `cap` ends it with no disjunction once the bounds below the deepest
    level, which resolution keeps, are more than `cap`; any disjunction,
    and `root_failure`, are those found without a cap.
    """
    fail = trail.failure
    if fail is None:
        raise ValueError("no failure recorded")
    changes = trail.changes
    tainted = fail.reason == CUTOFF_REASON or fail.reason in tainted_ids

    # literals implied up to level `base` hold everywhere in the scope
    deepest = max((changes[p].level for p in fail.antecedents), default=0)
    if deepest <= base:
        return AnalysisOutcome(None, tainted, root_failure=True)

    # conflict positions at the deepest level, the others, and their bounds
    deep, kept, keys = set(), set(), set()
    reached = fail.antecedents
    while True:
        for q in reached:
            ch = changes[q]
            if ch.level == deepest:
                deep.add(q)
            elif ch.level > base:
                kept.add(q)
                keys.add((ch.var, ch.side))
        if cap is not None and len(keys) > cap:
            return AnalysisOutcome(None, tainted)
        if len(deep) <= 1:
            break
        # the branching is the oldest entry of its level, so a propagation
        # is always available while two entries remain
        expandable = [q for q in deep if changes[q].reason != BRANCH_REASON]
        if not expandable:
            break
        p = max(expandable)
        deep.discard(p)
        reason = changes[p].reason
        tainted = tainted or reason == CUTOFF_REASON or reason in tainted_ids
        reached = trail.antecedents(p)

    # negate the cut; merge per (var, side) keeping the weakest literal
    lower: dict[int, float] = {}
    upper: dict[int, float] = {}
    for p in kept | deep:
        ch = changes[p]
        if not int_mask[ch.var]:
            return AnalysisOutcome(None, tainted)
        if ch.side is Side.UPPER:
            lam = ch.value + 1.0  # not(x <= v)  ==  x >= v + 1
            lower[ch.var] = min(lower.get(ch.var, lam), lam)
        else:
            mu = ch.value - 1.0  # not(x >= v)  ==  x <= v - 1
            upper[ch.var] = max(upper.get(ch.var, mu), mu)

    if set(lower) & set(upper):
        return AnalysisOutcome(None, tainted)
    return AnalysisOutcome(BoundDisjunction(tuple(sorted(lower.items())),
                                            tuple(sorted(upper.items()))),
                           tainted)


def to_knapsack(d: BoundDisjunction, lower: np.ndarray,
                upper: np.ndarray) -> Row | None:
    """Equivalent linear row, when one exists.

    The disjunction fails exactly on the box points with x_i = u_i for
    every upper-set index and x_i = l_i for every lower-set index; that
    happens precisely when each upper literal sits at u_i - 1 and each
    lower literal at l_i + 1 against the reference box.  Then
    `sum_{upper set} x_i - sum_{lower set} x_i <= sum u_i - sum l_i - 1`
    excludes the same single corner and nothing else.
    """
    if d.size == 0:
        return None
    cols: list[int] = []
    coefs: list[float] = []
    rhs = -1.0
    for v, lam in d.lower_lits:
        if lam != lower[v] + 1.0:
            return None
        cols.append(v)
        coefs.append(-1.0)
        rhs -= lower[v]
    for v, mu in d.upper_lits:
        if mu != upper[v] - 1.0:
            return None
        cols.append(v)
        coefs.append(1.0)
        rhs += upper[v]
    return Row(cols, coefs, rhs, name="conflict")

