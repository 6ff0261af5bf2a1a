"""Branching statistics and the two selection rules that read them.

One `BranchingStats` table holds everything hybrid branching
(Achterberg & Berthold, 2009) scores a candidate by: pseudo-cost sums
and counts per (variable, direction), the number of deductions that
branching on a variable triggered, and conflict activity (VSIDS) per
bound side.  The tree search scores with all three; the CP probe
branches on the inference counts alone and adds its own counts to the
table it was handed, so the host search sees them without a merge.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .model import INF, BoundBox, Side

PC_FLOOR = 1e-6
# (pseudo-cost, inference, conflict) weights; the second set takes over
# when the search is conflict heavy (see SearchStats.conflict_heavy)
WEIGHTS_DEFAULT = (1.0, 0.1, 0.1)
WEIGHTS_CONFLICT_HEAVY = (0.1, 0.5, 1.0)


class AllFixedError(Exception):
    """Branching was asked for but every integer variable is fixed."""


class BranchingStats:
    """Pseudo-costs, inference counts and conflict activity of one solve."""

    def __init__(self) -> None:
        self.pc_sum: dict[tuple[int, int], float] = {}
        self.pc_count: dict[tuple[int, int], int] = {}
        self.inferences: dict[int, int] = {}
        self.activity: dict[tuple[int, Side], float] = {}
        self.conflicts_seen = 0

    def update_pseudo_cost(self, var: int, direction: int, gain: float) -> None:
        key = (var, direction)
        self.pc_sum[key] = self.pc_sum.get(key, 0.0) + gain
        self.pc_count[key] = self.pc_count.get(key, 0) + 1

    def pseudo_cost(self, var: int, direction: int) -> float:
        k = self.pc_count.get((var, direction), 0)
        return self.pc_sum[(var, direction)] / k if k else 0.0

    def add_inferences(self, var: int, amount: int) -> None:
        self.inferences[var] = self.inferences.get(var, 0) + amount

    def inference(self, var: int) -> int:
        return self.inferences.get(var, 0)

    def vsids(self, var: int) -> float:
        return self.activity.get((var, Side.LOWER), 0.0) + \
            self.activity.get((var, Side.UPPER), 0.0)

    def bump(self, literals: Iterable[tuple[int, Side, float]]) -> None:
        """+1 per literal of a fresh conflict; every 100 conflicts the
        whole activity table shrinks by 0.95 (argmax-preserving)."""
        for var, side, _val in literals:
            key = (var, side)
            self.activity[key] = self.activity.get(key, 0.0) + 1.0
        self.conflicts_seen += 1
        if self.conflicts_seen % 100 == 0:
            for key in self.activity:
                self.activity[key] *= 0.95

    def score(self, var: int, conflict_heavy: bool) -> float:
        """Hybrid score: weighted pseudo-cost product, inferences, activity."""
        w_pc, w_inf, w_vsids = WEIGHTS_CONFLICT_HEAVY if conflict_heavy \
            else WEIGHTS_DEFAULT
        product = max(self.pseudo_cost(var, 0), PC_FLOOR) * \
            max(self.pseudo_cost(var, 1), PC_FLOOR)
        return (w_pc * product
                + w_inf * self.inference(var)
                + w_vsids * self.vsids(var))


def select_branching(fractional: list[int], table: BranchingStats,
                     conflict_heavy: bool) -> int:
    """Best hybrid score among `fractional`; ties keep the first."""
    best, best_score = fractional[0], -INF
    for j in fractional:
        s = table.score(j, conflict_heavy)
        if s > best_score:
            best, best_score = j, s
    return best


def select_inference_branching(box: BoundBox, int_mask: np.ndarray,
                               table: BranchingStats, pseudo: Sequence[float],
                               rng: random.Random) -> tuple[int, int]:
    """Unfixed integer variable with the best inference record.

    Ties fall to the rng so repeated probes explore differently under
    different seeds but identically under the same seed.  The returned
    value v is the pseudo-solution value clamped into [l, u-1], so the
    child containing the pseudo solution is always well defined.
    """
    cands = [j for j in range(len(pseudo))
             if int_mask[j] and box.upper[j] - box.lower[j] > 0.5]
    if not cands:
        raise AllFixedError
    best = max(table.inference(j) for j in cands)
    ties = [j for j in cands if table.inference(j) == best]
    var = ties[0] if len(ties) == 1 else rng.choice(ties)
    v = int(min(max(pseudo[var], box.lower[var]), box.upper[var] - 1))
    return var, v
