"""Branching statistics and the two selection rules that read them.

One `BranchingStats` table holds everything hybrid branching
(Achterberg & Berthold, 2009) scores a candidate by: pseudo-cost sums
and counts per (variable, direction), the number of deductions that
branching on a variable triggered, and conflict activity (VSIDS) per
bound side.  It owns the tree's rules for them too: `observe` turns an
LP objective change into a pseudo-cost, and `ranked` orders candidates
for strong branching and for the branching choice.  The CP probe
branches on the inference counts alone and adds its own counts to the
table it was handed; nothing else records any, so under
`rapid_mode="off"` the tree's inference term is 0 for every candidate.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .model import BoundBox, Side

PC_FLOOR = 1e-6
# (pseudo-cost, inference, conflict) weights of the hybrid score
W_PC, W_INF, W_VSIDS = 1.0, 0.1, 0.1


class BranchingStats:
    """Pseudo-costs, inference counts and conflict activity of one solve."""

    def __init__(self) -> None:
        self.pc_sum: dict[tuple[int, int], float] = {}
        self.pc_count: dict[tuple[int, int], int] = {}
        self.inferences: dict[int, int] = {}
        self.activity: dict[tuple[int, Side], float] = {}
        self.conflicts_seen = 0

    def observe(self, var: int, direction: int, change: float,
                distance: float) -> None:
        """Record that moving `var` by `distance` in `direction` (0 down,
        1 up) changed the LP objective by `change`: a fall counts as no
        gain, and a distance below PC_FLOOR as PC_FLOOR."""
        key = (var, direction)
        gain = max(change, 0.0) / max(distance, PC_FLOOR)
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

    def score(self, var: int) -> float:
        """Hybrid score: weighted pseudo-cost product, inferences (the
        probe's only, see the module note), activity."""
        product = max(self.pseudo_cost(var, 0), PC_FLOOR) * \
            max(self.pseudo_cost(var, 1), PC_FLOOR)
        return (W_PC * product
                + W_INF * self.inference(var)
                + W_VSIDS * self.vsids(var))

    def ranked(self, candidates: Iterable[int]) -> list[int]:
        """`candidates` by falling score, ties to the lowest index."""
        return sorted(candidates, key=lambda j: (-self.score(j), j))


def select_inference_branching(box: BoundBox, int_mask: np.ndarray,
                               table: BranchingStats, pseudo: Sequence[float],
                               rng: random.Random) -> tuple[int, int] | None:
    """Unfixed integer variable with the best inference record, or None
    when every integer variable is fixed.

    Ties fall to the rng so repeated probes explore differently under
    different seeds but identically under the same seed.  The returned
    value v is the pseudo-solution value clamped into [l, u-1], so the
    child containing the pseudo solution is always well defined.
    """
    cands = [j for j in range(len(pseudo))
             if int_mask[j] and box.upper[j] - box.lower[j] > 0.5]
    if not cands:
        return None
    best = max(table.inference(j) for j in cands)
    ties = [j for j in cands if table.inference(j) == best]
    var = ties[0] if len(ties) == 1 else rng.choice(ties)
    v = int(min(max(pseudo[var], box.lower[var]), box.upper[var] - 1))
    return var, v
