"""When to fire the probe search inside the LP-based solve, and the run.

Six trigger criteria, an exponentially thinning depth schedule, and the
probe run itself, which hands its outcome back unapplied: the tree
search decides what to keep of it (`mipsearch._Solve._transfer`).  The
probe adds its inference counts to the host's branching table itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cpsearch import CpConfig, CpOutcome, cp_search, node_limit_from_iters
from .lp import DegeneracyInfo, measure_degeneracy
from .model import Instance

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


def is_rl_depth(d: int, f: int, beta: float) -> bool:
    """True at depth 0 and at f, f*beta, f*beta^2, ...  Exact rational
    walk, so no floating log ever misclassifies a depth.  It stops at
    the first t that is not an integer: for beta = p/q in lowest terms,
    t's denominator q^k / gcd(f, q^k) never shrinks, so no later t is a
    depth either (and the fractions would grow without bound)."""
    if not 1 < beta < math.inf:
        raise ValueError("beta must be finite and > 1")
    if d == 0:
        return True
    if d < f:
        return False
    t = Fraction(f)
    step = Fraction(beta)
    while t < d:
        t *= step
        if t.denominator != 1:
            return False
    return t == d


def evaluate_criteria(stats, degeneracy: DegeneracyInfo | None, *,
                      instance: Instance, box,
                      enabled: frozenset[str]) -> list[str]:
    """The names in `enabled` whose trigger fires, in CRITERION_NAMES
    order, against the search statistics, the LP degeneracy and the node
    box.  `degeneracy` is read only when "degeneracy" is enabled.  All
    threshold comparisons are strict."""
    fired: list[str] = []
    # equal infinite bounds subtract to NaN, so equality is tested first
    if "dualbound" in enabled and (
            stats.dual_bound == stats.root_dual_bound
            or abs(stats.dual_bound - stats.root_dual_bound) <= 1e-9):
        fired.append("dualbound")
    if "leaves" in enabled and \
            stats.leaves_infeasible > RATIO_THRESHOLD * stats.leaves_cutoff:
        fired.append("leaves")
    if "degeneracy" in enabled and (
            degeneracy.degenerate_share > DEGENERACY_SHARE_THRESHOLD
            or degeneracy.face_ratio > FACE_RATIO_THRESHOLD):
        fired.append("degeneracy")
    if "obj" in enabled:
        unfixed_support = sum(
            1 for j in range(instance.num_vars)
            if instance.c[j] != 0.0 and box.upper[j] - box.lower[j] > 1e-6)
        if unfixed_support <= OBJ_SUPPORT_SLACK:
            fired.append("obj")
    if "nsols" in enabled and stats.n_solutions == 0:
        fired.append("nsols")
    # strong-branching LPs solved: a candidate skipped for its known
    # pseudo-costs solves none and counts toward neither side
    if "sblps" in enabled and stats.sb_no_improvement > \
            RATIO_THRESHOLD * stats.sb_objective_changed:
        fired.append("sblps")
    return fired


def maybe_run(node, stats, instance: Instance, config: RapidConfig, *,
              seed: int, lp_result, trail, prop,
              events: list[str], deadline=None) -> CpOutcome | None:
    """Run the probe on the node's `trail` and `prop` when the depth
    schedule and a criterion both say so: its outcome, or None if not.

    Only the `criteria` line, the call and fire counts and the branching
    table change here: the caller decides what to keep of the outcome.
    The CP seed is the solve's `seed` xor node id so distinct nodes probe
    differently but reruns are identical.  The probe stops at `deadline`,
    a `time.monotonic()` value.
    """
    if not is_rl_depth(node.depth, config.f, config.beta):
        return None
    if not bool(instance.integer_mask.all()):
        return None      # the probe handles pure integer scopes only
    enabled = frozenset(config.criteria)
    if node.depth == 0:
        enabled &= ROOT_CRITERIA
    degen = measure_degeneracy(lp_result, trail.box) \
        if "degeneracy" in enabled else None
    fired = evaluate_criteria(stats, degen, instance=instance, box=trail.box,
                              enabled=enabled)
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
    return cp_search(instance, trail, prop, cp_cfg,
                     branching=stats.branching)
