"""
Bound propagation and the learning probe search
===============================================

"""

import numpy as np

from rapidbnb import from_inequalities, to_knapsack
from rapidbnb.conflict import Trail
from rapidbnb.cpsearch import CpConfig, cp_search
from rapidbnb.propagation import Propagator

# Propagation alone already deduces a lot.  In 5a + 4b + 2c <= 6 over
# binaries, fixing a = 1 leaves only one unit of slack, which rules out
# b and then c.
knap = from_inequalities([0.0, 0.0, 0.0],
                         [((0, 1, 2), (5.0, 4.0, 2.0), "<=", 6.0)],
                         [1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0, 1, 2])
box = knap.root_box()
res = Propagator(knap).to_fixpoint(box)
print("knapsack with a fixed to 1:", res.outcome.value)
for var, side, value in res.deductions:
    print("   deduced x%d %s %g" % (var, side.name.lower(), value))

# A conflict-prone clause system: enough three-literal covering rows to
# force backtracking.  The probe is a propagation-only depth-first dive
# that analyzes every dead end it hits.
rng = np.random.default_rng(10)
n, m = 24, 101
rows = []
for _ in range(m):
    vs = rng.choice(n, size=3, replace=False)
    neg = rng.random(3) < 0.5
    rows.append((tuple(int(v) for v in vs),
                 tuple(-1.0 if s else 1.0 for s in neg),
                 ">=", 1.0 - float(neg.sum())))
clauses = from_inequalities(np.zeros(n), rows, [0.0] * n, [1.0] * n,
                            range(n))

# The probe searches on a trail and a propagator it is handed (inside the
# solver, those of the node it probes) and leaves them as it found them;
# here both are throwaway ones over the instance's own box and rows.
out = cp_search(clauses, Trail(clauses.root_box()), Propagator(clauses),
                CpConfig(node_limit=500, seed=0))
print("\nprobe over %d clauses on %d binaries:" % (m, n))
print("   status   ", out.status.value)
print("   nodes    ", out.nodes)
print("   conflicts kept    ", len(out.conflicts),
      "(short ones only; the length cap is 5% of the variables)")
if out.solution is not None:
    print("   witness  ", out.solution.astype(int))

# Each kept conflict is a no-good: a disjunction of bound literals that
# every feasible point satisfies.  When its literals sit one step inside
# the scope's bounds it also has a linear form, a single knapsack row.
if out.conflicts:
    d = out.conflicts[0]
    root = clauses.root_box()
    row = to_knapsack(d, root.lower, root.upper)
    print("   first conflict:", d,
          "(form %s)" % ("disjunction" if row is None else "linear"))
