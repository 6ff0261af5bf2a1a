"""
A full solve, with and without the probe
========================================

"""

import numpy as np

from rapidbnb import from_inequalities
from rapidbnb.mipsearch import MipConfig, solve
from rapidbnb.rapid import RapidConfig

# Feasibility-style instances (a constant objective over a clause
# system) are the probe's best case: the root LP is a completely
# degenerate face, so LP-guided branching has nothing to work with,
# while the probe either finds a witness or refutes outright.
def clause_system(seed, n, m):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(m):
        vs = rng.choice(n, size=3, replace=False)
        neg = rng.random(3) < 0.5
        rows.append((tuple(int(v) for v in vs),
                     tuple(-1.0 if s else 1.0 for s in neg),
                     ">=", 1.0 - float(neg.sum())))
    return from_inequalities(np.zeros(n), rows, [0.0] * n, [1.0] * n,
                             range(n))


def run_both(inst, seed=3):
    plain = solve(inst, MipConfig(rapid_mode="off", seed=seed))
    probe = solve(inst, MipConfig(
        rapid_mode="local", seed=seed,
        rapid=RapidConfig(criteria=frozenset({"degeneracy"}))))
    return plain, probe


print("%-12s %-6s %10s %7s %9s" % ("instance", "mode", "status", "nodes",
                                   "rl calls"))
refuted = clause_system(42, 30, 126)   # no satisfying assignment exists
witness = clause_system(44, 30, 120)   # satisfiable
probe = None
for label, inst in (("refuted", refuted), ("witnessed", witness)):
    plain, probe = run_both(inst)
    for mode, res in (("off", plain), ("local", probe)):
        print("%-12s %-6s %10s %7d %9d" % (label, mode, res.status,
                                           res.nodes, res.rl_calls))

# The event log tells the story line by line.  Probe lines carry the
# criteria that fired, how the run ended, and what was transferred.
print("\nprobe-mode event log, probe lines only:")
for line in probe.events:
    if line.startswith(("criteria", "rl ", "lconstr", "incumbent")):
        print("  ", line)

print("\ncriterion tallies:", {k: v for k, v in
                               probe.criterion_counts.items() if v})
