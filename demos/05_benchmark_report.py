"""
Comparing configurations over an instance directory
===================================================

"""

import tempfile
from pathlib import Path

import numpy as np

from rapidbnb import from_inequalities
from rapidbnb.bench import directional_report
from rapidbnb.mps import write_mps

# The report solves every *.mps file in a directory with the probe off
# and with the local probe (degeneracy criterion), and aggregates with
# shifted geometric means (shift 1 for seconds, shift 100 for nodes),
# the standard way solver runs are summarized.  Here: a throwaway suite
# of twelve feasibility instances.
rng = np.random.default_rng(2024)
n, m = 18, 75
with tempfile.TemporaryDirectory(prefix="bnbsuite-") as tmp:
    workdir = Path(tmp)
    for k in range(12):
        rows = []
        for _ in range(m):
            vs = rng.choice(n, size=3, replace=False)
            neg = rng.random(3) < 0.5
            rows.append((tuple(int(v) for v in vs),
                         tuple(-1.0 if s else 1.0 for s in neg),
                         ">=", 1.0 - float(neg.sum())))
        inst = from_inequalities(np.zeros(n), rows, [0.0] * n, [1.0] * n,
                                 range(n))
        write_mps(inst, workdir / f"feas{k:02d}.mps")

    report = directional_report(workdir, seeds=(0,))

print("suite of", report["instances"], "instances,", report["runs"], "runs")
print("affected %d / unaffected %d (did the branching path change?)"
      % (report["affected"], report["unaffected"]))
print("time ratio  %.3f   nodes ratio  %.3f   (< 1 favors the probe)"
      % (report["time_ratio"], report["nodes_ratio"]))
print()
print(report["markdown"])

# One directional run on one tiny suite proves nothing by itself; the
# ratios above are an illustration of the reporting, not a benchmark.
