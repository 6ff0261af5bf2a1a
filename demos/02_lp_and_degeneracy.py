"""
The LP relaxation and what dual degeneracy looks like
=====================================================

"""

from rapidbnb import from_inequalities
from rapidbnb.lp import measure_degeneracy, solve_lp

# A crisp corner first: min -x - 2y over the unit square with x + y <= 1.
# The optimum sits at (0, 1) and every nonbasic variable prices out
# strictly, so nothing about this solve is degenerate.
crisp = from_inequalities([-1.0, -2.0], [((0, 1), (1.0, 1.0), "<=", 1.0)],
                          [0.0, 0.0], [1.0, 1.0], [])
res = solve_lp(crisp, crisp.root_box())
info = measure_degeneracy(res, crisp.root_box())
print("crisp corner:   value %g  degenerate share %.2f  face ratio %.2f"
      % (res.objective, info.degenerate_share, info.face_ratio))

# Now flatten the objective.  With c = 0 every reduced cost is zero, so
# by definition the share is 1: the reported optimum is one point on an
# optimal face containing every feasible point.  This is the situation
# the degeneracy trigger is designed to recognize.
flat = from_inequalities([0.0, 0.0], [((0, 1), (1.0, 1.0), "<=", 1.0)],
                         [0.0, 0.0], [1.0, 1.0], [])
res = solve_lp(flat, flat.root_box())
info = measure_degeneracy(res, flat.root_box())
print("flat objective: value %g  degenerate share %.2f  face ratio %.2f"
      % (res.objective, info.degenerate_share, info.face_ratio))

# Warm starts: resolving after a bound change reuses the previous basis,
# which is how the tree search keeps per-node LP work low.
from rapidbnb.model import Side

box = crisp.root_box()
first = solve_lp(crisp, box)
box.tighten(1, Side.UPPER, 0.5)
cold = solve_lp(crisp, box)
warm = solve_lp(crisp, box, warm_basis=first.basis_status)
print("after y <= 0.5: iterations cold %d vs warm %d (same value %g)"
      % (cold.iterations, warm.iterations, warm.objective))
