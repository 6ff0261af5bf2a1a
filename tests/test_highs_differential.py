"""Differential check against HiGHS on the benchmark's model families.

The models come from `perfbench/gen.py`, at sizes the enumeration
oracles cannot reach (12 to 60 variables).  Each one is solved under
every probe mode, and the verdict and optimum must match
`scipy.optimize.milp`.  Skipped when scipy is not installed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from rapidbnb import MipConfig, RapidConfig, from_inequalities, solve

optimize = pytest.importorskip("scipy.optimize")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

OBJ_TOL = 1e-6
ALL_CRITERIA = frozenset(
    {"dualbound", "leaves", "degeneracy", "obj", "nsols", "sblps"})
MODES = {
    "off": MipConfig(rapid_mode="off", seed=1),
    "root": MipConfig(rapid_mode="root", seed=1),
    "local": MipConfig(rapid_mode="local", seed=1,
                       rapid=RapidConfig(criteria=ALL_CRITERIA)),
}


def corpus() -> list[gen.Model]:
    """Thirty seeded models: clauses, multi-knapsacks, set covers and
    general integers.  Twenty have 12 to 30 columns; ten more have 20 to
    60, where the probe's length cap (5% of the columns) lets it add
    conflicts of two or three literals to the propagator it shares with
    its node."""
    rng = np.random.default_rng(20191012)
    models = []
    for k, n in enumerate((12, 13, 14, 15, 16)):
        models.append(gen.clause_model(rng, f"clause{k}", n))
    for k, n in enumerate((12, 14, 16, 18, 20)):
        models.append(gen.knapsack_model(rng, f"knapsack{k}", n, 3))
    for k, n in enumerate((20, 22, 24, 26, 30)):
        models.append(gen.cover_model(rng, f"cover{k}", n, n))
    for k in range(5):
        models.append(gen.general_int_model(rng, f"general_int{k}", 12, 4))
    for k, n in enumerate((36, 40, 44), start=5):
        models.append(gen.clause_model(rng, f"clause{k}", n))
    for k, n in enumerate((24, 27, 30), start=5):
        models.append(gen.knapsack_model(rng, f"knapsack{k}", n, 5))
    for k, n in enumerate((40, 60), start=5):
        models.append(gen.cover_model(rng, f"cover{k}", n, n))
    for k, n in enumerate((20, 24), start=5):
        models.append(gen.general_int_model(rng, f"general_int{k}", n, 8))
    return models


def highs(model: gen.Model) -> tuple[str, float | None]:
    n = len(model.c)
    a = np.zeros((len(model.rows), n))
    lo = np.full(len(model.rows), -np.inf)
    hi = np.full(len(model.rows), np.inf)
    for i, (cols, coefs, sense, rhs) in enumerate(model.rows):
        a[i, cols] = coefs
        if sense == "<=":
            hi[i] = rhs
        else:
            lo[i] = rhs
    res = optimize.milp(np.asarray(model.c, dtype=float),
                        constraints=optimize.LinearConstraint(a, lo, hi),
                        integrality=np.ones(n),
                        bounds=optimize.Bounds(model.lower, model.upper))
    if res.status == 0:
        return "optimal", float(res.fun)
    assert res.status == 2, res.message
    return "infeasible", None


@pytest.mark.parametrize("model", corpus(), ids=lambda m: m.name)
def test_agrees_with_highs(model):
    inst = from_inequalities(model.c, model.rows, model.lower, model.upper,
                             integer_set=range(len(model.c)), name=model.name)
    want_status, want_obj = highs(model)
    for mode, config in MODES.items():
        res = solve(inst, config)
        assert res.status == want_status, mode
        if want_obj is not None:
            assert abs(res.objective - want_obj) <= OBJ_TOL, mode
            assert inst.check_point(res.solution), mode
