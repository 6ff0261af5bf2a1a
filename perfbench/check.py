"""Independent check of the solver's answers, in its own process.

    python3 perfbench/check.py DIR

Reads DIR/models.json (the generator's own row lists) and DIR/result.json
(the solver's answers) and writes DIR/check.json: one entry per instance,
`ok` or the reason it failed.  HiGHS, through `scipy.optimize.milp`,
decides each instance; the solver's verdict must match and its objective
must agree within OBJ_TOL.  A returned point must satisfy every row,
bound and integrality requirement, recomputed from the row lists.  scipy
is loaded here and never in the measuring process, whose peak memory is
a metric.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

OBJ_TOL = 1e-6
FEAS_TOL = 1e-6


def highs(model: dict) -> tuple[str, float | None]:
    n = len(model["c"])
    a = np.zeros((len(model["rows"]), n))
    lo = np.full(len(model["rows"]), -np.inf)
    hi = np.full(len(model["rows"]), np.inf)
    for i, (cols, coefs, sense, rhs) in enumerate(model["rows"]):
        a[i, cols] = coefs
        if sense == "<=":
            hi[i] = rhs
        else:
            lo[i] = rhs
    res = milp(np.asarray(model["c"], dtype=float),
               constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(n),
               bounds=Bounds(model["lower"], model["upper"]))
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    raise RuntimeError(f"HiGHS did not decide the instance: {res.message}")


def point_error(model: dict, x: list[float]) -> str | None:
    if len(x) != len(model["c"]):
        return "point has the wrong length"
    for j, v in enumerate(x):
        if v < model["lower"][j] - FEAS_TOL or v > model["upper"][j] + FEAS_TOL:
            return f"x{j} = {v} is outside its bounds"
        if abs(v - round(v)) > FEAS_TOL:
            return f"x{j} = {v} is not integral"
    for i, (cols, coefs, sense, rhs) in enumerate(model["rows"]):
        act = sum(a * x[j] for j, a in zip(cols, coefs))
        if (sense == "<=" and act > rhs + FEAS_TOL) or \
                (sense == ">=" and act < rhs - FEAS_TOL):
            return f"row {i} is violated: {act} {sense} {rhs}"
    return None


def check(model: dict, got: dict | None) -> str:
    if got is None:
        return "the solve raised an error"
    verdict, obj = highs(model)
    if got["status"] != verdict:
        return f"status {got['status']}, HiGHS says {verdict}"
    if verdict == "infeasible":
        return "ok"
    if got["objective"] is None or abs(got["objective"] - obj) > OBJ_TOL:
        return f"objective {got['objective']}, HiGHS says {obj}"
    if got["solution"] is None:
        return "no point returned"
    err = point_error(model, got["solution"])
    if err is not None:
        return err
    value = sum(c * v for c, v in zip(model["c"], got["solution"]))
    if abs(value - got["objective"]) > OBJ_TOL:
        return f"point's objective {value} differs from {got['objective']}"
    return "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    models = json.loads((out_dir / "models.json").read_text())
    result = json.loads((out_dir / "result.json").read_text())
    verdicts = {name: check(models[name], got)
                for name, got in zip(result["instances"], result["answers"])}
    (out_dir / "check.json").write_text(json.dumps(verdicts, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
