"""Seeded instance generators for the solve benchmark.

Each model is kept as plain row lists (columns, coefficients, sense,
right-hand side) so that the checker can recompute feasibility without
going through the solver's own model code.  `write_mps` turns a model
into the free-format MPS text the solver reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLAUSE_RATIO = 4.2      # clauses per variable, near the 3-SAT threshold
CLAUSE_WIDTH = 3        # literals per clause
COVER_MIN, COVER_MAX = 2, 5   # columns covering each set-cover row
INT_MAX = 6             # general integers range over 0..INT_MAX


@dataclass
class Model:
    name: str
    c: list[float]
    rows: list[tuple[list[int], list[float], str, float]]  # sense: "<=" or ">="
    lower: list[float]
    upper: list[float]


def clause_model(rng: np.random.Generator, name: str, n: int) -> Model:
    """Random CLAUSE_WIDTH-literal clauses over n binaries, zero objective.

    A clause with negated set N reads sum_P x - sum_N x >= 1 - |N|.
    """
    rows = []
    for _ in range(round(CLAUSE_RATIO * n)):
        cols = sorted(rng.choice(n, size=CLAUSE_WIDTH, replace=False).tolist())
        negate = rng.random(CLAUSE_WIDTH) < 0.5
        coefs = [-1.0 if neg else 1.0 for neg in negate]
        rows.append((cols, coefs, ">=", 1.0 - float(negate.sum())))
    return Model(name, [0.0] * n, rows, [0.0] * n, [1.0] * n)


def knapsack_model(rng: np.random.Generator, name: str, n: int,
                   m: int) -> Model:
    """Multi-knapsack: maximise profit (minimise its negation) under m
    capacity rows, each at half the row's total weight."""
    profit = rng.integers(10, 41, size=n)
    rows = []
    for _ in range(m):
        w = rng.integers(5, 31, size=n)
        rows.append((list(range(n)), [float(a) for a in w], "<=",
                     float(w.sum() // 2)))
    return Model(name, [-float(p) for p in profit], rows,
                 [0.0] * n, [1.0] * n)


def cover_model(rng: np.random.Generator, name: str, n: int,
                m: int) -> Model:
    """Unit-cost set cover: every row is covered by COVER_MIN..COVER_MAX
    columns."""
    rows = []
    for _ in range(m):
        k = int(rng.integers(COVER_MIN, COVER_MAX + 1))
        cols = sorted(rng.choice(n, size=k, replace=False).tolist())
        rows.append((cols, [1.0] * k, ">=", 1.0))
    return Model(name, [1.0] * n, rows, [0.0] * n, [1.0] * n)


def general_int_model(rng: np.random.Generator, name: str, n: int,
                      m: int) -> Model:
    """General integers in 0..INT_MAX under m dense rows.

    Right-hand sides sit a little off the activity of a planted point,
    so most instances are feasible but some are not.
    """
    planted = rng.integers(0, INT_MAX + 1, size=n)
    c = rng.integers(-5, 6, size=n)
    rows = []
    for _ in range(m):
        a = rng.integers(-5, 6, size=n)
        while not a.any():
            a = rng.integers(-5, 6, size=n)
        act = int(a @ planted)
        slack = int(rng.integers(-1, 4))
        if rng.random() < 0.5:
            rows.append((list(range(n)), [float(v) for v in a], "<=",
                         float(act + slack)))
        else:
            rows.append((list(range(n)), [float(v) for v in a], ">=",
                         float(act - slack)))
    return Model(name, [float(v) for v in c], rows,
                 [0.0] * n, [float(INT_MAX)] * n)


def write_mps(model: Model) -> str:
    """Free-format MPS with the original row senses and integer markers."""
    n = len(model.c)
    lines = [f"NAME {model.name}", "ROWS", " N OBJ"]
    by_col: list[list[tuple[str, float]]] = [[] for _ in range(n)]
    for i, (cols, coefs, sense, _rhs) in enumerate(model.rows):
        lines.append(f" {'L' if sense == '<=' else 'G'} R{i}")
        for j, a in zip(cols, coefs):
            by_col[j].append((f"R{i}", a))
    lines += ["COLUMNS", " M0 'MARKER' 'INTORG'"]
    for j in range(n):
        entries = [("OBJ", model.c[j])] + by_col[j]
        for row, a in entries:
            lines.append(f" x{j} {row} {a:.17g}")
    lines += [" M1 'MARKER' 'INTEND'", "RHS"]
    for i, (_cols, _coefs, _sense, rhs) in enumerate(model.rows):
        lines.append(f" rhs R{i} {rhs:.17g}")
    lines.append("BOUNDS")
    for j in range(n):
        lines.append(f" LO bnd x{j} {model.lower[j]:.17g}")
        lines.append(f" UP bnd x{j} {model.upper[j]:.17g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def shuffled_rows(model: Model, rng: np.random.Generator) -> Model:
    """The same problem with its rows in a random order.

    Row order changes the solver's path (slack order in the simplex,
    which row deduces a bound first, the conflicts learned) but not the
    answer.
    """
    order = rng.permutation(len(model.rows))
    return Model(model.name, model.c, [model.rows[i] for i in order],
                 model.lower, model.upper)
