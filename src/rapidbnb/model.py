"""Problem data: immutable integer programs and mutable bound boxes.

Everything downstream works on one normal form: minimize c.x subject to
rows `sum(coefs * x[cols]) <= rhs`, variable bounds `l <= x <= u`, and a
set of integer variables.  Equality and >= constraints are rewritten into
this form at construction time.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

import numpy as np

FEAS_TOL = 1e-6
INT_TOL = 1e-6
GAP_TOL = 1e-6      # a solution must beat the incumbent by more than this
INF = math.inf


def fmt_g(x: float) -> str:
    """Stable short float rendering for logs and reports."""
    return "%.12g" % float(x)


class ModelError(ValueError):
    """Ill-formed problem data."""


class EmptyBoxError(ModelError):
    """A bound tightening crossed the opposite bound."""

    def __init__(self, var: int, side: "Side", value: float):
        super().__init__(f"tightening makes variable {var} empty "
                         f"({side.name.lower()} -> {value})")
        self.var = var
        self.side = side
        self.value = value


class Side(enum.IntEnum):
    LOWER = 0
    UPPER = 1


class RowKind(enum.Enum):
    LINEAR = "linear"
    KNAPSACK = "knapsack"
    CLAUSE = "clause"


class Row:
    """One constraint `sum(coefs[k] * x[cols[k]]) <= rhs`.

    `Instance` sets `kind` (see `classify_row`), which picks the row's
    propagator.  `prepared` holds what that propagator builds once per
    row: for knapsack rows, set by `Instance`, the (column, integer
    weight) pairs, heaviest first and in column order among ties; for
    clause rows, set by the first propagator that adds the row, its
    literals; for rows under residual activity, set on their first
    deduction or failure, the (column, side) bound each term reads.  One
    slot serves all three: a seventh would move every Row into a larger
    allocation size class, which lifted `clause-local` peak RSS by
    0.75 MiB.
    """

    __slots__ = ("cols", "coefs", "rhs", "name", "kind", "prepared")

    def __init__(self, cols: Sequence[int], coefs: Sequence[float], rhs: float,
                 name: str = ""):
        if len(cols) != len(coefs):
            raise ModelError("row column/coefficient length mismatch")
        icols = tuple(map(int, cols))
        # int() truncates: an index that it changed is not one
        if icols != tuple(cols):
            raise ModelError(
                f"row {name or '<unnamed>'} has a non-integer column index")
        if len(set(icols)) != len(icols):
            raise ModelError(f"row {name or '<unnamed>'} repeats a column")
        cols, coefs = icols, tuple(map(float, coefs))
        # zero terms carry no information and would break propagation
        if 0.0 in coefs:
            kept = [(j, a) for j, a in zip(cols, coefs) if a != 0.0]
            cols, coefs = tuple(j for j, _ in kept), tuple(a for _, a in kept)
        self.cols, self.coefs = cols, coefs
        # a finite sum means finite terms; only an overflow needs the full test
        if not math.isfinite(sum(self.coefs)) and \
                not all(math.isfinite(a) for a in self.coefs):
            raise ModelError(
                f"row {name or '<unnamed>'} has a non-finite coefficient")
        self.rhs = float(rhs)
        if self.rhs != self.rhs:
            raise ModelError(f"row {name or '<unnamed>'} has a NaN right-hand side")
        self.name = name
        self.kind = RowKind.LINEAR
        self.prepared: tuple = ()

    def activity(self, x: np.ndarray) -> float:
        return sum(a * x[j] for j, a in zip(self.cols, self.coefs))

    def __repr__(self) -> str:
        terms = " + ".join(f"{a:g}*x{j}" for j, a in zip(self.cols, self.coefs))
        return f"Row({terms} <= {self.rhs:g})"


def classify_row(row: Row, lower: np.ndarray, upper: np.ndarray,
                 int_mask: np.ndarray) -> RowKind:
    """Structural row classification against the global box.

    clause:   all binary columns, coefficients +-1, rhs = (number of +1) - 1:
              the disjunction of `x_j >= 1` over -1 and `x_j <= 0` over +1
              coefficients, e.g. set cover or `x0 + x1 <= 1`.
    knapsack: all binary columns, positive integer coefficients.
    linear:   everything else.
    """
    if not row.cols:
        return RowKind.LINEAR
    if not all(int_mask[j] and lower[j] == 0.0 and upper[j] == 1.0
               for j in row.cols):
        return RowKind.LINEAR
    if {1.0, -1.0}.issuperset(row.coefs) and \
            row.rhs == row.coefs.count(1.0) - 1:
        return RowKind.CLAUSE
    if all(a > 0 and abs(a - round(a)) <= INT_TOL for a in row.coefs):
        return RowKind.KNAPSACK
    return RowKind.LINEAR


class Instance:
    """Minimization problem over the normal form, immutable once built.

    Integer variables must come with finite bounds; they are rounded
    inward to integers here so every later bound value on them stays
    integral.  Continuous variables may be unbounded.  Objective
    coefficients must be finite, and no bound may be NaN.
    """

    def __init__(self, objective: Sequence[float], rows: Iterable[Row],
                 lower: Sequence[float], upper: Sequence[float],
                 integer_set: Iterable[int],
                 names: Sequence[str] | None = None, name: str = ""):
        self.c = np.asarray(objective, dtype=float).copy()
        n = self.c.shape[0]
        self.lower = np.asarray(lower, dtype=float).copy()
        self.upper = np.asarray(upper, dtype=float).copy()
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ModelError("objective/bound dimension mismatch")
        if not np.isfinite(self.c).all():
            raise ModelError("objective has a non-finite coefficient")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ModelError("a variable bound is NaN")
        self.integer_mask = np.zeros(n, dtype=bool)
        for j in integer_set:
            if not 0 <= j < n:
                raise ModelError(f"integer index {j} out of range")
            self.integer_mask[j] = True
        self.name = name
        if names is None:
            names = tuple(f"x{j}" for j in range(n))
        if len(names) != n:
            raise ModelError("variable name count mismatch")
        self.var_names = tuple(names)

        # checked, rounded and classified on lists: numpy scalar reads
        # cost more (BoundBox)
        lower, upper = self.lower.tolist(), self.upper.tolist()
        is_int = self.integer_mask.tolist()
        for j in range(n):
            if is_int[j]:
                if not (math.isfinite(lower[j]) and math.isfinite(upper[j])):
                    raise ModelError(
                        f"integer variable {self.var_names[j]} needs finite bounds")
                lower[j] = float(math.ceil(lower[j] - INT_TOL))
                upper[j] = float(math.floor(upper[j] + INT_TOL))
            if lower[j] > upper[j] + FEAS_TOL:
                raise ModelError(
                    f"variable {self.var_names[j]} has empty domain "
                    f"[{lower[j]:g}, {upper[j]:g}]")
        self.lower[:], self.upper[:] = lower, upper

        self.rows = tuple(rows)
        for row in self.rows:
            if row.cols and not 0 <= min(row.cols) <= max(row.cols) < n:
                j = next(j for j in row.cols if not 0 <= j < n)
                raise ModelError(f"row {row.name!r} references column {j}")
            row.kind = classify_row(row, lower, upper, is_int)
            if row.kind is RowKind.KNAPSACK:
                pairs = [(j, int(round(a))) for j, a in zip(row.cols, row.coefs)]
                row.prepared = tuple(sorted(pairs, key=lambda p: -p[1]))

        for arr in (self.c, self.lower, self.upper, self.integer_mask):
            arr.flags.writeable = False
        self.integer_indices = tuple(
            int(j) for j in np.flatnonzero(self.integer_mask))
        self._dense: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def root_box(self) -> "BoundBox":
        return BoundBox(self.lower, self.upper)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows as a dense (A, b) pair, cached."""
        if self._dense is None:
            A = np.zeros((self.num_rows, self.num_vars))
            b = np.zeros(self.num_rows)
            for i, row in enumerate(self.rows):
                for j, a in zip(row.cols, row.coefs):
                    A[i, j] = a
                b[i] = row.rhs
            A.flags.writeable = False
            b.flags.writeable = False
            self._dense = (A, b)
        return self._dense

    def check_point(self, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
        """Feasibility of a point: rows, global bounds, integrality."""
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        for row in self.rows:
            if row.activity(x) > row.rhs + tol:
                return False
        ints = x[self.integer_mask]
        return bool(np.all(np.abs(ints - np.round(ints)) <= INT_TOL))

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.c @ x)

    def __repr__(self) -> str:
        return (f"Instance({self.name or '<unnamed>'}: {self.num_vars} vars, "
                f"{self.num_rows} rows, {int(self.integer_mask.sum())} integer)")


_SENSES = ("<=", ">=", "==")


def from_inequalities(objective: Sequence[float],
                      constraints: Iterable[tuple[Sequence[int], Sequence[float], str, float]],
                      lower: Sequence[float], upper: Sequence[float],
                      integer_set: Iterable[int],
                      names: Sequence[str] | None = None,
                      name: str = "",
                      row_names: Sequence[str] | None = None) -> Instance:
    """Build an Instance from rows with explicit senses.

    `>=` rows are negated into `<=` form; `==` rows become two opposing
    `<=` rows.  Row order is preserved, with equality halves adjacent.
    `row_names`, one per constraint, names each constraint's first row;
    the second half of an equality stays unnamed.
    """
    constraints = list(constraints)
    if row_names is None:
        row_names = [""] * len(constraints)
    elif len(row_names) != len(constraints):
        raise ModelError("row name count mismatch")
    rows: list[Row] = []
    for (cols, coefs, sense, rhs), rname in zip(constraints, row_names):
        if sense not in _SENSES:
            raise ModelError(f"unknown row sense {sense!r}")
        if sense in ("<=", "=="):
            rows.append(Row(cols, coefs, rhs, rname))
            rname = ""
        if sense in (">=", "=="):
            rows.append(Row(cols, [-a for a in coefs], -rhs, rname))
    return Instance(objective, rows, lower, upper, integer_set, names, name)


class BoundBox:
    """Mutable working bounds for one search.

    The bounds are Python lists of floats: propagation reads them one
    entry at a time, where numpy scalars cost about 1.7 times as much.
    Callers that need whole arrays convert once per call.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        self.lower = [float(v) for v in lower]
        self.upper = [float(v) for v in upper]

    def copy(self) -> "BoundBox":
        return BoundBox(self.lower, self.upper)

    def is_empty(self, tol: float = FEAS_TOL) -> bool:
        return any(l > u + tol for l, u in zip(self.lower, self.upper))

    def get(self, j: int, side: Side) -> float:
        return self.lower[j] if side is Side.LOWER else self.upper[j]

    def tighten(self, var: int, side: Side, value: float) -> bool:
        """Apply a bound if strictly tighter; reject a crossing one.

        Improvements within the feasibility tolerance are dropped so
        propagation on continuous variables cannot creep forever.  Values
        inside the tolerance band beyond the opposite bound are clamped
        onto it instead of raising.
        """
        value = float(value)
        if side is Side.LOWER:
            if value <= self.lower[var] + FEAS_TOL:
                return False
            if value > self.upper[var]:
                if value > self.upper[var] + FEAS_TOL:
                    raise EmptyBoxError(var, side, value)
                value = self.upper[var]
                if value <= self.lower[var] + FEAS_TOL:
                    return False
            self.lower[var] = value
        else:
            if value >= self.upper[var] - FEAS_TOL:
                return False
            if value < self.lower[var]:
                if value < self.lower[var] - FEAS_TOL:
                    raise EmptyBoxError(var, side, value)
                value = self.lower[var]
                if value >= self.upper[var] - FEAS_TOL:
                    return False
            self.upper[var] = value
        return True

    def __repr__(self) -> str:
        pairs = ", ".join(f"[{l:g},{u:g}]" for l, u in zip(self.lower, self.upper))
        return f"BoundBox({pairs})"
