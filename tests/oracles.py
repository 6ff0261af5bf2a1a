"""Brute-force reference answers the test suite checks the solver against.

Everything here is deliberately slow and simple: exhaustive integer
enumeration for IP optima, vertex enumeration for LP optima, and a
seeded instance generator sized so enumeration stays instant.  Expected
values frozen into tests come from these functions, never from the code
under test.  `SearchRecorder` watches the searches from outside and
keeps what tests check the solver's conflicts and probe claims against.
`reference_parse_mps` is the MPS reader in its plain form, frozen.
"""

import importlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from rapidbnb import (BoundDisjunction, CpOutcome, CpStatus, Instance,
                      Propagator, Side, cp_search, from_inequalities)
from rapidbnb.conflict import Trail
from rapidbnb.mps import (INF, MALFORMED_SECTION, NON_NUMERIC_FIELD,
                          UNKNOWN_ROW_REFERENCE, MpsParseError,
                          ParseDiagnostics)

FEAS_TOL = 1e-6

# generator envelope: n <= 8, m <= 6, integer bounds inside [0, 3],
# coefficients inside [-4, 4]
GEN_MAX_VARS = 8
GEN_MAX_ROWS = 6
GEN_BOUND_HI = 3
GEN_COEF_LO = -4
GEN_COEF_HI = 4


def integer_grid(lower, upper) -> np.ndarray:
    """All integer points of the box as an (N, n) array."""
    lower = np.asarray(lower, dtype=int)
    upper = np.asarray(upper, dtype=int)
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(lower, upper)]
    if not axes:
        return np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1).astype(float)


def row_system(instance: Instance):
    """Dense (A, b) of the <= normal form."""
    n = instance.num_vars
    m = instance.num_rows
    a = np.zeros((m, n))
    b = np.zeros(m)
    for i, row in enumerate(instance.rows):
        for j, coef in zip(row.cols, row.coefs):
            a[i, j] = coef
        b[i] = row.rhs
    return a, b


def feasible_points(instance: Instance, lower=None, upper=None) -> np.ndarray:
    """Integer-feasible points inside the given box (default: root box),
    in the order of `integer_grid`.

    The grid grows one variable at a time, and each row filters it as
    soon as its last variable is in, so rows prune before the grid gets
    large.
    """
    lo = instance.lower if lower is None else np.asarray(lower, dtype=float)
    hi = instance.upper if upper is None else np.asarray(upper, dtype=float)
    n = instance.num_vars
    if np.any(lo > hi):
        return np.zeros((0, n))
    ready: list[list] = [[] for _ in range(n + 1)]
    for row in instance.rows:
        ready[1 + max(row.cols, default=-1)].append(row)
    lo_int = np.ceil(lo - FEAS_TOL)
    hi_int = np.floor(hi + FEAS_TOL)
    pts = np.zeros((1, 0))
    for j in range(n + 1):
        for row in ready[j]:
            act = pts[:, list(row.cols)] @ np.asarray(row.coefs, dtype=float)
            pts = pts[act <= row.rhs + FEAS_TOL]
        if j < n:
            vals = np.arange(lo_int[j], hi_int[j] + 1)
            pts = np.hstack([np.repeat(pts, len(vals), axis=0),
                             np.tile(vals, len(pts))[:, None]])
    return pts


def enumerate_optimum(instance: Instance, lower=None, upper=None):
    """(status, value, best point) by exhaustive integer enumeration.

    status is "optimal" or "infeasible"; the point is lexicographically
    smallest among the optima so ties break deterministically.
    """
    pts = feasible_points(instance, lower, upper)
    if pts.shape[0] == 0:
        return "infeasible", None, None
    vals = pts @ instance.c
    best = np.min(vals)
    where = np.flatnonzero(vals <= best + 1e-9)
    order = np.lexsort(pts[where].T[::-1])
    return "optimal", float(best), pts[where[order[0]]]


def lp_vertex_optimum(instance: Instance, lower=None, upper=None):
    """(status, value, point) for the LP relaxation by vertex enumeration.

    Stacks rows and bound constraints into G x <= h and inspects every
    nonsingular n x n subsystem.  Valid only for finite boxes, which is
    all the generator below produces.
    """
    n = instance.num_vars
    lo = instance.lower if lower is None else np.asarray(lower, dtype=float)
    hi = instance.upper if upper is None else np.asarray(upper, dtype=float)
    if np.any(lo > hi + FEAS_TOL):
        return "infeasible", None, None
    a, b = row_system(instance)
    eye = np.eye(n)
    g = np.vstack([a, eye, -eye])
    h = np.concatenate([b, hi, -lo])
    best_val = None
    best_pt = None
    for subset in itertools.combinations(range(g.shape[0]), n):
        gs = g[list(subset)]
        if abs(np.linalg.det(gs)) < 1e-9:
            continue
        x = np.linalg.solve(gs, h[list(subset)])
        if np.any(g @ x > h + 1e-8):
            continue
        val = float(instance.c @ x)
        if best_val is None or val < best_val - 1e-12:
            best_val = val
            best_pt = x
    if best_val is None:
        return "infeasible", None, None
    return "optimal", best_val, best_pt


def random_instance(rng: np.random.Generator, feasible_bias: float = 0.7,
                    allow_zero_objective: bool = False) -> Instance:
    """One random pure IP inside the generator envelope.

    rhs values are anchored to the row activity at a planted point so a
    `feasible_bias` share of instances keeps at least that point; the
    rest drift tight enough to be infeasible now and then.
    """
    n = int(rng.integers(2, GEN_MAX_VARS + 1))
    m = int(rng.integers(1, GEN_MAX_ROWS + 1))
    lower = rng.integers(0, GEN_BOUND_HI + 1, size=n)
    upper = np.array([int(rng.integers(lo, GEN_BOUND_HI + 1)) for lo in lower])
    if allow_zero_objective and rng.random() < 0.5:
        c = np.zeros(n)
    else:
        c = rng.integers(GEN_COEF_LO, GEN_COEF_HI + 1, size=n).astype(float)
    planted = np.array([int(rng.integers(lo, up + 1))
                        for lo, up in zip(lower, upper)])
    rows = []
    for _ in range(m):
        width = int(rng.integers(2, n + 1))
        cols = tuple(sorted(rng.choice(n, size=width, replace=False).tolist()))
        coefs = rng.integers(GEN_COEF_LO, GEN_COEF_HI + 1, size=width)
        while not np.any(coefs):
            coefs = rng.integers(GEN_COEF_LO, GEN_COEF_HI + 1, size=width)
        act = int(sum(a * planted[j] for j, a in zip(cols, coefs)))
        if rng.random() < feasible_bias:
            slack = int(rng.integers(0, 4))       # keeps the planted point
        else:
            slack = -int(rng.integers(1, 4))      # may cut everything off
        sense = "<=" if rng.random() < 0.5 else ">="
        rhs = act + slack if sense == "<=" else act - slack
        rows.append((cols, tuple(float(a) for a in coefs), sense, float(rhs)))
    return from_inequalities(c, rows, lower, upper, integer_set=range(n))


def random_sat_instance(rng: np.random.Generator, n: int = 10,
                        m: int = 42, clause: int = 3) -> Instance:
    """Random clause system over binaries with a zero objective.

    Clauses with negated literals become `sum_P x - sum_N x >= 1 - |N|`.
    Around m/n = 4.2 these sit near the satisfiability threshold, which
    makes depth-first search on them conflict-rich either way.
    """
    rows = []
    for _ in range(m):
        cols = sorted(rng.choice(n, size=clause, replace=False).tolist())
        negate = rng.random(clause) < 0.5
        coefs = tuple(-1.0 if neg else 1.0 for neg in negate)
        rhs = 1.0 - float(negate.sum())
        rows.append((tuple(cols), coefs, ">=", rhs))
    return from_inequalities(np.zeros(n), rows, [0] * n, [1] * n,
                             integer_set=range(n))


def random_lp(rng: np.random.Generator) -> Instance:
    """One random bounded LP with n <= 5, m <= 4 for the vertex oracle."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    lower = rng.integers(-3, 1, size=n).astype(float)
    upper = lower + rng.integers(1, 5, size=n)
    c = rng.integers(-4, 5, size=n).astype(float)
    mid = (lower + upper) / 2.0
    rows = []
    for _ in range(m):
        width = int(rng.integers(1, n + 1))
        cols = tuple(sorted(rng.choice(n, size=width, replace=False).tolist()))
        coefs = rng.integers(-4, 5, size=width)
        while not np.any(coefs):
            coefs = rng.integers(-4, 5, size=width)
        act = float(sum(a * mid[j] for j, a in zip(cols, coefs)))
        rhs = act + float(rng.integers(0, 5))
        rows.append((cols, tuple(float(a) for a in coefs), "<=", rhs))
    return from_inequalities(c, rows, lower, upper, integer_set=())


def check_disjunction(d: BoundDisjunction, point, tol: float = 1e-6) -> bool:
    """True when the point satisfies at least one literal."""
    for v, val in d.lower_lits:
        if point[v] >= val - tol:
            return True
    for v, val in d.upper_lits:
        if point[v] <= val + tol:
            return True
    return False


# -- running and watching the searches --------------------------------


def probe(inst: Instance, box, config) -> CpOutcome:
    """`cp_search` over a copy of `box` on a throwaway state: a fresh
    trail and a propagator holding the instance's rows only."""
    return cp_search(inst, Trail(box.copy()), Propagator(inst), config)


RECORDED_NAMES = ("rapidbnb.mipsearch.analyze_1uip",
                  "rapidbnb.cpsearch.analyze_1uip",
                  "rapidbnb.rapid.cp_search")


@dataclass
class AnalysisRecord:
    """One conflict analysis that returned a disjunction, seen from the
    trail it analyzed rather than from the analysis' own report."""

    disjunction: BoundDisjunction
    tainted: bool                     # as the analysis reports it
    levels: tuple[int | None, ...]    # per literal of disjunction.literals()
    failure_level: int                # deepest level among the failure's reasons
    bounds: dict[int, tuple[float, float]]   # the box at the failure

    def is_one_uip(self) -> bool:
        """Exactly one literal from the failure's level, none deeper, and
        every literal false in the box the failure happened in."""
        if self.levels.count(self.failure_level) != 1 or \
                any(lvl is None or lvl > self.failure_level
                    for lvl in self.levels):
            return False
        for var, side, value in self.disjunction.literals():
            lo, hi = self.bounds[var]
            if side is Side.LOWER and not hi < value - 1e-9:
                return False
            if side is Side.UPPER and not lo > value + 1e-9:
                return False
        return True


@dataclass
class ProbeRecord:
    """One probe run: a copy of its scope box taken before the call, and
    what it returned."""

    scope_lower: np.ndarray
    scope_upper: np.ndarray
    outcome: CpOutcome

    def claims(self) -> list[BoundDisjunction]:
        """Everything the probe claims valid for its scope: each conflict,
        and each bound of a probe stopped by its budget as one literal."""
        out = list(self.outcome.conflicts)
        if self.outcome.status is CpStatus.NODE_LIMIT:
            box = self.outcome.box
            for j, (lo, hi) in enumerate(zip(self.scope_lower,
                                             self.scope_upper)):
                if box.lower[j] > lo + FEAS_TOL:
                    out.append(BoundDisjunction(((j, box.lower[j]),), ()))
                if box.upper[j] < hi - FEAS_TOL:
                    out.append(BoundDisjunction((), ((j, box.upper[j]),)))
        return out


def _falsified_at(changes, var: int, side: Side, value: float) -> int | None:
    """Level of the first trail change that made the literal false."""
    for ch in changes:
        if ch.var == var and ch.side is not side and \
                (ch.value < value if side is Side.LOWER else ch.value > value):
            return ch.level
    return None


def check_cap_contract(capped, full, cap: int | None) -> None:
    """A capped analysis returns the uncapped disjunction with the same
    flags, or none when the uncapped one has none or is longer than
    `cap`; `root_failure` never depends on the cap."""
    if capped.root_failure != full.root_failure:
        raise AssertionError(f"root_failure {capped.root_failure} capped, "
                             f"{full.root_failure} uncapped")
    d = capped.disjunction
    if d is not None:
        if d != full.disjunction or capped.tainted != full.tainted:
            raise AssertionError(f"capped {d} tainted {capped.tainted}, "
                                 f"uncapped {full.disjunction} "
                                 f"tainted {full.tainted}")
    elif full.disjunction is not None and full.disjunction.size <= cap:
        raise AssertionError(f"cap {cap} dropped {full.disjunction}")


class SearchRecorder:
    """Records every conflict analysis and probe run while active.

    A context manager: entering wraps the names in RECORDED_NAMES, which
    is where the searches look them up, and leaving puts the originals
    back.  An analysis run under a length cap is recorded as its uncapped
    result, after `check_cap_contract` holds the two against each other.
    Leaving also fails loudly if a name in `require` was never called, so
    that a function that moved or was renamed cannot leave a check with
    nothing to check.
    """

    def __init__(self, require: tuple[str, ...] = RECORDED_NAMES) -> None:
        self.require = require
        self.analyses: list[AnalysisRecord] = []
        self.probes: list[ProbeRecord] = []
        self.calls = {name: 0 for name in RECORDED_NAMES}
        self._saved: list[tuple[object, str, object]] = []

    def _analysis(self, name: str, fn):
        def recorded(trail, int_mask, tainted_ids, cap=None, base=0):
            out = fn(trail, int_mask, tainted_ids, cap, base)
            self.calls[name] += 1
            # the trail is intact here, so the uncapped analysis is what
            # gets recorded, and the capped one must agree with it
            full = out if cap is None else \
                fn(trail, int_mask, tainted_ids, base=base)
            check_cap_contract(out, full, cap)
            d = full.disjunction
            if d is not None:
                changes = trail.changes
                box = trail.box
                self.analyses.append(AnalysisRecord(
                    d, full.tainted,
                    tuple(_falsified_at(changes, *lit)
                          for lit in d.literals()),
                    max(changes[p].level for p in trail.failure.antecedents),
                    {v: (box.lower[v], box.upper[v])
                     for v, _, _ in d.literals()}))
            return out
        return recorded

    def _probe(self, name: str, fn):
        def recorded(instance, trail, *args, **kwargs):
            lower = np.array(trail.box.lower)
            upper = np.array(trail.box.upper)
            out = fn(instance, trail, *args, **kwargs)
            self.calls[name] += 1
            self.probes.append(ProbeRecord(lower, upper, out))
            return out
        return recorded

    def __enter__(self) -> "SearchRecorder":
        for name in RECORDED_NAMES:
            module, attr = name.rsplit(".", 1)
            owner = importlib.import_module(module)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            wrap = self._probe if attr == "cp_search" else self._analysis
            setattr(owner, attr, wrap(name, fn))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        if exc_type is None:
            silent = [n for n in self.require if not self.calls[n]]
            assert not silent, f"never called while recording: {silent}"


# -- the MPS reader, frozen -------------------------------------------------

_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES",
             "BOUNDS", "ENDATA"}
_BOUND_TYPES = {"UP", "LO", "FX", "FR", "MI", "PL", "BV", "LI", "UI"}


class _RefRowDecl:
    __slots__ = ("name", "sense", "coefs", "rhs", "range_val")

    def __init__(self, name: str, sense: str):
        self.name = name
        self.sense = sense
        self.coefs: dict[int, float] = {}
        self.rhs = 0.0
        self.range_val: float | None = None


def _num(tok: str, line_no: int, finite: bool = False) -> float:
    """A numeric field; NaN never parses, and `finite` also rules out
    the infinities that RHS and bound values may take."""
    try:
        val = float(tok)
    except ValueError:
        val = math.nan
    # val - val is 0.0 for every finite val, NaN for NaN and the infinities
    if val - val != 0.0 and (finite or val != val):
        kind = "a finite number" if finite else "a number"
        raise MpsParseError(NON_NUMERIC_FIELD, line_no,
                            f"expected {kind}, got {tok!r}")
    return val


def reference_parse_mps(text: str, name: str = ""):
    """The MPS reader in its plain form, frozen as the reference for
    `rapidbnb.parse_mps`: every line scanned on its own, every value
    through `_num`, and rows handed to `from_inequalities` without their
    names.  Tests compare the solver's reader against it field by
    field."""
    diag = ParseDiagnostics(name=name)
    section = None
    objective_row: str | None = None
    maximize = False
    rows: dict[str, _RefRowDecl] = {}
    free_rows: set[str] = set()
    row_order: list[str] = []
    col_order: list[str] = []
    col_index: dict[str, int] = {}
    obj_coefs: dict[int, float] = {}
    integer_cols: set[int] = set()
    explicit: dict[int, list[tuple[str, float, int]]] = {}
    in_integer_block = False
    ended = False

    def col_id(tok: str) -> int:
        if tok not in col_index:
            col_index[tok] = len(col_order)
            col_order.append(tok)
        return col_index[tok]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        toks = raw.split()
        if is_header:
            head = toks[0].upper()
            if head not in _SECTIONS:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"unknown section {toks[0]!r}")
            if ended:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    "content after ENDATA")
            section = head
            if head == "NAME":
                diag.name = name or (toks[1] if len(toks) > 1 else "")
            elif head == "OBJSENSE" and len(toks) > 1:
                maximize = toks[1].upper().startswith("MAX")
                section = None
            elif head == "ENDATA":
                ended = True
            continue

        if section is None or section in ("NAME", "ENDATA"):
            raise MpsParseError(MALFORMED_SECTION, line_no,
                                f"data line outside a section: {raw.strip()!r}")

        if section == "OBJSENSE":
            maximize = toks[0].upper().startswith("MAX")
        elif section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    "ROWS lines need a sense and a name")
            sense, rname = toks[0].upper(), toks[1]
            if sense not in ("N", "L", "G", "E"):
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"unknown row sense {toks[0]!r}")
            if sense == "N":
                if objective_row is None:
                    objective_row = rname
                else:
                    diag.warn(line_no, f"extra free row {rname!r} ignored")
                    free_rows.add(rname)
                continue
            if rname in rows:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"duplicate row name {rname!r}")
            rows[rname] = _RefRowDecl(rname, sense)
            row_order.append(rname)
        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1] == "'MARKER'":
                marker = toks[2].strip("'").upper()
                if marker == "INTORG":
                    in_integer_block = True
                elif marker == "INTEND":
                    in_integer_block = False
                else:
                    raise MpsParseError(MALFORMED_SECTION, line_no,
                                        f"unknown marker {toks[2]!r}")
                continue
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    "COLUMNS lines pair row names with values")
            j = col_id(toks[0])
            if in_integer_block:
                integer_cols.add(j)
            for rname, vtok in zip(toks[1::2], toks[2::2]):
                val = _num(vtok, line_no, finite=True)
                if rname == objective_row:
                    obj_coefs[j] = obj_coefs.get(j, 0.0) + val
                    continue
                decl = rows.get(rname)
                if decl is None:
                    if rname in free_rows:      # entries of an ignored N row
                        continue
                    raise MpsParseError(UNKNOWN_ROW_REFERENCE, line_no,
                                        f"column entry for unknown row {rname!r}")
                if j in decl.coefs:
                    diag.warn(line_no, f"duplicate entry ({toks[0]}, {rname}) summed")
                decl.coefs[j] = decl.coefs.get(j, 0.0) + val
        elif section == "RHS":
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    "RHS lines pair row names with values")
            for rname, vtok in zip(toks[1::2], toks[2::2]):
                val = _num(vtok, line_no)
                if rname == objective_row:
                    diag.warn(line_no, "objective-row RHS (constant term) ignored")
                    continue
                decl = rows.get(rname)
                if decl is None:
                    if rname in free_rows:      # entries of an ignored N row
                        continue
                    raise MpsParseError(UNKNOWN_ROW_REFERENCE, line_no,
                                        f"RHS entry for unknown row {rname!r}")
                decl.rhs = val
        elif section == "RANGES":
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    "RANGES lines pair row names with values")
            for rname, vtok in zip(toks[1::2], toks[2::2]):
                val = _num(vtok, line_no)
                decl = rows.get(rname)
                if decl is None:
                    if rname in free_rows:      # entries of an ignored N row
                        continue
                    raise MpsParseError(UNKNOWN_ROW_REFERENCE, line_no,
                                        f"RANGES entry for unknown row {rname!r}")
                decl.range_val = val
        elif section == "BOUNDS":
            if len(toks) < 3:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    "BOUNDS lines need a type, a set name and a column")
            btype = toks[0].upper()
            if btype not in _BOUND_TYPES:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"unknown bound type {toks[0]!r}")
            cname = toks[2]
            if cname not in col_index:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"bound on unknown column {cname!r}")
            j = col_index[cname]
            needs_value = btype in ("UP", "LO", "FX", "LI", "UI")
            if needs_value and len(toks) < 4:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"bound type {btype} needs a value")
            val = _num(toks[3], line_no) if needs_value else 0.0
            explicit.setdefault(j, []).append((btype, val, line_no))
            if btype in ("BV", "LI", "UI"):
                integer_cols.add(j)

    if not ended:
        raise MpsParseError(MALFORMED_SECTION, len(text.splitlines()) or 1,
                            "missing ENDATA")
    if objective_row is None:
        diag.warn(0, "no free (N) row; objective defaults to zero")

    n = len(col_order)
    lower = [0.0] * n
    upper = [INF] * n
    for j in range(n):
        if j in integer_cols and j not in explicit:
            upper[j] = 1.0
    for j, entries in explicit.items():
        for btype, val, line_no in entries:
            if btype == "UP":
                upper[j] = val
                if val < 0 and not any(e[0] in ("LO", "MI", "FX", "FR")
                                       for e in entries):
                    diag.warn(line_no,
                              f"negative UP bound on {col_order[j]} with default "
                              "lower bound 0 kept as-is")
            elif btype == "LO":
                lower[j] = val
            elif btype == "FX":
                lower[j] = upper[j] = val
            elif btype == "FR":
                lower[j], upper[j] = -INF, INF
            elif btype == "MI":
                lower[j] = -INF
            elif btype == "PL":
                upper[j] = INF
            elif btype == "BV":
                lower[j], upper[j] = 0.0, 1.0
            elif btype == "LI":
                lower[j] = val
            elif btype == "UI":
                upper[j] = val

    sign = -1.0 if maximize else 1.0
    objective = [0.0] * n
    for j, v in obj_coefs.items():
        objective[j] = sign * v
    if maximize:
        diag.warn(0, "OBJSENSE MAX negated into minimization")

    constraints: list[tuple[list[int], list[float], str, float]] = []
    for rname in row_order:
        decl = rows[rname]
        cols = sorted(decl.coefs)
        coefs = [decl.coefs[j] for j in cols]
        sense = {"L": "<=", "G": ">=", "E": "=="}[decl.sense]
        if decl.range_val is None:
            constraints.append((cols, coefs, sense, decl.rhs))
            continue
        r = decl.range_val
        # RANGES turns one row into a two-sided constraint, emitted as
        # a <= pair: L rows get [rhs-|r|, rhs], G rows [rhs, rhs+|r|],
        # E rows extend toward the sign of r.
        if decl.sense == "L":
            lo, hi = decl.rhs - abs(r), decl.rhs
        elif decl.sense == "G":
            lo, hi = decl.rhs, decl.rhs + abs(r)
        else:
            lo, hi = (decl.rhs, decl.rhs + r) if r >= 0 else (decl.rhs + r, decl.rhs)
        constraints.append((cols, coefs, "<=", hi))
        constraints.append((cols, [-a for a in coefs], "<=", -lo))

    diag.num_rows_read = len(row_order)
    diag.num_cols_read = n
    instance = from_inequalities(objective, constraints, lower, upper,
                                 sorted(integer_cols), names=col_order,
                                 name=diag.name)
    return instance, diag
