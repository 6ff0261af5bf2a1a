"""MPS reading and writing.

Accepts fixed and free format alike by treating data lines as whitespace
delimited tokens; section headers are the lines without leading space.
Integer variables declared between INTORG/INTEND markers default to
bounds [0, 1] unless any BOUNDS entry mentions them, in which case the
baseline reverts to [0, +inf) before the entries apply.  This is the
classic convention and it is easy to trip over, hence spelled out here
and in the README.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Sequence

from .model import INF, Instance, ModelError, from_inequalities

MALFORMED_SECTION = "MALFORMED_SECTION"
UNKNOWN_ROW_REFERENCE = "UNKNOWN_ROW_REFERENCE"
NON_NUMERIC_FIELD = "NON_NUMERIC_FIELD"

_SENSES = {"L": "<=", "G": ">=", "E": "=="}
_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES",
             "BOUNDS", "ENDATA"}
_BOUND_TYPES = {"UP", "LO", "FX", "FR", "MI", "PL", "BV", "LI", "UI"}


class MpsParseError(ValueError):
    def __init__(self, code: str, line_no: int, message: str):
        super().__init__(f"{code} at line {line_no}: {message}")
        self.code = code
        self.line_no = line_no


@dataclass
class ParseDiagnostics:
    """Non-fatal observations collected while parsing."""
    name: str = ""
    warnings: list[str] = field(default_factory=list)
    num_rows_read: int = 0
    num_cols_read: int = 0

    def warn(self, line_no: int, message: str) -> None:
        self.warnings.append(f"line {line_no}: {message}")


class _RowDecl:
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


def parse_mps(source: str | bytes | os.PathLike,
              name: str = "") -> tuple[Instance, ParseDiagnostics]:
    """Parse MPS text (or a path to it) into an Instance.

    A str containing a newline is taken as the file content itself;
    anything else is treated as a path.  Raises MpsParseError on format
    problems and ModelError when the data cannot form a valid instance
    (such as integer variables left with infinite bounds).
    """
    if isinstance(source, bytes):
        text = source.decode("latin-1")
    elif isinstance(source, str) and "\n" in source:
        text = source
    else:
        path = os.fspath(source)
        with open(path, "r", encoding="latin-1") as fh:
            text = fh.read()
        if not name:
            name = os.path.splitext(os.path.basename(path))[0]

    diag = ParseDiagnostics(name=name)
    section = None
    objective_row: str | None = None
    maximize = False
    rows: dict[str, _RowDecl] = {}
    free_rows: set[str] = set()     # N rows after the objective, ignored
    col_order: list[str] = []
    col_index: dict[str, int] = {}
    obj_coefs: dict[int, float] = {}
    integer_cols: set[int] = set()
    explicit: dict[int, list[tuple[str, float, int]]] = {}
    in_integer_block = False
    ended = False

    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0][0] == "*":
            continue
        if not raw[0].isspace():
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

        # data lines, the most frequent sections first
        if section == "COLUMNS":
            if len(toks) % 2 == 0 or len(toks) < 3 or toks[1] == "'MARKER'":
                # a marker line, or one whose fields do not pair up
                if len(toks) < 3 or toks[1] != "'MARKER'":
                    raise MpsParseError(MALFORMED_SECTION, line_no,
                                        "COLUMNS lines pair row names with values")
                marker = toks[2].strip("'").upper()
                if marker not in ("INTORG", "INTEND"):
                    raise MpsParseError(MALFORMED_SECTION, line_no,
                                        f"unknown marker {toks[2]!r}")
                in_integer_block = marker == "INTORG"
                continue
            it = iter(toks)
            cname = next(it)
            j = col_index.get(cname)
            if j is None:
                j = col_index[cname] = len(col_order)
                col_order.append(cname)
            if in_integer_block:
                integer_cols.add(j)
            for rname, vtok in zip(it, it):
                try:
                    val = float(vtok)
                    if val - val:           # NaN or infinite
                        raise ValueError
                except ValueError:
                    _num(vtok, line_no, finite=True)    # raises
                if rname == objective_row:
                    obj_coefs[j] = obj_coefs.get(j, 0.0) + val
                    continue
                decl = rows.get(rname)
                if decl is None:
                    if rname in free_rows:
                        continue
                    raise MpsParseError(UNKNOWN_ROW_REFERENCE, line_no,
                                        f"column entry for unknown row {rname!r}")
                coefs = decl.coefs
                if j in coefs:
                    diag.warn(line_no, f"duplicate entry ({cname}, {rname}) summed")
                    coefs[j] += val
                else:
                    coefs[j] = val
        elif section == "RHS" or section == "RANGES":
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"{section} lines pair row names with values")
            it = iter(toks)
            next(it)
            for rname, vtok in zip(it, it):
                try:
                    val = float(vtok)
                    if val != val:
                        raise ValueError
                except ValueError:
                    _num(vtok, line_no)     # raises
                if rname == objective_row and section == "RHS":
                    diag.warn(line_no, "objective-row RHS (constant term) ignored")
                    continue
                decl = rows.get(rname)
                if decl is None:
                    if rname in free_rows:
                        continue
                    raise MpsParseError(UNKNOWN_ROW_REFERENCE, line_no,
                                        f"{section} entry for unknown row {rname!r}")
                if section == "RHS":
                    decl.rhs = val
                else:
                    decl.range_val = val
        elif section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    "ROWS lines need a sense and a name")
            sense, rname = toks[0].upper(), toks[1]
            if sense not in ("N", "L", "G", "E"):
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"unknown row sense {toks[0]!r}")
            if sense == "N" and objective_row is not None:
                diag.warn(line_no, f"extra free row {rname!r} ignored")
                free_rows.add(rname)
                continue
            # the objective and the constraints share one name space
            if rname in rows or rname == objective_row:
                raise MpsParseError(MALFORMED_SECTION, line_no,
                                    f"duplicate row name {rname!r}")
            if sense == "N":
                objective_row = rname
            else:
                # interned: models read with the same row names share them
                rows[rname] = _RowDecl(sys.intern(rname), sense)
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
        elif section == "OBJSENSE":
            maximize = toks[0].upper().startswith("MAX")
        else:
            raise MpsParseError(MALFORMED_SECTION, line_no,
                                f"data line outside a section: {raw.strip()!r}")

    if not ended:
        raise MpsParseError(MALFORMED_SECTION, line_no or 1,
                            "missing ENDATA")
    if objective_row is None:
        diag.warn(0, "no free (N) row; objective defaults to zero")

    n = len(col_order)
    lower = [0.0] * n
    upper = [1.0 if j in integer_cols and j not in explicit else INF
             for j in range(n)]
    for j, entries in explicit.items():
        for btype, val, line_no in entries:
            if btype == "UP":
                upper[j] = val
                if val < 0 and not any(e[0] in ("LO", "MI", "FX", "FR")
                                       for e in entries):
                    diag.warn(line_no,
                              f"negative UP bound on {col_order[j]} with default "
                              "lower bound 0 kept as-is")
            elif btype in ("LO", "LI"):
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
            elif btype == "UI":
                upper[j] = val

    sign = -1.0 if maximize else 1.0
    objective = [sign * obj_coefs[j] if j in obj_coefs else 0.0
                 for j in range(n)]
    if maximize:
        diag.warn(0, "OBJSENSE MAX negated into minimization")

    constraints: list[tuple[list[int], list[float], str, float]] = []
    row_names: list[str] = []
    for decl in rows.values():
        cols = sorted(decl.coefs)
        coefs = [decl.coefs[j] for j in cols]
        row_names.append(decl.name)
        if decl.range_val is None:
            constraints.append((cols, coefs, _SENSES[decl.sense], decl.rhs))
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
        row_names.append("")    # the second half of a ranged row

    diag.num_rows_read = len(rows)
    diag.num_cols_read = n
    instance = from_inequalities(objective, constraints, lower, upper,
                                 sorted(integer_cols), names=col_order,
                                 name=diag.name, row_names=row_names)
    return instance, diag


def _fmt(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _check_names(kind: str, names: Sequence[str]) -> None:
    # empty, holding whitespace, read as a comment, or repeated
    if len(set(names)) < len(names):
        raise ModelError(f"a {kind} name is repeated")
    for name in names:
        if not name or name[0] == "*" or any(ch.isspace() for ch in name):
            raise ModelError(f"{kind} name {name!r} cannot be written to MPS")


def write_mps(instance: Instance, target: str | os.PathLike | IO[str]) -> None:
    """Write the normal form as free-format MPS.

    Every variable gets explicit bound lines and at least one COLUMNS
    entry, so parsing the output reproduces the instance structurally:
    same rows in order, same bounds, same integer set, same objective.
    Raises ModelError for a name that would not parse back as itself.
    """
    row_names = [row.name or f"r{i}" for i, row in enumerate(instance.rows)]
    _check_names("variable", instance.var_names)
    _check_names("row", row_names)
    if "OBJ" in row_names:
        raise ModelError("row name 'OBJ' is the objective's")
    lines: list[str] = [f"NAME {instance.name or 'instance'}"]
    lines.append("ROWS")
    lines.append(" N OBJ")
    lines.extend(f" L {rname}" for rname in row_names)

    by_col: dict[int, list[tuple[str, float]]] = {j: [] for j in range(instance.num_vars)}
    for rname, row in zip(row_names, instance.rows):
        for j, a in zip(row.cols, row.coefs):
            by_col[j].append((rname, a))

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for j in range(instance.num_vars):
        if instance.integer_mask[j] and not in_int:
            lines.append(f" M{marker} 'MARKER' 'INTORG'")
            marker += 1
            in_int = True
        elif not instance.integer_mask[j] and in_int:
            lines.append(f" M{marker} 'MARKER' 'INTEND'")
            marker += 1
            in_int = False
        vname = instance.var_names[j]
        entries = []
        if instance.c[j] != 0.0:
            entries.append(("OBJ", float(instance.c[j])))
        entries.extend(by_col[j])
        if not entries:
            entries.append(("OBJ", 0.0))  # keeps the column declared
        for rname, a in entries:
            lines.append(f" {vname} {rname} {_fmt(a)}")
    if in_int:
        lines.append(f" M{marker} 'MARKER' 'INTEND'")

    lines.append("RHS")
    for rname, row in zip(row_names, instance.rows):
        if row.rhs != 0.0:
            lines.append(f" rhs {rname} {_fmt(row.rhs)}")

    lines.append("BOUNDS")
    for j in range(instance.num_vars):
        vname = instance.var_names[j]
        lo, up = float(instance.lower[j]), float(instance.upper[j])
        if lo == up:
            lines.append(f" FX bnd {vname} {_fmt(lo)}")
            continue
        if math.isfinite(lo):
            lines.append(f" LO bnd {vname} {_fmt(lo)}")
        else:
            lines.append(f" MI bnd {vname}")
        if math.isfinite(up):
            lines.append(f" UP bnd {vname} {_fmt(up)}")
        else:
            lines.append(f" PL bnd {vname}")
    lines.append("ENDATA")
    text = "\n".join(lines) + "\n"

    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(os.fspath(target), "w", encoding="ascii") as fh:
            fh.write(text)
