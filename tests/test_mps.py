"""MPS reader/writer: golden files, diagnostics, errors, round trips."""

import io
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rapidbnb import Instance, ModelError, Row, parse_mps, solve, write_mps
from rapidbnb.mps import (
    MALFORMED_SECTION,
    NON_NUMERIC_FIELD,
    UNKNOWN_ROW_REFERENCE,
    MpsParseError,
)

import oracles

DATA = pathlib.Path(__file__).parent / "data"


class TestGoldenFiles:
    def test_toy_mix(self):
        inst, diag = parse_mps(DATA / "toy_mix.mps")
        assert inst.name == "toy_mix"
        assert inst.var_names == ("x", "y", "z")
        assert list(inst.c) == [2.0, -1.0, 0.0]
        assert list(inst.integer_mask) == [True, False, False]
        assert list(inst.lower) == [0.0, -5.0, 1.0]
        assert list(inst.upper) == [10.0, 5.0, 1.0]
        # CAP with RANGES 4 -> pair, DEMAND >= -> negated, BALANCE == -> pair
        rows = [(r.cols, r.coefs, r.rhs) for r in inst.rows]
        assert rows == [
            ((0, 1), (3.0, 2.0), 12.0),
            ((0, 1), (-3.0, -2.0), -8.0),
            ((0, 2), (-1.0, -2.0), -2.0),
            ((1, 2), (1.0, 1.0), 4.0),
            ((1, 2), (-1.0, -1.0), -4.0),
        ]
        assert diag.num_rows_read == 3
        assert diag.num_cols_read == 3
        assert diag.warnings == []

    def test_cover3_integer_default_bound(self):
        inst, _ = parse_mps(DATA / "cover3.mps")
        # INTORG columns without BOUNDS entries default to [0, 1]
        assert list(inst.integer_mask) == [True, True, True]
        assert list(inst.lower) == [0.0, 0.0, 0.0]
        assert list(inst.upper) == [1.0, 1.0, 1.0]
        res = solve(inst)
        assert res.status == "optimal"
        assert res.objective == 1.0
        assert list(res.solution) == [0.0, 1.0, 0.0]


GOOD_MIN = """\
NAME T
ROWS
 N OBJ
 L R1
COLUMNS
 x OBJ 1 R1 1
RHS
 RHS R1 4
ENDATA
"""


class TestDiagnostics:
    def test_duplicate_entry_summed(self):
        text = GOOD_MIN.replace(" x OBJ 1 R1 1", " x OBJ 1 R1 1\n x R1 2")
        inst, diag = parse_mps(text)
        assert inst.rows[0].coefs == (3.0,)
        assert any("summed" in w for w in diag.warnings)

    def test_objsense_max_negated(self):
        text = "OBJSENSE\n MAX\n" + GOOD_MIN
        inst, diag = parse_mps(text)
        assert inst.c[0] == -1.0
        assert any("negated" in w for w in diag.warnings)

    def test_objective_rhs_ignored(self):
        text = GOOD_MIN.replace(" RHS R1 4", " RHS R1 4 OBJ 7")
        inst, diag = parse_mps(text)
        assert any("constant term" in w for w in diag.warnings)

    def test_missing_objective_row_warns(self):
        text = GOOD_MIN.replace(" N OBJ\n", "").replace(" x OBJ 1 R1 1",
                                                         " x R1 1")
        inst, diag = parse_mps(text)
        assert list(inst.c) == [0.0]
        assert any("objective defaults to zero" in w for w in diag.warnings)


FREE_ROW = """\
NAME T
ROWS
 N OBJ
 N FREE
 L R1
COLUMNS
 x OBJ 1 FREE 2
 x R1 1
RHS
 RHS R1 4 FREE 3
RANGES
 RNG FREE 1
ENDATA
"""


class TestExtraFreeRows:
    def test_entries_of_an_extra_free_row_are_skipped(self):
        inst, diag = parse_mps(FREE_ROW)
        assert list(inst.c) == [1.0]
        assert [(r.cols, r.coefs, r.rhs) for r in inst.rows] == \
            [((0,), (1.0,), 4.0)]
        assert diag.warnings == ["line 4: extra free row 'FREE' ignored"]

    @pytest.mark.parametrize("old,new,line_no", [
        (" x R1 1", " x R1 1 R9 1", 8),
        (" RHS R1 4 FREE 3", " RHS R1 4 R9 3", 10),
        (" RNG FREE 1", " RNG R9 1", 12),
    ])
    def test_a_truly_unknown_row_still_raises(self, old, new, line_no):
        with pytest.raises(MpsParseError) as err:
            parse_mps(FREE_ROW.replace(old, new))
        assert (err.value.code, err.value.line_no) == \
            (UNKNOWN_ROW_REFERENCE, line_no)


class TestParseErrors:
    def test_missing_endata(self):
        with pytest.raises(MpsParseError) as err:
            parse_mps(GOOD_MIN.replace("ENDATA\n", ""))
        assert err.value.code == MALFORMED_SECTION

    def test_unknown_row_reference(self):
        with pytest.raises(MpsParseError) as err:
            parse_mps(GOOD_MIN.replace(" x OBJ 1 R1 1", " x OBJ 1 R9 1"))
        assert err.value.code == UNKNOWN_ROW_REFERENCE
        assert err.value.line_no == 6

    def test_non_numeric_field(self):
        with pytest.raises(MpsParseError) as err:
            parse_mps(GOOD_MIN.replace(" RHS R1 4", " RHS R1 abc"))
        assert err.value.code == NON_NUMERIC_FIELD

    @pytest.mark.parametrize("old,new", [
        ("ENDATA", "BOUNDS\n UP BND x nan\nENDATA"),     # bound
        (" x OBJ 1 R1 1", " x OBJ 1 R1 nan"),             # matrix
        (" x OBJ 1 R1 1", " x OBJ NaN R1 1"),             # objective
        (" RHS R1 4", " RHS R1 nan"),                     # right-hand side
        ("ENDATA", "RANGES\n RNG R1 nan\nENDATA"),       # range
        (" x OBJ 1 R1 1", " x OBJ 1 R1 inf"),             # infinite matrix
        (" x OBJ 1 R1 1", " x OBJ -inf R1 1"),            # infinite objective
    ])
    def test_nan_and_infinite_coefficients_rejected(self, old, new):
        with pytest.raises(MpsParseError) as err:
            parse_mps(GOOD_MIN.replace(old, new))
        assert err.value.code == NON_NUMERIC_FIELD
        assert err.value.line_no > 0

    def test_infinite_rhs_and_bounds_stay_legal(self):
        text = GOOD_MIN.replace(" RHS R1 4", " RHS R1 inf").replace(
            "ENDATA", "BOUNDS\n LO BND x -inf\n UP BND x 3\nENDATA")
        inst, _ = parse_mps(text)
        assert inst.rows[0].rhs == float("inf")
        assert inst.lower[0] == -float("inf") and inst.upper[0] == 3.0

    def test_unknown_bound_type(self):
        text = GOOD_MIN.replace("ENDATA", "BOUNDS\n XX BND x 1\nENDATA")
        with pytest.raises(MpsParseError) as err:
            parse_mps(text)
        assert err.value.code == MALFORMED_SECTION

    def test_bound_on_unknown_column(self):
        text = GOOD_MIN.replace("ENDATA", "BOUNDS\n UP BND q 1\nENDATA")
        with pytest.raises(MpsParseError) as err:
            parse_mps(text)
        assert err.value.code == MALFORMED_SECTION

    @pytest.mark.parametrize("rows,line_no", [
        (" N OBJ\n L OBJ", 4),      # the constraint after the objective
        (" L OBJ\n N OBJ", 4),      # and before it
        (" N OBJ\n G R1\n E OBJ", 5),
    ])
    def test_constraint_named_like_the_objective(self, rows, line_no):
        # read as one row, it would be `min x` with the empty row 0 <= 0
        text = (f"NAME\nROWS\n{rows}\nCOLUMNS\n x OBJ 1\nRHS\n"
                " RHS OBJ -1\nENDATA\n")
        with pytest.raises(MpsParseError, match="duplicate row") as err:
            parse_mps(text)
        assert (err.value.code, err.value.line_no) == \
            (MALFORMED_SECTION, line_no)

    def test_ranges_unknown_row(self):
        text = GOOD_MIN.replace("ENDATA", "RANGES\n RNG R9 2\nENDATA")
        with pytest.raises(MpsParseError) as err:
            parse_mps(text)
        assert err.value.code == UNKNOWN_ROW_REFERENCE


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw):
    """Instances with integer and continuous columns, half-infinite and
    free continuous bounds, and rows whose right-hand side may be
    infinite."""
    n = draw(st.integers(1, 6))
    ints = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lower, upper = [], []
    for is_int in ints:
        if is_int:
            lo = draw(st.integers(-10 ** 6, 10 ** 6))
            lower.append(float(lo))
            upper.append(float(lo + draw(st.integers(0, 10 ** 6))))
        else:
            lo = draw(st.one_of(st.just(-math.inf), finite_floats))
            up = draw(st.one_of(st.just(math.inf), finite_floats))
            if lo > up:
                lo, up = up, lo
            lower.append(lo)
            upper.append(up)
    rows = []
    for i in range(draw(st.integers(0, 5))):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        coefs = draw(st.lists(finite_floats, min_size=len(cols),
                              max_size=len(cols)))
        rhs = draw(st.floats(allow_nan=False))
        rows.append(Row(cols, coefs, rhs, name=f"r{i}"))
    c = draw(st.lists(finite_floats, min_size=n, max_size=n))
    return Instance(c, rows, lower, upper,
                    [j for j, is_int in enumerate(ints) if is_int])


class TestRoundTrip:
    def test_random_instances_survive(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            inst = oracles.random_instance(rng)
            buf = io.StringIO()
            write_mps(inst, buf)
            back, diag = parse_mps(buf.getvalue())
            assert diag.warnings == []
            assert back.num_vars == inst.num_vars
            assert back.num_rows == inst.num_rows
            assert list(back.c) == list(inst.c)
            assert list(back.lower) == list(inst.lower)
            assert list(back.upper) == list(inst.upper)
            assert list(back.integer_mask) == list(inst.integer_mask)
            for mine, theirs in zip(inst.rows, back.rows):
                assert mine.cols == theirs.cols
                assert mine.coefs == theirs.coefs
                assert mine.rhs == theirs.rhs

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_generated_instances_survive(self, inst):
        buf = io.StringIO()
        write_mps(inst, buf)
        back, diag = parse_mps(buf.getvalue())
        assert diag.warnings == []
        assert list(back.c) == list(inst.c)
        assert list(back.lower) == list(inst.lower)
        assert list(back.upper) == list(inst.upper)
        assert list(back.integer_mask) == list(inst.integer_mask)
        # MPS lists entries by column, so each row's terms come back in
        # column order
        assert [(sorted(zip(r.cols, r.coefs)), r.rhs) for r in back.rows] \
            == [(sorted(zip(r.cols, r.coefs)), r.rhs) for r in inst.rows]

    @pytest.mark.parametrize("var_names, row_names", [
        (("x", "x"), ("a",)),       # read back as one column
        (("x", ""), ("a",)),        # no token at all
        (("x y", "z"), ("a",)),     # two tokens: the file does not parse
        (("*x", "y"), ("a",)),      # its lines read as comments
        (("x", "y"), ("OBJ",)),     # its terms added to the objective
        (("x", "y"), ("a\tb",)),
        (("x", "y"), ("a", "a")),
        (("x", "y"), ("r1", "")),   # the unnamed row 1 is written as r1
    ])
    def test_names_that_would_not_parse_back_are_refused(self, var_names,
                                                         row_names):
        # min x + y over x + y >= 1: the optimum is 1
        rows = [Row((0, 1), (-1.0, -1.0), -1.0, name=n) for n in row_names]
        inst = Instance([1.0, 1.0], rows, [0, 0], [1, 1], range(2),
                        names=var_names)
        assert solve(inst).objective == pytest.approx(1.0)
        buf = io.StringIO()
        with pytest.raises(ModelError):
            write_mps(inst, buf)
        assert buf.getvalue() == ""

    def test_named_rows_and_columns_round_trip(self):
        rows = [Row((0, 1), (-1.0, -1.0), -1.0, name="cover"),
                Row((0,), (1.0,), 1.0)]
        inst = Instance([1.0, 1.0], rows, [0, 0], [1, 1], range(2),
                        names=("x_0", "OBJx"))
        buf = io.StringIO()
        write_mps(inst, buf)
        back, diag = parse_mps(buf.getvalue())
        assert diag.warnings == []
        assert back.var_names == ("x_0", "OBJx")
        assert [r.name for r in back.rows] == ["cover", "r1"]
        assert solve(back).objective == pytest.approx(1.0)

    def test_equality_and_ranged_rows_write_again(self):
        # an E row and a ranged row each read as two rows; the second
        # is unnamed and written as r{i}, which must not clash
        text = GOOD_MIN.replace(" L R1", " E BAL\n L R1").replace(
            " x OBJ 1 R1 1", " x OBJ 1 R1 1 BAL 2").replace(
            "ENDATA", "RANGES\n RNG R1 3\nENDATA")
        inst, _ = parse_mps(text)
        assert [r.name for r in inst.rows] == ["BAL", "", "R1", ""]
        for _ in range(2):
            buf = io.StringIO()
            write_mps(inst, buf)
            inst, diag = parse_mps(buf.getvalue())
            assert diag.warnings == []
            assert [r.name for r in inst.rows] == ["BAL", "r1", "R1", "r3"]
            assert [(r.cols, r.coefs, r.rhs) for r in inst.rows] == [
                ((0,), (2.0,), 0.0), ((0,), (-2.0,), 0.0),
                ((0,), (1.0,), 4.0), ((0,), (-1.0,), -1.0)]
        clash = text.replace("BAL", "r1")
        with pytest.raises(ModelError, match="repeated"):
            write_mps(parse_mps(clash)[0], io.StringIO())

    def test_write_to_path(self, tmp_path):
        inst, _ = parse_mps(DATA / "cover3.mps")
        out = tmp_path / "copy.mps"
        write_mps(inst, out)
        again, _ = parse_mps(out)
        assert again.num_rows == inst.num_rows



# -- the reader against its frozen reference ---------------------------------

VALUES = st.one_of(
    st.integers(-9, 9).map(str),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "0.5", "-2.5", "1e3", "-1E-2",
                     ".25", "+3", "1e308", "-1e308", "-1e-7"]),
    st.floats(-100, 100, allow_nan=False).map(repr),
)
# right-hand sides, ranges and bounds may also be infinite
WIDE_VALUES = st.one_of(VALUES, st.sampled_from(["inf", "-Infinity", "1e999"]))
BOUND_TYPES = ["UP", "LO", "FX", "FR", "MI", "PL", "BV", "LI", "UI"]


def pair_lines(draw, head, pairs):
    """Data lines `head name value [name value]`, one or two pairs each."""
    lines = []
    while pairs:
        k = draw(st.integers(1, 2))
        lines.append([head] + [tok for pair in pairs[:k] for tok in pair])
        pairs = pairs[k:]
    return lines


@st.composite
def mps_texts(draw):
    """MPS texts beyond what `write_mps` emits: L, G and E rows, one and
    two pairs per line, duplicate entries, MARKER blocks, an objective-row
    RHS, RANGES of both signs, every bound type, OBJSENSE as a section or
    inline, comments and blank lines.  Entries may name a second free
    row, which is ignored.  RANGES may name the objective, which is an
    error."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    rnames = [f"R{i}" for i in range(m)]
    ints = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    body = [["NAME"] + draw(st.sampled_from([[], ["model"]]))]
    objsense = draw(st.sampled_from([None, "section", "inline"]))
    word = draw(st.sampled_from(["MAX", "MIN", "maximize"]))
    body += [["OBJSENSE"], [" ", word]] if objsense == "section" else \
        [["OBJSENSE", word]] if objsense == "inline" else []
    decls = [[" ", draw(st.sampled_from("LGElge")), r] for r in rnames]
    free = draw(st.sampled_from([[], ["OBJ"], ["OBJ"], ["OBJ", "FREE"]]))
    free = free if m else ["OBJ"]
    for rname in free:
        decls.insert(draw(st.integers(0, len(decls))), [" ", "N", rname])
    body += [["ROWS"]] + decls + [["COLUMNS"]]
    targets = st.sampled_from(rnames + free)
    for j, is_int in enumerate(ints):
        pairs = draw(st.lists(st.tuples(targets, VALUES), min_size=1,
                              max_size=4))
        if is_int != (j > 0 and ints[j - 1]):
            marker = "'INTORG'" if is_int else "'INTEND'"
            body.append([" ", f"M{j}", "'MARKER'", marker])
        body += pair_lines(draw, f" x{j}", pairs)
    if ints[-1]:
        body.append([" ", "MEND", "'MARKER'", "'intend'"])
    body.append(["RHS"])
    body += pair_lines(draw, " rhs", draw(st.lists(
        st.tuples(targets, WIDE_VALUES), max_size=m + 1)))
    if m and draw(st.booleans()):
        body.append(["RANGES"])
        body += pair_lines(draw, " rng", draw(st.lists(
            st.tuples(targets, WIDE_VALUES), max_size=m)))
    if draw(st.booleans()):
        body.append(["BOUNDS"])
        for _ in range(draw(st.integers(0, 2 * n))):
            btype = draw(st.sampled_from(BOUND_TYPES))
            # a negative UP that leaves the default lower bound 0 in range
            values = st.just("-1e-7") | WIDE_VALUES if btype == "UP" \
                else WIDE_VALUES
            value = [] if btype in ("FR", "MI", "PL", "BV") else [draw(values)]
            body.append([" ", btype, "bnd", f"x{draw(st.integers(0, n - 1))}"]
                        + value)
    body.append(["ENDATA"])
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))),
                    [draw(st.sampled_from(["", "   ", "* note", "  *x 1"]))])
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    return [sep.join(toks) if toks[0] != " " else " " + sep.join(toks[1:])
            for toks in body]


@st.composite
def malformed_mps_texts(draw):
    """A generated text with one line or token changed, added or removed."""
    lines = draw(mps_texts())
    i = draw(st.integers(0, len(lines) - 1))
    toks = lines[i].split()
    how = draw(st.sampled_from(["value", "value", "replace", "drop", "add",
                                "insert", "delete"]))
    if how == "value" and len(toks) > 2:
        toks[-1] = draw(st.sampled_from(["abc", "nan", "inf", "-inf", "1e999",
                                         "--1"]))
        lines[i] = " " + " ".join(toks)
    elif how in ("replace", "drop", "add") and toks:
        k = draw(st.integers(0, len(toks) - 1))
        bad = draw(st.sampled_from(["abc", "nan", "NaN", "inf", "-inf", "R9",
                                    "XX", "'MARKER'", "FOO", "*", "N", "E"]))
        if how == "replace":
            toks[k] = bad
        elif how == "drop":
            del toks[k]
        else:
            toks.insert(k + 1, bad)
        lead = " " if lines[i][:1].isspace() else ""
        lines[i] = lead + " ".join(toks)
    elif how == "insert":
        lines.insert(i, draw(st.sampled_from([
            "FOO", " x0 R9 1", " LO bnd x9 1", " UP bnd x0", " Q R0",
            "BOUNDS", "ROWS", "ENDATA", " M9 'MARKER' 'BOGUS'", " E R0",
            " x0 R0 1 R1", " rhs OBJ 4"])))
    else:
        del lines[i]
    return lines


def named_by_rule(text):
    """The row names of a parsed text: each declared row names its first
    row, and the second row of an E row or a ranged row is unnamed."""
    section, decls, ranged = None, [], set()
    for raw in text.splitlines():
        toks = raw.split()
        if not toks or toks[0][0] == "*":
            continue
        if not raw[0].isspace():
            section = toks[0].upper()
        elif section == "ROWS" and toks[0].upper() != "N":
            decls.append((toks[1], toks[0].upper()))
        elif section == "RANGES":
            ranged.update(toks[1::2])
    names = []
    for rname, sense in decls:
        names += [rname, ""] if sense == "E" or rname in ranged else [rname]
    return names


def read_all(parse, text):
    """Everything a reader gives for a text, repr-exact, and the row
    names apart; a ModelError's message without the row it names."""
    try:
        inst, diag = parse(text)
    except MpsParseError as exc:
        return ("MpsParseError", exc.code, exc.line_no, str(exc)), None
    except ModelError as exc:
        return ("ModelError", re.sub(r"^row \S+ ", "row ", str(exc))), None
    fields = {k: (v.dtype.str, v.flags.writeable, v.tolist())
              if isinstance(v, np.ndarray) else v
              for k, v in vars(inst).items() if k != "rows"}
    rows = [(r.cols, r.coefs, r.rhs, r.kind, r.prepared) for r in inst.rows]
    return ("ok", repr(fields), repr(rows), repr(diag)), \
        [r.name for r in inst.rows]


class TestAgainstReference:
    @given(st.one_of(mps_texts(), malformed_mps_texts()))
    @example([
        "NAME", "OBJSENSE MAX", "ROWS", " N OBJ", " E E1", " G G1", " L L1",
        "COLUMNS", " x0 OBJ 2 E1 1", " x0 G1 1 L1 1", " x1 E1 1 L1 -0",
        "RHS", " rhs E1 3 OBJ 1", " rhs G1 1 L1 4", "RANGES",
        " rng E1 -2 G1 2", " rng L1 -1.5", "BOUNDS", " UP bnd x0 -1e-7",
        " MI bnd x1", " UP bnd x1 9", "ENDATA"])
    @settings(max_examples=250, deadline=None)
    def test_same_instance_diagnostics_and_errors(self, lines):
        text = "\n".join(lines) + "\n"
        want, _ = read_all(oracles.reference_parse_mps, text)
        got, names = read_all(parse_mps, text)
        assert got == want
        if names is not None:
            assert names == named_by_rule(text)
