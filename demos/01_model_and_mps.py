"""
Building instances and moving them through MPS files
====================================================

"""

import tempfile
from pathlib import Path

import numpy as np

from rapidbnb import from_inequalities
from rapidbnb.mps import parse_mps, write_mps

# A tiny production-mix model: two integer activities, one continuous
# buffer.  Internally every row is kept in <= normal form; >= rows are
# negated on the way in and == rows become two opposing halves.
inst = from_inequalities(
    objective=[-3.0, -2.0, 0.5],
    constraints=[
        ((0, 1), (2.0, 1.0), "<=", 10.0),      # machine hours
        ((0, 1), (1.0, 3.0), "<=", 15.0),      # raw material
        ((0, 1, 2), (1.0, 1.0, -1.0), "==", 0.0),   # buffer balance
    ],
    lower=[0.0, 0.0, 0.0],
    upper=[6.0, 6.0, 12.0],
    integer_set=[0, 1],
    names=["lathe", "mill", "store"],
    name="MIX",
    row_names=["hours", "material", "balance"])

print("integer columns:", int(inst.integer_mask.sum()), "of", inst.num_vars)
print("rows in normal form:")
for row in inst.rows:
    print("  ", row)

# Round trip through the interchange format.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "mix.mps"
    write_mps(inst, path)
    back, diags = parse_mps(path)
print("reparsed", diags.num_cols_read, "columns,", diags.num_rows_read,
      "rows, warnings:", diags.warnings or "none")
print("objective survived:", np.array_equal(back.c, inst.c))
# Each constraint's name rides on its first row.  The second half of the
# balance equality has none, so the writer calls it r3 after its index,
# and that is the name it reads back with.
print("row names:", [row.name for row in inst.rows], "->",
      [row.name for row in back.rows])

# The parser also takes raw text, which is handy for quick experiments.
text = """NAME SCRATCH
ROWS
 N Z
 G PICK
COLUMNS
    MARKER                 'MARKER' 'INTORG'
 A Z 1.0 PICK 1.0
 B Z 1.0 PICK 1.0
    MARKER                 'MARKER' 'INTEND'
RHS
 R PICK 1.0
ENDATA
"""
scratch, _ = parse_mps(text)
# INTORG columns without bounds default to [0, 1]
print("scratch instance:", int(scratch.integer_mask.sum()), "integer of",
      scratch.num_vars, "columns, bounds", scratch.lower.tolist(),
      scratch.upper.tolist())
