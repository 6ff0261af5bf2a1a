"""Normal form, row classification, and bound box mechanics."""

import numpy as np
import pytest

from rapidbnb import (
    BoundBox,
    EmptyBoxError,
    Instance,
    ModelError,
    Side,
    from_inequalities,
)
from rapidbnb.model import Row, RowKind, classify_row, fmt_g


def small_instance():
    return from_inequalities(
        [-5.0, -4.0],
        [((0, 1), (6.0, 4.0), "<=", 24.0), ((0, 1), (1.0, 2.0), "<=", 6.0)],
        [0, 0], [10, 10], integer_set=(0, 1))


class TestRow:
    def test_zero_coefficients_dropped(self):
        for zero in (0.0, -0.0, 0, np.float32(-0.0)):
            row = Row((0, 1, 2), (1.0, zero, -2.0), 3.0)
            assert row.cols == (0, 2)
            assert row.coefs == (1.0, -2.0)
            assert Row((4,), (zero,), 1.0).cols == ()

    def test_numpy_inputs_become_python_numbers(self):
        row = Row(np.array([3, 1], dtype=np.int64),
                  np.array([0.5, -2.0], dtype=np.float32), np.float32(4.0))
        assert row.cols == (3, 1) and row.coefs == (0.5, -2.0)
        assert [type(v) for v in row.cols + row.coefs + (row.rhs,)] == \
            [int, int, float, float, float]

    def test_duplicate_column_rejected(self):
        for cols in ((0, 0), np.array([2, 2]), (1, 1.0)):
            with pytest.raises(ModelError, match="repeats a column"):
                Row(cols, (1.0, 2.0), 1.0)

    def test_fractional_column_rejected_not_truncated(self):
        # truncated, these would be the repeats (1, 1)
        for cols in ((1, 1.5), np.array([1.2, 1.7])):
            with pytest.raises(ModelError, match="non-integer column"):
                Row(cols, (1.0, 2.0), 1.0)
        assert Row(np.array([2.0, 0.0]), (1.0, 2.0), 1.0).cols == (2, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError):
            Row((0, 1), (1.0,), 1.0)

    @pytest.mark.parametrize("coefs,rhs", [
        ((1.0, float("nan")), 1.0),
        ((1.0, float("inf")), 1.0),
        ((1.0, 2.0), float("nan")),
        (np.array([-np.inf, 1.0], dtype=np.float32), 1.0),
        ((1.0, 2.0), np.float32("nan")),
    ])
    def test_nan_rejected(self, coefs, rhs):
        with pytest.raises(ModelError, match="non-finite|NaN"):
            Row((0, 1), coefs, rhs)

    def test_finite_terms_with_an_infinite_sum_allowed(self):
        assert Row((0, 1), (1e308, 1e308), 1.0).coefs == (1e308, 1e308)

    def test_infinite_rhs_allowed(self):
        assert Row((0, 1), (1.0, 2.0), float("inf")).rhs == float("inf")

    def test_activity(self):
        row = Row((0, 2), (2.0, -1.0), 5.0)
        assert row.activity(np.array([3.0, 9.0, 4.0])) == 2.0


class TestClassification:
    def test_row_kinds(self):
        lower = np.zeros(3)
        upper = np.ones(3)
        mask = np.ones(3, dtype=bool)
        assert classify_row(Row((0, 1), (2.0, 3.0), 4.0), lower, upper, mask) \
            is RowKind.KNAPSACK
        assert classify_row(Row((0, 1, 2), (-1.0, -1.0, -1.0), -1.0),
                            lower, upper, mask) is RowKind.CLAUSE
        assert classify_row(Row((0, 1), (2.0, -3.0), 4.0), lower, upper, mask) \
            is RowKind.LINEAR
        # mixed signs: x0 <= 0 or x1 >= 1 or x2 <= 0
        assert classify_row(Row((0, 1, 2), (1.0, -1.0, 1.0), 1.0),
                            lower, upper, mask) is RowKind.CLAUSE
        # at most one of two, checked ahead of the knapsack form
        assert classify_row(Row((0, 1), (1.0, 1.0), 1.0), lower, upper, mask) \
            is RowKind.CLAUSE
        # x1 >= x0 + 1 is not a clause: its rhs is one too low
        assert classify_row(Row((0, 1), (1.0, -1.0), -1.0), lower, upper, mask) \
            is RowKind.LINEAR
        # a non-binary column disqualifies every special kind
        wide = np.array([0.0, 0.0, 2.0])
        assert classify_row(Row((0, 2), (1.0, 1.0), 2.0), lower, wide, mask) \
            is RowKind.LINEAR
        # a weight tie: pairs heaviest first, in column order among equals
        inst = from_inequalities(
            [0.0] * 4, [((0, 1, 2, 3), (2.0, 3.0, 2.0, 3.0), "<=", 5.0)],
            [0] * 4, [1] * 4, integer_set=range(4))
        row = inst.rows[0]
        assert row.kind is RowKind.KNAPSACK
        assert row.prepared == ((1, 3), (3, 3), (0, 2), (2, 2))
        assert all(type(w) is int for _, w in row.prepared)


    def test_lists_and_arrays_give_the_same_kind(self):
        # Instance classifies on list copies of its bounds and mask
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(400):
            n = int(rng.integers(1, 6))
            lower = rng.integers(-1, 2, n).astype(float)
            upper = lower + rng.integers(0, 2, n)
            mask = rng.random(n) < 0.8
            cols = rng.choice(n, int(rng.integers(0, n + 1)), replace=False)
            coefs = rng.choice([-2.0, -1.0, 1.0, 1.0, 2.0, 2.5], len(cols))
            rhs = float(rng.integers(-2, 4))
            row = Row(cols, coefs, rhs)
            kind = classify_row(row, lower, upper, mask)
            assert classify_row(row, lower.tolist(), upper.tolist(),
                                mask.tolist()) is kind
            kinds.add(kind)
        assert kinds == set(RowKind)


class TestFromInequalities:
    def test_ge_negated(self):
        inst = from_inequalities([0.0], [((0,), (2.0,), ">=", 3.0)],
                                 [0], [5], integer_set=(0,))
        assert inst.rows[0].coefs == (-2.0,)
        assert inst.rows[0].rhs == -3.0

    def test_eq_becomes_two_rows(self):
        inst = from_inequalities([0.0], [((0,), (1.0,), "==", 2.0)],
                                 [0], [5], integer_set=(0,))
        assert inst.num_rows == 2
        assert inst.rows[0].rhs == 2.0
        assert inst.rows[1].rhs == -2.0

    def test_row_names_name_each_first_row(self):
        inst = from_inequalities(
            [0.0, 0.0], [((0,), (1.0,), "<=", 2.0), ((1,), (1.0,), ">=", 1.0),
                         ((0, 1), (1.0, 1.0), "==", 2.0)],
            [0, 0], [5, 5], integer_set=(0, 1), row_names=["a", "b", "c"])
        assert [r.name for r in inst.rows] == ["a", "b", "c", ""]
        assert inst.rows[1].coefs == (-1.0,)
        with pytest.raises(ModelError, match="row name count"):
            from_inequalities([0.0], [((0,), (1.0,), "<=", 2.0)],
                              [0], [5], integer_set=(0,), row_names=[])

    def test_unknown_sense(self):
        with pytest.raises(ModelError):
            from_inequalities([0.0], [((0,), (1.0,), "<", 2.0)],
                              [0], [5], integer_set=(0,))

    def test_crossed_bounds(self):
        with pytest.raises(ModelError):
            from_inequalities([0.0], [], [3], [1], integer_set=(0,))


class TestInstance:
    def test_integer_bounds_rounded_inward(self):
        inst = from_inequalities([0.0], [], [0.4], [2.7], integer_set=(0,))
        assert inst.lower[0] == 1.0
        assert inst.upper[0] == 2.0

    @pytest.mark.parametrize("objective,lower,upper", [
        ([float("nan"), 1.0], [0, 0], [1, 1]),
        ([float("inf"), 1.0], [0, 0], [1, 1]),
        ([1.0, 1.0], [float("nan"), 0], [1, 1]),
        ([1.0, 1.0], [0, 0], [1, float("nan")]),
    ])
    def test_nan_rejected(self, objective, lower, upper):
        with pytest.raises(ModelError):
            Instance(objective, [], lower, upper, [])

    def test_first_column_out_of_range_named(self):
        rows = [Row((0, 1), (1.0, 1.0), 1.0, name="ok"),
                Row((1, 7, -1, 9), (1.0, 1.0, 1.0, 1.0), 1.0, name="far")]
        with pytest.raises(ModelError) as err:
            Instance([0.0, 0.0], rows, [0, 0], [1, 1], [])
        assert str(err.value) == "row 'far' references column 7"
        with pytest.raises(ModelError, match="references column -1"):
            Instance([0.0, 0.0], [Row((-1,), (1.0,), 1.0)], [0, 0], [1, 1],
                     [])

    def test_infinite_continuous_bounds_allowed(self):
        inst = Instance([1.0], [], [-float("inf")], [float("inf")], [])
        assert inst.lower[0] == -float("inf") and inst.upper[0] == float("inf")

    def test_check_point(self):
        inst = small_instance()
        assert inst.check_point(np.array([4.0, 0.0]))
        assert not inst.check_point(np.array([4.0, 1.0]))     # row violated
        assert not inst.check_point(np.array([0.5, 0.0]))     # fractional
        assert not inst.check_point(np.array([-1.0, 0.0]))    # below bound

    def test_objective_value(self):
        inst = small_instance()
        assert inst.objective_value(np.array([4.0, 0.0])) == -20.0

    def test_root_box_is_a_copy(self):
        inst = small_instance()
        box = inst.root_box()
        box.tighten(0, Side.UPPER, 1.0)
        assert inst.upper[0] == 10.0


class TestBoundBox:
    def test_tighten_only_strictly(self):
        box = BoundBox(np.zeros(2), np.full(2, 3.0))
        assert box.tighten(0, Side.UPPER, 2.0)
        # loosening attempt leaves the box untouched
        assert not box.tighten(0, Side.UPPER, 4.0)
        assert box.upper[0] == 2.0

    def test_tighten_crossing_raises(self):
        box = BoundBox(np.zeros(1), np.ones(1))
        with pytest.raises(EmptyBoxError):
            box.tighten(0, Side.LOWER, 2.0)

    def test_copy_independent(self):
        box = BoundBox(np.zeros(1), np.ones(1))
        other = box.copy()
        other.tighten(0, Side.UPPER, 0.0)
        assert box.upper[0] == 1.0

    def test_helpers(self):
        box = BoundBox(np.array([0.0, 1.0]), np.array([0.0, 4.0]))
        assert box.get(1, Side.LOWER) == 1.0
        assert box.get(1, Side.UPPER) == 4.0
        assert not box.is_empty()


class TestFmtG:
    def test_frozen_renderings(self):
        assert fmt_g(0.5) == "0.5"
        assert fmt_g(-21.0) == "-21"
        assert fmt_g(1.0 / 3.0) == "0.333333333333"
        assert fmt_g(3.0) == "3"
        assert fmt_g(float("inf")) == "inf"
        assert fmt_g(float("-inf")) == "-inf"
