"""Bound propagation: soundness, order independence, special-form rows."""

import numpy as np

from rapidbnb import (BoundBox, BoundDisjunction, Instance, Propagator, Row,
                      from_inequalities, to_knapsack)
from rapidbnb.propagation import (Deduction, Outcome, RowInfeasible,
                                  clause_literals, propagate_linear_row,
                                  propagate_watched)

import oracles

N_SOUNDNESS_CASES = 60


def fixpoint_box(instance: Instance) -> tuple[Outcome, BoundBox]:
    prop = Propagator(instance)
    box = instance.root_box()
    res = prop.to_fixpoint(box)
    return res.outcome, box


class TestSoundness:
    def test_no_integer_point_removed(self):
        rng = np.random.default_rng(70)
        n_reduced = 0
        for k in range(N_SOUNDNESS_CASES):
            inst = oracles.random_instance(rng)
            pts = oracles.feasible_points(inst)
            outcome, box = fixpoint_box(inst)
            if outcome is Outcome.INFEASIBLE:
                assert pts.shape[0] == 0, f"case {k} cut off feasible points"
                continue
            if outcome is Outcome.REDUCED:
                n_reduced += 1
            for x in pts:
                assert np.all(x >= box.lower - 1e-9), f"case {k}"
                assert np.all(x <= box.upper + 1e-9), f"case {k}"
        assert n_reduced >= 5  # the suite must actually exercise reductions

    def test_row_permutation_same_fixpoint(self):
        # verdicts always agree; boxes agree whenever a fixpoint exists
        # (a failed pass stops mid-sweep, so its partial box is not one)
        rng = np.random.default_rng(71)
        for k in range(30):
            inst = oracles.random_instance(rng)
            base_out, base = fixpoint_box(inst)
            order = rng.permutation(inst.num_rows)
            shuffled = Instance(inst.c, [inst.rows[i] for i in order],
                                inst.lower, inst.upper,
                                np.flatnonzero(inst.integer_mask))
            other_out, other = fixpoint_box(shuffled)
            infeasible = base_out is Outcome.INFEASIBLE
            assert (other_out is Outcome.INFEASIBLE) == infeasible, f"case {k}"
            if infeasible:
                continue
            assert np.allclose(base.lower, other.lower, atol=1e-9), f"case {k}"
            assert np.allclose(base.upper, other.upper, atol=1e-9), f"case {k}"


class TestVerdicts:
    def test_conflicting_pair_infeasible(self):
        inst = from_inequalities([0.0, 0.0],
                                 [((0, 1), (1.0, 1.0), ">=", 3.0),
                                  ((0, 1), (1.0, 1.0), "<=", 1.0)],
                                 [0, 0], [1, 1], integer_set=(0, 1))
        outcome, _ = fixpoint_box(inst)
        assert outcome is Outcome.INFEASIBLE

    def test_quiet_instance_is_fixpoint(self):
        inst = from_inequalities([1.0, 1.0],
                                 [((0, 1), (1.0, 1.0), "<=", 9.0)],
                                 [0, 0], [3, 3], integer_set=(0, 1))
        outcome, box = fixpoint_box(inst)
        assert outcome is Outcome.FIXPOINT
        assert list(box.lower) == [0.0, 0.0]
        assert list(box.upper) == [3.0, 3.0]

    def test_linear_row_tightens_integer_bound(self):
        # 2x + 3y <= 6 on [0,3]^2: x <= 3 stays, y <= 2 deduced
        inst = from_inequalities([0.0, 0.0],
                                 [((0, 1), (2.0, 3.0), "<=", 6.0)],
                                 [0, 0], [3, 3], integer_set=(0, 1))
        outcome, box = fixpoint_box(inst)
        assert outcome is Outcome.REDUCED
        assert box.upper[0] == 3.0
        assert box.upper[1] == 2.0


class TestSpecialForms:
    def test_setcover_last_literal_forced(self):
        # x0 + x1 + x2 >= 1 with x0 = x1 = 0 forces x2 = 1
        inst = from_inequalities([0.0] * 3,
                                 [((0, 1, 2), (1.0,) * 3, ">=", 1.0)],
                                 [0, 0, 0], [1, 1, 1], integer_set=range(3))
        prop = Propagator(inst)
        box = inst.root_box()
        box.upper[0] = 0.0
        box.upper[1] = 0.0
        res = prop.to_fixpoint(box)
        assert res.outcome is Outcome.REDUCED
        assert box.lower[2] == 1.0

    def test_setcover_all_out_infeasible(self):
        inst = from_inequalities([0.0] * 2,
                                 [((0, 1), (1.0, 1.0), ">=", 1.0)],
                                 [0, 0], [1, 1], integer_set=(0, 1))
        prop = Propagator(inst)
        box = inst.root_box()
        box.upper[0] = 0.0
        box.upper[1] = 0.0
        res = prop.to_fixpoint(box)
        assert res.outcome is Outcome.INFEASIBLE

    def test_knapsack_heavy_item_dropped(self):
        # 5a + 4b + 2c <= 6 with a = 1 leaves no room for b
        inst = from_inequalities([0.0] * 3,
                                 [((0, 1, 2), (5.0, 4.0, 2.0), "<=", 6.0)],
                                 [0, 0, 0], [1, 1, 1], integer_set=range(3))
        prop = Propagator(inst)
        box = inst.root_box()
        box.lower[0] = 1.0
        res = prop.to_fixpoint(box)
        assert res.outcome is Outcome.REDUCED
        assert box.upper[1] == 0.0
        assert box.upper[2] == 0.0  # 5 + 2 > 6 as well

    def test_knapsack_overcommitted_infeasible(self):
        inst = from_inequalities([0.0] * 2,
                                 [((0, 1), (4.0, 3.0), "<=", 5.0)],
                                 [0, 0], [1, 1], integer_set=(0, 1))
        prop = Propagator(inst)
        box = inst.root_box()
        box.lower[0] = 1.0
        box.lower[1] = 1.0
        res = prop.to_fixpoint(box)
        assert res.outcome is Outcome.INFEASIBLE
        assert res.failed_constraint is not None


class TestDeductionRecords:
    def test_deductions_strictly_tighten(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            inst = oracles.random_instance(rng)
            prop = Propagator(inst)
            box = inst.root_box()
            before = (box.lower.copy(), box.upper.copy())
            res = prop.to_fixpoint(box)
            if res.outcome is Outcome.INFEASIBLE:
                continue
            for var, side, value in res.deductions:
                if side.name == "LOWER":
                    assert value > before[0][var]
                else:
                    assert value < before[1][var]


def verdict(res):
    """A propagator's answer as comparable data: the failure's reason set,
    or the set of deduced (var, side, value, reason set)."""
    if isinstance(res, RowInfeasible):
        return "infeasible", frozenset(res.reason)
    if isinstance(res, Deduction):
        res = [res]
    return "deduced", frozenset((d.var, d.side, d.value, frozenset(d.reason))
                                for d in res or ())


def random_watch(rng, n_lits):
    if n_lits == 1:
        return [0, 0]
    return [int(k) for k in rng.choice(n_lits, size=2, replace=False)]


class TestClauseRoutes:
    """Watched literals and residual activity agree on every clause, which
    is what lets every clause propagate on watched literals alone."""

    def test_clause_rows(self):
        rng = np.random.default_rng(73)
        kinds = set()
        for k in range(400):
            n = int(rng.integers(1, 6))
            coefs = rng.choice([-1.0, 1.0], size=n)
            row = Row(range(n), coefs, float((coefs > 0).sum()) - 1.0)
            # each variable free, fixed to zero or fixed to one
            lower = rng.integers(0, 2, size=n).astype(float)
            upper = np.maximum(lower, rng.integers(0, 2, size=n))
            box = BoundBox(lower, upper)
            watched = propagate_watched(clause_literals(row), box,
                                        random_watch(rng, n))
            linear = propagate_linear_row(row, box, np.ones(n, dtype=bool))
            assert verdict(watched) == verdict(linear), f"case {k}"
            kinds.add(verdict(watched)[0] if verdict(watched)[1] else "quiet")
        assert kinds == {"infeasible", "deduced", "quiet"}

    def test_learned_conflicts_on_sub_boxes(self):
        rng = np.random.default_rng(74)
        kinds = set()
        for k in range(400):
            n = int(rng.integers(1, 6))
            ref_lower = rng.integers(0, 3, size=n).astype(float)
            ref_upper = ref_lower + rng.integers(1, 4, size=n)
            lows, ups = [], []
            for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                replace=False):
                v = int(v)
                if rng.integers(0, 2):
                    lows.append((v, ref_lower[v] + 1.0))
                else:
                    ups.append((v, ref_upper[v] - 1.0))
            d = BoundDisjunction(tuple(lows), tuple(ups))
            row = to_knapsack(d, ref_lower, ref_upper)
            # a random sub-box of the reference box
            a = rng.integers(ref_lower, ref_upper + 1)
            b = rng.integers(ref_lower, ref_upper + 1)
            box = BoundBox(np.minimum(a, b).astype(float),
                           np.maximum(a, b).astype(float))
            watched = propagate_watched(d.literals(), box,
                                        random_watch(rng, d.size))
            linear = propagate_linear_row(row, box, np.ones(n, dtype=bool))
            assert verdict(watched) == verdict(linear), f"case {k}"
            kinds.add(verdict(watched)[0] if verdict(watched)[1] else "quiet")
        assert kinds == {"infeasible", "deduced", "quiet"}
