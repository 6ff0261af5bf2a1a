"""Bound propagation: soundness, order independence, special-form rows,
and the dirty-set fixpoint against a full round-robin."""

import math
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rapidbnb import (BoundBox, BoundDisjunction, Instance, MipConfig,
                      Propagator, RapidConfig, Row, from_inequalities,
                      mipsearch, propagation, solve, to_knapsack)
from rapidbnb.conflict import Trail
from rapidbnb.model import FEAS_TOL, INT_TOL, RowKind, Side
from rapidbnb.propagation import (Deduction, Outcome, PropagationResult,
                                  RowInfeasible, clause_literals,
                                  propagate_knapsack, propagate_linear_row,
                                  propagate_watched)
from rapidbnb.rapid import CRITERION_NAMES

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

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
                assert np.all(x >= np.asarray(box.lower) - 1e-9), f"case {k}"
                assert np.all(x <= np.asarray(box.upper) + 1e-9), f"case {k}"
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
        trail = Trail(box)
        res = prop.to_fixpoint(box, trail)
        assert res.outcome is Outcome.INFEASIBLE
        assert trail.failure.reason == 0      # the knapsack row's id


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

    def test_clause_rows_build_their_literals_once(self):
        # x0 - x1 + x2 <= 1: every propagator shares the literals kept in
        # the row's prepared slot, and residual activity on the same row
        # neither takes them for reads nor overwrites them
        inst = from_inequalities([0.0] * 3, [((0, 1, 2), (1.0, -1.0, 1.0),
                                              "<=", 1.0)],
                                 [0] * 3, [1] * 3, integer_set=range(3))
        row = inst.rows[0]
        assert row.kind is RowKind.CLAUSE and row.prepared == ()
        first, second = Propagator(inst), Propagator(inst)
        lits = row.prepared
        assert lits == ((0, Side.UPPER, 0.0), (1, Side.LOWER, 1.0),
                        (2, Side.UPPER, 0.0))
        assert first.items[0].lits is lits and second.items[0].lits is lits
        assert clause_literals(row) is lits
        box = BoundBox([1.0, 0.0, 0.0], [1.0, 0.0, 1.0])
        res = propagate_linear_row(row, box, [True] * 3)
        assert as_data(res) == as_data(
            reference_linear_row(row, box, [True] * 3))
        assert row.prepared is lits


class RoundRobinItem(NamedTuple):
    cid: int
    row: Row | None
    lits: tuple | None
    watch: list[int] | None


class RoundRobin:
    """Reference fixpoint: every constraint in every pass, until a whole
    pass applies nothing.  Same constraint forms, order and watches as
    `Propagator`, built on the public propagators only; its items carry
    their `cid`, which a probe reads to number its conflicts above."""

    def __init__(self, instance: Instance):
        self.int_mask = instance.integer_mask
        self.items: list[RoundRobinItem] = []
        self.evals = 0
        for i, row in enumerate(instance.rows):
            self.add_constraint(i, row)

    def add_constraint(self, cid, con):
        if isinstance(con, BoundDisjunction):
            lits = con.literals()
        elif con.kind is RowKind.CLAUSE:
            lits = clause_literals(con)
        else:
            self.items.append(RoundRobinItem(cid, con, None, None))
            return
        self.items.append(RoundRobinItem(cid, None, lits,
                                         [0, min(1, len(lits) - 1)]))

    def truncate(self, size):
        del self.items[size:]

    def evaluate(self, row, lits, watch, box):
        self.evals += 1
        if lits is not None:
            return propagate_watched(lits, box, watch)
        if row.kind is RowKind.KNAPSACK:
            return propagate_knapsack(row, box)
        return propagate_linear_row(row, box, self.int_mask)

    def to_fixpoint(self, box, trail=None):
        if trail is None:
            trail = Trail(box)
        applied = []
        while True:
            changed = False
            for cid, row, lits, watch in self.items:
                res = self.evaluate(row, lits, watch, box)
                if res is None:
                    continue
                if isinstance(res, RowInfeasible):
                    trail.fail(cid, res.reason)
                    return PropagationResult(Outcome.INFEASIBLE, applied)
                for d in [res] if isinstance(res, Deduction) else res:
                    lo, up = box.lower[d.var], box.upper[d.var]
                    if d.side is Side.LOWER and d.value > up + FEAS_TOL:
                        trail.fail(cid, d.reason + ((d.var, Side.UPPER),))
                        return PropagationResult(Outcome.INFEASIBLE, applied)
                    if d.side is Side.UPPER and d.value < lo - FEAS_TOL:
                        trail.fail(cid, d.reason + ((d.var, Side.LOWER),))
                        return PropagationResult(Outcome.INFEASIBLE, applied)
                    if trail.apply(d.var, d.side, d.value, cid, d.reason):
                        applied.append((d.var, d.side, d.value))
                        changed = True
            if not changed:
                break
        outcome = Outcome.REDUCED if applied else Outcome.FIXPOINT
        return PropagationResult(outcome, applied)


class CountingPropagator(Propagator):
    evals = 0

    def _evaluate(self, item, box):
        self.evals += 1
        return super()._evaluate(item, box)


def mixed_instance(rng) -> Instance:
    """Binaries under clause and knapsack rows, general integers in 0..6
    and sometimes a half-unbounded continuous column, under dense rows."""
    n_bin = int(rng.integers(4, 9))
    n_int = int(rng.integers(2, 6))
    n = n_bin + n_int
    lower = [0.0] * n
    upper = [1.0] * n_bin + [6.0] * n_int
    if rng.random() < 0.5:          # one continuous column, unbounded below
        lower.append(-math.inf)
        upper.append(float(rng.integers(2, 8)))
        n += 1
    planted = [float(rng.integers(0, 2)) for _ in range(n_bin)] + \
        [float(rng.integers(0, 7)) for _ in range(n_int)] + \
        [min(upper[-1], 1.0)] * (n - n_bin - n_int)
    rows = []
    for _ in range(int(rng.integers(2, 6))):       # clauses
        cols = sorted(rng.choice(n_bin, size=3, replace=False).tolist())
        coefs = rng.choice([-1.0, 1.0], size=3)
        rows.append((cols, coefs, "<=", float((coefs > 0).sum()) - 1.0))
    for _ in range(int(rng.integers(1, 4))):       # knapsacks
        width = int(rng.integers(2, n_bin + 1))
        cols = sorted(rng.choice(n_bin, size=width, replace=False).tolist())
        weights = rng.integers(1, 7, size=width).astype(float)
        rows.append((cols, weights, "<=",
                     float(rng.integers(1, int(weights.sum()) + 1))))
    for _ in range(int(rng.integers(2, 5))):       # dense rows
        cols = list(range(n_bin - 2, n))
        coefs = rng.choice([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0],
                           size=len(cols))
        act = sum(a * planted[j] for j, a in zip(cols, coefs))
        rows.append((cols, coefs, "<=", act + float(rng.integers(-2, 4))))
    return from_inequalities(rng.integers(-3, 4, size=n).astype(float),
                             rows, lower, upper,
                             integer_set=range(n_bin + n_int))


def random_disjunction(rng, inst: Instance) -> BoundDisjunction:
    ints = list(inst.integer_indices)
    size = int(rng.integers(1, 5))
    lows, ups = [], []
    for v in sorted(rng.choice(ints, size=min(size, len(ints)),
                               replace=False).tolist()):
        lo, up = inst.lower[v], inst.upper[v]
        if rng.random() < 0.5:
            lows.append((v, float(rng.integers(lo + 1, up + 1))))
        else:
            ups.append((v, float(rng.integers(lo, up))))
    return BoundDisjunction(tuple(lows), tuple(ups))


def trail_record(trail: Trail):
    changes = [(c.var, c.side, c.value, c.reason, trail.antecedents(p))
               for p, c in enumerate(trail.changes)]
    failure = None if trail.failure is None else \
        (trail.failure.reason, trail.failure.antecedents)
    return changes, failure, list(trail.box.lower), list(trail.box.upper)


class Lockstep:
    """A `Propagator` and a `RoundRobin` taken through the same steps; each
    step checks that their trails still agree."""

    def __init__(self, inst: Instance):
        self.runs = [(Propagator(inst), Trail(inst.root_box())),
                     (RoundRobin(inst), Trail(inst.root_box()))]

    @property
    def trail(self) -> Trail:
        return self.runs[0][1]

    def each(self, step) -> None:
        for prop, trail in self.runs:
            step(prop, trail)
        assert trail_record(self.runs[0][1]) == trail_record(self.runs[1][1])

    def write(self, var: int, side: Side, value: float) -> None:
        """A bound that holds throughout the scope, written on both trails
        as the probe writes its learned units."""
        self.each(lambda prop, trail: trail.write(var, side, value))

    def fixpoint(self) -> PropagationResult:
        out = []
        self.each(lambda prop, trail: out.append(
            prop.to_fixpoint(trail.box, trail)))
        assert out[0].outcome is out[1].outcome
        assert out[0].deductions == out[1].deductions
        return out[0]


class TestDirtySetFixpoint:
    """Evaluating only constraints whose variables moved gives the same
    outcome, applied list and trail as evaluating every constraint."""

    def test_matches_round_robin(self):
        rng = np.random.default_rng(75)
        outcomes = set()
        kinds = set()
        new_evals = ref_evals = 0
        for case in range(60):
            inst = mixed_instance(rng)
            kinds.update(row.kind for row in inst.rows)
            new, ref = CountingPropagator(inst), RoundRobin(inst)
            tr_new, tr_ref = Trail(inst.root_box()), Trail(inst.root_box())
            marks = []
            next_cid = inst.num_rows
            for step in range(60):
                box = tr_new.box
                op = rng.random()
                free = [j for j in inst.integer_indices
                        if box.upper[j] - box.lower[j] > 0.5]
                if op < 0.3 and free:
                    var = int(rng.choice(free))
                    lo, up = int(box.lower[var]), int(box.upper[var])
                    if rng.random() < 0.5:
                        side, val = Side.UPPER, float(rng.integers(lo, up))
                    else:
                        side, val = Side.LOWER, float(rng.integers(lo + 1, up + 1))
                    marks.append(tr_new.mark())
                    for tr in (tr_new, tr_ref):
                        tr.branch(var, side, val, len(marks))
                elif op < 0.4 and free:
                    # a scope write, as a learned unit is
                    var = int(rng.choice(free))
                    val = box.lower[var] + 1.0
                    for tr in (tr_new, tr_ref):
                        tr.write(var, Side.LOWER, val)
                elif op < 0.55:
                    mark = marks.pop() if marks else 0
                    for tr in (tr_new, tr_ref):
                        tr.rewind(mark)
                elif op < 0.65:
                    d = random_disjunction(rng, inst)
                    rng.random()    # a draw the seeded step sequence expects
                    new.add_constraint(next_cid, d)
                    ref.add_constraint(next_cid, d)
                    next_cid += 1
                else:
                    a = new.to_fixpoint(tr_new.box, tr_new)
                    b = ref.to_fixpoint(tr_ref.box, tr_ref)
                    where = f"case {case} step {step}"
                    assert a.outcome is b.outcome, where
                    # the failing constraint is compared in the trails
                    assert a.deductions == b.deductions, where
                    outcomes.add(a.outcome)
                assert trail_record(tr_new) == trail_record(tr_ref), \
                    f"case {case} step {step}"
            new_evals += new.evals
            ref_evals += ref.evals
        assert outcomes == set(Outcome)
        assert kinds == set(RowKind)
        assert new_evals < ref_evals    # the dirty set must skip something

    def test_infinite_rhs_on_integer_row_is_quiet(self):
        box = BoundBox([0.0, 0.0], [4.0, 4.0])
        for coefs in ((1.0, 2.0), (-1.0, 3.0), (-2.0, -1.0)):
            row = Row((0, 1), coefs, math.inf)
            assert propagate_linear_row(row, box, [True, True]) == []
        inst = Instance([0.0, 0.0], [Row((0, 1), (-1.0, 3.0), math.inf)],
                        [0, 0], [4, 4], [0, 1])
        res = Propagator(inst).to_fixpoint(inst.root_box())
        assert res.outcome is Outcome.FIXPOINT

    def test_own_deductions_leave_a_constraint_quiet(self):
        # the fixpoint does not re-dirty a constraint for its own
        # deductions; that holds only while no propagator reads a bound
        # it deduces, so re-evaluating right after applying them is quiet
        rng = np.random.default_rng(76)
        deduced = set()
        for case in range(200):
            inst = mixed_instance(rng)
            prop = Propagator(inst)
            for item in prop.items:
                root = inst.root_box()
                a = [rng.integers(lo, up + 1) if math.isfinite(lo) else lo
                     for lo, up in zip(root.lower, root.upper)]
                b = [rng.integers(lo, up + 1) if math.isfinite(lo) else up
                     for lo, up in zip(root.lower, root.upper)]
                box = BoundBox([float(min(x, y)) for x, y in zip(a, b)],
                               [float(max(x, y)) for x, y in zip(a, b)])
                res = prop._evaluate(item, box)
                if isinstance(res, RowInfeasible) or not res:
                    continue
                deds = [res] if isinstance(res, Deduction) else res
                if any((d.side is Side.LOWER and
                        d.value > box.upper[d.var] + FEAS_TOL) or
                       (d.side is Side.UPPER and
                        d.value < box.lower[d.var] - FEAS_TOL) for d in deds):
                    continue
                for d in deds:
                    box.tighten(d.var, d.side, d.value)
                again = prop._evaluate(item, box)
                assert not again, f"case {case} constraint {item.cid}"
                deduced.add(RowKind.CLAUSE if item.lits is not None
                            else item.row.kind)
        assert deduced == {RowKind.CLAUSE, RowKind.KNAPSACK, RowKind.LINEAR}


class TestWatchWakeups:
    """Edge cases of waking clauses by their watches, and of the dirty set
    kept across a failure, each against `RoundRobin`."""

    def test_untrued_one_literal_disjunction_deduces_again(self):
        inst = from_inequalities([0.0] * 3,
                                 [((0, 1, 2), (1.0,) * 3, ">=", 1.0)],
                                 [0] * 3, [1] * 3, integer_set=range(3))
        run = Lockstep(inst)
        run.fixpoint()
        mark = run.trail.mark()
        run.each(lambda prop, trail: trail.branch(0, Side.LOWER, 1.0, 1))
        unit = BoundDisjunction(((0, 1.0),), ())
        run.each(lambda prop, trail: prop.add_constraint(1, unit))
        assert run.fixpoint().outcome is Outcome.FIXPOINT
        # the rewind un-trues the literal, which is its own other watch
        run.each(lambda prop, trail: trail.rewind(mark))
        assert run.fixpoint().deductions == [(0, Side.LOWER, 1.0)]

    def test_untrued_watch_whose_other_watch_stays_false(self):
        # x0 or x1: x0 true by a branch, x1 false by a scope write after
        # the first fixpoint and ahead of the branch's mark, as the probe
        # writes its learned units; the rewind un-trues x0 and leaves it
        # the clause's unit
        inst = from_inequalities([0.0] * 2,
                                 [((0, 1), (1.0, 1.0), ">=", 1.0)],
                                 [0] * 2, [1] * 2, integer_set=range(2))
        run = Lockstep(inst)
        run.fixpoint()
        run.write(1, Side.UPPER, 0.0)
        mark = run.trail.mark()
        run.each(lambda prop, trail: trail.branch(0, Side.LOWER, 1.0, 1))
        assert run.fixpoint().outcome is Outcome.FIXPOINT
        run.each(lambda prop, trail: trail.rewind(mark))
        assert run.fixpoint().deductions == [(0, Side.LOWER, 1.0)]
        # x1's bound is a scope write, so the deduction has no antecedent
        assert run.trail.antecedents(run.trail.mark() - 1) == ()

    def test_failed_clause_stays_dirty(self):
        # x1 or x2 or x3 fails with its watches on x1 and x2, both false
        # by scope writes after the first fixpoint and ahead of the
        # branch's mark, and x3 false through the branch x0 <= 0 and
        # x3 <= x0; rewinding the branch frees x3, the clause's unit now,
        # which it does not watch.  The failure leaves no record, so the
        # next fixpoint starts from the first one's, where the writes of
        # x1's and x2's upper bounds bring the clause back
        inst = from_inequalities([0.0] * 4,
                                 [((0, 3), (-1.0, 1.0), "<=", 0.0),
                                  ((1, 2, 3), (1.0,) * 3, ">=", 1.0)],
                                 [0] * 4, [1] * 4, integer_set=range(4))
        run = Lockstep(inst)
        run.fixpoint()
        for var in (1, 2):
            run.write(var, Side.UPPER, 0.0)
        mark = run.trail.mark()
        run.each(lambda prop, trail: trail.branch(0, Side.UPPER, 0.0, 1))
        assert run.fixpoint().outcome is Outcome.INFEASIBLE
        assert run.trail.failure.reason == 1
        run.each(lambda prop, trail: trail.rewind(mark))
        run.each(lambda prop, trail: trail.branch(0, Side.LOWER, 1.0, 1))
        assert run.fixpoint().deductions == [(3, Side.LOWER, 1.0)]

    def test_other_branch_after_a_failure(self):
        # dive until a fixpoint fails, then rewind and take the other
        # branch: the constraints left dirty by the failure, and the box
        # it left behind, must give the reference trail
        rng = np.random.default_rng(82)
        failures = 0
        for _ in range(40):
            inst = mixed_instance(rng)
            run = Lockstep(inst)
            if run.fixpoint().outcome is Outcome.INFEASIBLE:
                continue
            for level in range(1, 20):
                box = run.trail.box
                free = [j for j in inst.integer_indices
                        if box.upper[j] - box.lower[j] > 0.5]
                if not free:
                    break
                var = int(rng.choice(free))
                val = float(rng.integers(box.lower[var], box.upper[var]))
                mark = run.trail.mark()
                run.each(lambda prop, trail: trail.branch(
                    var, Side.UPPER, val, level))
                if run.fixpoint().outcome is Outcome.INFEASIBLE:
                    failures += 1
                    run.each(lambda prop, trail: trail.rewind(mark))
                    run.each(lambda prop, trail: trail.branch(
                        var, Side.LOWER, val + 1.0, level))
                    run.fixpoint()
                    break
        assert failures >= 10


def watch_entries(prop: Propagator):
    """The watch and occurrence entries `prop` holds, and those its live
    constraints call for: one per watched literal of a clause, and one
    per column of a row, on the side its minimum activity reads (lower
    under a positive coefficient, upper under a negative one)."""
    held, wanted = Counter(), Counter()
    for side, lists in ((Side.LOWER, prop.watch_lower),
                        (Side.UPPER, prop.watch_upper)):
        for var, idxs in enumerate(lists):
            held.update(("watch", var, side, k) for k in idxs)
    for side in Side:
        for var, idxs in enumerate(prop.occ[side]):
            held.update(("occ", var, side, k) for k in idxs)
    for item in prop.items:
        if item.lits is not None:
            wanted.update(("watch", item.lits[w][0], item.lits[w][1],
                           item.idx) for w in set(item.watch))
        else:
            wanted.update(("occ", j, Side.LOWER if a > 0 else Side.UPPER,
                           item.idx)
                          for j, a in zip(item.row.cols, item.row.coefs))
    return held, wanted


class TestTruncate:
    """Detaching the constraints added last, as a tree search does when it
    rewinds past the levels that attached them, against `RoundRobin`."""

    def test_levels_with_detached_disjunctions(self):
        # open levels (a branching, new disjunctions, a fixpoint), and go
        # back to a completed level: rewind its trail mark and truncate
        # to its constraint count, after a quiet level or a failed one
        rng = np.random.default_rng(84)
        detached = failures = quiet_after = 0
        for case in range(40):
            inst = mixed_instance(rng)
            run = Lockstep(inst)
            if run.fixpoint().outcome is Outcome.INFEASIBLE:
                continue
            prop = run.runs[0][0]
            levels = [(run.trail.mark(), len(prop.items))]
            next_cid = inst.num_rows
            failed = False
            for step in range(40):
                box = run.trail.box
                free = [j for j in inst.integer_indices
                        if box.upper[j] - box.lower[j] > 0.5]
                if not failed and free and rng.random() < 0.6:
                    var = int(rng.choice(free))
                    val = float(rng.integers(box.lower[var], box.upper[var]))
                    side = Side.UPPER if rng.random() < 0.5 else Side.LOWER
                    val += side is Side.LOWER
                    depth = len(levels)
                    run.each(lambda prop, trail: trail.branch(
                        var, side, val, depth))
                    for _ in range(int(rng.integers(0, 4))):
                        d = random_disjunction(rng, inst)
                        run.each(lambda prop, trail: prop.add_constraint(
                            next_cid, d))
                        next_cid += 1
                    failed = run.fixpoint().outcome is Outcome.INFEASIBLE
                    failures += failed
                    if not failed:
                        levels.append((run.trail.mark(), len(prop.items)))
                    continue
                depth = int(rng.integers(0, len(levels)))
                mark, size = levels[depth]
                detached += len(prop.items) > size
                run.each(lambda prop, trail: (trail.rewind(mark),
                                              prop.truncate(size)))
                del levels[depth + 1:]
                failed = False
                held, wanted = watch_entries(prop)
                assert held == wanted, f"case {case} step {step}"
                if rng.random() < 0.3:
                    # the level's fixpoint holds again
                    assert run.fixpoint().outcome is Outcome.FIXPOINT
                    quiet_after += 1
        assert detached >= 200 and failures >= 100 and quiet_after >= 150


class TestFixpointRecords:
    """A fixpoint starts from the quiet fixpoint recorded at the trail's
    mark and wakes on the trail entries after it, each only the rows that
    read the bound it tightened: fewer evaluations, the reference trail."""

    @staticmethod
    def five_rows(monkeypatch):
        # general integers in 0..6 under rows no box here makes deduce;
        # rows 0 and 1 read x0's lower bound, row 2 its upper one, row 3
        # x1's lower and row 4 x1's upper.  Returns the instance and the
        # list the indices of evaluated rows go to
        inst = from_inequalities(
            [0.0] * 4,
            [((0, 2), (1.0, 2.0), "<=", 30.0),
             ((0, 3), (2.0, -1.0), "<=", 30.0),
             ((0, 3), (-1.0, 1.0), "<=", 30.0),
             ((1, 2), (1.0, -3.0), "<=", 30.0),
             ((1, 3), (-1.0, -1.0), "<=", 30.0)],
            [0] * 4, [6] * 4, integer_set=range(4))
        evaluated = []

        def counted(row, box, int_mask):
            evaluated.append(next(i for i, r in enumerate(inst.rows)
                                  if r is row))
            return propagate_linear_row(row, box, int_mask)

        monkeypatch.setattr(propagation, "propagate_linear_row", counted)
        return inst, evaluated

    def test_rewind_wakes_only_rows_on_the_branched_side(self, monkeypatch):
        inst, evaluated = self.five_rows(monkeypatch)
        prop, trail = Propagator(inst), Trail(inst.root_box())
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        mark = trail.mark()
        trail.branch(1, Side.LOWER, 2.0, 1)
        del evaluated[:]
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        assert evaluated == [3]
        # the rewind returns to the first fixpoint: x1's loosening wakes
        # nothing, and x0's new lower bound wakes the rows that read it
        trail.rewind(mark)
        trail.branch(0, Side.LOWER, 3.0, 1)
        del evaluated[:]
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        assert evaluated == [0, 1]

    def test_loosening_past_the_trail_wakes_every_row(self, monkeypatch):
        # only a rewind loosens a bound: x1's upper bound goes back up
        # when the branch that lowered it ahead of the first fixpoint is
        # rewound.  No record lies at or below the mark, so each row is
        # evaluated once, and the fixpoint that follows is a record again
        inst, evaluated = self.five_rows(monkeypatch)
        prop, trail = Propagator(inst), Trail(inst.root_box())
        trail.branch(1, Side.UPPER, 2.0, 1)
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        trail.rewind(0)
        assert trail.box.upper[1] == 6.0
        del evaluated[:]
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        assert evaluated == [0, 1, 2, 3, 4]
        del evaluated[:]
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        assert evaluated == []

    def test_another_trail_or_none_wakes_every_row(self, monkeypatch):
        # records are marks on the trail they were made on: the first
        # trail's mark-0 record would match a fresh trail's mark 0, and a
        # call without a trail runs on a fresh one, each over a box the
        # record never held
        inst, evaluated = self.five_rows(monkeypatch)
        prop, trail = Propagator(inst), Trail(inst.root_box())
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        other = Trail(BoundBox([3.0, 0.0, 0.0, 0.0], [6.0, 2.0, 6.0, 6.0]))
        for fixpoint in (lambda: prop.to_fixpoint(other.box, other),
                         lambda: prop.to_fixpoint(BoundBox([0.0] * 4,
                                                           [1.0] * 4)),
                         lambda: prop.to_fixpoint(trail.box, trail)):
            del evaluated[:]
            assert fixpoint().outcome is Outcome.FIXPOINT
            assert evaluated == [0, 1, 2, 3, 4]

    def test_rewind_wakes_no_clause(self, monkeypatch):
        # x0 >= 1 or x1 >= 1 with x1 fixed to 0: the root fixpoint deduces
        # x0 >= 1, so the clause watches a true literal and a false one;
        # a branch raises x0 further, and the rewind lowers x0 back to the
        # first fixpoint's bound, where the clause was already quiet
        inst = Instance([0.0, 0.0], [], [0, 0], [6, 0], [0, 1])
        prop, trail = Propagator(inst), Trail(inst.root_box())
        prop.add_constraint(0, BoundDisjunction(((0, 1.0), (1, 1.0)), ()))
        assert prop.to_fixpoint(trail.box, trail).deductions == \
            [(0, Side.LOWER, 1.0)]
        mark = trail.mark()
        trail.branch(0, Side.LOWER, 3.0, 1)
        prop.to_fixpoint(trail.box, trail)
        watched = []

        def counted(*args):
            watched.append(None)
            return propagate_watched(*args)

        monkeypatch.setattr(propagation, "propagate_watched", counted)
        trail.rewind(mark)
        assert prop.to_fixpoint(trail.box, trail).outcome is Outcome.FIXPOINT
        assert watched == []

    def test_loosen_fixpoint_retighten(self):
        # x0 or x1 or x2: x2 <= 0 written on the trail before the root
        # fixpoint, then loosened, which only a rewind below that
        # fixpoint's mark can do; a branch x0 <= 0 moves the clause's
        # watch onto x2, and after a rewind x2 <= 0 is written again.  The
        # box is the root fixpoint's again, yet the clause now watches a
        # false literal, so x0 <= 0 must still wake it.  A box outside a
        # record can no longer return to it on the record's trail: the
        # entry at the record's mark is another, so every constraint is
        # dirty
        inst = from_inequalities([0.0] * 3,
                                 [((0, 1, 2), (1.0,) * 3, ">=", 1.0)],
                                 [0] * 3, [1] * 3, integer_set=range(3))
        run = Lockstep(inst)
        prop, trail = run.runs[0]
        run.write(2, Side.UPPER, 0.0)
        assert run.fixpoint().outcome is Outcome.FIXPOINT
        root = list(trail.box.lower), list(trail.box.upper)
        run.each(lambda prop, trail: trail.rewind(0))
        run.each(lambda prop, trail: trail.branch(0, Side.UPPER, 0.0, 1))
        assert run.fixpoint().outcome is Outcome.FIXPOINT
        run.each(lambda prop, trail: trail.rewind(0))
        run.write(2, Side.UPPER, 0.0)
        assert (trail.box.lower, trail.box.upper) == root
        assert all(prop._mark_moved(trail.box, trail))
        assert run.fixpoint().outcome is Outcome.FIXPOINT
        run.each(lambda prop, trail: trail.branch(0, Side.UPPER, 0.0, 1))
        assert run.fixpoint().deductions == [(1, Side.LOWER, 1.0)]

    def test_truncate_below_a_record(self):
        # a disjunction added at the root and a fixpoint at the same mark
        # leave a record that holds it; once it is truncated, the
        # disjunction x0 >= 1 added in its place must not count as clean
        inst = Instance([0.0, 0.0], [], [0, 0], [1, 1], [0, 1])
        run = Lockstep(inst)
        assert run.fixpoint().outcome is Outcome.FIXPOINT
        run.each(lambda prop, trail: prop.add_constraint(
            0, BoundDisjunction(((0, 1.0), (1, 1.0)), ())))
        assert run.fixpoint().outcome is Outcome.FIXPOINT
        run.each(lambda prop, trail: prop.truncate(0))
        run.each(lambda prop, trail: prop.add_constraint(
            1, BoundDisjunction(((0, 1.0),), ())))
        assert run.fixpoint().deductions == [(0, Side.LOWER, 1.0)]

    def test_writes_past_the_trail_against_round_robin(self):
        # levels as a tree search keeps them (a branching, new
        # disjunctions, a fixpoint), with scope writes that tighten,
        # loosenings (rewinds to just before a change above the root
        # level), a loosening written back after a fixpoint, fixpoints
        # without a trail, and rewinds that truncate to any completed
        # level.  Every write goes through the box, so no pair of bounds
        # ever crosses
        rng = np.random.default_rng(85)
        ops, outcomes = Counter(), set()
        for case in range(60):
            inst = mixed_instance(rng)
            run = Lockstep(inst)
            prop = run.runs[0][0]
            if run.fixpoint().outcome is Outcome.INFEASIBLE:
                continue
            levels = [(run.trail.mark(), len(prop.items))]
            next_cid = inst.num_rows
            for step in range(50):
                box = run.trail.box
                assert all(lo <= up for lo, up in zip(box.lower, box.upper))
                ints = inst.integer_indices
                free = [j for j in ints if box.upper[j] - box.lower[j] > 0.5]
                entries = range(levels[0][0], run.trail.mark())
                op = rng.random()
                if op < 0.3 and free:
                    ops["branch"] += 1
                    var = int(rng.choice(free))
                    val = float(rng.integers(box.lower[var], box.upper[var]))
                    side = Side.UPPER if rng.random() < 0.5 else Side.LOWER
                    val += side is Side.LOWER
                    depth = len(levels)
                    run.each(lambda prop, trail: trail.branch(
                        var, side, val, depth))
                    for _ in range(int(rng.integers(0, 3))):
                        d = random_disjunction(rng, inst)
                        run.each(lambda prop, trail: prop.add_constraint(
                            next_cid, d))
                        next_cid += 1
                    res = run.fixpoint()
                    outcomes.add(res.outcome)
                    if res.outcome is not Outcome.INFEASIBLE:
                        levels.append((run.trail.mark(), len(prop.items)))
                elif op < 0.4 and free:
                    ops["tighten"] += 1
                    var = int(rng.choice(free))
                    if rng.random() < 0.5:
                        side, val = Side.LOWER, box.lower[var] + 1.0
                    else:
                        side, val = Side.UPPER, box.upper[var] - 1.0
                    run.write(var, side, val)
                elif op < 0.6 and entries:
                    mark = int(rng.choice(entries))
                    change = run.trail.changes[mark]
                    var, side = change.var, change.side
                    old = box.get(var, side)
                    run.each(lambda prop, trail: trail.rewind(mark))
                    while levels[-1][0] > mark:
                        levels.pop()
                    if op < 0.5:
                        ops["loosen"] += 1
                        continue
                    ops["loosen, fixpoint, retighten"] += 1
                    outcomes.add(run.fixpoint().outcome)
                    if old <= box.upper[var] if side is Side.LOWER \
                            else old >= box.lower[var]:
                        run.write(var, side, old)
                elif op < 0.7:
                    ops["no trail"] += 1
                    out = []
                    run.each(lambda prop, trail: out.append(
                        prop.to_fixpoint(trail.box)))
                    assert out[0].outcome is out[1].outcome
                    assert out[0].deductions == out[1].deductions
                elif op < 0.85:
                    depth = int(rng.integers(0, len(levels)))
                    mark, size = levels[depth]
                    ops["truncate"] += len(prop.items) > size
                    ops["rewind"] += 1
                    run.each(lambda prop, trail: (trail.rewind(mark),
                                                  prop.truncate(size)))
                    del levels[depth + 1:]
                else:
                    ops["fixpoint"] += 1
                    outcomes.add(run.fixpoint().outcome)
                held, wanted = watch_entries(prop)
                assert held == wanted, f"case {case} step {step}"
        assert outcomes == set(Outcome)
        assert min(ops.values()) >= 100, ops


def _reference_reads(row: Row, skip: int = -1):
    return tuple([(j, Side.LOWER if a > 0 else Side.UPPER)
                  for k, (j, a) in enumerate(zip(row.cols, row.coefs))
                  if k != skip])


def reference_linear_row(row: Row, box: BoundBox, int_mask):
    """Residual activity as it was before the skip test: every term is
    evaluated, and every reason is rebuilt from the row."""
    lower, upper = box.lower, box.upper
    rhs = row.rhs
    contrib = []
    minact = 0.0
    n_inf = 0
    for j, a in zip(row.cols, row.coefs):
        val = a * lower[j] if a > 0 else a * upper[j]
        contrib.append(val)
        if val == -math.inf:
            n_inf += 1
        else:
            minact += val
    if n_inf == 0 and minact > rhs + FEAS_TOL:
        return RowInfeasible(_reference_reads(row))
    if n_inf > 1:
        return []
    deds = []
    for k, (j, a, val) in enumerate(zip(row.cols, row.coefs, contrib)):
        if val == -math.inf:
            rest = minact
        elif n_inf:
            continue
        else:
            rest = minact - val
        value = (rhs - rest) / a
        if a > 0:
            if int_mask[j] and -math.inf < value < math.inf:
                value = float(math.floor(value + INT_TOL))
            if value < upper[j] - FEAS_TOL:
                reason = _reference_reads(row, k)
                if value < lower[j] - FEAS_TOL:
                    return RowInfeasible(reason + ((j, Side.LOWER),))
                deds.append(Deduction(j, Side.UPPER, value, reason))
        else:
            if int_mask[j] and -math.inf < value < math.inf:
                value = float(math.ceil(value - INT_TOL))
            if value > lower[j] + FEAS_TOL:
                reason = _reference_reads(row, k)
                if value > upper[j] + FEAS_TOL:
                    return RowInfeasible(reason + ((j, Side.UPPER),))
                deds.append(Deduction(j, Side.LOWER, value, reason))
    return deds


class CountingMask(list):
    """An integrality mask that counts its reads: residual activity reads
    it only in its per-term pass, so a quiet evaluation on a finite box
    that reads nothing took the skip."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


def exact_row_case(rng):
    """Integer coefficients and integral bounds small enough that every
    activity sum is exact, with the slack at the widest term's range or
    one off it: the skip test's boundary."""
    n = int(rng.integers(1, 9))
    coefs = [float(int(rng.integers(1, 2 ** 20)) * sign(rng))
             for _ in range(n)]
    lower = [float(rng.integers(-2 ** 20, 2 ** 20)) for _ in range(n)]
    upper = [lo + float(rng.integers(0, 2 ** 10)) for lo in lower]
    minact = sum(int(a) * int(lo if a > 0 else up)
                 for a, lo, up in zip(coefs, lower, upper))
    reach = max(abs(int(a)) * int(up - lo)
                for a, lo, up in zip(coefs, lower, upper))
    rhs = float(minact + reach + int(rng.integers(-1, 2)))
    return (Row(range(n), coefs, rhs), BoundBox(lower, upper),
            [bool(rng.random() < 0.5) for _ in range(n)])


def sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def log_uniform(rng, lo_exp, hi_exp):
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def wide_row_case(rng):
    """Mixed-sign coefficients from 1e-6 to 1e12, integer columns with
    integral bounds and continuous columns that may be half-infinite."""
    n = int(rng.integers(1, 9))
    coefs, lower, upper, ints = [], [], [], []
    for _ in range(n):
        coefs.append(log_uniform(rng, -6, 12) * sign(rng))
        is_int = bool(rng.random() < 0.5)
        centre = log_uniform(rng, -6, 12) * sign(rng)
        width = log_uniform(rng, -6, 12) if rng.random() < 0.7 else 0.0
        lo, up = centre, centre + width
        if is_int:
            lo, up = float(math.floor(lo)), float(math.floor(up))
        elif rng.random() < 0.2:
            if rng.random() < 0.5:
                lo = -math.inf
            else:
                up = math.inf
        lower.append(lo)
        upper.append(up)
        ints.append(is_int)
    terms = [a * (lo if a > 0 else up) for a, lo, up in zip(coefs, lower, upper)]
    finite = [t for t in terms if math.isfinite(t)]
    minact = math.fsum(finite)
    reach = max(abs(a) * (up - lo) for a, lo, up in zip(coefs, lower, upper))
    pick = rng.random()
    if pick < 0.05:
        rhs = math.inf
    elif pick < 0.45 and math.isfinite(reach):
        # within a relative hair of the boundary, on either side
        rhs = minact + reach * (1.0 + sign(rng)
                                * log_uniform(rng, -17, -9))
    else:
        scale = reach if math.isfinite(reach) else max(map(abs, finite or [1]))
        rhs = minact + scale * float(rng.uniform(-0.5, 2.5))
    return Row(range(n), coefs, rhs), BoundBox(lower, upper), ints


def cancelling_row_case(rng):
    """Pairs of terms up to 1e17 on narrow or fixed domains whose minimum
    contributions cancel, with the slack near the reach: both are small,
    while the rounding of each term dwarfs the feasibility tolerance."""
    coefs, lower, upper = [], [], []
    fixed = rng.random() < 0.5
    for _ in range(int(rng.integers(1, 4))):
        big = float(math.floor(log_uniform(rng, 8, 17)))
        c1, c2 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        partner = float(math.floor(c1 * big / c2))
        w1, w2 = (0, 0) if fixed else rng.integers(0, 50, size=2)
        coefs += [c1, -c2]
        lower += [big, partner - float(w2)]
        upper += [big + float(w1), partner]
    minact = 0.0
    for a, lo, up in zip(coefs, lower, upper):
        minact += a * (lo if a > 0 else up)
    reach = max(abs(a) * (up - lo) for a, lo, up in zip(coefs, lower, upper))
    rhs = minact + reach + float(rng.uniform(-1, 1)) * 2.0 ** int(
        rng.integers(0, 8))
    n = len(coefs)
    return (Row(range(n), coefs, rhs), BoundBox(lower, upper),
            [bool(rng.random() < 0.5) for _ in range(n)])


def solver_row_case(rng):
    """A dense general-integer row as the benchmark draws them, on a
    random integral sub-box of 0..6."""
    n = int(rng.integers(2, 11))
    coefs = rng.integers(-5, 6, size=n).astype(float)
    coefs[coefs == 0] = 1.0
    a = rng.integers(0, 7, size=n)
    b = rng.integers(0, 7, size=n)
    planted = rng.integers(np.minimum(a, b), np.maximum(a, b) + 1)
    rhs = float(coefs @ planted + rng.integers(-1, 4))
    return (Row(range(n), coefs, rhs),
            BoundBox(np.minimum(a, b).astype(float),
                     np.maximum(a, b).astype(float)),
            [True] * n)


def as_data(res):
    if isinstance(res, RowInfeasible):
        return "infeasible", res.reason
    return "deduced", [(d.var, d.side, d.value, d.reason) for d in res]


class TestLinearRowSkip:
    """Residual activity with the skip test and per-row reason tuples
    gives the same verdicts, values and reasons as evaluating every term."""

    def check(self, cases, rng, make):
        quiet = skipped = 0
        kinds = set()
        for case in range(cases):
            row, box, ints = make(rng)
            for _ in range(2):      # a second pass reuses the row's reads
                mask = CountingMask(ints)
                new = propagate_linear_row(row, box, mask)
                ref = reference_linear_row(row, box, ints)
                assert as_data(new) == as_data(ref), f"case {case}: {row!r}"
                kinds.add(as_data(new)[0] if new else "quiet")
                if new == []:
                    quiet += 1
                    skipped += mask.reads == 0
        return kinds, quiet, skipped

    def test_solver_rows_skip_most_quiet_evaluations(self):
        kinds, quiet, skipped = self.check(
            2000, np.random.default_rng(77), solver_row_case)
        assert kinds == {"infeasible", "deduced", "quiet"}
        assert skipped > 0.5 * quiet

    def test_wide_magnitudes_and_infinite_bounds(self):
        kinds, quiet, skipped = self.check(
            4000, np.random.default_rng(78), wide_row_case)
        assert kinds == {"infeasible", "deduced", "quiet"}
        assert 0 < skipped < quiet

    def test_cancelling_large_terms(self):
        kinds, quiet, skipped = self.check(
            4000, np.random.default_rng(80), cancelling_row_case)
        assert kinds == {"infeasible", "deduced", "quiet"}
        assert 0 < skipped < quiet

    def test_slack_equal_to_reach(self):
        kinds, _, _ = self.check(
            1000, np.random.default_rng(79), exact_row_case)
        assert {"deduced", "quiet"} <= kinds

    def test_knapsack_rows_keep_their_weights(self):
        # a knapsack row's prepared slot holds its weights, which residual
        # activity must neither take for reads nor overwrite
        inst = from_inequalities([0.0] * 3, [((0, 1, 2), (3.0, 2.0, 2.0),
                                              "<=", 4.0)],
                                 [0] * 3, [1] * 3, integer_set=range(3))
        row = inst.rows[0]
        assert row.kind is RowKind.KNAPSACK
        weights = row.prepared
        box = BoundBox([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        new = propagate_linear_row(row, box, [True] * 3)
        assert as_data(new) == as_data(
            reference_linear_row(row, box, [True] * 3))
        assert new and row.prepared == weights

    def test_no_margin_would_hide_a_deduction(self):
        # -x0 + x1 <= -8000 with x1 = 1000: the minimum activity rounds
        # to -1e20, whose ulp is 16384, so the slack 1e20 equals the reach
        # and a skip without its margin would return nothing, while the
        # terms deduce x0 >= 8000
        row = Row((0, 1), (-1.0, 1.0), -8000.0)
        box = BoundBox([0.0, 1000.0], [1e20, 1000.0])
        new = propagate_linear_row(row, box, [False, False])
        assert as_data(new) == as_data(
            reference_linear_row(row, box, [False, False]))
        assert [(d.var, d.side, d.value) for d in new] == \
            [(0, Side.LOWER, 8000.0)]


def test_solves_match_the_reference_row_propagator(monkeypatch):
    """Whole solves with local probes and every criterion leave the same
    event log, answer and counts under the reference residual activity:
    the skip test and the shared reasons change no search."""
    rng = np.random.default_rng(81)
    config = MipConfig(rapid_mode="local", seed=1,
                       rapid=RapidConfig(criteria=frozenset(CRITERION_NAMES)))
    insts = []
    for k in range(6):
        m = gen.general_int_model(rng, f"general_int{k}", 10, 6)
        insts.append(from_inequalities(m.c, m.rows, m.lower, m.upper,
                                       range(len(m.c))))

    def run():
        return [(r.status, r.objective, r.nodes, r.stats.iter_lp,
                 r.rl_calls, r.events)
                for r in (solve(inst, config) for inst in insts)]

    new = run()
    monkeypatch.setattr(propagation, "propagate_linear_row",
                        reference_linear_row)
    assert run() == new
    # probes below the root ran, not only the root probe
    assert any(rl_calls > 1 for *_, rl_calls, _ in new)


def test_clause_solves_match_the_round_robin_propagator(monkeypatch):
    """Whole solves of clause models with local probes leave the same event
    log, answer and counts when every constraint is evaluated in every
    pass: waking clauses by their watches, and keeping the dirty set
    across failures, change no search while they skip clause evaluations."""
    rng = np.random.default_rng(83)
    config = MipConfig(rapid_mode="local", seed=1)
    insts = []
    for k in range(4):
        m = gen.clause_model(rng, f"clause{k}", 30)
        insts.append(from_inequalities(m.c, m.rows, m.lower, m.upper,
                                       range(len(m.c))))

    def run():
        return [(r.status, r.objective, r.nodes, r.stats.iter_lp,
                 r.rl_calls, r.events)
                for r in (solve(inst, config) for inst in insts)]

    watched = []

    def counted(*args):
        watched.append(None)
        return propagate_watched(*args)

    monkeypatch.setattr(propagation, "propagate_watched", counted)
    new = run()
    reference = []

    def round_robin(inst):
        reference.append(RoundRobin(inst))
        return reference[-1]

    # the probe runs on its node's propagator, so this covers it too
    monkeypatch.setattr(mipsearch, "Propagator", round_robin)
    assert run() == new
    # every row of a clause model is a clause, and so is every conflict
    assert all(row.kind is RowKind.CLAUSE
               for inst in insts for row in inst.rows)
    assert len(watched) < sum(p.evals for p in reference)
    assert any(status == "infeasible" for status, *_ in new)
