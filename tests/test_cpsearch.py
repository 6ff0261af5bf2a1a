"""Propagation-only depth-first probe: budget, verdicts, learned facts."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rapidbnb import (
    BoundBox,
    CpConfig,
    CpStatus,
    Propagator,
    Side,
    cp_search,
    from_inequalities,
    node_limit_from_iters,
    pseudo_solution,
)
from rapidbnb import cpsearch
from rapidbnb.branching import BranchingStats
from rapidbnb.conflict import Trail
from rapidbnb.cpsearch import MAX_CONFLICT_FRAC
from rapidbnb.propagation import Outcome

import oracles
from test_propagation import random_disjunction

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# a direct probe passes only the probe's own analysis
ANALYSIS = ("rapidbnb.cpsearch.analyze_1uip",)

# frozen from the formula min(5000, max(500, iter_lp))
BUDGET_TABLE = {0: 500, 10: 500, 500: 500, 2000: 2000,
                5000: 5000, 10**6: 5000}


class TestBudgetFormula:
    def test_frozen_table(self):
        for iters, expected in BUDGET_TABLE.items():
            assert node_limit_from_iters(iters) == expected


class TestPseudoSolution:
    def test_bound_by_objective_sign(self):
        box = BoundBox(np.array([1.0, 2.0, 3.0]), np.array([5.0, 6.0, 7.0]))
        c = np.array([2.0, -1.0, 0.0])
        assert list(pseudo_solution(box, c)) == [1.0, 6.0, 3.0]


def dense_planted_instance(rng):
    """4-6 variables in 0..4, 2-4 rows over every variable, coefficients
    in -5..5, each rhs -1..3 away from a planted point's activity."""
    n = int(rng.integers(4, 7))
    m = int(rng.integers(2, 5))
    c = rng.integers(-5, 6, size=n).astype(float)
    planted = rng.integers(0, 5, size=n)
    rows = []
    for _ in range(m):
        coefs = rng.integers(-5, 6, size=n)
        rhs = float(coefs @ planted + rng.integers(-1, 4))
        rows.append((tuple(range(n)), tuple(float(a) for a in coefs),
                     "<=", rhs))
    return from_inequalities(c, rows, [0] * n, [4] * n, integer_set=range(n))


class TestVerdictsAgainstEnumeration:
    def test_matches_oracle(self):
        rng = np.random.default_rng(60)
        n_opt = n_inf = 0
        for k in range(80):
            inst = oracles.random_instance(rng)
            status, value, _ = oracles.enumerate_optimum(inst)
            out = oracles.probe(inst, inst.root_box(),
                                CpConfig(node_limit=10**6))
            if status == "optimal":
                assert out.status is CpStatus.OPTIMAL, f"case {k}"
                assert inst.check_point(out.solution), f"case {k}"
                assert abs(inst.objective_value(out.solution) - value) \
                    <= 1e-9, f"case {k}"
                n_opt += 1
            else:
                assert out.status is CpStatus.INFEASIBLE, f"case {k}"
                assert out.solution is None
                n_inf += 1
        assert n_opt >= 20 and n_inf >= 20

    def test_learned_unit_keeps_implied_branch(self):
        # a learned unit bound that already implies a pending branch must
        # leave that subtree searched, not skipped
        wrong = []
        for s in range(60):
            inst = dense_planted_instance(np.random.default_rng(s))
            status, value, _ = oracles.enumerate_optimum(inst)
            want = (CpStatus.OPTIMAL, value) if status == "optimal" \
                else (CpStatus.INFEASIBLE, math.inf)
            for probe_seed in range(4):
                out = oracles.probe(
                    inst, inst.root_box(),
                    CpConfig(node_limit=10**6, seed=probe_seed))
                got = (out.status, math.inf if out.solution is None
                       else inst.objective_value(out.solution))
                if got != want:     # integral data: values compare exactly
                    wrong.append((s, probe_seed, got, want))
        assert wrong == []

    def test_incumbent_bound_prunes_everything(self):
        # probe bounded at the known optimum proves nothing better exists
        rng = np.random.default_rng(61)
        seen = 0
        for _ in range(40):
            inst = oracles.random_instance(rng)
            status, value, _ = oracles.enumerate_optimum(inst)
            if status != "optimal":
                continue
            out = oracles.probe(
                inst, inst.root_box(),
                CpConfig(node_limit=10**6, incumbent_bound=value))
            assert out.status is CpStatus.INFEASIBLE
            assert out.solution is None
            seen += 1
        assert seen >= 15

    def test_pure_integer_scope_required(self):
        inst = from_inequalities([1.0, 1.0], [], [0, 0], [1, 1],
                                 integer_set=(0,))
        with pytest.raises(ValueError):
            oracles.probe(inst, inst.root_box(), CpConfig(node_limit=100))


class TestNodeLimit:
    def test_limit_respected_and_reported(self):
        rng = np.random.default_rng(62)
        hit = False
        for _ in range(12):
            inst = oracles.random_sat_instance(rng, n=26, m=110)
            out = oracles.probe(inst, inst.root_box(), CpConfig(node_limit=50))
            assert out.nodes <= 50
            if out.status is CpStatus.NODE_LIMIT:
                hit = True
                assert out.nodes == 50
        assert hit

    def test_passed_deadline_stops_before_the_first_node(self):
        inst = oracles.random_sat_instance(np.random.default_rng(64))
        scope = inst.root_box()
        out = oracles.probe(inst, scope, CpConfig(node_limit=500,
                                                  deadline=-math.inf))
        assert out.status is CpStatus.NODE_LIMIT
        assert out.nodes == 0
        assert out.conflicts == []
        assert list(out.box.lower) == list(scope.lower)
        assert list(out.box.upper) == list(scope.upper)


class TestStallStop:
    """A probe holding a solution stops once a tenth of its node budget
    has passed without a better one; before its first solution it runs
    on to the budget."""

    def test_stops_a_tenth_of_the_budget_after_the_last_improvement(
            self, monkeypatch):
        # the search up to the stop does not depend on the budget, so
        # budgets without the stall rule (a share of 1 never fires) replay
        # its prefixes: the returned solution is the one the first
        # `nodes - stall` nodes find, and the node before that had none
        # as good
        limit = 100
        stall = limit // 10
        stopped = worse = 0
        for s in range(60):
            inst = dense_planted_instance(np.random.default_rng(s))
            out = oracles.probe(inst, inst.root_box(),
                                CpConfig(node_limit=limit))
            if out.solution is None or out.nodes == limit:
                continue
            status, value, _ = oracles.enumerate_optimum(inst)
            assert status == "optimal"
            assert inst.check_point(out.solution)
            found = inst.objective_value(out.solution)
            assert found >= value
            if out.status is CpStatus.OPTIMAL:
                assert found == value   # integral data: compares exactly
                continue
            assert out.status is CpStatus.NODE_LIMIT
            stopped += 1
            worse += found > value
            with monkeypatch.context() as m:
                m.setattr(cpsearch, "STALL_FRAC", 1.0)
                at = oracles.probe(inst, inst.root_box(),
                                   CpConfig(node_limit=out.nodes - stall))
                before = oracles.probe(
                    inst, inst.root_box(),
                    CpConfig(node_limit=out.nodes - stall - 1))
            assert np.array_equal(at.solution, out.solution), s
            assert before.solution is None or \
                inst.objective_value(before.solution) > found, s
        assert stopped >= 10 and worse >= 3

    def test_infeasible_scope_needing_more_than_the_stall_is_proven(self):
        # no solution, no stall: the proof runs past a tenth of the budget
        rng = np.random.default_rng(67)
        limit = 200
        proven = 0
        for _ in range(16):
            inst = oracles.random_sat_instance(rng, n=16, m=80)
            if oracles.feasible_points(inst).shape[0]:
                continue
            out = oracles.probe(inst, inst.root_box(),
                                CpConfig(node_limit=limit))
            assert out.status is CpStatus.INFEASIBLE
            assert out.solution is None
            proven += out.nodes > limit // 10
        assert proven >= 5


class TestLearnedFacts:
    def test_conflict_length_cap(self):
        rng = np.random.default_rng(63)
        n_stored = n_long = 0
        for _ in range(6):
            inst = oracles.random_sat_instance(rng, n=60, m=252)
            cap = math.ceil(MAX_CONFLICT_FRAC * inst.num_vars)
            with oracles.SearchRecorder(require=ANALYSIS) as rec:
                out = oracles.probe(inst, inst.root_box(),
                                    CpConfig(node_limit=400))
            for d in out.conflicts:
                assert d.size <= cap
                n_stored += 1
            n_long += sum(1 for a in rec.analyses if a.disjunction.size > cap)
        assert n_stored >= 1          # the cap passes something through
        assert n_long >= 1            # and actually filters the rest

    def test_untainted_conflicts_globally_valid(self):
        # check every untainted conflict the analysis derives, kept or
        # not, on every feasible point; tainted ones never leave the probe
        rng = np.random.default_rng(64)
        n_checked = 0
        for _ in range(12):
            inst = oracles.random_sat_instance(rng, n=16, m=67)
            pts = oracles.feasible_points(inst)
            if pts.shape[0] == 0:
                continue
            with oracles.SearchRecorder(require=ANALYSIS) as rec:
                oracles.probe(inst, inst.root_box(), CpConfig(node_limit=300))
            for a in rec.analyses:
                if a.tainted:
                    continue
                d = a.disjunction
                ok = np.zeros(pts.shape[0], dtype=bool)
                for var, side, value in d.literals():
                    if side is Side.LOWER:
                        ok |= pts[:, var] >= value - 1e-9
                    else:
                        ok |= pts[:, var] <= value + 1e-9
                assert bool(ok.all()), f"conflict {d} cuts a feasible point"
                n_checked += 1
        assert n_checked >= 20

    def test_final_box_keeps_feasible_points(self):
        rng = np.random.default_rng(65)
        for _ in range(40):
            inst = oracles.random_instance(rng)
            pts = oracles.feasible_points(inst)
            out = oracles.probe(inst, inst.root_box(),
                                CpConfig(node_limit=10**6))
            if out.status is CpStatus.INFEASIBLE:
                continue
            for x in pts:
                assert np.all(x >= np.asarray(out.box.lower) - 1e-9)
                assert np.all(x <= np.asarray(out.box.upper) + 1e-9)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            inst = oracles.random_sat_instance(rng, n=12, m=50)
            config = CpConfig(node_limit=150, seed=9)
            a = oracles.probe(inst, inst.root_box(), config)
            b = oracles.probe(inst, inst.root_box(), config)
            assert a.status == b.status
            assert a.nodes == b.nodes
            assert len(a.conflicts) == len(b.conflicts)
            assert np.array_equal(a.box.lower, b.box.lower)
            assert np.array_equal(a.box.upper, b.box.upper)
            if a.solution is None:
                assert b.solution is None
            else:
                assert np.array_equal(a.solution, b.solution)


def scope_instance(rng, case: int):
    """General integers in 0..6 under 8 dense rows (n = 24), or 3-literal
    clauses at ratio 4.2 over 40 binaries with weights in -3..3; at
    both sizes the probe keeps conflicts of up to 2 literals."""
    if case % 2:
        m = gen.general_int_model(rng, "general_int", 24, 8)
        c = m.c
    else:
        m = gen.clause_model(rng, "clause", 40)
        c = rng.integers(-3, 4, size=40).astype(float)
    return from_inequalities(c, m.rows, m.lower, m.upper, range(len(c)))


class RecordingPropagator(Propagator):
    """A propagator that keeps the id of every constraint added to it."""

    def __init__(self, instance):
        self.added = []
        super().__init__(instance)

    def add_constraint(self, cid, con):
        self.added.append(cid)
        super().add_constraint(cid, con)


def open_levels(inst, rng, depth: int, n_locals: int):
    """A trail and a `RecordingPropagator` as the tree search leaves them
    at a node: per level one branching, `n_locals` random disjunctions
    attached under cids above the rows (as a path's locals are) and one
    fixpoint.  A level whose two branchings both fail is not opened.
    Returns the trail, the propagator and the attached (cid, disjunction)
    pairs, or None when the root fixpoint fails."""
    trail, prop = Trail(inst.root_box()), RecordingPropagator(inst)
    box = trail.box
    if prop.to_fixpoint(box, trail).outcome is Outcome.INFEASIBLE:
        return None
    attached = []
    for level in range(1, depth + 1):
        free = [j for j in range(inst.num_vars)
                if box.upper[j] - box.lower[j] > 0.5]
        if not free:
            break
        var = int(rng.choice(free))
        split = float((box.lower[var] + box.upper[var]) // 2)
        mark, size = trail.mark(), len(prop.items)
        new = [(inst.num_rows + len(attached) + k,
                random_disjunction(rng, inst)) for k in range(n_locals)]
        for side, value in ((Side.UPPER, split), (Side.LOWER, split + 1.0)):
            trail.branch(var, side, value, level)
            for cid, d in new:
                prop.add_constraint(cid, d)
            if prop.to_fixpoint(box, trail).outcome is not Outcome.INFEASIBLE:
                attached += new
                break
            trail.rewind(mark)
            prop.truncate(size)
        else:
            trail.level = level - 1
            break
    return trail, prop, attached


def outcome_data(out):
    solution = None if out.solution is None else out.solution.tolist()
    return (out.status, out.conflicts, out.box.lower, out.box.upper,
            solution, out.nodes)


class TestProbeOnItsNodesState:
    """The probe searches on the trail and propagator of the node it
    probes, opening its levels above the node's."""

    def test_leaves_the_state_as_it_found_it(self):
        # every exit step shows: the rewind (trail and box, the learned
        # units written on the trail on either side included), the level
        # and the detached conflicts (propagator)
        rng = np.random.default_rng(70)
        units = {Side.LOWER: 0, Side.UPPER: 0}
        probes = 0
        for case in range(12):
            inst = scope_instance(rng, case)
            built = open_levels(inst, rng, depth=3, n_locals=1)
            if built is None:
                continue
            trail, prop, _ = built
            for seed in range(3):
                changes, last = list(trail.changes), dict(trail._last)
                level, failure = trail.level, trail.failure
                lower, upper = list(trail.box.lower), list(trail.box.upper)
                size = len(prop.items)
                out = cp_search(inst, trail, prop,
                                CpConfig(node_limit=300, seed=seed))
                assert len(trail.changes) == len(changes)
                assert all(a is b for a, b in zip(trail.changes, changes))
                assert trail._last == last
                assert trail.level == level and trail.failure is failure
                assert trail.box.lower == lower and trail.box.upper == upper
                assert len(prop.items) == size
                for d in out.conflicts:
                    if d.size == 1:
                        units[d.literals()[0][1]] += 1
                probes += out.nodes > 1 and level > 0
        assert probes >= 20
        assert units[Side.LOWER] >= 3 and units[Side.UPPER] >= 3

    def test_same_outcome_as_on_a_throwaway_state(self, monkeypatch):
        # the same constraints on a fresh trail over the node's box and a
        # fresh propagator, the attached ones under ids far above the
        # host's; the ids the probe gives its conflicts lie above every id
        # its propagator held, on either state, and each run leaves the
        # same inference counts in the table it made for itself
        tables = []

        class Recorded(BranchingStats):
            def __init__(self):
                super().__init__()
                tables.append(self)

        monkeypatch.setattr(cpsearch, "BranchingStats", Recorded)
        rng = np.random.default_rng(71)
        decided = cut_short = learned = 0
        for case in range(12):
            inst = scope_instance(rng, case)
            built = open_levels(inst, rng, depth=3, n_locals=3)
            if built is None:
                continue
            trail, prop, attached = built
            ref_trail, ref_prop = Trail(trail.box.copy()), Propagator(inst)
            for k, (_, d) in enumerate(attached):
                ref_prop.add_constraint(10**6 + k, d)
            for seed in range(3):
                config = CpConfig(node_limit=400, seed=seed)
                held = max(item.cid for item in prop.items)
                first = len(prop.added)
                out = cp_search(inst, trail, prop, config)
                ref = cp_search(inst, ref_trail, ref_prop, config)
                assert outcome_data(out) == outcome_data(ref), (case, seed)
                table, ref_table = tables[-2:]
                assert table.inferences == ref_table.inferences
                cids = prop.added[first:]
                assert cids == list(range(held + 1, held + 1 + len(cids)))
                learned += len(cids)
                if out.status is CpStatus.NODE_LIMIT:
                    cut_short += 1
                else:
                    decided += 1
        assert decided >= 5 and cut_short >= 5 and learned >= 50
