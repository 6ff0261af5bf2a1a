"""Propagation-only depth-first probe: budget, verdicts, learned facts."""

import math

import numpy as np
import pytest

from rapidbnb import (
    BoundBox,
    CpConfig,
    CpStatus,
    Side,
    cp_search,
    from_inequalities,
    node_limit_from_iters,
    pseudo_solution,
)
from rapidbnb.cpsearch import MAX_CONFLICT_FRAC

import oracles

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
            out = cp_search(inst, inst.root_box(), CpConfig(node_limit=10**6))
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
                out = cp_search(inst, inst.root_box(),
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
            out = cp_search(inst, inst.root_box(),
                            CpConfig(node_limit=10**6, incumbent_bound=value))
            assert out.status is CpStatus.INFEASIBLE
            assert out.solution is None
            seen += 1
        assert seen >= 15

    def test_pure_integer_scope_required(self):
        inst = from_inequalities([1.0, 1.0], [], [0, 0], [1, 1],
                                 integer_set=(0,))
        with pytest.raises(ValueError):
            cp_search(inst, inst.root_box(), CpConfig(node_limit=100))


class TestNodeLimit:
    def test_limit_respected_and_reported(self):
        rng = np.random.default_rng(62)
        hit = False
        for _ in range(12):
            inst = oracles.random_sat_instance(rng, n=26, m=110)
            out = cp_search(inst, inst.root_box(), CpConfig(node_limit=50))
            assert out.nodes <= 50
            if out.status is CpStatus.NODE_LIMIT:
                hit = True
                assert out.nodes == 50
        assert hit

    def test_passed_deadline_stops_before_the_first_node(self):
        inst = oracles.random_sat_instance(np.random.default_rng(64))
        scope = inst.root_box()
        out = cp_search(inst, scope, CpConfig(node_limit=500,
                                              deadline=-math.inf))
        assert out.status is CpStatus.NODE_LIMIT
        assert out.nodes == 0
        assert out.conflicts == []
        assert list(out.box.lower) == list(scope.lower)
        assert list(out.box.upper) == list(scope.upper)


class TestLearnedFacts:
    def test_conflict_length_cap(self):
        rng = np.random.default_rng(63)
        n_stored = n_long = 0
        for _ in range(6):
            inst = oracles.random_sat_instance(rng, n=60, m=252)
            cap = math.ceil(MAX_CONFLICT_FRAC * inst.num_vars)
            with oracles.SearchRecorder(require=ANALYSIS) as rec:
                out = cp_search(inst, inst.root_box(),
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
                cp_search(inst, inst.root_box(), CpConfig(node_limit=300))
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
            out = cp_search(inst, inst.root_box(), CpConfig(node_limit=10**6))
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
            a = cp_search(inst, inst.root_box(), CpConfig(node_limit=150, seed=9))
            b = cp_search(inst, inst.root_box(), CpConfig(node_limit=150, seed=9))
            assert a.status == b.status
            assert a.nodes == b.nodes
            assert len(a.conflicts) == len(b.conflicts)
            assert np.array_equal(a.box.lower, b.box.lower)
            assert np.array_equal(a.box.upper, b.box.upper)
            if a.solution is None:
                assert b.solution is None
            else:
                assert np.array_equal(a.solution, b.solution)
