"""Probe scheduling and transfer: depth walk, trigger thresholds, the
probe run, and what the host search keeps from a finished probe."""

import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from rapidbnb.branching import BranchingStats
from rapidbnb.conflict import BoundDisjunction, Trail, to_knapsack
from rapidbnb.cpsearch import CpConfig, CpOutcome, CpStatus
from rapidbnb import rapid
from rapidbnb.lp import DegeneracyInfo, solve_lp
from rapidbnb.mipsearch import MipConfig, Node, SearchStats, _Solve, solve
from rapidbnb.model import INF, BoundBox, Side, from_inequalities
from rapidbnb.propagation import Propagator
from rapidbnb.rapid import (CRITERION_NAMES, ROOT_CRITERIA, RapidConfig,
                            evaluate_criteria, is_rl_depth, maybe_run)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


def coverage_instance(n=16, integer_set=None):
    """min sum x over n binaries subject to x0 + x1 >= 1."""
    rows = [((0, 1), (1.0, 1.0), ">=", 1.0)]
    if integer_set is None:
        integer_set = range(n)
    return from_inequalities([1.0] * n, rows, [0.0] * n, [1.0] * n,
                             integer_set)


def fresh_node(node_id=0, depth=0):
    return Node(id=node_id, parent=None, depth=depth, lower_bound=0.0)


def disj(lower=(), upper=()):
    return BoundDisjunction(lower_lits=tuple(lower), upper_lits=tuple(upper))


class TestDepthSchedule:
    def test_frozen_depth_set(self):
        hits = {d for d in range(1001) if is_rl_depth(d, 5, 4.0)}
        assert hits == {0, 5, 20, 80, 320}

    def test_fractional_ratio_walks_exactly(self):
        # 4, 6, 9, 13.5, 20.25: the non-integer steps never match a depth
        hits = {d for d in range(21) if is_rl_depth(d, 4, 1.5)}
        assert hits == {0, 4, 6, 9}

    def test_agrees_with_the_unstopped_walk(self):
        def walk(d, f, beta):
            if d == 0:
                return True
            t = Fraction(f)
            while t < d:
                t *= Fraction(beta)
            return t == d

        for beta in (1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 4.5, 7.0):
            for f in range(1, 17):
                for d in range(121):
                    assert is_rl_depth(d, f, beta) == walk(d, f, beta), \
                        (d, f, beta)

    def test_ratio_near_one_answers_at_once(self):
        # the unstopped walk takes seconds here, its fractions growing
        # with every one of its ~14,000 steps
        t0 = time.perf_counter()
        assert not is_rl_depth(20, 5, 1.0001)
        assert time.perf_counter() - t0 < 0.01

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            is_rl_depth(3, 5, 1.0)
        with pytest.raises(ValueError):
            is_rl_depth(3, 5, 0.5)
        with pytest.raises(ValueError):
            is_rl_depth(3, 5, float("inf"))


def fired_for(stats, share=0.0, face=1.0, instance=None, box=None,
              enabled=CRITERION_NAMES):
    if instance is None:
        instance = coverage_instance(n=3)
        box = instance.root_box()
    info = DegeneracyInfo(degenerate_share=share, face_ratio=face)
    return evaluate_criteria(stats, info, instance=instance, box=box,
                             enabled=frozenset(enabled))


class TestTriggerBoundaries:
    """Every threshold comparison is strict; sit on both sides of each."""

    def test_degenerate_share_edge(self):
        st = SearchStats()
        assert "degeneracy" not in fired_for(st, share=0.80)
        assert "degeneracy" in fired_for(st, share=0.8001)

    def test_face_ratio_edge(self):
        st = SearchStats()
        assert "degeneracy" not in fired_for(st, face=2.0)
        assert "degeneracy" in fired_for(st, face=2.0001)

    def test_degeneracy_is_a_disjunction_of_the_two(self):
        st = SearchStats()
        assert "degeneracy" in fired_for(st, share=0.85, face=1.0)
        assert "degeneracy" in fired_for(st, share=0.5, face=2.5)
        assert "degeneracy" not in fired_for(st, share=0.5, face=1.0)

    def test_leaf_ratio_edge(self):
        st = SearchStats(leaves_infeasible=20, leaves_cutoff=2)
        assert "leaves" not in fired_for(st)
        st.leaves_infeasible = 21
        assert "leaves" in fired_for(st)

    def test_leaf_ratio_zero_denominator(self):
        quiet = SearchStats(leaves_infeasible=0, leaves_cutoff=0)
        assert "leaves" not in fired_for(quiet)
        lone = SearchStats(leaves_infeasible=1, leaves_cutoff=0)
        assert "leaves" in fired_for(lone)

    def test_leaf_example_values(self):
        st = SearchStats(leaves_infeasible=100, leaves_cutoff=5)
        assert "leaves" in fired_for(st)

    def test_stalled_dual_bound(self):
        st = SearchStats(dual_bound=3.5, root_dual_bound=3.5)
        assert "dualbound" in fired_for(st)
        st.dual_bound = 3.6
        assert "dualbound" not in fired_for(st)

    def test_solution_count(self):
        assert "nsols" in fired_for(SearchStats(n_solutions=0))
        assert "nsols" not in fired_for(SearchStats(n_solutions=1))

    def test_strong_branching_waste(self):
        st = SearchStats(sb_no_improvement=0, sb_objective_changed=0)
        assert "sblps" not in fired_for(st)
        st.sb_no_improvement = 1
        assert "sblps" in fired_for(st)
        st.sb_no_improvement, st.sb_objective_changed = 20, 2
        assert "sblps" not in fired_for(st)
        st.sb_no_improvement = 21
        assert "sblps" in fired_for(st)

    def test_objective_support(self):
        inst = coverage_instance(n=3)
        box = inst.root_box()
        st = SearchStats()
        assert "obj" not in fired_for(st, instance=inst, box=box)
        box.tighten(0, Side.UPPER, 0.0)
        box.tighten(1, Side.LOWER, 1.0)
        box.tighten(2, Side.UPPER, 0.0)
        assert "obj" in fired_for(st, instance=inst, box=box)

    def test_enabled_names_come_back_in_order(self):
        # every criterion fires on these statistics, with a fixed box
        st = SearchStats(dual_bound=1.0, root_dual_bound=1.0,
                         leaves_infeasible=1, n_solutions=0,
                         sb_no_improvement=1)
        inst = coverage_instance(n=3)
        box = inst.root_box()
        for j in range(3):
            box.tighten(j, Side.UPPER, 0.0)
        assert fired_for(st, share=1.0, instance=inst, box=box) == \
            list(CRITERION_NAMES)
        assert fired_for(st, share=1.0, instance=inst, box=box,
                         enabled={"sblps", "obj", "dualbound"}) == \
            ["dualbound", "obj", "sblps"]
        assert fired_for(st, instance=inst, box=box, enabled=()) == []


class TestScheduleGating:
    def run_maybe(self, inst, node, stats, criteria, events=None, seed=0):
        box = inst.root_box()
        lp = solve_lp(inst, box)
        cfg = RapidConfig(criteria=frozenset(criteria))
        outcome = maybe_run(node, stats, inst, cfg, seed=seed, lp_result=lp,
                            trail=Trail(box), prop=Propagator(inst),
                            events=events if events is not None else [])
        return outcome, box

    def test_off_schedule_depth_is_silent(self):
        inst = coverage_instance(n=6)
        events = []
        outcome, _ = self.run_maybe(inst, fresh_node(7, depth=3),
                                    SearchStats(), {"degeneracy"},
                                    events=events)
        assert outcome is None and events == []

    def test_tree_criteria_masked_at_root(self):
        # only evidence that exists before branching may fire at depth 0
        inst = coverage_instance(n=6)
        for name in set(CRITERION_NAMES) - ROOT_CRITERIA:
            st = SearchStats(dual_bound=1.0, root_dual_bound=1.0,
                             leaves_infeasible=500, leaves_cutoff=0,
                             sb_no_improvement=500, n_solutions=1)
            events = []
            outcome, _ = self.run_maybe(inst, fresh_node(0, depth=0), st,
                                        {name}, events=events)
            assert outcome is None
            assert events[-1].endswith("fired -")
            assert st.rl_calls == 0

    def test_same_criteria_fire_below_root(self):
        inst = coverage_instance(n=6)
        st = SearchStats(leaves_infeasible=500, leaves_cutoff=0,
                         n_solutions=1)
        events = []
        outcome, _ = self.run_maybe(inst, fresh_node(4, depth=5), st,
                                    {"leaves"}, events=events)
        assert outcome is not None
        assert events == ["criteria node 4 depth 5 fired leaves"]
        assert st.rl_calls == 1 and st.criterion_fires["leaves"] == 1

    def test_degeneracy_is_measured_only_when_enabled(self, monkeypatch):
        inst = coverage_instance(n=6)
        expected = []
        self.run_maybe(inst, fresh_node(0, depth=0),
                       SearchStats(n_solutions=0), {"nsols"},
                       events=expected)

        def refuse(result, box):
            raise AssertionError("degeneracy measured")

        monkeypatch.setattr(rapid, "measure_degeneracy", refuse)
        events = []
        self.run_maybe(inst, fresh_node(0, depth=0),
                       SearchStats(n_solutions=0), {"nsols"}, events=events)
        assert events == expected == ["criteria node 0 depth 0 fired nsols"]
        with pytest.raises(AssertionError, match="degeneracy measured"):
            self.run_maybe(inst, fresh_node(0, depth=0), SearchStats(),
                           {"nsols", "degeneracy"})

    def test_root_probe_on_zero_progress_solution_count(self):
        inst = coverage_instance(n=6)
        solve = _Solve(inst, MipConfig(rapid_mode="root"))
        node = fresh_node(0, depth=0)
        outcome, box = self.run_maybe(inst, node, solve.stats, {"nsols"},
                                      events=solve.events)
        assert outcome is not None and outcome.status is CpStatus.OPTIMAL
        # a finished probe at the root settles the whole instance
        assert solve._transfer(node, Trail(box), outcome)
        assert solve.stats.incumbent_value == pytest.approx(1.0)

    def test_mixed_integer_scope_never_probes(self):
        inst = coverage_instance(n=6, integer_set=range(1, 6))
        st = SearchStats(n_solutions=0)
        outcome, _ = self.run_maybe(inst, fresh_node(0, depth=0), st,
                                    {"nsols"})
        assert outcome is None and st.rl_calls == 0

    def test_probe_seed_mixes_node_id(self):
        # one run through the scheduler, one direct probe with the xor seed
        inst = coverage_instance(n=6)
        st = SearchStats(leaves_infeasible=500, n_solutions=1, iter_lp=0)
        outcome, _ = self.run_maybe(inst, fresh_node(9, depth=5), st,
                                    {"leaves"}, seed=12)
        direct = oracles.probe(inst, inst.root_box(),
                               CpConfig(node_limit=500, seed=12 ^ 9,
                                        incumbent_bound=INF),
                               branching=BranchingStats())
        assert outcome.status is direct.status
        assert outcome.nodes == direct.nodes
        assert outcome.conflicts == direct.conflicts

    def test_probe_inference_counts_reach_the_host_table(self):
        # the probe adds its counts to the host's table as it runs; a
        # direct probe with the same seed leaves the same counts in a
        # fresh table
        inst = oracles.random_sat_instance(np.random.default_rng(5),
                                           n=10, m=42)
        st = SearchStats(leaves_infeasible=500, n_solutions=1, iter_lp=0)
        outcome, _ = self.run_maybe(inst, fresh_node(9, depth=5), st,
                                    {"leaves"}, seed=12)
        direct = BranchingStats()
        out = oracles.probe(inst, inst.root_box(),
                            CpConfig(node_limit=500, seed=12 ^ 9,
                                     incumbent_bound=INF),
                            branching=direct)
        assert outcome.nodes == out.nodes > 1
        assert sum(direct.inferences.values()) > 0
        assert st.branching.inferences == direct.inferences

    def test_identical_reruns(self):
        inst = coverage_instance(n=6)
        runs = []
        for _ in range(2):
            st = SearchStats(n_solutions=0)
            events = []
            outcome, _ = self.run_maybe(inst, fresh_node(0, depth=0), st,
                                        {"nsols"}, events=events, seed=3)
            runs.append((outcome, events))
        (first, ev1), (second, ev2) = runs
        assert ev1 == ev2
        assert first.status is second.status
        assert first.nodes == second.nodes
        assert np.array_equal(first.solution, second.solution)
        assert (first.box.lower, first.box.upper) == \
            (second.box.lower, second.box.upper)
        assert first.conflicts == second.conflicts

    def test_outcome_comes_back_unapplied(self, monkeypatch):
        # a probe stopped by its budget with a tighter box and a valid
        # solution: maybe_run hands it back as is and keeps nothing
        inst = coverage_instance(n=16)
        tighter = inst.root_box()
        tighter.tighten(0, Side.LOWER, 1.0)
        xs = np.zeros(16)
        xs[0] = 1.0
        d = disj(lower=((0, 1.0), (1, 1.0)))
        crafted = crafted_outcome(tighter, status=CpStatus.NODE_LIMIT,
                                  conflicts=[d], solution=xs)
        monkeypatch.setattr(rapid, "cp_search", lambda *a, **k: crafted)
        st = SearchStats(leaves_infeasible=500, n_solutions=1)
        node = fresh_node(6, depth=5)
        events = []
        outcome, box = self.run_maybe(inst, node, st, {"leaves"},
                                      events=events)
        assert outcome is crafted
        assert (box.lower, box.upper) == \
            (inst.root_box().lower, inst.root_box().upper)
        assert node.locals_own == []
        assert st.incumbent is None and st.incumbent_value == INF
        assert st.n_solutions == 1
        assert events == ["criteria node 6 depth 5 fired leaves"]


def crafted_outcome(box, status=CpStatus.OPTIMAL, conflicts=(),
                    solution=None, nodes=4):
    return CpOutcome(status=status, conflicts=list(conflicts), box=box,
                     solution=solution, nodes=nodes)


class TestTransferRules:
    """Drive _Solve._transfer with hand-built probe outcomes."""

    def setup_method(self):
        self.inst = coverage_instance(n=16)
        self.solve = _Solve(self.inst, MipConfig(rapid_mode="local"))
        self.stats = self.solve.stats
        self.events = self.solve.events
        self.box = self.inst.root_box()

    def run_transfer(self, outcome, node=None):
        node = node or fresh_node(0, depth=0)
        self.trail = Trail(self.box)
        return self.solve._transfer(node, self.trail, outcome), node

    def lconstr_lines(self):
        """(form, size) of every `lconstr` line, in order."""
        return [(tok[tok.index("form") + 1], int(tok[tok.index("size") + 1]))
                for tok in map(str.split, self.events) if tok[0] == "lconstr"]

    def rl_line(self):
        """Conflict, bound and solution counts of the one `rl` line."""
        lines = [e.split() for e in self.events if e.startswith("rl ")]
        assert len(lines) == 1
        tok = lines[0]
        return {key: int(tok[tok.index(key) + 1])
                for key in ("conflicts", "bounds", "solution")}

    def test_conflict_cap_and_ordering(self):
        # 3 linear-form, 12 disjunction-only: cap 10 keeps all linear
        # first, then the shortest disjunctions.  The forms are those over
        # the probed node's box, domains 1..3 in a model over 0..3: there
        # a literal x_j >= 2 sits one step inside the box (a knapsack row
        # exists, though not over the global box) and x_j >= 3 does not
        inst = from_inequalities([1.0] * 16, [], [0.0] * 16, [3.0] * 16,
                                 range(16))
        self.solve = _Solve(inst, MipConfig(rapid_mode="local"))
        self.events = self.solve.events
        self.box = BoundBox([1.0] * 16, [3.0] * 16)
        mixed = [disj(lower=tuple((j, 2.0) for j in range(length)))
                 for length in (3, 1, 2)]
        mixed += [disj(lower=tuple((j, 3.0) for j in range(length)))
                  for length in range(12, 0, -1)]
        _, node = self.run_transfer(
            crafted_outcome(self.box.copy(), conflicts=mixed),
            node=fresh_node(5, depth=5))
        assert self.rl_line()["conflicts"] == 10
        assert self.lconstr_lines() == \
            [("linear", k) for k in (1, 2, 3)] + \
            [("disjunction", k) for k in range(1, 8)]
        kept = [d for _, d in node.locals_own]
        assert kept == mixed[1:3] + mixed[:1] + mixed[-1:-8:-1]
        assert self.solve.global_constraints == []

    def test_local_attachment_below_root(self):
        d = disj(lower=((0, 1.0), (2, 1.0)))
        _, node = self.run_transfer(
            crafted_outcome(self.box.copy(), conflicts=[d]),
            node=fresh_node(5, depth=5))
        assert self.rl_line()["conflicts"] == 1
        assert self.solve.global_constraints == []
        assert [c for _, c in node.locals_own] == [d]

    def test_bound_transfer_only_on_exhausted_probe(self):
        tighter = self.box.copy()
        tighter.tighten(0, Side.LOWER, 1.0)
        tighter.tighten(3, Side.UPPER, 0.0)
        # a solved probe's final box is not a valid tightening claim
        self.run_transfer(crafted_outcome(tighter, status=CpStatus.OPTIMAL))
        assert self.rl_line()["bounds"] == 0
        assert self.box.lower[0] == 0.0

    def test_bound_transfer_at_root_updates_both_boxes(self):
        tighter = self.box.copy()
        tighter.tighten(0, Side.LOWER, 1.0)
        tighter.tighten(3, Side.UPPER, 0.0)
        settled, node = self.run_transfer(
            crafted_outcome(tighter, status=CpStatus.NODE_LIMIT))
        assert self.rl_line()["bounds"] == 2
        assert not settled
        assert self.box.lower[0] == 1.0 and self.box.upper[3] == 0.0
        glob = self.solve.global_box
        assert glob.lower[0] == 1.0 and glob.upper[3] == 0.0
        # at the root nothing becomes a constraint
        assert node.locals_own == []
        assert self.solve.global_constraints == []

    def test_bound_transfer_below_root_leaves_replay_crumbs(self):
        tighter = self.box.copy()
        tighter.tighten(2, Side.UPPER, 0.0)
        _, node = self.run_transfer(
            crafted_outcome(tighter, status=CpStatus.NODE_LIMIT),
            node=fresh_node(8, depth=5))
        assert self.rl_line()["bounds"] == 1
        assert len(node.locals_own) == 1
        _, d1 = node.locals_own[0]
        assert d1 == disj(upper=((2, 0.0),))
        assert self.solve.global_constraints == []
        assert self.box.upper[2] == 0.0
        assert self.solve.global_box.upper[2] == 1.0
        # on the trail, so a rewind past the probed level undoes it
        [change] = self.trail.changes
        assert (change.var, change.side, change.value, change.reason) == \
            (2, Side.UPPER, 0.0, node.locals_own[0][0])

    def test_contradictory_deltas_empty_the_scope(self):
        crossed = self.box.copy()
        crossed.lower[0] = 1.0
        crossed.upper[0] = 0.0
        settled, _ = self.run_transfer(
            crafted_outcome(crossed, status=CpStatus.NODE_LIMIT))
        assert settled
        assert self.events[-1].startswith(
            "node 0 depth 0 action rl-infeasible")
        assert self.stats.leaves_infeasible == 1

    def test_solution_installed_and_logged(self):
        xs = np.zeros(16)
        xs[0] = 1.0
        self.run_transfer(
            crafted_outcome(self.box.copy(), solution=xs))
        assert self.rl_line()["solution"] == 1
        assert not any(e.startswith("rl-solution-rejected")
                       for e in self.events)
        assert self.stats.incumbent_value == pytest.approx(1.0)
        assert self.stats.n_solutions == 1
        assert any(e.startswith("incumbent 1 ") and e.endswith("origin rl")
                   for e in self.events)

    def test_infeasible_claim_is_rejected(self):
        xs = np.zeros(16)     # violates x0 + x1 >= 1
        self.run_transfer(
            crafted_outcome(self.box.copy(), solution=xs))
        assert self.rl_line()["solution"] == 0
        assert self.stats.incumbent is None
        assert any(e.startswith("rl-solution-rejected") for e in self.events)

    def test_non_improving_solution_quietly_dropped(self):
        self.stats.incumbent_value = 1.0
        xs = np.zeros(16)
        xs[1] = 1.0
        self.run_transfer(
            crafted_outcome(self.box.copy(), solution=xs))
        assert self.rl_line()["solution"] == 0
        assert not any(e.startswith("rl-solution-rejected")
                       for e in self.events)
        assert self.stats.n_solutions == 0

    def test_finalized_tracks_probe_status(self):
        for status, leaf in ((CpStatus.OPTIMAL, "rl-optimal"),
                             (CpStatus.INFEASIBLE, "rl-infeasible"),
                             (CpStatus.NODE_LIMIT, None)):
            self.setup_method()
            settled, _ = self.run_transfer(
                crafted_outcome(self.box.copy(), status=status))
            assert settled is (leaf is not None)
            actions = [e.split()[5] for e in self.events
                       if e.startswith("node ")]
            assert actions == ([leaf] if leaf else [])


def test_probe_conflicts_ranked_by_form_over_the_scope_box():
    # general-integer models whose probes below the root keep conflicts
    # of both forms; each probe's `lconstr` lines, written ahead of its
    # `rl` line, must follow the ranking recomputed from the scope box
    # the probe was handed: knapsack-row form first, then shorter
    config = MipConfig(rapid_mode="local", rapid=RapidConfig(
        criteria=frozenset(CRITERION_NAMES)))
    forms = Counter()
    for seed in (33, 57, 58):
        m = gen.general_int_model(np.random.default_rng(seed), "g", 10, 6)
        inst = from_inequalities(m.c, m.rows, m.lower, m.upper, range(10))
        with oracles.SearchRecorder(
                require=("rapidbnb.rapid.cp_search",)) as rec:
            res = solve(inst, config)
        logged, current = [], []
        for tok in map(str.split, res.events):
            if tok[0] == "lconstr":
                current.append((tok[tok.index("form") + 1],
                                int(tok[tok.index("size") + 1])))
            elif tok[0] == "rl":
                logged.append(current)
                current = []
        assert len(logged) == len(rec.probes)
        for probe, lines in zip(rec.probes, logged):
            ranked = sorted((to_knapsack(d, probe.scope_lower,
                                         probe.scope_upper) is None, d.size)
                            for d in probe.outcome.conflicts)
            expected = [("disjunction" if disjunctive else "linear", size)
                        for disjunctive, size in ranked]
            assert lines == expected[:config.rapid.max_transferred_conflicts]
            forms.update(form for form, _ in lines)
    assert forms["linear"] >= 1 and forms["disjunction"] >= 1
