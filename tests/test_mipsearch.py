"""Branch-and-bound driver: verdicts, limits, branching machinery, events."""

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rapidbnb.lp
from rapidbnb import (
    ConfigError,
    LpStatus,
    MipConfig,
    RapidConfig,
    SearchStats,
    Side,
    SolveError,
    from_inequalities,
    mipsearch,
    solve,
)
from rapidbnb.branching import (PC_FLOOR, BranchingStats,
                                select_inference_branching)
from rapidbnb.conflict import BoundDisjunction, Trail
from rapidbnb.lp import BASIC, LpWorkspace, strong_branch
from rapidbnb.mipsearch import (SB_CANDIDATES, Node, _NodeState, _Solve,
                                record_leaf)
from rapidbnb.model import BoundBox
from rapidbnb.rapid import CRITERION_NAMES

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


def cycle_cover(k: int = 5):
    """Odd-cycle vertex cover; fractional root LP at x = 1/2."""
    rows = [((i, (i + 1) % k), (-1.0, -1.0), "<=", -1.0) for i in range(k)]
    return from_inequalities([1.0] * k, rows, [0] * k, [1] * k,
                             integer_set=range(k))


class TestVerdicts:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(20)
        n_opt = n_inf = 0
        for k in range(60):
            inst = oracles.random_instance(rng)
            status, value, _ = oracles.enumerate_optimum(inst)
            res = solve(inst, MipConfig(seed=k))
            assert res.status == status, f"case {k}"
            if status == "optimal":
                assert abs(res.objective - value) <= 1e-9, f"case {k}"
                assert inst.check_point(res.solution), f"case {k}"
                assert abs(res.dual_bound - value) <= 1e-9, f"case {k}"
                n_opt += 1
            else:
                n_inf += 1
        assert n_opt >= 20 and n_inf >= 20

    def test_capped_node_lps_still_solve_exactly(self, monkeypatch):
        # at most one simplex iteration per LP: capped nodes carry no point
        # and split their first unfixed integer at its midpoint, and a
        # capped node with every integer fixed is decided by its one point.
        # A cap of 1 lets most LPs finish; a cap of 0 stops every one of
        # them, the root's included
        rng = np.random.default_rng(23)
        capped = 0
        for k in range(40):
            inst = oracles.random_instance(rng)
            status, value, _ = oracles.enumerate_optimum(inst)
            for cap in (1, 0):
                monkeypatch.setattr("rapidbnb.lp.default_iteration_cap",
                                    lambda n, m: cap)
                for mode in ("off", "local"):
                    res = solve(inst, MipConfig(rapid_mode=mode, seed=k))
                    where = f"case {k} ({mode}, cap {cap})"
                    assert res.status == status, where
                    if status == "optimal":
                        assert abs(res.objective - value) <= 1e-9, where
                    capped += sum(line.split()[5] == "branched-capped"
                                  for line in res.events
                                  if line.startswith("node "))
        assert capped >= 40

    def test_unbounded_raises(self):
        inst = from_inequalities([-1.0], [], [0], [np.inf], integer_set=())
        with pytest.raises(SolveError):
            solve(inst)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MipConfig(rapid=RapidConfig(beta=1.0)).validate()
        with pytest.raises(ConfigError):
            MipConfig(rapid=RapidConfig(beta=float("inf"))).validate()
        with pytest.raises(ConfigError):
            MipConfig(rapid=RapidConfig(f=0)).validate()
        with pytest.raises(ConfigError):
            MipConfig(rapid=RapidConfig(
                criteria=frozenset({"notathing"}))).validate()
        with pytest.raises(ConfigError):
            MipConfig(rapid_mode="sometimes").validate()


class TestLimits:
    def test_node_limit_zero_reports_root_dual(self):
        inst = cycle_cover(5)
        res = solve(inst, MipConfig(node_limit=0))
        assert res.status == "nodelimit"
        assert res.nodes == 0
        assert abs(res.dual_bound - 2.5) <= 1e-9  # root LP: all x at 1/2
        assert res.objective is None

    def test_node_limit_respected(self):
        rng = np.random.default_rng(21)
        hit = False
        for k in range(10):
            inst = oracles.random_sat_instance(rng, n=20, m=84)
            res = solve(inst, MipConfig(node_limit=5, seed=k))
            assert res.nodes <= 5
            if res.status == "nodelimit":
                hit = True
        assert hit

    def test_time_limit(self):
        # a limit this tight expires before the first node is processed
        rng = np.random.default_rng(22)
        inst = oracles.random_sat_instance(rng, n=40, m=168)
        res = solve(inst, MipConfig(time_limit=1e-9))
        assert res.status == "timelimit"

    def test_time_limit_covers_the_root_lp(self):
        # the root LP stops before its first pivot: no node, no LP iteration
        inst = oracles.random_sat_instance(np.random.default_rng(63),
                                           n=60, m=252)
        res = solve(inst, MipConfig(time_limit=1e-9, rapid_mode="off"))
        assert res.status == "timelimit"
        assert res.nodes == 0
        assert res.stats.iter_lp == 0

    def test_deadline_at_a_fully_fixed_node_ends_in_timelimit(self,
                                                              monkeypatch):
        # every integer is fixed, so there is nothing to branch on; the
        # deadline passes once the node is taken off the queue, before
        # its LP
        k = 5
        rows = [((i, (i + 1) % k), (-1.0, -1.0), "<=", -1.0)
                for i in range(k)]
        inst = from_inequalities([1.0] * k, rows, [1] * k, [1] * k,
                                 integer_set=range(k))
        process = _Solve._process

        def process_past_deadline(self, *args):
            self.deadline = time.monotonic() - 1.0
            return process(self, *args)

        monkeypatch.setattr(_Solve, "_process", process_past_deadline)
        res = _Solve(inst, MipConfig(rapid_mode="off")).run()
        assert res.status == "timelimit"
        assert res.nodes == 0
        assert res.objective is None
        assert abs(res.dual_bound - 5.0) <= 1e-9   # the open root's bound

    def test_time_limit_must_be_positive(self):
        with pytest.raises(ConfigError):
            MipConfig(time_limit=0.0).validate()


class TestRootLp:
    """The root node takes the optimal root LP instead of solving it
    again; a root LP stopped early is solved again at the root node."""

    @staticmethod
    def root_box_lps(monkeypatch, inst):
        calls = []
        real = mipsearch.solve_lp

        def spy(instance, box, *args, **kwargs):
            res = real(instance, box, *args, **kwargs)
            calls.append(((tuple(box.lower), tuple(box.upper)), res.status))
            return res

        monkeypatch.setattr(mipsearch, "solve_lp", spy)
        res = solve(inst, MipConfig(node_limit=1))
        assert res.nodes == 1
        root = calls[0][0]
        return [status for box, status in calls if box == root]

    def test_optimal_root_lp_is_solved_once(self, monkeypatch):
        inst = cycle_cover(5)
        assert self.root_box_lps(monkeypatch, inst) == [LpStatus.OPTIMAL]

    def test_capped_root_lp_is_solved_again(self, monkeypatch):
        monkeypatch.setattr("rapidbnb.lp.default_iteration_cap",
                            lambda n, m: 1)
        inst = cycle_cover(5)
        assert self.root_box_lps(monkeypatch, inst) == \
            [LpStatus.ITERATION_LIMIT] * 2


class TestDeterminism:
    def test_same_seed_same_run(self):
        rng = np.random.default_rng(23)
        for k in range(6):
            inst = oracles.random_sat_instance(rng, n=16, m=67)
            cfg = MipConfig(rapid_mode="local", seed=k, node_limit=300)
            a = solve(inst, cfg)
            b = solve(inst, cfg)
            assert a.events == b.events
            assert a.status == b.status
            assert a.nodes == b.nodes
            assert a.objective == b.objective
            assert a.dual_bound == b.dual_bound
            assert a.rl_calls == b.rl_calls


class TestEventLog:
    def solve_logged(self, seed=24):
        rng = np.random.default_rng(seed)
        inst = oracles.random_sat_instance(rng, n=14, m=58)
        return solve(inst, MipConfig(seed=seed))

    def test_dual_bound_monotone(self):
        res = self.solve_logged()
        duals = [float(line.split(" dual ")[1].split()[0])
                 for line in res.events
                 if line.startswith("node ") and " dual " in line]
        for earlier, later in zip(duals, duals[1:]):
            assert later >= earlier - 1e-9

    def test_done_line_matches_result(self):
        res = self.solve_logged()
        done = res.events[-1]
        assert done.startswith("done status ")
        toks = done.split()
        assert toks[2] == res.status
        assert int(toks[4]) == res.nodes

    def test_branch_lines_reference_fresh_children(self):
        res = self.solve_logged()
        seen = {1}
        for line in res.events:
            if not line.startswith("branch "):
                continue
            toks = line.split()
            down, up = int(toks[-3]), int(toks[-1])
            assert down not in seen and up not in seen
            seen.update((down, up))


class TestBranchingMachinery:
    def test_vsids_bump_and_decay(self):
        table = BranchingStats()
        for _ in range(99):
            table.bump(((0, Side.LOWER, 0.0),))
        assert table.activity[(0, Side.LOWER)] == 99.0
        table.bump(((0, Side.LOWER, 0.0),))
        assert table.conflicts_seen == 100
        assert table.activity[(0, Side.LOWER)] == 95.0  # (99+1) * 0.95
        assert table.vsids(0) == 95.0

    def test_pseudo_cost_product_outweighs_activity(self):
        table = BranchingStats()
        table.observe(1, 0, 5.0, 1.0)
        table.observe(1, 1, 5.0, 1.0)
        table.bump(((0, Side.LOWER, 0.0),) * 3)
        table.bump(((0, Side.UPPER, 0.0),) * 2)
        assert table.ranked([0, 1]) == [1, 0]
        assert table.score(1) == pytest.approx(25.0)
        assert table.score(0) == pytest.approx(1e-12 + 0.5)

    def test_observe_counts_a_fall_as_no_gain_and_floors_the_distance(self):
        table = BranchingStats()
        table.observe(2, 0, -3.0, 0.5)
        assert table.pc_count[(2, 0)] == 1
        assert table.pseudo_cost(2, 0) == 0.0
        table.observe(2, 1, 2e-9, 1e-12)
        assert table.pseudo_cost(2, 1) == pytest.approx(2e-9 / PC_FLOOR)
        table.observe(2, 1, 1.0, 0.0)
        assert table.pseudo_cost(2, 1) == \
            pytest.approx((2e-9 + 1.0) / PC_FLOOR / 2)

    def test_inference_counts_enter_the_score(self):
        table = BranchingStats()
        table.add_inferences(3, 4)
        table.add_inferences(3, 0)
        table.add_inferences(3, 2)
        assert table.inference(3) == 6 and table.inference(5) == 0
        assert table.ranked([5, 3]) == [3, 5]
        assert table.score(3) == pytest.approx(1e-12 + 0.6)

    def test_ties_pick_lowest_index(self):
        assert BranchingStats().ranked([4, 2, 7]) == [2, 4, 7]

    def test_all_fixed_box_gives_no_inference_branching(self):
        box = BoundBox(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
        mask = np.array([True, True, True])
        assert select_inference_branching(
            box, mask, BranchingStats(), [0.0, 1.0, 2.0],
            random.Random(0)) is None
        box.upper[2] = 3.0
        assert select_inference_branching(
            box, mask, BranchingStats(), [0.0, 1.0, 2.0],
            random.Random(0)) == (2, 2)

    def test_record_leaf(self):
        stats = SearchStats()
        record_leaf("infeasible", stats)
        record_leaf("cutoff", stats)
        record_leaf("improving", stats, point=np.array([1.0]), value=-2.0)
        assert stats.leaves_infeasible == 1
        assert stats.leaves_cutoff == 1
        assert stats.n_solutions == 1
        assert stats.incumbent_value == -2.0
        with pytest.raises(ValueError):
            record_leaf("sideways", stats)

    def test_pseudo_costs_and_strong_branching_collected(self):
        inst = cycle_cover(9)
        res = solve(inst, MipConfig(seed=1))
        assert res.status == "optimal"
        assert res.objective == 5.0  # ceil(9/2)
        assert len(res.stats.branching.pc_count) >= 1
        assert res.stats.sb_no_improvement + res.stats.sb_objective_changed >= 1

    def test_strong_branching_counts_two_children_per_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return strong_branch(*args, **kwargs)

        monkeypatch.setattr("rapidbnb.mipsearch.strong_branch", counted)
        res = solve(cycle_cover(9), MipConfig(seed=1))
        assert res.status == "optimal" and len(calls) >= 1
        assert res.stats.sb_no_improvement + \
            res.stats.sb_objective_changed == 2 * len(calls)

    def test_strong_branching_skips_candidates_with_both_pseudo_costs(
            self, monkeypatch):
        rounds = []   # per round: [branching table, ranked slots, calls]
        original_round = _Solve._strong_branch_round

        def round_(self, node, box, lp, obj, x, fractional):
            slots = min(len(fractional), SB_CANDIDATES)
            rounds.append([self.stats.branching, slots, 0])
            original_round(self, node, box, lp, obj, x, fractional)

        def counted(*args, **kwargs):
            table, j = rounds[-1][0], args[2]
            assert (j, 0) not in table.pc_count or \
                (j, 1) not in table.pc_count, j
            rounds[-1][2] += 1
            return strong_branch(*args, **kwargs)

        monkeypatch.setattr(_Solve, "_strong_branch_round", round_)
        monkeypatch.setattr("rapidbnb.mipsearch.strong_branch", counted)
        rng = np.random.default_rng(2)
        gen.clause_model(rng, "clause", 20)   # the golden knapsack's draw
        m = gen.knapsack_model(rng, "knapsack", 14, 3)
        inst = from_inequalities(m.c, m.rows, m.lower, m.upper,
                                 range(len(m.c)))
        res = solve(inst, MipConfig(rapid_mode="off", seed=1))
        assert res.status == "optimal"
        # a skipped candidate is not replaced: its round makes fewer calls
        assert any(calls < slots for _, slots, calls in rounds)
        assert res.stats.sb_no_improvement + res.stats.sb_objective_changed \
            == 2 * sum(calls for _, _, calls in rounds)

    def test_strong_branching_inverts_the_node_basis_once(self, monkeypatch):
        # every child LP of a round starts from the node's basis, and the
        # solve's LPs share one workspace: the first child inverts that
        # basis, the others take the kept inverse
        rounds = []   # per round: [node basis matrix, its inversions, LPs]
        active = [False]
        original_round = _Solve._strong_branch_round
        inv, solve_lp = np.linalg.inv, rapidbnb.lp.solve_lp

        def round_(self, node, box, lp, obj, x, fractional):
            A, _ = self.inst.dense()
            T = np.hstack([A, np.eye(self.inst.num_rows)])
            rounds.append([T[:, lp.basis_status == BASIC], 0, 0])
            active[0] = True
            try:
                original_round(self, node, box, lp, obj, x, fractional)
            finally:
                active[0] = False

        def inverting(a):
            if active[0] and np.array_equal(a, rounds[-1][0]):
                rounds[-1][1] += 1
            return inv(a)

        def child(*args, **kwargs):
            rounds[-1][2] += active[0]
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(_Solve, "_strong_branch_round", round_)
        monkeypatch.setattr(np.linalg, "inv", inverting)
        monkeypatch.setattr(rapidbnb.lp, "solve_lp", child)
        rng = np.random.default_rng(2)
        gen.clause_model(rng, "clause", 20)   # the golden knapsack's draw
        m = gen.knapsack_model(rng, "knapsack", 14, 3)
        inst = from_inequalities(m.c, m.rows, m.lower, m.upper,
                                 range(len(m.c)))
        res = solve(inst, MipConfig(rapid_mode="off", seed=1))
        assert res.status == "optimal"
        assert all(inversions <= 1 for _, inversions, _ in rounds)
        assert sum(lps for _, _, lps in rounds) >= 20
        assert any(inversions == 1 and lps >= 4
                   for _, inversions, lps in rounds)


def gen_instances(seed: int, knapsacks: int, covers: int):
    rng = np.random.default_rng(seed)
    models = [gen.knapsack_model(rng, f"k{i}", 12, 3) for i in range(knapsacks)]
    models += [gen.cover_model(rng, f"c{i}", 20, 30) for i in range(covers)]
    return [from_inequalities(m.c, m.rows, m.lower, m.upper, range(len(m.c)))
            for m in models]


class TestStrongBranchingReuse:
    """A child node whose box and warm start are exactly those of its
    parent's strong-branching LP for it is handed that LP's result by its
    own `solve_lp` call instead of solving again."""

    def test_handed_out_results_equal_fresh_solves(self, monkeypatch):
        sb_results = {}     # id -> every LP result strong branching made
        seen = {"node_lps": 0, "reused": 0}
        lp_solve = rapidbnb.lp.solve_lp
        node_solve = mipsearch.solve_lp
        solves = []

        def child(*args, **kwargs):
            res = lp_solve(*args, **kwargs)
            sb_results[id(res)] = res
            return res

        def node_lp(inst, box, warm_basis=None, deadline=None, **kwargs):
            ws = kwargs["workspace"]
            # by now the last round is dropped: what is kept, its nodes hold
            assert ws.sb_children == {}
            res = node_solve(inst, box, warm_basis, deadline, **kwargs)
            seen["node_lps"] += 1
            if sb_results.get(id(res)) is not res:
                return res
            seen["reused"] += 1
            fresh = lp_solve(inst, box.copy(), warm_basis=warm_basis,
                             workspace=LpWorkspace(inst))
            assert (res.status, repr(res.objective), res.iterations) == \
                (fresh.status, repr(fresh.objective), fresh.iterations)
            for field in ("x", "basis_status", "reduced_costs"):
                a, b = getattr(res, field), getattr(fresh, field)
                assert (a is None and b is None) or \
                    (a.dtype == b.dtype and a.tobytes() == b.tobytes()), field
            return res

        monkeypatch.setattr(rapidbnb.lp, "solve_lp", child)
        monkeypatch.setattr(mipsearch, "solve_lp", node_lp)
        for inst in gen_instances(11, knapsacks=6, covers=2):
            assert solve(inst, MipConfig(rapid_mode="off")).status == "optimal"
        # 72 of 436 when written; 61 if the children kept were another
        # strong-branched variable's
        assert seen["node_lps"] >= 300 and seen["reused"] >= 66, seen

    def test_passed_deadline_leaves_the_node_open(self, monkeypatch):
        # the deadline passes just before a node LP that strong branching
        # answered: the LP stops, and the node goes back on the queue
        # unprocessed instead of taking the kept result
        offset = [0.0]
        monotonic = time.monotonic
        node_solve = mipsearch.solve_lp
        at = {}

        class Solve(_Solve):
            def _process(self, node):
                at["node"], at["processed"] = node, self.nodes_processed
                super()._process(node)

        def node_lp(inst, box, warm_basis=None, deadline=None, **kwargs):
            known = kwargs.get("known")
            if known is not None and known.answers(box, warm_basis) \
                    and not offset[0]:
                offset[0] = deadline + 1.0 - monotonic()
                at["late"] = at["node"]
            return node_solve(inst, box, warm_basis, deadline, **kwargs)

        monkeypatch.setattr(time, "monotonic", lambda: monotonic() + offset[0])
        monkeypatch.setattr(mipsearch, "solve_lp", node_lp)
        inst = gen_instances(11, knapsacks=1, covers=0)[0]
        solver = Solve(inst, MipConfig(rapid_mode="off"))
        res = solver.run()
        assert "late" in at and at["late"] is at["node"]
        assert res.status == "timelimit"
        assert res.nodes == at["processed"]
        assert any(nd is at["late"] for _, _, nd in solver.heap)
        assert not any(line.startswith(f"node {at['late'].id} ")
                       for line in res.events)


class TestConflictScope:
    """A propagation conflict in the tree is learned globally only when
    its derivation used no node-local constraint."""

    # x0 + x2 >= 1 and x1 + x2 <= 1 over binaries, and the node-local
    # disjunction x0 >= 1 or x1 >= 1 under id 99
    inst = from_inequalities([0.0, 0.0, 0.0],
                             [((0, 2), (1.0, 1.0), ">=", 1.0),
                              ((1, 2), (1.0, 1.0), "<=", 1.0)],
                             [0, 0, 0], [1, 1, 1], integer_set=range(3))
    local = BoundDisjunction(((0, 1.0), (1, 1.0)), ())

    def fail_below_x0_down(self, local_ids: set[int]) -> _Solve:
        """A solver whose level-1 branching x0 <= 0 failed the fixpoint
        with the disjunction active, owned by the node as a local under
        each of `local_ids`."""
        solver = _Solve(self.inst, MipConfig())
        root = Node(id=1, parent=None, depth=0, lower_bound=0.0)
        node = Node(id=2, parent=root, depth=1, lower_bound=0.0,
                    branch=(0, Side.UPPER, 0.0),
                    locals_own=[(cid, self.local) for cid in local_ids])
        state = _NodeState(Trail(solver.global_box.copy()),
                           solver._propagator())
        state.prop.add_constraint(99, self.local)
        assert solver._fixpoint(node, state)
        state.trail.branch(*node.branch, node.depth)
        assert not solver._fixpoint(node, state)
        return solver

    def test_tainted_conflict_is_discarded(self):
        # (0, 0, 1) is feasible, so the unit x0 >= 1 the analysis returns
        # is valid only where the disjunction is
        assert self.inst.check_point(np.array([0.0, 0.0, 1.0]))
        solver = self.fail_below_x0_down({99})
        assert solver.events == ["conflict node 2 size 1 scope discarded"]
        assert solver.global_box.lower == [0.0, 0.0, 0.0]
        assert solver.global_box.upper == [1.0, 1.0, 1.0]
        assert solver.global_constraints == []
        assert solver.stats.branching.activity == {}
        assert not solver.exhausted

    def test_untainted_conflict_tightens_the_global_box(self):
        solver = self.fail_below_x0_down(set())
        assert solver.events == ["conflict node 2 size 1 scope global"]
        assert solver.global_box.lower == [1.0, 0.0, 0.0]
        assert solver.global_constraints == []
        assert solver.stats.branching.vsids(0) == 1.0


class TestResultShape:
    def test_fields(self):
        inst = cycle_cover(5)
        res = solve(inst, MipConfig(seed=3))
        assert res.seed == 3
        assert set(res.criterion_counts) == {
            "dualbound", "leaves", "degeneracy", "obj", "nsols", "sblps"}
        assert res.wall_seconds >= 0.0
        assert res.rl_calls == 0  # rapid off by default
        payload = {
            "status": res.status, "objective": res.objective,
            "dual_bound": res.dual_bound, "nodes": res.nodes,
            "rl_calls": res.rl_calls,
            "criterion_counts": res.criterion_counts,
            "wall_seconds": res.wall_seconds, "seed": res.seed,
        }
        json.dumps(payload)  # JSON-representable as-is


class _ReplayEveryNode(_Solve):
    """Drops the kept state before every node, so that each node, the
    root included, builds its state from the root."""

    def _process(self, node):
        self.kept = None
        super()._process(node)


class _CountedSolve(_Solve):
    """Counts how nodes get their state: switches of the kept state,
    those that start from the root's level, those whose kept locals are
    logged again, those that detach locals, those whose node dies in the
    descent, those that follow a probe below the root or a death, fresh
    builds from the root, and the propagators the search builds.  Checks
    that every state's propagator holds its constraints in the order a
    fresh one would (rows, globals, path locals), and that a fresh build
    follows a change of the globals."""

    def __init__(self, *args):
        super().__init__(*args)
        self.counts = Counter()
        self.previous = "started"   # what happened at the last node
        self.globals_kept = None

    def globals(self):
        return (tuple(cid for cid, _ in self.global_constraints),
                tuple(self.global_box.lower), tuple(self.global_box.upper))

    def _propagator(self):
        self.counts["propagators"] += 1
        return super()._propagator()

    def _switch(self, node):
        kept = self.kept
        if kept is not None:
            depth = kept.ancestor_depth(node)
            with_locals = any(nd.locals_own for nd in node.path()[:depth])
            detaching = len(kept.prop.items) > kept.levels[depth][2]
        else:
            # the globals the dropped state was built with are gone
            assert self.globals() != self.globals_kept
        state = super()._switch(node)
        if kept is not None:
            self.counts["switched"] += 1
            self.counts["switched from the root"] += depth == 0 < node.depth
            self.counts["switched with locals"] += with_locals
            self.counts["switched detaching locals"] += detaching
            self.counts[f"switched after {self.previous}"] += 1
            self.counts["died switching"] += state is None
            self.counts["died switching with locals"] += \
                state is None and with_locals
        else:
            self.counts["fresh"] += 1
            self.counts[f"fresh after {self.previous}"] += 1
        if self.kept is not None:
            self.globals_kept = self.globals()
        if state is not None:
            assert [item.cid for item in state.prop.items] == \
                list(range(self.inst.num_rows)) + \
                [cid for cid, _ in self.global_constraints] + \
                [cid for nd in node.path() for cid, _ in nd.locals_own]
        self.previous = "died" if state is None else "switched"
        return state

    def _transfer(self, node, trail, outcome):
        self.previous = "probed" if node.depth > 0 else "probed at the root"
        return super()._transfer(node, trail, outcome)


ALL_CRITERIA = frozenset(CRITERION_NAMES)
PLUNGE_MODES = {
    "off": MipConfig(rapid_mode="off", seed=1),
    "root": MipConfig(rapid_mode="root", seed=1),
    "local": MipConfig(rapid_mode="local", seed=1,
                       rapid=RapidConfig(criteria=ALL_CRITERIA)),
}
ROOT_ALL_CRITERIA = MipConfig(rapid_mode="root", seed=1,
                              rapid=RapidConfig(criteria=ALL_CRITERIA))
# probes at depths 1, 2, 4, 8, ...: many probed parents below the root
DENSE_PROBES = MipConfig(rapid_mode="local", seed=1,
                         rapid=RapidConfig(criteria=ALL_CRITERIA, f=1,
                                           beta=2.0))


def plunge_cases():
    rng = np.random.default_rng(5)
    models = [gen.knapsack_model(rng, "knapsack", 14, 3),
              gen.cover_model(rng, "cover", 30, 36),
              gen.general_int_model(rng, "general_int0", 10, 6),
              gen.general_int_model(rng, "general_int1", 10, 6),
              gen.general_int_model(rng, "general_int2", 10, 6),
              gen.clause_model(rng, "clause", 20)]
    cases = [(m, mode, config) for m in models
             for mode, config in PLUNGE_MODES.items()]
    # children die while extending a trail that carries probe locals, and
    # switches keep or detach them
    dense = [(gen.general_int_model(np.random.default_rng(seed), "dense",
                                    10, 6), "dense", DENSE_PROBES)
             for seed in (45, 18, 50, 92)]
    # the root probe keeps a global conflict and a global bound
    rooted = gen.general_int_model(np.random.default_rng(65), "rooted", 10, 6)
    return cases + dense + [(rooted, "root", ROOT_ALL_CRITERIA)]


class TestPlungeState:
    """A node switches the kept state of the node before it: rewound to
    their common ancestor, then descended; the search must be the one a
    build from the root at every node gives."""

    def test_matches_a_replay_from_the_root(self):
        totals = Counter()
        for model, mode, config in plunge_cases():
            inst = from_inequalities(model.c, model.rows, model.lower,
                                     model.upper, range(len(model.c)))
            solver = _CountedSolve(inst, config)
            kept = solver.run()
            full = _ReplayEveryNode(inst, config).run()
            where = (model.name, mode)
            assert kept.events == full.events, where
            assert (kept.status, kept.objective, kept.nodes,
                    kept.stats.iter_lp) == (full.status, full.objective,
                                            full.nodes, full.stats.iter_lp)
            counts = solver.counts
            # every node either switches the kept state or builds a fresh
            # one; one propagator for the root fixpoint, which the root
            # node switches to, and one per fresh build
            assert counts["switched"] + counts["fresh"] == kept.nodes, where
            assert counts["propagators"] == 1 + counts["fresh"], where
            totals.update(counts)
        assert totals["switched"] >= 100
        assert totals["switched from the root"] >= 1
        assert totals["died switching"] >= 3
        assert totals["switched with locals"] >= 5
        assert totals["died switching with locals"] >= 1
        assert totals["switched detaching locals"] >= 5
        assert totals["switched after probed"] >= 5
        assert totals["switched after died"] >= 3
        assert totals["fresh after died"] >= 3
        assert totals["fresh after probed at the root"] >= 1
