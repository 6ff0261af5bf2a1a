"""Trail, 1-UIP analysis output, and disjunction/knapsack conversion."""

import sys
from pathlib import Path

import numpy as np
import pytest

import rapidbnb
from rapidbnb import (
    BoundBox,
    BoundDisjunction,
    CpConfig,
    Instance,
    MipConfig,
    RapidConfig,
    Side,
    analyze_1uip,
    cpsearch,
    from_inequalities,
    solve,
    to_knapsack,
)
from rapidbnb.conflict import Trail
from rapidbnb.propagation import Outcome, Propagator

import oracles
from test_propagation import Lockstep, mixed_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

N_EQUIVALENCE_CASES = 100
MIN_AUDITED_CONFLICTS = 50


def random_disjunction(rng, lower, upper, convertible: bool):
    """Random literal set over distinct variables.

    With convertible=True, every literal sits exactly one step inside
    its reference bound, the pattern to_knapsack accepts.
    """
    n = len(lower)
    size = int(rng.integers(1, n + 1))
    variables = rng.choice(n, size=size, replace=False)
    lows, ups = [], []
    for v in variables:
        v = int(v)
        if lower[v] == upper[v]:
            continue
        pick_lower = bool(rng.integers(0, 2))
        if pick_lower:
            lam = lower[v] + 1.0 if convertible else float(
                rng.integers(int(lower[v]) + 1, int(upper[v]) + 1))
            lows.append((v, lam))
        else:
            mu = upper[v] - 1.0 if convertible else float(
                rng.integers(int(lower[v]), int(upper[v])))
            ups.append((v, mu))
    return BoundDisjunction(tuple(lows), tuple(ups))


class TestKnapsackConversion:
    def test_equivalent_satisfying_sets(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < N_EQUIVALENCE_CASES:
            n = int(rng.integers(1, 7))
            lower = rng.integers(0, 3, size=n).astype(float)
            upper = lower + rng.integers(1, 4, size=n)
            d = random_disjunction(rng, lower, upper, convertible=True)
            if d.size == 0:
                continue
            row = to_knapsack(d, lower, upper)
            assert row is not None
            for x in oracles.integer_grid(lower, upper):
                linear_ok = row.activity(x) <= row.rhs + 1e-9
                assert oracles.check_disjunction(d, x) == linear_ok
            checked += 1

    def test_pattern_mismatch_gives_none(self):
        lower = np.zeros(2)
        upper = np.full(2, 3.0)
        # lower literal two steps in: no single linear row can match
        d = BoundDisjunction(((0, 2.0),), ())
        assert to_knapsack(d, lower, upper) is None
        d = BoundDisjunction((), ((1, 1.0),))
        assert to_knapsack(d, lower, upper) is None
        assert to_knapsack(BoundDisjunction((), ()), lower, upper) is None

    def test_exactly_one_corner_cut(self):
        # x0 >= 1 or x1 <= 2 on [0,3]^2 excludes only (0, 3)
        lower = np.zeros(2)
        upper = np.full(2, 3.0)
        d = BoundDisjunction(((0, 1.0),), ((1, 2.0),))
        row = to_knapsack(d, lower, upper)
        cut = [tuple(x) for x in oracles.integer_grid(lower, upper)
               if row.activity(x) > row.rhs + 1e-9]
        assert cut == [(0.0, 3.0)]


class TestTrail:
    def test_branch_apply_rewind(self):
        box = BoundBox(np.zeros(2), np.full(2, 3.0))
        trail = Trail(box)
        mark = trail.mark()
        assert trail.branch(0, Side.UPPER, 1.0, level=1)
        assert trail.apply(1, Side.LOWER, 2.0, reason=0,
                           reason_bounds=((0, Side.UPPER),))
        assert box.upper[0] == 1.0
        assert box.lower[1] == 2.0
        assert trail.antecedents(1) == (0,)
        trail.rewind(mark)
        assert box.upper[0] == 3.0
        assert box.lower[1] == 0.0

    def test_rejected_tightening_not_recorded(self):
        box = BoundBox(np.zeros(1), np.full(1, 3.0))
        trail = Trail(box)
        before = trail.mark()
        assert not trail.branch(0, Side.UPPER, 3.0, level=1)  # not tighter
        assert trail.mark() == before


class EagerTrail(Trail):
    """A trail that also keeps what an eager one stored: per change, the
    trail positions of its reads when it was applied."""

    def __init__(self, box: BoundBox):
        super().__init__(box)
        self.eager: list[tuple[int, ...]] = []
        self.checked = 0

    def apply(self, var, side, value, reason, reason_bounds) -> bool:
        last = self._last
        at_apply = tuple(last[k] for k in reason_bounds if k in last)
        if not super().apply(var, side, value, reason, reason_bounds):
            return False
        del self.eager[len(self.changes) - 1:]
        self.eager.append(at_apply)
        return True

    def assert_lazy_is_eager(self) -> None:
        on_trail = len(self.changes)
        assert [self.antecedents(p) for p in range(on_trail)] == \
            self.eager[:on_trail]
        self.checked += on_trail


def general_int_instance(rng) -> Instance:
    m = gen.general_int_model(rng, "general_int", 8, 4)
    return from_inequalities(m.c, m.rows, m.lower, m.upper, range(len(m.c)))


class TestLazyAntecedents:
    """`Trail.antecedents` resolves a change's reads when asked, and must
    give the positions an eager trail resolved when the change was made."""

    def test_random_dives_failures_and_rewinds(self):
        rng = np.random.default_rng(57)
        failures = rewinds = checked = 0
        for case in range(40):
            inst = mixed_instance(rng) if case % 2 else \
                general_int_instance(rng)
            run = Lockstep(inst)
            run.runs = [(prop, EagerTrail(inst.root_box()))
                        for prop, _ in run.runs]
            marks: list[int] = []
            for _ in range(40):
                box = run.trail.box
                free = [j for j in inst.integer_indices
                        if box.upper[j] - box.lower[j] > 0.5]
                op = rng.random()
                if op < 0.4 and free and run.trail.failure is None:
                    var = int(rng.choice(free))
                    lo, up = int(box.lower[var]), int(box.upper[var])
                    if rng.random() < 0.5:
                        side, val = Side.UPPER, float(rng.integers(lo, up))
                    else:
                        side, val = Side.LOWER, float(rng.integers(lo + 1,
                                                                   up + 1))
                    marks.append(run.trail.mark())
                    run.each(lambda prop, trail: trail.branch(
                        var, side, val, len(marks)))
                elif op < 0.6 or run.trail.failure is not None:
                    mark = marks.pop() if marks else 0
                    run.each(lambda prop, trail: trail.rewind(mark))
                    rewinds += 1
                else:
                    if run.fixpoint().outcome is Outcome.INFEASIBLE:
                        failures += 1
                for _, trail in run.runs:
                    trail.assert_lazy_is_eager()
            checked += run.trail.checked
        assert failures >= 20 and rewinds >= 100 and checked >= 5000

    def test_probe_analyses_see_eager_antecedents(self, monkeypatch):
        # the probe's own dives, checked at every conflict analysis
        trails: list[EagerTrail] = []
        analyses = []

        def checked(trail, *args):
            trail.assert_lazy_is_eager()
            analyses.append(trail)
            return analyze_1uip(trail, *args)

        monkeypatch.setattr(cpsearch, "analyze_1uip", checked)
        # probes that stall after a solution stop early, so 24 scopes
        rng = np.random.default_rng(58)
        for case in range(24):
            inst = general_int_instance(rng) if case % 2 else \
                oracles.random_sat_instance(rng)
            trails.append(EagerTrail(inst.root_box()))
            cpsearch.cp_search(inst, trails[-1], Propagator(inst),
                               CpConfig(node_limit=300))
        assert len(analyses) >= 300
        assert sum(t.checked for t in trails) >= 5000


class TestCappedAnalysis:
    def test_a_cut_that_fits_the_cap_exactly_is_kept(self):
        # x0 <= 2 at level 1 reaches the cut through x2 >= 1, and the
        # second decision of level 2, x0 <= 1, is the UIP on the same
        # bound: the cut's one literal, so a cap of 1 must keep it.  No
        # search makes two decisions at one level, and on the trails they
        # build the UIP's bound is never one the cut already holds
        box = BoundBox(np.zeros(3), np.full(3, 3.0))
        trail = Trail(box)
        trail.branch(0, Side.UPPER, 2.0, level=1)
        trail.branch(1, Side.LOWER, 1.0, level=2)
        trail.apply(2, Side.LOWER, 1.0, 0, ((0, Side.UPPER),))
        trail.branch(0, Side.UPPER, 1.0, level=2)
        trail.fail(1, ((2, Side.LOWER), (0, Side.UPPER)))
        mask = np.ones(3, dtype=bool)
        full = analyze_1uip(trail, mask, set())
        assert full.disjunction == BoundDisjunction(((0, 2.0),), ())
        assert analyze_1uip(trail, mask, set(), cap=1) == full
        assert analyze_1uip(trail, mask, set(), cap=0).disjunction is None
        for cap in (0, 1, 2):
            oracles.check_cap_contract(
                analyze_1uip(trail, mask, set(), cap=cap), full, cap)


def harvest_analyses(n_instances=12, seed=50):
    """What a recorder sees of the analyses of cp_search runs over
    conflict-heavy clause systems."""
    rng = np.random.default_rng(seed)
    with oracles.SearchRecorder(
            require=("rapidbnb.cpsearch.analyze_1uip",)) as rec:
        for _ in range(n_instances):
            inst = oracles.random_sat_instance(rng)
            oracles.probe(inst, inst.root_box(),
                          CpConfig(node_limit=300, seed=1))
    return rec.analyses


class TestOneUipStructure:
    """Checked against the trail each analysis ran on: a literal's level
    is that of the first trail change that made it false."""

    def test_deepest_level_has_one_literal(self):
        bag = harvest_analyses()
        assert len(bag) >= MIN_AUDITED_CONFLICTS
        for rec in bag:
            assert None not in rec.levels
            assert rec.levels.count(rec.failure_level) == 1
            assert max(rec.levels) == rec.failure_level

    def test_violated_at_originating_node(self):
        # every literal is false under the node bounds that produced it
        for rec in harvest_analyses():
            for var, side, value in rec.disjunction.literals():
                lo, hi = rec.bounds[var]
                if side is Side.LOWER:
                    assert hi < value - 1e-9
                else:
                    assert lo > value + 1e-9


def weighted_clause_model():
    """A weighted clause system whose `local` solve analyzes conflicts in
    the tree search and in probes below the root."""
    base = oracles.random_sat_instance(np.random.default_rng(31), n=16, m=67)
    weights = np.random.default_rng(0).integers(1, 4, size=16)
    return Instance(weights.astype(float), base.rows, base.lower, base.upper,
                    np.flatnonzero(base.integer_mask))


class TestSearchRecorder:
    def test_a_solve_calls_every_recorded_name(self):
        config = MipConfig(rapid_mode="local", seed=1, rapid=RapidConfig(
            criteria=frozenset({"leaves"}), f=1, beta=2.0))
        with oracles.SearchRecorder() as rec:   # requires all of them
            solve(weighted_clause_model(), config)
        assert rec.analyses and all(a.is_one_uip() for a in rec.analyses)
        for name in oracles.RECORDED_NAMES:
            module, attr = name.rsplit(".", 1)
            assert getattr(sys.modules[module], attr) is \
                getattr(rapidbnb, attr), name

    def test_a_name_never_called_fails_loudly(self):
        # a direct probe passes neither the tree search nor the hook
        inst = oracles.random_sat_instance(np.random.default_rng(50))
        with pytest.raises(AssertionError, match="never called") as err:
            with oracles.SearchRecorder():
                oracles.probe(inst, inst.root_box(), CpConfig(node_limit=300))
        assert "rapidbnb.rapid.cp_search" in str(err.value)
        assert "rapidbnb.cpsearch.analyze_1uip" not in str(err.value)
