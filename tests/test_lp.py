"""Bounded-variable simplex against the vertex-enumeration oracle and,
where scipy is installed, against HiGHS."""

import math
import time

import numpy as np
import pytest

from rapidbnb import LpStatus, from_inequalities, measure_degeneracy, solve_lp
from rapidbnb.lp import (AT_LOWER, AT_UPPER, BASIC, REFACTOR_INTERVAL,
                         LpWorkspace, _Simplex, default_iteration_cap,
                         strong_branch)

import oracles

N_ORACLE_CASES = 100
VALUE_TOL = 1e-6


class TestAgainstVertexOracle:
    def test_random_bounded_lps(self):
        rng = np.random.default_rng(80)
        n_optimal = 0
        for k in range(N_ORACLE_CASES):
            inst = oracles.random_lp(rng)
            status, value, _ = oracles.lp_vertex_optimum(inst)
            res = solve_lp(inst, inst.root_box())
            if status == "optimal":
                assert res.status is LpStatus.OPTIMAL, f"case {k}"
                assert abs(res.objective - value) <= VALUE_TOL, f"case {k}"
                n_optimal += 1
            else:
                assert res.status is LpStatus.INFEASIBLE, f"case {k}"
        assert n_optimal >= 10  # generator must exercise the optimal path

    def test_optimal_point_is_feasible(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            inst = oracles.random_lp(rng)
            res = solve_lp(inst, inst.root_box())
            if res.status is not LpStatus.OPTIMAL:
                continue
            x = res.x
            assert np.all(x >= inst.lower - VALUE_TOL)
            assert np.all(x <= inst.upper + VALUE_TOL)
            for row in inst.rows:
                assert row.activity(x) <= row.rhs + VALUE_TOL


class TestDegeneracy:
    def test_zero_objective_share_is_one(self):
        # c = 0 on every unfixed variable -> all reduced costs vanish
        rng = np.random.default_rng(82)
        for _ in range(20):
            inst = oracles.random_lp(rng)
            zero = from_inequalities(np.zeros(inst.num_vars),
                                     [(r.cols, r.coefs, "<=", r.rhs)
                                      for r in inst.rows],
                                     inst.lower, inst.upper, integer_set=())
            res = solve_lp(zero, zero.root_box())
            if res.status is not LpStatus.OPTIMAL:
                continue
            info = measure_degeneracy(res, zero.root_box())
            assert info.degenerate_share == 1.0

    def test_nondegenerate_corner(self):
        # min -x - 2y over the unit square: unique vertex, no degeneracy
        inst = from_inequalities([-1.0, -2.0], [], [0, 0], [1, 1],
                                 integer_set=())
        res = solve_lp(inst, inst.root_box())
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == -3.0
        info = measure_degeneracy(res, inst.root_box())
        assert info.degenerate_share == 0.0

    def test_columns_fixed_in_the_box_are_left_out(self):
        # min x0 over [0,1]^3 with two slack rows: the slack basis is
        # optimal, x0 prices at 1, and x1, x2 price at 0
        inst = from_inequalities([1.0, 0.0, 0.0],
                                 [((0, 1, 2), (1.0, 1.0, 1.0), "<=", 2.0),
                                  ((0, 2), (1.0, -1.0), "<=", 1.0)],
                                 [0, 0, 0], [1, 1, 1], integer_set=())
        box = inst.root_box()
        res = solve_lp(inst, box)
        info = measure_degeneracy(res, box)
        assert (info.degenerate_share, info.face_ratio) == (2 / 3, 1.0)
        # x1 fixed: only x0 and x2 count, and x2 alone is degenerate
        box.upper[1] = 0.0
        res = solve_lp(inst, box)
        assert res.status is LpStatus.OPTIMAL
        info = measure_degeneracy(res, box)
        assert (info.degenerate_share, info.face_ratio) == (0.5, 0.5)


class TestMechanics:
    def test_warm_start_agrees(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            inst = oracles.random_lp(rng)
            cold = solve_lp(inst, inst.root_box())
            if cold.status is not LpStatus.OPTIMAL:
                continue
            warm = solve_lp(inst, inst.root_box(), warm_basis=cold.basis_status)
            assert warm.status is LpStatus.OPTIMAL
            assert abs(warm.objective - cold.objective) <= VALUE_TOL
            assert warm.iterations <= cold.iterations

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr("rapidbnb.lp.default_iteration_cap",
                            lambda n, m: 1)
        rng = np.random.default_rng(84)
        hit = False
        for _ in range(50):
            inst = oracles.random_lp(rng)
            res = solve_lp(inst, inst.root_box())
            if res.status is LpStatus.ITERATION_LIMIT:
                hit = True
                break
        assert hit

    def test_passed_deadline_stops_before_the_first_pivot(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            inst = oracles.random_lp(rng)
            res = solve_lp(inst, inst.root_box(),
                           deadline=time.monotonic() - 1.0)
            assert res.status is LpStatus.ITERATION_LIMIT
            assert res.iterations == 0

    def test_unbounded_detected(self):
        inst = from_inequalities([-1.0], [], [0], [np.inf], integer_set=())
        res = solve_lp(inst, inst.root_box())
        assert res.status is LpStatus.UNBOUNDED

    def test_empty_box_infeasible(self):
        inst = from_inequalities([1.0], [], [0], [4], integer_set=(0,))
        box = inst.root_box()
        box.lower[0], box.upper[0] = 3.0, 1.0
        assert solve_lp(inst, box).status is LpStatus.INFEASIBLE


class TestStrongBranch:
    def test_children_bracket_parent(self):
        # min -x - y st x + y <= 3 on [0,2]^2: parent LP x = (2, 1) say
        inst = from_inequalities([-1.0, -1.0],
                                 [((0, 1), (1.0, 1.0), "<=", 3.0)],
                                 [0, 0], [2, 2], integer_set=(0, 1))
        box = inst.root_box()
        parent = solve_lp(inst, box)
        assert parent.status is LpStatus.OPTIMAL
        assert abs(parent.objective - (-3.0)) <= VALUE_TOL
        j = int(np.argmax(np.abs(parent.x - np.round(parent.x))))
        down, up, iters = strong_branch(inst, box, j, parent)
        # both children stay feasible here and cannot beat the parent
        assert down is not None and down >= parent.objective - VALUE_TOL
        assert up is not None and up >= parent.objective - VALUE_TOL
        assert iters >= 0
        assert box.lower[j] == 0.0 and box.upper[j] == 2.0  # box untouched

    def test_passed_deadline_gives_no_child_objective(self):
        inst = from_inequalities([-1.0, -1.0],
                                 [((0, 1), (2.0, 2.0), "<=", 3.0)],
                                 [0, 0], [2, 2], integer_set=(0, 1))
        box = inst.root_box()
        parent = solve_lp(inst, box)
        j = int(np.argmax(np.abs(parent.x - np.round(parent.x))))
        assert strong_branch(inst, box, j, parent,
                             deadline=time.monotonic() - 1.0) == (None, None, 0)


def wide_lp(rng: np.random.Generator, n: int, m: int):
    """A seeded LP with n structurals and at least m rows.

    A quarter of the structurals have no upper bound, a quarter no lower
    bound and some neither; one extra row caps each missing bound, so the
    LP stays bounded while its columns start from every kind of bound.
    Right-hand sides sit around the activity of a point inside the box,
    a few of them below it, so some of the LPs are infeasible.
    """
    lower = rng.integers(-4, 1, size=n).astype(float)
    upper = lower + rng.integers(1, 7, size=n)
    kind = rng.integers(0, 5, size=n)
    lower[(kind == 1) | (kind == 3)] = -np.inf
    upper[(kind == 2) | (kind == 3)] = np.inf
    point = np.where(np.isfinite(lower), lower, upper - 2.0)
    point = np.where(np.isfinite(point), point, 0.0) + rng.random(n)
    c = rng.integers(-6, 7, size=n).astype(float)
    rows = []
    for _ in range(m):
        width = int(rng.integers(2, min(n, 8) + 1))
        cols = tuple(sorted(rng.choice(n, size=width, replace=False).tolist()))
        coefs = rng.integers(-5, 6, size=width)
        coefs[coefs == 0] = 1
        act = float(sum(a * point[j] for j, a in zip(cols, coefs)))
        rhs = math.floor(act) + float(rng.integers(-2, 6))
        rows.append((cols, tuple(float(a) for a in coefs), "<=", rhs))
    for j in range(n):
        if not math.isfinite(upper[j]):
            rows.append(((j,), (1.0,), "<=", 9.0))
        if not math.isfinite(lower[j]):
            rows.append(((j,), (-1.0,), "<=", 9.0))
    return from_inequalities(c, rows, lower, upper, integer_set=())


def open_lp(rng: np.random.Generator, boxed: bool):
    """A seeded LP with 3-8 structurals and 2-5 rows.

    Unless `boxed`, some structurals are free or miss one bound, the first
    always, and each such column's cost points at a bound it lacks: a
    slack basis becomes dual feasible only by cost shifts.  Half the LPs
    get a row capping each missing bound; the others are often unbounded.
    Right-hand sides sit around the activity of a point inside the box, a
    few of them below it, so some of the LPs are infeasible.
    """
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 6))
    lower = rng.integers(-3, 1, size=n).astype(float)
    upper = lower + rng.integers(1, 5, size=n)
    c = rng.integers(-4, 5, size=n).astype(float)
    if not boxed:
        # 0 boxed, 1 no upper bound, 2 no lower bound, 3 free
        kind = rng.integers(0, 4, size=n)
        kind[0] = rng.integers(1, 4)
        upper[(kind == 1) | (kind == 3)] = np.inf
        lower[(kind == 2) | (kind == 3)] = -np.inf
        size = rng.integers(1, 5, size=n).astype(float)
        c = np.where(kind == 1, -size, c)
        c = np.where(kind == 2, size, c)
        c = np.where(kind == 3, size * rng.choice([-1.0, 1.0], size=n), c)
    point = np.where(np.isfinite(lower), lower, upper - 1.0)
    point = np.where(np.isfinite(point), point, 0.0) + rng.random(n)
    rows = []
    for _ in range(m):
        width = int(rng.integers(1, n + 1))
        cols = tuple(sorted(rng.choice(n, size=width, replace=False).tolist()))
        coefs = rng.integers(-4, 5, size=width)
        coefs[coefs == 0] = 1
        act = float(sum(a * point[j] for j, a in zip(cols, coefs)))
        rhs = math.floor(act) + float(rng.integers(-2, 5))
        rows.append((cols, tuple(float(a) for a in coefs), "<=", rhs))
    if rng.random() < 0.5:
        for j in range(n):
            if not math.isfinite(upper[j]):
                rows.append(((j,), (1.0,), "<=", 9.0))
            if not math.isfinite(lower[j]):
                rows.append(((j,), (-1.0,), "<=", 9.0))
    return from_inequalities(c, rows, lower, upper, integer_set=())


class TestAgainstHighs:
    """Differential check against scipy's HiGHS, cold and warm started."""

    @staticmethod
    def highs(inst, box):
        linprog = pytest.importorskip("scipy.optimize").linprog
        A, b = inst.dense()
        bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
                  for lo, hi in zip(box.lower, box.upper)]
        res = linprog(inst.c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        assert res.status in (0, 2, 3), res.message
        if res.status == 0:
            return LpStatus.OPTIMAL, res.fun
        return (LpStatus.INFEASIBLE if res.status == 2
                else LpStatus.UNBOUNDED), None

    def check(self, inst, box, warm=None):
        res = solve_lp(inst, box, warm_basis=warm)
        status, value = self.highs(inst, box)
        assert res.status is status
        if status is LpStatus.OPTIMAL:
            assert abs(res.objective - value) <= VALUE_TOL
        if res.basis_status is not None:
            assert res.basis_status.dtype == np.int8
            assert res.basis_status.shape == (inst.num_vars + inst.num_rows,)
            assert int(np.sum(res.basis_status == 0)) == inst.num_rows
        return res

    def test_cold_and_warm_children(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(86)
        seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
        n_warm = 0
        for _ in range(40):
            n = int(rng.integers(10, 41))
            inst = wide_lp(rng, n, int(rng.integers(n // 3, n)))
            box = inst.root_box()
            parent = self.check(inst, box)
            seen[parent.status] += 1
            if parent.status is not LpStatus.OPTIMAL:
                continue
            again = solve_lp(inst, box, warm_basis=parent.basis_status)
            assert again.iterations == 0
            assert abs(again.objective - parent.objective) <= VALUE_TOL
            # children after one bound change, as strong branching builds them
            for j in rng.choice(n, size=3, replace=False).tolist():
                for down in (True, False):
                    child = box.copy()
                    if down:
                        child.upper[j] = math.floor(parent.x[j] - 0.5)
                    else:
                        child.lower[j] = math.ceil(parent.x[j] + 0.5)
                    if child.is_empty():
                        continue
                    res = self.check(inst, child, warm=parent.basis_status)
                    seen[res.status] += 1
                    n_warm += 1
        assert min(seen.values()) >= 10 and n_warm >= 100


def negated(inst):
    """The same rows and bounds under the opposite objective."""
    return from_inequalities(-np.asarray(inst.c),
                             [(r.cols, r.coefs, "<=", r.rhs) for r in inst.rows],
                             inst.lower, inst.upper, integer_set=())


@pytest.fixture
def refactors(monkeypatch):
    """Counts inversions of the basis matrix after the start."""
    count = [0]
    original = _Simplex._refactor

    def counting(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(_Simplex, "_refactor", counting)
    return count


class TestKeptInverse:
    """The basis inverse kept across pivots: periodic and residual-driven
    refactorization, the singular warm start, and the cold retry of a warm
    solve that breaks down."""

    def test_long_lps_refactorize_and_agree(self, refactors):
        # cold from the slack basis, warm from the optimum of the opposite
        # objective: both need more pivots than one refactorization interval
        pytest.importorskip("scipy")
        check = TestAgainstHighs().check
        for seed in range(3):
            inst = wide_lp(np.random.default_rng(90 + seed), 60, 40)
            box = inst.root_box()
            far = solve_lp(negated(inst), box)
            assert far.status is LpStatus.OPTIMAL
            for warm in (None, far.basis_status):
                refactors[0] = 0
                res = check(inst, box, warm=warm)
                assert res.status is LpStatus.OPTIMAL
                assert res.iterations > REFACTOR_INTERVAL
                assert refactors[0] >= 1

    def test_corrupted_inverse_is_refactorized(self, refactors, monkeypatch):
        # every rank-1 update leaves a wrong inverse behind; the residual
        # check must notice before the next pivot uses it
        pytest.importorskip("scipy")
        check = TestAgainstHighs().check
        original = _Simplex._update
        corrupted = [0]

        def corrupting(self, pos, w):
            original(self, pos, w)
            self.Binv += 1e-3
            corrupted[0] += 1

        monkeypatch.setattr(_Simplex, "_update", corrupting)
        rng = np.random.default_rng(93)
        n_checked = 0
        for _ in range(10):
            inst = wide_lp(rng, 20, 12)
            box = inst.root_box()
            corrupted[0] = refactors[0] = 0
            cold = check(inst, box)
            assert refactors[0] >= corrupted[0]
            if cold.status is not LpStatus.OPTIMAL:
                continue
            child = box.copy()
            j = int(np.argmax(np.abs(cold.x)))
            child.upper[j] = math.floor(cold.x[j] - 0.5)
            if not child.is_empty():
                check(inst, child, warm=cold.basis_status)
            n_checked += corrupted[0] > 0
        assert n_checked >= 5

    @pytest.mark.parametrize("basic", [(2, 4), (0, 1)])
    def test_singular_warm_basis_starts_from_slacks(self, basic):
        # x2 is in no row, so its column is zero; x0 and x1 share theirs
        inst = from_inequalities([-1.0, -1.0, 1.0],
                                 [((0, 1), (1.0, 1.0), "<=", 3.0),
                                  ((0, 1), (2.0, 2.0), "<=", 5.0)],
                                 [0, 0, 0], [2, 2, 2], integer_set=())
        warm = np.full(inst.num_vars + inst.num_rows, AT_LOWER, dtype=np.int8)
        warm[list(basic)] = BASIC
        box = inst.root_box()
        # a workspace that keeps the inverse of a regular warm basis
        ws = LpWorkspace(inst)
        solve_lp(inst, box, warm_basis=solve_lp(inst, box).basis_status,
                 workspace=ws)
        kept_basis, kept = ws.basis, ws.Binv.copy()
        assert kept_basis is not None
        sx = _Simplex(ws, box, warm, cap=100, deadline=None)
        assert sx.basis == [3, 4]
        assert np.array_equal(sx.Binv, np.eye(2))
        # the singular basis keeps nothing: the workspace holds what it held
        assert ws.basis == kept_basis and np.array_equal(ws.Binv, kept)
        cold = solve_lp(inst, box)
        res = solve_lp(inst, box, warm_basis=warm)
        assert res.status is LpStatus.OPTIMAL
        assert (res.objective, res.iterations) == (cold.objective,
                                                   cold.iterations)
        assert abs(res.objective - (-2.5)) <= VALUE_TOL

    def test_breakdown_of_a_warm_solve_retries_cold(self, monkeypatch):
        inst = from_inequalities([-1.0, -2.0, -1.0],
                                 [((0, 1, 2), (2.0, 3.0, 1.0), "<=", 7.0),
                                  ((0, 1), (1.0, -1.0), "<=", 1.0)],
                                 [0, 0, 0], [3, 3, 3], integer_set=())
        box = inst.root_box()
        parent = solve_lp(inst, box)
        assert parent.status is LpStatus.OPTIMAL
        slack = list(range(inst.num_vars, inst.num_vars + inst.num_rows))
        original = _Simplex.run
        starts = []

        def breaking(self):
            # the first run of each solve breaks down after its start
            starts.append(list(self.basis))
            if len(starts) == 1:
                raise np.linalg.LinAlgError("breakdown")
            return original(self)

        def broken(self):
            starts.append(list(self.basis))
            raise np.linalg.LinAlgError("breakdown")

        # each solve alone, then all through one workspace, where the
        # second child's warm start takes the inverse the first one kept
        for ws in (None, LpWorkspace(inst)):
            # x1 >= 2 stays feasible, x1 >= 3 does not
            for lower, status in ((2.0, LpStatus.OPTIMAL),
                                  (3.0, LpStatus.INFEASIBLE)):
                child = box.copy()
                child.lower[1] = lower
                warm = solve_lp(inst, child, warm_basis=parent.basis_status)
                cold = solve_lp(inst, child)
                assert cold.status is status
                with monkeypatch.context() as patch:
                    patch.setattr(_Simplex, "run", breaking)
                    starts.clear()
                    res = solve_lp(inst, child,
                                   warm_basis=parent.basis_status,
                                   workspace=ws)
                assert starts[0] != slack and starts[1:] == [slack]
                assert (res.status, res.objective, res.iterations) == \
                    (cold.status, cold.objective, cold.iterations)
                if status is LpStatus.OPTIMAL:
                    # the answer is the cold solve's, not the warm one's
                    assert warm.iterations < cold.iterations
            if ws is not None:
                assert ws.basis == starts[0]

            # a cold solve has nothing to fall back to: the error
            # propagates to the caller, where the command line exits with
            # code 1
            with monkeypatch.context() as patch:
                patch.setattr(_Simplex, "run", broken)
                starts.clear()
                with pytest.raises(np.linalg.LinAlgError):
                    solve_lp(inst, box, workspace=ws)
                assert starts == [slack]
                starts.clear()
                with pytest.raises(np.linalg.LinAlgError):
                    solve_lp(inst, box, warm_basis=parent.basis_status,
                             workspace=ws)
                assert starts[0] != slack and starts[1:] == [slack]


class TestKeptNonbasicValues:
    """The nonbasic value vector is built once per LP and patched at each
    pivot and bound flip; it must equal a rebuild from the statuses."""

    def test_matches_a_rebuild_after_every_pivot(self, monkeypatch):
        pytest.importorskip("scipy")
        check = TestAgainstHighs().check
        original = _Simplex._pivot
        seen = {"pivots": 0, "flips": 0, "free": 0}

        def checked(self, j, leave_pos, leave_side, w):
            original(self, j, leave_pos, leave_side, w)
            status = list(self.status)
            rebuilt = [0.0 if st == BASIC else self._nb_start_value(k)
                       for k, st in enumerate(status)]
            # the rebuild normalises nothing any more: the first build did
            assert self.status == status
            assert self.xn.tolist() == rebuilt
            seen["pivots"] += 1
            seen["flips"] += leave_pos is None
            seen["free"] += sum(
                1 for k, st in enumerate(status) if st != BASIC and
                math.isinf(self.lo[k]) and math.isinf(self.hi[k]))

        monkeypatch.setattr(_Simplex, "_pivot", checked)
        rng = np.random.default_rng(87)
        n_odd_warm = 0
        for _ in range(30):
            n = int(rng.integers(10, 31))
            inst = wide_lp(rng, n, int(rng.integers(n // 3, n)))
            box = inst.root_box()
            parent = check(inst, box)
            if parent.status is not LpStatus.OPTIMAL:
                continue
            # a warm basis that puts every nonbasic column on an infinite
            # bound where it has one: AT_UPPER on +inf, AT_LOWER on -inf
            warm = parent.basis_status.copy()
            hi = np.concatenate([inst.upper, np.full(inst.num_rows, np.inf)])
            lo = np.concatenate([inst.lower, np.zeros(inst.num_rows)])
            nonbasic = warm != BASIC
            warm[nonbasic & np.isinf(hi)] = AT_UPPER
            warm[nonbasic & np.isinf(lo) & np.isfinite(hi)] = AT_LOWER
            n_odd_warm += int(np.sum(nonbasic & np.isinf(hi)))
            for j in rng.choice(n, size=2, replace=False).tolist():
                child = box.copy()
                child.upper[j] = math.floor(parent.x[j] - 0.5)
                if not child.is_empty():
                    check(inst, child, warm=warm)
        # bound flips in a pivot come from primal phase 2, which runs
        # after a cost shift
        for _ in range(150):
            inst = open_lp(rng, boxed=False)
            check(inst, inst.root_box())
        assert seen["pivots"] >= 500
        assert seen["flips"] >= 10
        assert seen["free"] >= 10
        assert n_odd_warm >= 10


class TestBasisIndexArray:
    """The basis is kept twice, as a list for the scalar loops and as an
    index array for numpy; after every pivot and inversion they agree."""

    def test_matches_the_basis_list(self, monkeypatch):
        seen = {"pivots": 0, "periodic": 0, "residual": 0, "warm": 0}
        original_pivot, original_refactor = _Simplex._pivot, _Simplex._refactor

        def agrees(sx):
            assert sx.basis_idx.dtype == np.intp
            assert sx.basis_idx.tolist() == sx.basis

        def pivot(self, j, leave_pos, leave_side, w):
            original_pivot(self, j, leave_pos, leave_side, w)
            agrees(self)
            seen["pivots"] += 1

        def refactor(self):
            periodic = self.updates >= REFACTOR_INTERVAL
            original_refactor(self)
            agrees(self)
            seen["periodic" if periodic else "residual"] += 1

        monkeypatch.setattr(_Simplex, "_pivot", pivot)
        monkeypatch.setattr(_Simplex, "_refactor", refactor)

        def parent_and_children(inst, rng):
            box = inst.root_box()
            parent = solve_lp(inst, box)
            if parent.status is not LpStatus.OPTIMAL:
                return
            for j in rng.choice(inst.num_vars, size=min(2, inst.num_vars),
                                replace=False).tolist():
                child = box.copy()
                child.upper[j] = math.floor(parent.x[j] - 0.5)
                if not child.is_empty():
                    solve_lp(inst, child, warm_basis=parent.basis_status)
                    seen["warm"] += 1

        rng = np.random.default_rng(61)
        for _ in range(40):
            parent_and_children(oracles.random_lp(rng), rng)
        for _ in range(10):
            n = int(rng.integers(10, 31))
            parent_and_children(wide_lp(rng, n, int(rng.integers(n // 3, n))),
                                rng)
        # past REFACTOR_INTERVAL: cold, then warm from the opposite optimum
        inst = wide_lp(np.random.default_rng(90), 60, 40)
        far = solve_lp(negated(inst), inst.root_box())
        for warm in (None, far.basis_status):
            assert solve_lp(inst, inst.root_box(), warm_basis=warm) \
                .iterations > REFACTOR_INTERVAL
        # a corrupted rank-1 update forces the residual-driven inversion
        original_update = _Simplex._update

        def corrupting(self, pos, w):
            original_update(self, pos, w)
            self.Binv += 1e-3

        monkeypatch.setattr(_Simplex, "_update", corrupting)
        for _ in range(3):
            parent_and_children(wide_lp(rng, 20, 12), rng)
        assert seen["pivots"] >= 300 and seen["warm"] >= 30
        assert seen["periodic"] >= 2 and seen["residual"] >= 5


class TestStrongBranchChildren:
    """Strong branching solves each child as an ordinary LP warm-started
    from the parent's basis."""

    def test_same_answers_as_independent_child_solves(self):
        rng = np.random.default_rng(88)
        n_rounds = n_children = 0
        for _ in range(25):
            n = int(rng.integers(10, 31))
            inst = wide_lp(rng, n, int(rng.integers(n // 3, n)))
            box = inst.root_box()
            parent = solve_lp(inst, box)
            if parent.status is not LpStatus.OPTIMAL:
                continue
            frac = [j for j in range(n)
                    if abs(parent.x[j] - round(parent.x[j])) > 1e-6]
            if not frac:
                continue
            independent = []
            for j in frac[:5]:
                out = [None, None]
                iters = 0
                for k, child in enumerate((box.copy(), box.copy())):
                    if k == 0:
                        child.upper[j] = float(math.floor(parent.x[j]))
                    else:
                        child.lower[j] = float(math.ceil(parent.x[j]))
                    if child.is_empty():
                        continue
                    res = solve_lp(inst, child,
                                   warm_basis=parent.basis_status)
                    iters += res.iterations
                    if res.status is LpStatus.OPTIMAL:
                        out[k] = res.objective
                independent.append((out[0], out[1], iters))
            probed = [strong_branch(inst, box, j, parent)
                      for j in frac[:5]]
            assert probed == independent
            n_rounds += 1
            n_children += 2 * len(probed)
        assert n_rounds >= 10 and n_children >= 50


class TestKeptChildren:
    """The workspace keeps the finished child LPs of a strong-branching
    round, hands the branched variable's two to the tree and drops the
    rest; `solve_lp` returns a kept result only for its exact box and
    start, before the deadline."""

    @staticmethod
    def round_(seed):
        """A wide LP, its optimal parent, two fractional columns and the
        workspace of a round that strong-branched both."""
        rng = np.random.default_rng(seed)
        while True:
            n = int(rng.integers(10, 25))
            inst = wide_lp(rng, n, int(rng.integers(n // 3, n)))
            box = inst.root_box()
            parent = solve_lp(inst, box)
            if parent.status is not LpStatus.OPTIMAL:
                continue
            frac = [j for j in range(n)
                    if abs(parent.x[j] - round(parent.x[j])) > 1e-6]
            if len(frac) < 2:
                continue
            ws = LpWorkspace(inst)
            for j in frac[:2]:
                strong_branch(inst, box, j, parent, workspace=ws)
            return inst, box, parent, frac[:2], ws

    @staticmethod
    def children(box, parent, j):
        down, up = box.copy(), box.copy()
        down.upper[j] = float(math.floor(parent.x[j]))
        up.lower[j] = float(math.ceil(parent.x[j]))
        return down, up

    def test_the_branched_variables_children_and_nothing_else(self):
        n_kept = 0
        for seed in range(10):
            inst, box, parent, (a, b), ws = self.round_(seed)
            assert set(ws.sb_children) == {a, b}
            kept = ws.take_children(a)
            assert ws.sb_children == {} and ws.take_children(b) == (None, None)
            for k, child in zip(kept, self.children(box, parent, a)):
                if k is None:
                    continue
                n_kept += 1
                assert k.start is parent.basis_status
                fresh = solve_lp(inst, child, warm_basis=parent.basis_status)
                TestLpWorkspace.assert_same(k.result, fresh)
                assert solve_lp(inst, child, warm_basis=parent.basis_status,
                                known=k) is k.result
        assert n_kept >= 15

    def test_exact_box_and_start_only(self):
        inst, box, parent, (a, _), ws = self.round_(3)
        kept, _ = ws.take_children(a)
        child, other = self.children(box, parent, a)
        assert solve_lp(inst, child, warm_basis=parent.basis_status,
                        known=kept) is kept.result
        # another start, though the box is the same: solved afresh
        cold = solve_lp(inst, child, known=kept)
        assert cold is not kept.result
        TestLpWorkspace.assert_same(cold, solve_lp(inst, child))
        # another box by one bound, or by the sign of a zero
        assert solve_lp(inst, other, warm_basis=parent.basis_status,
                        known=kept) is not kept.result
        zero = next(j for j in range(inst.num_vars) if child.lower[j] == 0.0)
        child.lower[zero] = -0.0
        assert not kept.answers(child, parent.basis_status)

    def test_no_kept_result_across_a_deadline(self):
        inst, box, parent, (a, _), ws = self.round_(5)
        kept, _ = ws.take_children(a)
        child, _ = self.children(box, parent, a)
        late = solve_lp(inst, child, warm_basis=parent.basis_status,
                        deadline=time.monotonic() - 1.0, known=kept)
        assert late.status is LpStatus.ITERATION_LIMIT
        assert late is not kept.result
        # children a deadline stopped are not kept at all
        strong_branch(inst, box, a, parent, deadline=time.monotonic() - 1.0,
                      workspace=ws)
        assert ws.take_children(a) == (None, None)


class TestLpWorkspace:
    """The LPs of one instance share a workspace: [A | I], the padded
    cost and the inverse of the last warm basis inverted.  Each must give
    the answer it gives alone, bit for bit."""

    @staticmethod
    def assert_same(shared, alone):
        assert (shared.status, shared.objective, shared.iterations) == \
            (alone.status, alone.objective, alone.iterations)
        for field in ("x", "reduced_costs", "basis_status"):
            a, b = getattr(shared, field), getattr(alone, field)
            assert (a is None and b is None) or np.array_equal(a, b), field

    def test_shared_solves_equal_independent_ones(self, monkeypatch):
        original = LpWorkspace.inverse
        seen = {"hits": 0, "misses": 0, "kept_checked": 0}
        shared = []

        def counting(self, basis):
            if self in shared:
                seen["hits" if basis == self.basis else "misses"] += 1
            return original(self, basis)

        monkeypatch.setattr(LpWorkspace, "inverse", counting)
        rng = np.random.default_rng(96)
        for k in range(60):
            if k % 2:
                inst = oracles.random_lp(rng)
            else:
                n = int(rng.integers(8, 25))
                inst = wide_lp(rng, n, int(rng.integers(n // 3, n)))
            ws = LpWorkspace(inst)
            shared[:] = [ws]

            def solve(box, warm=None):
                res = solve_lp(inst, box, warm_basis=warm, workspace=ws)
                self.assert_same(res, solve_lp(inst, box, warm_basis=warm))
                if warm is not None and res.iterations and ws.basis:
                    # the LP's pivots left the kept inverse as it was
                    assert np.array_equal(
                        ws.Binv, np.linalg.inv(ws.T[:, ws.basis]))
                    seen["kept_checked"] += 1
                return res

            box = inst.root_box()
            parent = solve(box)
            if parent.status is not LpStatus.OPTIMAL:
                continue
            n = inst.num_vars
            frac = [j for j in range(n)
                    if abs(parent.x[j] - round(parent.x[j])) > 1e-6]
            # the children of up to three columns, all from the parent's
            # basis: its first inversion, then hits
            children = []
            for j in (frac or rng.choice(n, size=1).tolist())[:3]:
                for down in (True, False):
                    child = box.copy()
                    if down:
                        child.upper[j] = math.floor(parent.x[j] - 1e-6)
                    else:
                        child.lower[j] = math.ceil(parent.x[j] + 1e-6)
                    if not child.is_empty():
                        children.append(
                            (child, solve(child, parent.basis_status)))
            # two grandchildren from each optimal child's basis: a miss,
            # then a hit; then a child from the parent's basis again
            for child, res in children:
                if res.status is not LpStatus.OPTIMAL:
                    continue
                j = int(rng.integers(n))
                for down in (True, False):
                    grand = child.copy()
                    if down:
                        grand.upper[j] = math.floor(res.x[j] - 0.5)
                    else:
                        grand.lower[j] = math.ceil(res.x[j] + 0.5)
                    if not grand.is_empty():
                        solve(grand, res.basis_status)
            if children:
                solve(children[0][0], parent.basis_status)
        assert seen["hits"] >= 100 and seen["misses"] >= 100
        assert seen["kept_checked"] >= 100


@pytest.fixture
def dual_phase(monkeypatch):
    """Counts the dual phases the simplex runs, the pivots in them, those
    that run under a shifted cost and the primal phases that run after
    one."""
    seen = {"runs": 0, "pivots": 0, "shifted": 0, "handed_on": 0}
    original = _Simplex._dual
    original_primal = _Simplex._primal

    def counting(self, x, red, cost):
        seen["runs"] += 1
        seen["shifted"] += cost is not self.cost
        start = self.iterations
        try:
            return original(self, x, red, cost)
        finally:
            seen["pivots"] += self.iterations - start

    def primal(self):
        seen["handed_on"] += 1
        return original_primal(self)

    monkeypatch.setattr(_Simplex, "_dual", counting)
    monkeypatch.setattr(_Simplex, "_primal", primal)
    return seen


def warm_children(inst, parent):
    """The children of every structural after one bound change each, as
    branching builds them: x_j <= ceil(x_j) - 1 and x_j >= floor(x_j) + 1."""
    box = inst.root_box()
    for j in range(inst.num_vars):
        for down in (True, False):
            child = box.copy()
            if down:
                child.upper[j] = math.ceil(parent.x[j]) - 1.0
            else:
                child.lower[j] = math.floor(parent.x[j]) + 1.0
            if not child.is_empty():
                yield child


class TestDualPhase:
    """The bounded dual simplex that reoptimizes from a dual feasible
    basis, against HiGHS and the vertex oracle."""

    def test_warm_children_agree(self, dual_phase):
        pytest.importorskip("scipy")
        highs = TestAgainstHighs.highs
        rng = np.random.default_rng(95)
        seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
        for k in range(60):
            inst = oracles.random_lp(rng)
            parent = solve_lp(inst, inst.root_box())
            if parent.status is not LpStatus.OPTIMAL:
                continue
            for child in warm_children(inst, parent):
                runs = dual_phase["runs"]
                res = solve_lp(inst, child, warm_basis=parent.basis_status)
                # the parent's optimal basis is dual feasible in the child
                assert dual_phase["runs"] == runs + 1, f"case {k}"
                status, value = highs(inst, child)
                vstatus, vvalue, _ = oracles.lp_vertex_optimum(
                    inst, child.lower, child.upper)
                assert res.status is status, f"case {k}"
                assert (vstatus == "optimal") == (status is LpStatus.OPTIMAL)
                if status is LpStatus.OPTIMAL:
                    assert abs(res.objective - value) <= VALUE_TOL
                    assert abs(res.objective - vvalue) <= VALUE_TOL
                seen[res.status] += 1
        assert seen[LpStatus.INFEASIBLE] >= 10
        assert seen[LpStatus.OPTIMAL] >= 100
        assert dual_phase["pivots"] >= 50
        # each ratio test kept the reduced costs' signs, so the dual phase
        # proved every verdict itself
        assert dual_phase["handed_on"] == 0

    def test_dual_infeasible_start_flips_into_the_dual_phase(
            self, dual_phase, monkeypatch):
        # negative costs on boxed columns that start at their lower bounds:
        # the slack basis is dual feasible once each of those columns has
        # flipped to its upper bound, and the dual phase proves every
        # verdict itself
        pytest.importorskip("scipy")
        highs = TestAgainstHighs.highs
        flips = []
        original = _Simplex._dual_start

        def recording(self, red):
            before = list(self.status)
            cost = original(self, red)
            assert cost is self.cost    # every column is boxed: no shift
            flips.append([j for j, st in enumerate(self.status)
                          if st != before[j]])
            return cost

        monkeypatch.setattr(_Simplex, "_dual_start", recording)
        rng = np.random.default_rng(96)
        n_checked = 0
        for k in range(40):
            inst = oracles.random_lp(rng)
            if not np.any(inst.c < 0):
                continue
            flips.clear()
            runs = dual_phase["runs"]
            res = solve_lp(inst, inst.root_box())
            assert flips == [np.flatnonzero(inst.c < 0).tolist()], f"case {k}"
            assert dual_phase["runs"] == runs + 1, f"case {k}"
            status, value = highs(inst, inst.root_box())
            vstatus, vvalue, _ = oracles.lp_vertex_optimum(inst)
            assert res.status is status, f"case {k}"
            assert (vstatus == "optimal") == (status is LpStatus.OPTIMAL)
            if status is LpStatus.OPTIMAL:
                assert abs(res.objective - value) <= VALUE_TOL
                assert abs(res.objective - vvalue) <= VALUE_TOL
            n_checked += 1
        assert dual_phase["handed_on"] == dual_phase["shifted"] == 0
        assert n_checked >= 20

    def test_dual_infeasible_end_goes_on_in_primal_phase_2(
            self, dual_phase, monkeypatch):
        # as if tolerances had passed a start as dual feasible: the step
        # that makes it dual feasible does nothing, so the dual phase runs
        # from slack bases whose negative costs price out.  Its
        # infeasibility proofs hold whatever the costs; a basis it makes
        # primal feasible must go on to primal phase 2, not be called
        # optimal
        pytest.importorskip("scipy")
        highs = TestAgainstHighs.highs
        monkeypatch.setattr(_Simplex, "_dual_start",
                            lambda self, red: self.cost)
        rng = np.random.default_rng(99)
        n_checked = 0
        for k in range(40):
            inst = oracles.random_lp(rng)
            if not np.any(inst.c < 0):
                continue
            res = solve_lp(inst, inst.root_box())
            status, value = highs(inst, inst.root_box())
            assert res.status is status, f"case {k}"
            if status is LpStatus.OPTIMAL:
                assert abs(res.objective - value) <= VALUE_TOL, f"case {k}"
            n_checked += 1
        assert dual_phase["runs"] == n_checked >= 20
        assert dual_phase["handed_on"] >= 20

    def test_cost_shifts_end_in_primal_phase_2(self, dual_phase):
        # a cold start's reduced costs are the costs, so every column whose
        # cost points at a bound it lacks is shifted: the dual phase runs
        # under the shifted cost, and an LP it does not prove infeasible
        # ends in primal phase 2 under the true cost.  Boxed LPs only flip
        # and never reach primal phase 2
        pytest.importorskip("scipy")
        highs = TestAgainstHighs.highs
        rng = np.random.default_rng(100)
        seen = {(status, boxed): 0 for status in LpStatus for boxed in
                (False, True)}
        for k in range(200):
            boxed = k % 4 == 0
            inst = open_lp(rng, boxed)
            before = dict(dual_phase)
            res = solve_lp(inst, inst.root_box())
            status, value = highs(inst, inst.root_box())
            assert res.status is status, f"case {k}"
            if status is LpStatus.OPTIMAL:
                assert abs(res.objective - value) <= VALUE_TOL, f"case {k}"
            assert dual_phase["runs"] == before["runs"] + 1
            shifted = dual_phase["shifted"] - before["shifted"]
            primal = dual_phase["handed_on"] - before["handed_on"]
            assert shifted == (not boxed), f"case {k}"
            assert primal == (not boxed and
                              status is not LpStatus.INFEASIBLE), f"case {k}"
            seen[res.status, boxed] += 1
        for status in (LpStatus.OPTIMAL, LpStatus.UNBOUNDED,
                       LpStatus.INFEASIBLE):
            assert seen[status, False] >= 10
        assert seen[LpStatus.OPTIMAL, True] >= 10

    def test_limits_stop_a_warm_child_before_its_first_dual_pivot(
            self, dual_phase, monkeypatch):
        rng = np.random.default_rng(97)
        stopped = {"deadline": 0, "cap": 0}
        for k in range(60):
            inst = oracles.random_lp(rng)
            parent = solve_lp(inst, inst.root_box())
            if parent.status is not LpStatus.OPTIMAL:
                continue
            for child in warm_children(inst, parent):
                free = solve_lp(inst, child, warm_basis=parent.basis_status)
                if free.iterations == 0:
                    continue    # no dual pivot to stop before
                runs = dual_phase["runs"]
                late = solve_lp(inst, child, warm_basis=parent.basis_status,
                                deadline=time.monotonic() - 1.0)
                monkeypatch.setattr("rapidbnb.lp.default_iteration_cap",
                                    lambda n, m: 0)
                capped = solve_lp(inst, child,
                                  warm_basis=parent.basis_status)
                monkeypatch.setattr("rapidbnb.lp.default_iteration_cap",
                                    default_iteration_cap)
                for why, res in (("deadline", late), ("cap", capped)):
                    assert res.status is LpStatus.ITERATION_LIMIT, f"case {k}"
                    assert res.iterations == 0
                    stopped[why] += 1
                assert dual_phase["runs"] == runs + 2
        assert min(stopped.values()) >= 10

    def test_bland_rule_ends_degenerate_clause_lps(self, dual_phase,
                                                   monkeypatch):
        # zero costs make every slack basis dual feasible and every dual
        # pivot degenerate; Bland's rule from the first non-improving
        # pivot must still end the phase, with the vertex oracle's verdict
        original = _Simplex.__init__
        bland_pivots = [0]

        def eager(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self.bland_after = 1

        monkeypatch.setattr(_Simplex, "__init__", eager)
        original_pivot = _Simplex._pivot

        def counting(self, *args):
            bland_pivots[0] += self.bland
            return original_pivot(self, *args)

        monkeypatch.setattr(_Simplex, "_pivot", counting)
        rng = np.random.default_rng(98)
        seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
        for k in range(60):
            inst = oracles.random_sat_instance(rng, n=4, m=8)
            box = inst.root_box()
            # fix a random subset of the variables, as a node's box does
            for j in rng.choice(4, size=int(rng.integers(1, 4)),
                                replace=False).tolist():
                box.lower[j] = box.upper[j] = float(rng.integers(0, 2))
            res = solve_lp(inst, box)
            status, value, _ = oracles.lp_vertex_optimum(inst, box.lower,
                                                         box.upper)
            assert res.status is (LpStatus.OPTIMAL if status == "optimal"
                                  else LpStatus.INFEASIBLE), f"case {k}"
            if status == "optimal":
                assert abs(res.objective - value) <= VALUE_TOL
            seen[res.status] += 1
        assert dual_phase["runs"] == 60
        assert min(seen.values()) >= 10
        assert bland_pivots[0] >= 15
