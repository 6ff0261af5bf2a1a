"""The oracles against their plainest form."""

import numpy as np

import oracles


def test_feasible_points_match_a_filter_of_the_whole_grid():
    # feasible_points prunes row by row while it builds the grid; the
    # reference filters the whole grid through the dense row system
    rng = np.random.default_rng(90)
    n_points = 0
    for k in range(200):
        inst = oracles.random_instance(rng, allow_zero_objective=True) \
            if k % 4 else oracles.random_sat_instance(rng, n=9, m=30)
        lower = inst.lower + (rng.random(inst.num_vars) < 0.3)
        for lo in (inst.lower, np.minimum(lower, inst.upper)):
            grid = oracles.integer_grid(lo, inst.upper)
            a, b = oracles.row_system(inst)
            want = grid[np.all(grid @ a.T <= b + oracles.FEAS_TOL, axis=1)]
            got = oracles.feasible_points(inst, lo, inst.upper)
            assert np.array_equal(got, want), k
            n_points += len(got)
    assert n_points > 1000
