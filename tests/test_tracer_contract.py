"""The benchmark tracer against the solver it wraps.

`perfbench/tracer.py` finds solver functions by name with `getattr`, so
a renamed or re-homed function would break only the traced benchmark.
One traced solve here checks that every wrapped name still exists, that
the traced counts add up to what the solver reports itself, and that
leaving the tracer puts every original function back.  The benchmark's
`solve_cpu_sgm_s` comes from `rapidbnb.bench`, so a change there that
breaks the metric fails here too.
"""

import sys
from pathlib import Path

import numpy as np

import rapidbnb
from rapidbnb import MipConfig, RapidConfig, from_inequalities
from rapidbnb.bench import shifted_geomean

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
from run import end_to_end  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_traced_counts_match_the_solver():
    inst = oracles.random_sat_instance(np.random.default_rng(7), n=14, m=59)
    tracer = Tracer(rapidbnb)
    with tracer.installed():
        patched = list(tracer._patches)     # (owner, name, original)
        res = tracer.solve(inst, MipConfig(rapid_mode="local"))
    counts = tracer.last_counts

    assert counts["lp.node_iters"] + counts["lp.sb_iters"] == res.stats.iter_lp
    rl_events = [line.split() for line in res.events if line.startswith("rl ")]
    cp_nodes = [int(tok[tok.index("cpnodes") + 1]) for tok in rl_events]
    assert cp_nodes, "the probe must run for its count to be checked"
    assert counts["cp.nodes"] == sum(cp_nodes)
    assert counts["prop.row_evals"] > 0
    # the probe settles this model at the root, where every call of the
    # probe hook passes the depth schedule and writes one `criteria` line
    assert res.nodes == 1
    assert counts["rapid.evals"] == \
        sum(line.startswith("criteria ") for line in res.events)

    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_probe_event_lines_match_the_traced_counts():
    # general-integer models whose probes below the root keep conflicts
    config = MipConfig(rapid_mode="local", rapid=RapidConfig(
        criteria=frozenset(rapidbnb.rapid.CRITERION_NAMES)))
    total_kept = 0
    for seed in (33, 57, 58):
        m = gen.general_int_model(np.random.default_rng(seed), "g", 10, 6)
        inst = from_inequalities(m.c, m.rows, m.lower, m.upper, range(10))
        tracer = Tracer(rapidbnb)
        with tracer.installed():
            res = tracer.solve(inst, config)
        counts = tracer.last_counts

        # one `rl` line per probe run, one `lconstr` line per conflict an
        # `rl` line reports as kept; below the root the hook is also
        # called at depths off the schedule, which write no `criteria` line
        lines = [line.split() for line in res.events]
        assert counts["rapid.fires"] == sum(tok[0] == "rl" for tok in lines)
        assert counts["rapid.evals"] > \
            sum(tok[0] == "criteria" for tok in lines)
        kept = sum(int(tok[tok.index("conflicts") + 1])
                   for tok in lines if tok[0] == "rl")
        assert kept == counts["rapid.transferred"] == \
            sum(tok[0] == "lconstr" for tok in lines)
        total_kept += kept
    assert total_kept > 0


def test_strong_branching_lps_match_the_solver(monkeypatch):
    # `lp.sb_lps` counts the `rapidbnb.lp.solve_lp` calls made inside
    # `strong_branch`; second wrappers, installed below the tracer's,
    # count the calls made while `mipsearch.strong_branch` is on the stack,
    # and the node LPs that return a strong-branching child's result: a
    # node LP taken from strong branching must still be a `solve_lp` call
    # the tracer sees, its iterations counted once as a node LP's
    m = gen.knapsack_model(np.random.default_rng(5), "knapsack", 14, 3)
    inst = from_inequalities(m.c, m.rows, m.lower, m.upper, range(14))
    solve_lp = rapidbnb.lp.solve_lp
    node_lp = rapidbnb.mipsearch.solve_lp
    strong_branch = rapidbnb.mipsearch.strong_branch
    depth = child_lps = reused = 0
    children = {}

    def branching(*args, **kwargs):
        nonlocal depth
        depth += 1
        try:
            return strong_branch(*args, **kwargs)
        finally:
            depth -= 1

    def counted(*args, **kwargs):
        nonlocal child_lps
        child_lps += depth > 0
        res = solve_lp(*args, **kwargs)
        if depth > 0:
            children[id(res)] = res
        return res

    def node(*args, **kwargs):
        nonlocal reused
        res = node_lp(*args, **kwargs)
        reused += children.get(id(res)) is res
        return res

    monkeypatch.setattr(rapidbnb.mipsearch, "strong_branch", branching)
    monkeypatch.setattr(rapidbnb.lp, "solve_lp", counted)
    monkeypatch.setattr(rapidbnb.mipsearch, "solve_lp", node)
    tracer = Tracer(rapidbnb)
    with tracer.installed():
        res = tracer.solve(inst, MipConfig(rapid_mode="off"))
    counts = tracer.last_counts

    assert res.stats.sb_no_improvement + res.stats.sb_objective_changed > 0
    assert counts["lp.sb_lps"] > 0
    assert counts["lp.sb_lps"] == child_lps
    assert reused > 0
    assert counts["lp.node_iters"] + counts["lp.sb_iters"] == res.stats.iter_lp


def test_end_to_end_cpu_geomean_uses_the_shared_helper():
    # three passes over three instances; each instance's CPU time is the
    # median over passes, scaled by the speed factor
    rounds = [[{"cpu": 0.2}, {"cpu": 1.5}, {"cpu": 0.03}],
              [{"cpu": 0.4}, {"cpu": 1.1}, {"cpu": 0.05}],
              [{"cpu": 0.3}, {"cpu": 1.3}, {"cpu": 0.04}]]
    metrics = end_to_end({"rounds": rounds, "speed_factor": 2.0,
                          "setup_s": [0.5, 0.7, 0.6], "peak_rss_mib": 40.0})
    per_instance = [2.0 * 0.3, 2.0 * 1.3, 2.0 * 0.04]
    assert metrics["solve_cpu_sgm_s"] == \
        (shifted_geomean(per_instance, 1.0), "s")
    assert metrics["solve_cpu_total_s"] == (sum(per_instance), "s")
    assert metrics["setup_s"] == (0.6, "s")
    assert metrics["peak_rss_mib"] == (40.0, "MiB")
