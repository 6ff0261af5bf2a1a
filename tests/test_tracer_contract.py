"""The benchmark tracer against the solver it wraps.

`perfbench/tracer.py` finds solver functions by name with `getattr`, so
a renamed or re-homed function would break only the traced benchmark.
One traced solve here checks that every wrapped name still exists, that
the traced counts add up to what the solver reports itself, and that
leaving the tracer puts every original function back.
"""

import sys
from pathlib import Path

import numpy as np

import rapidbnb
from rapidbnb import MipConfig

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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

    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
