"""Pinned event logs: refactors that must not change the search.

Six small models from `perfbench/gen.py` are solved under every probe
mode, and each solve's node count, LP iterations and the SHA-256 of its
event log must equal the values pinned below.  A change that should
leave the search as it is (a faster propagator, kept node state, a
shared basis inverse) is then checked on every test run, not only by the
benchmark's fingerprints.  A change that alters the search on purpose
updates the table and says so in the change log.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from rapidbnb import MipConfig, RapidConfig, from_inequalities, solve
from rapidbnb.rapid import CRITERION_NAMES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

MODES = {
    "off": MipConfig(rapid_mode="off", seed=1),
    "root": MipConfig(rapid_mode="root", seed=1),
    "local": MipConfig(rapid_mode="local", seed=1,
                       rapid=RapidConfig(criteria=frozenset(CRITERION_NAMES))),
}

# (model, mode): (nodes, LP iterations, SHA-256 of the event log)
PINNED = {
    ("clause", "off"):
        (53, 586, "329a63931fc876ef36ad2d2586b785d9"
         "9eb6bb7c4e9c2ed15d907aff1d1a2e30"),
    ("clause", "root"):
        (1, 25, "295e5f4687adedd4b830e0747e7bd38a"
         "285caf0d7472fb130941ed3e754df6c9"),
    ("clause", "local"):
        (1, 25, "16a9e98395394571550811142b905c4f"
         "5416a2ead55f0a4df16241df5338927d"),
    ("knapsack", "off"):
        (116, 434, "6a47870a149c8dd437331548c46a7246"
         "8e040510c8bfd9341d045d9dd0196111"),
    ("knapsack", "root"):
        (116, 434, "cb1af636d4c84c2c4e918ad144638f92"
         "e6a7fe8388fa7275495ab501d0b4bb18"),
    ("knapsack", "local"):
        (99, 387, "2ed7844c4cbcc1ccd713dfe8a7158b54"
         "eb9ca0aa4a8c31e0849951b41bac59d5"),
    ("cover", "off"):
        (3, 181, "c47957dad56dfb1c17a287f5d89ade7a"
         "76eea113be554799f361ae5456140e89"),
    ("cover", "root"):
        (3, 181, "f8a5f2cdf33df00eaf63b673608ee3c2"
         "88dd05fefee41df800b05622e0c2d470"),
    ("cover", "local"):
        (4, 181, "9b1339b15962bb50d9b85bb1cdbe614d"
         "dddf4a33e85767177be7b7c6e8e072c9"),
    ("general_int0", "off"):
        (56, 167, "d4438ded6b20917f238c0b239f5c4973"
         "dfcc607bbef47c9797a37f36de5df6fd"),
    ("general_int0", "root"):
        (56, 167, "103847109d44646bdba1fe1ec51eeec6"
         "2c0fb61fd6ff17960e8c14fc82d826f4"),
    ("general_int0", "local"):
        (49, 137, "40aa84b1cef8b8fdcae8a4759e978c48"
         "b8ce7b5fca1bcadf99cca51b22e4c4ec"),
    ("general_int1", "off"):
        (22, 95, "7b18766a3a2968097af14b521e306bcb"
         "0cd982d8f9358dea73832528bd0c4cee"),
    ("general_int1", "root"):
        (22, 95, "5a9224b2f55be82d4c4982e13b03778c"
         "f21842e0e0d1b9dc7a21f2e61d454495"),
    ("general_int1", "local"):
        (35, 114, "8e290a8c65182fb554386c2e15584585"
         "3de48a40b7549b3c62a6a69d08525654"),
    ("general_int2", "off"):
        (22, 86, "caef2d4181c00ca2ed09cf618b100688"
         "9ca18c523d6151faf508832ebb38f62e"),
    ("general_int2", "root"):
        (22, 86, "54552ee793f42fac4fe49b2bc9b51eb7"
         "adee1f0850b8218fb6a2f5aeecd92901"),
    ("general_int2", "local"):
        (17, 85, "c5ceefd856757f978b40f97a5e4b3a82"
         "6cb4c52e14e1cc730ea447447320896b"),
}


def corpus() -> list[gen.Model]:
    rng = np.random.default_rng(2)
    return [gen.clause_model(rng, "clause", 20),
            gen.knapsack_model(rng, "knapsack", 14, 3),
            gen.cover_model(rng, "cover", 30, 36),
            gen.general_int_model(rng, "general_int0", 10, 6),
            gen.general_int_model(rng, "general_int1", 10, 6),
            gen.general_int_model(rng, "general_int2", 10, 6)]


@pytest.mark.parametrize("model", corpus(), ids=lambda m: m.name)
def test_event_logs_match_the_pinned_hashes(model):
    inst = from_inequalities(model.c, model.rows, model.lower, model.upper,
                             range(len(model.c)), name=model.name)
    for mode, config in MODES.items():
        res = solve(inst, config)
        digest = hashlib.sha256("\n".join(res.events).encode()).hexdigest()
        assert (res.nodes, res.stats.iter_lp, digest) == \
            PINNED[model.name, mode], mode
