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

ALL_SIX = RapidConfig(criteria=frozenset(CRITERION_NAMES))
# "root" and "local-default" use the default criterion, "root-all" and
# "local" all six
MODES = {
    "off": MipConfig(rapid_mode="off", seed=1),
    "root": MipConfig(rapid_mode="root", seed=1),
    "local": MipConfig(rapid_mode="local", seed=1, rapid=ALL_SIX),
    "root-all": MipConfig(rapid_mode="root", seed=1, rapid=ALL_SIX),
    "local-default": MipConfig(rapid_mode="local", seed=1),
}

# (model, mode): (nodes, LP iterations, SHA-256 of the event log)
PINNED = {
    ("clause", "off"):
        (45, 443, "fb095f74191068093eecea9846b3be8e"
         "7efe94945492f5fc8f46f88ea5ec8235"),
    ("clause", "root"):
        (1, 15, "295e5f4687adedd4b830e0747e7bd38a"
         "285caf0d7472fb130941ed3e754df6c9"),
    ("clause", "local"):
        (1, 15, "a13fec21dea04902eb39cb03a40db5bd"
         "2099df4e9384312b4413180b0af601b5"),
    ("clause", "root-all"):
        (1, 15, "a13fec21dea04902eb39cb03a40db5bd"
         "2099df4e9384312b4413180b0af601b5"),
    ("clause", "local-default"):
        (1, 15, "295e5f4687adedd4b830e0747e7bd38a"
         "285caf0d7472fb130941ed3e754df6c9"),
    ("knapsack", "off"):
        (116, 263, "b8304806e6c0be5a8539776a6f63c787"
         "2afc4f5f201c69372e7d9068059c6c8a"),
    ("knapsack", "root"):
        (116, 263, "0a762ac1116e9d98e63fd14517811cc2"
         "a75c00723038993aa416d6fe4adafac9"),
    ("knapsack", "local"):
        (111, 255, "9cc27f164fdfd216cc0914abc1fb51b0"
         "3b026df9b62eb17a80538345fcb70eac"),
    ("knapsack", "root-all"):
        (116, 263, "0a762ac1116e9d98e63fd14517811cc2"
         "a75c00723038993aa416d6fe4adafac9"),
    ("knapsack", "local-default"):
        (116, 263, "bd8d493d7355a6df8c3af8a10e35a3be"
         "a3c7a9e90458069b9c247c07ed9e38fd"),
    ("cover", "off"):
        (6, 151, "db200cb29270794ccbaf9417311f6a07"
         "92e6e27110648642d9eb483813ad85bf"),
    ("cover", "root"):
        (6, 151, "4fcf41ae8be26118cd6343895618e98d"
         "df67eb8e3652f83f9bc8bac36967548a"),
    ("cover", "local"):
        (6, 151, "4fcf41ae8be26118cd6343895618e98d"
         "df67eb8e3652f83f9bc8bac36967548a"),
    ("cover", "root-all"):
        (6, 151, "4fcf41ae8be26118cd6343895618e98d"
         "df67eb8e3652f83f9bc8bac36967548a"),
    ("cover", "local-default"):
        (6, 151, "4fcf41ae8be26118cd6343895618e98d"
         "df67eb8e3652f83f9bc8bac36967548a"),
    ("general_int0", "off"):
        (56, 99, "d4438ded6b20917f238c0b239f5c4973"
         "dfcc607bbef47c9797a37f36de5df6fd"),
    ("general_int0", "root"):
        (56, 99, "103847109d44646bdba1fe1ec51eeec6"
         "2c0fb61fd6ff17960e8c14fc82d826f4"),
    ("general_int0", "local"):
        (33, 74, "33b381fe0b59071e6c9c448526dba8a2"
         "f6852d9ed73837f4d1c95bd23a0a156a"),
    ("general_int0", "root-all"):
        (56, 99, "103847109d44646bdba1fe1ec51eeec6"
         "2c0fb61fd6ff17960e8c14fc82d826f4"),
    ("general_int0", "local-default"):
        (56, 99, "609eb10ca5feaa9ea4aa405aebd03df5"
         "9533a824b9467d306b25295a3249479a"),
    ("general_int1", "off"):
        (22, 51, "7b18766a3a2968097af14b521e306bcb"
         "0cd982d8f9358dea73832528bd0c4cee"),
    ("general_int1", "root"):
        (22, 51, "5a9224b2f55be82d4c4982e13b03778c"
         "f21842e0e0d1b9dc7a21f2e61d454495"),
    ("general_int1", "local"):
        (22, 51, "facfb17f9048aa0f43b685d108d41188"
         "488d69913e54f7f5449f29d63f7c94a1"),
    ("general_int1", "root-all"):
        (22, 51, "5a9224b2f55be82d4c4982e13b03778c"
         "f21842e0e0d1b9dc7a21f2e61d454495"),
    ("general_int1", "local-default"):
        (22, 51, "ddfc0b94522c06c2cbdbb9e7ee145fde"
         "f996d8e951e5d83e157e9abd91aa3ea7"),
    ("general_int2", "off"):
        (22, 41, "caef2d4181c00ca2ed09cf618b100688"
         "9ca18c523d6151faf508832ebb38f62e"),
    ("general_int2", "root"):
        (22, 41, "54552ee793f42fac4fe49b2bc9b51eb7"
         "adee1f0850b8218fb6a2f5aeecd92901"),
    ("general_int2", "local"):
        (22, 41, "9669ea00a0c46d0f3afb27758ee37261"
         "9543676a46e6cbf7d8fd77f656bec6c4"),
    ("general_int2", "root-all"):
        (22, 41, "54552ee793f42fac4fe49b2bc9b51eb7"
         "adee1f0850b8218fb6a2f5aeecd92901"),
    ("general_int2", "local-default"):
        (22, 41, "9669ea00a0c46d0f3afb27758ee37261"
         "9543676a46e6cbf7d8fd77f656bec6c4"),
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
