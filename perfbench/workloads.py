"""The benchmark's workloads: which models, how many, and how to solve them.

Every workload draws its base models once from a fixed stream, so each
run solves the same problems.  The run's seed shuffles the rows of every
model, which changes the solver's path (simplex pivots, the order of
deductions, the conflicts learned) but not the answers.  A fresh draw of
models per seed would make the run-to-run spread measure the luck of
the draw: with the few dozen solves that fit in a run, it moved the
solve time by 10-20% between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import gen

BASE_SEED = 20190207
ALL_CRITERIA = ("dualbound", "leaves", "degeneracy", "obj", "nsols", "sblps")


@dataclass(frozen=True)
class Workload:
    name: str
    # the workload's own random stream: fixed, so that adding or
    # reordering workloads leaves every other workload's models as they are
    stream: int
    # (generator name, model count, generator keyword arguments)
    families: tuple[tuple[str, int, tuple[tuple[str, int], ...]], ...]
    rapid_mode: str
    criteria: tuple[str, ...] | None   # None: the solver's default criterion
    shuffle: bool = True                # False: the seed changes nothing


WORKLOADS = {
    w.name: w for w in (
        Workload("clause-local", 0,
                 (("clause", 48, (("n", 30),)),),
                 "local", None),
        Workload("lp-off", 1,
                 (("knapsack", 48, (("n", 12), ("m", 3))),
                  ("cover", 12, (("n", 20), ("m", 30)))),
                 "off", None),
        Workload("int-local", 2,
                 (("general_int", 28, (("n", 10), ("m", 6))),),
                 "local", ALL_CRITERIA,
                 # the probe returns wrong optima on some row orders of
                 # these models (see README), so a seeded shuffle would
                 # make the failure count depend on the seed
                 shuffle=False),
    )
}

_GENERATORS = {
    "clause": gen.clause_model,
    "knapsack": gen.knapsack_model,
    "cover": gen.cover_model,
    "general_int": gen.general_int_model,
}


def models(name: str, seed: int) -> list[gen.Model]:
    """The workload's base models, their rows shuffled by `seed`."""
    w = WORKLOADS[name]
    base_rng = np.random.default_rng([BASE_SEED, w.stream])
    row_rng = np.random.default_rng([seed, w.stream])
    out = []
    for family, count, kwargs in w.families:
        make = _GENERATORS[family]
        for k in range(count):
            base = make(base_rng, f"{family}{k:02d}", **dict(kwargs))
            out.append(gen.shuffled_rows(base, row_rng) if w.shuffle else base)
    return out
