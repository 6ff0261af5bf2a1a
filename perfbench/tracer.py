"""Per-layer tracing from outside the solver.

`Tracer.install` replaces functions at the names their callers look up
(for example `rapidbnb.mipsearch.solve_lp`, which is what the tree
search calls) with wrappers that open a span, call through and count
what the result reports.  Nothing in the solver's source changes, and
`uninstall` puts every original back.

Spans are kept in memory as (layer, name, start, end, parent) and
written out at the end.  A layer's self time is the time its spans
cover minus the time covered by their direct child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# deterministic counts: equal for equal (instance, configuration)
COUNT_KEYS = (
    "lp.node_calls", "lp.node_iters", "lp.sb_calls", "lp.sb_iters",
    "lp.sb_lps", "prop.fixpoint_calls", "prop.row_evals", "prop.deductions",
    "prop.evals_deducing", "cp.calls", "cp.nodes", "cp.decided",
    "conflict.analyses", "conflict.learned_global", "conflict.discarded",
    "rapid.evals", "rapid.fires", "rapid.transferred", "rapid.bounds",
    "rapid.solutions", "mip.nodes", "mip.leaves_infeasible",
    "mip.leaves_cutoff",
)


class Tracer:
    def __init__(self, rb) -> None:
        self.rb = rb                  # the imported rapidbnb package
        self.spans: list[list] = []   # [layer, name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.last_counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, layer: str | None, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if layer is None:   # inherit the caller's layer
            layer = self.spans[parent][0] if parent >= 0 else name
        idx = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        idx = self._open(layer, name)
        try:
            yield
        finally:
            self._close(idx)

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    # -- wrapping ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str | None, count=None) -> None:
        fn = getattr(owner, attr)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(layer, attr)
            try:
                res = fn(*args, **kwargs)
            finally:
                close(idx)
            if count is not None:
                count(res)
            return res

        self._patch(owner, attr, traced)

    def count_evals(self, owner, attr: str) -> None:
        """Count calls and useful results only: these run too often for
        a span each, and their time is inside `to_fixpoint`'s span."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts["prop.row_evals"] += 1
            if res:     # a deduction (list), a Deduction or RowInfeasible
                counts["prop.evals_deducing"] += 1
            return res

        self._patch(owner, attr, counted)

    def install(self) -> None:
        """Wrap the layer boundaries of the `rapidbnb` package."""
        rb, c = self.rb, self.counts

        def node_lp(res):
            c["lp.node_calls"] += 1
            c["lp.node_iters"] += res.iterations

        def sb(res):
            c["lp.sb_calls"] += 1
            c["lp.sb_iters"] += res[2]

        def sb_child_lp(_res):
            if self.parent_name() == "strong_branch":
                c["lp.sb_lps"] += 1

        def fixpoint(res):
            c["prop.fixpoint_calls"] += 1
            c["prop.deductions"] += len(res.deductions)

        def probe(out):
            c["cp.calls"] += 1
            c["cp.nodes"] += out.nodes
            c["cp.decided"] += out.status is not rb.CpStatus.NODE_LIMIT

        def analysis(_out):
            c["conflict.analyses"] += 1

        def evaluation(_summary):
            c["rapid.evals"] += 1

        self.wrap(rb.mipsearch, "solve_lp", "lp.node", node_lp)
        self.wrap(rb.mipsearch, "strong_branch", "lp.sb", sb)
        self.wrap(rb.lp, "solve_lp", None, sb_child_lp)
        self.wrap(rb.mipsearch, "maybe_run", "rapid", evaluation)
        self.wrap(rb.rapid, "cp_search", "cp", probe)
        self.wrap(rb.mipsearch, "analyze_1uip", "conflict", analysis)
        self.wrap(rb.cpsearch, "analyze_1uip", "conflict", analysis)
        self.wrap(rb.propagation.Propagator, "to_fixpoint", "prop", fixpoint)
        for name in ("propagate_linear_row", "propagate_knapsack",
                     "propagate_watched"):
            self.count_evals(rb.propagation, name)
        self.wrap(rb.mps, "parse_mps", "mps")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- per-solve accounting ------------------------------------------

    def solve(self, instance, config):
        """One traced solve; its own counts are left in `last_counts`."""
        before = {k: self.counts[k] for k in COUNT_KEYS}
        with self.span("mip", "solve"):
            res = self.rb.solve(instance, config)
        self.add_result(res)
        self.last_counts = {k: self.counts[k] - before[k] for k in COUNT_KEYS}
        return res

    def add_result(self, res) -> None:
        """Counts the solver reports itself, from the result and its log."""
        c = self.counts
        c["rapid.fires"] += res.rl_calls
        c["mip.nodes"] += res.nodes
        c["mip.leaves_infeasible"] += res.stats.leaves_infeasible
        c["mip.leaves_cutoff"] += res.stats.leaves_cutoff
        c["mip.replay_s"] += res.stats.switching_time
        for line in res.events:
            if line.startswith("conflict "):
                if line.endswith("scope global"):
                    c["conflict.learned_global"] += 1
                elif line.endswith("scope discarded"):
                    c["conflict.discarded"] += 1
            elif line.startswith("lconstr "):
                c["rapid.transferred"] += 1
            elif line.startswith("rl "):
                tok = line.split()
                c["rapid.bounds"] += int(tok[tok.index("bounds") + 1])
                c["rapid.solutions"] += int(tok[tok.index("solution") + 1])

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            out[layer] += (end - start) - covered[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("layer,name,start,end,parent\n")
            for layer, name, start, end, parent in self.spans:
                fh.write(f"{layer},{name},{start!r},{end!r},{parent}\n")

    def metrics(self, mps_bytes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        c, t = self.counts, self.self_times()
        lp_solves = c["lp.node_calls"] + c["lp.sb_lps"]
        out = {
            "lp.node_calls": (c["lp.node_calls"], "count"),
            "lp.node_iters": (c["lp.node_iters"], "count"),
            "lp.node_self_s": (t["lp.node"], "s"),
            "lp.sb_calls": (c["lp.sb_calls"], "count"),
            "lp.sb_iters": (c["lp.sb_iters"], "count"),
            "lp.sb_self_s": (t["lp.sb"], "s"),
            "lp.iters_per_solve": (
                (c["lp.node_iters"] + c["lp.sb_iters"]) / max(1, lp_solves),
                "iters/solve"),
            "prop.fixpoint_calls": (c["prop.fixpoint_calls"], "count"),
            "prop.row_evals": (c["prop.row_evals"], "count"),
            "prop.deductions": (c["prop.deductions"], "count"),
            "prop.deductions_per_eval": (
                c["prop.evals_deducing"] / max(1, c["prop.row_evals"]),
                "ratio"),
            "prop.self_s": (t["prop"], "s"),
            "cp.calls": (c["cp.calls"], "count"),
            "cp.nodes": (c["cp.nodes"], "count"),
            "cp.decided": (c["cp.decided"], "count"),
            "cp.self_s": (t["cp"], "s"),
            "conflict.analyses": (c["conflict.analyses"], "count"),
            "conflict.self_s": (t["conflict"], "s"),
            "conflict.learned_global": (c["conflict.learned_global"], "count"),
            "conflict.discarded": (c["conflict.discarded"], "count"),
            "rapid.evals": (c["rapid.evals"], "count"),
            "rapid.fires": (c["rapid.fires"], "count"),
            "rapid.transferred": (c["rapid.transferred"], "count"),
            "rapid.bounds": (c["rapid.bounds"], "count"),
            "rapid.solutions": (c["rapid.solutions"], "count"),
            "rapid.self_s": (t["rapid"], "s"),
            "mip.nodes": (c["mip.nodes"], "count"),
            "mip.leaves_infeasible": (c["mip.leaves_infeasible"], "count"),
            "mip.leaves_cutoff": (c["mip.leaves_cutoff"], "count"),
            "mip.replay_s": (c["mip.replay_s"], "s"),
            "mip.self_s": (t["mip"], "s"),
            "mps.parse_s": (t["mps"], "s"),
            "mps.bytes": (mps_bytes, "bytes"),
        }
        return {k: (int(v) if u in ("count", "bytes") else float(v), u)
                for k, (v, u) in out.items()}
