"""`rapidbnb.bench`: shifted geomeans, branching hashes, pairing logic and
the directional report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rapidbnb.bench import (MissingPairError, affected_split, branching_hash,
                            directional_report, shifted_geomean)
from rapidbnb.mps import write_mps


class TestShiftedGeomean:
    def test_frozen_pair(self):
        # exp((log 11 + log 1001) / 2) - 1 = sqrt(11 * 1001) - 1
        expect = math.sqrt(11 * 1001) - 1
        assert shifted_geomean([10, 1000], 1.0) == pytest.approx(expect)
        assert expect == pytest.approx(103.9333, abs=1e-4)

    def test_constant_input_is_identity(self):
        assert shifted_geomean([7, 7, 7], 5.0) == pytest.approx(7.0)
        assert shifted_geomean([0, 0], 10.0) == pytest.approx(0.0)

    def test_empty_is_zero(self):
        assert shifted_geomean([], 1.0) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shifted_geomean([1.0, -0.5], 1.0)
        with pytest.raises(ValueError):
            shifted_geomean([1.0], 0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=16),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, vals, rng):
        shuffled = list(vals)
        rng.shuffle(shuffled)
        assert shifted_geomean(shuffled, 1.0) == \
            pytest.approx(shifted_geomean(vals, 1.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=16),
           st.integers(min_value=0, max_value=15),
           st.floats(min_value=0.01, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_value(self, vals, idx, delta):
        idx = idx % len(vals)
        bumped = list(vals)
        bumped[idx] += delta
        assert shifted_geomean(bumped, 1.0) >= \
            shifted_geomean(vals, 1.0) - 1e-9

    def test_bounded_between_min_and_max(self):
        vals = [3.0, 9.0, 27.0]
        g = shifted_geomean(vals, 100.0)
        assert min(vals) <= g <= max(vals)


class TestBranchingHash:
    def test_only_branch_lines_count(self):
        a = ["node 1 dual 2", "branch 1 var 3 frac 0.5", "done optimal"]
        b = ["node 1 dual 9", "branch 1 var 3 frac 0.5", "cutoff 4"]
        assert branching_hash(a) == branching_hash(b)

    def test_decision_changes_the_hash(self):
        a = ["branch 1 var 3 frac 0.5"]
        b = ["branch 1 var 4 frac 0.5"]
        assert branching_hash(a) != branching_hash(b)


class TestAffectedSplit:
    def test_split_by_branch_hash(self):
        base = {("a", 0): "x", ("b", 0): "y"}
        treat = {("a", 0): "x", ("b", 0): "z"}
        affected, unaffected = affected_split(base, treat)
        assert affected == [("b", 0)]
        assert unaffected == [("a", 0)]

    def test_unmatched_keys_refused(self):
        base = {("a", 0): "h", ("b", 0): "h"}
        treat = {("a", 0): "h"}
        with pytest.raises(MissingPairError):
            affected_split(base, treat)


def seed_directory(path, count=3, n=8, m=26):
    rng = np.random.default_rng(77)
    for k in range(count):
        inst = oracles.random_sat_instance(rng, n=n, m=m)
        write_mps(inst, path / f"gen{k}.mps")


class TestDirectionalReport:
    def test_report_structure(self, tmp_path):
        seed_directory(tmp_path, count=3)
        report = directional_report(tmp_path, seeds=(0,))
        assert report["instances"] == 3 and report["runs"] == 6
        assert report["affected"] + report["unaffected"] == 3
        for side in ("default", "rapid"):
            assert set(report[side]) == {"time", "nodes", "solved"}
            assert report[side]["solved"] == 3
        assert report["time_ratio"] > 0 and report["nodes_ratio"] > 0
        assert "| config |" in report["markdown"] or \
            report["markdown"].startswith("| config")

    def test_broken_file_counts_as_unsolved(self, tmp_path):
        seed_directory(tmp_path, count=1)
        (tmp_path / "broken.mps").write_text("ROWS\n N COST\n")
        report = directional_report(tmp_path, seeds=(0, 1))
        assert report["instances"] == 2 and report["runs"] == 8
        for side in ("default", "rapid"):
            assert report[side]["solved"] == 2
        assert report["affected"] + report["unaffected"] == 4

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError):
            directional_report(tmp_path, seeds=(0,))
