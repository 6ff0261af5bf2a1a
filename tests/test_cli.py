"""Front-end behaviour: exit codes, output shapes, side-channel files."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rapidbnb import cli
from rapidbnb.cli import main
from rapidbnb.propagation import PropagationCycleError
from rapidbnb.rapid import CRITERION_NAMES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

DATA = Path(__file__).parent / "data"

UNBOUNDED_LP = """\
NAME FREEFALL
ROWS
 N COST
COLUMNS
 X COST 1.0
BOUNDS
 FR BND X
ENDATA
"""

TRUNCATED = """\
NAME BROKEN
ROWS
 N COST
COLUMNS
 X COST 1.0
"""

NAN_BASE = """\
NAME N
ROWS
 N C
 L R1
COLUMNS
 X C 1.0
 Y C 1.0 R1 1.0
RHS
BOUNDS
 UP BND Y 4.0
ENDATA
"""

INFEASIBLE = """\
NAME E
ROWS
 N C
 L R1
COLUMNS
    MARKER                 'MARKER' 'INTORG'
 X C 1.0 R1 1.0
    MARKER                 'MARKER' 'INTEND'
RHS
 RHS R1 -5.0
ENDATA
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_missing_file_is_a_parse_failure(self, capsys):
        code, _, err = run(["solve", "/nonexistent/nowhere.mps"], capsys)
        assert code == 2 and err.startswith("error:")

    def test_truncated_file_is_a_parse_failure(self, tmp_path, capsys):
        p = tmp_path / "broken.mps"
        p.write_text(TRUNCATED)
        code, _, err = run(["solve", str(p)], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("old,new", [
        (" X C 1.0", " X C 1.0 R1 nan"),
        ("RHS\n", "RHS\n RHS R1 nan\n"),
        (" UP BND Y 4.0", " UP BND Y nan"),
    ])
    def test_nan_field_is_a_parse_failure(self, old, new, tmp_path, capsys):
        p = tmp_path / "nan.mps"
        p.write_text(NAN_BASE)
        assert run(["solve", str(p)], capsys)[0] == 0
        p.write_text(NAN_BASE.replace(old, new, 1))
        code, out, err = run(["solve", str(p)], capsys)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_flat_depth_schedule_is_a_config_failure(self, capsys):
        code, _, err = run(["solve", str(DATA / "cover3.mps"),
                            "--freq-beta", "1.0"], capsys)
        assert code == 3 and err.startswith("config error:")

    def test_infinite_depth_base_is_a_config_failure(self, tmp_path, capsys):
        # this knapsack's tree reaches depth f = 5, where an unchecked
        # infinite base breaks the depth walk in the middle of the solve
        p = tmp_path / "knapsack.mps"
        p.write_text(gen.write_mps(
            gen.knapsack_model(np.random.default_rng(0), "k", 12, 3)))
        code, out, err = run(["solve", str(p), "--rapid", "local",
                              "--freq-beta", "inf"], capsys)
        assert code == 3 and out == "" and err.startswith("config error:")

    def test_unknown_criterion_is_a_config_failure(self, capsys):
        code, _, err = run(["solve", str(DATA / "cover3.mps"),
                            "--criteria", "vibes"], capsys)
        assert code == 3 and "config error:" in err

    def test_unbounded_relaxation_is_a_solve_failure(self, tmp_path, capsys):
        p = tmp_path / "free.mps"
        p.write_text(UNBOUNDED_LP)
        code, _, err = run(["solve", str(p)], capsys)
        assert code == 1 and "unbounded" in err

    @pytest.mark.parametrize("exc", [
        ZeroDivisionError("float division by zero"),
        np.linalg.LinAlgError("singular basis"),
        PropagationCycleError("no fixpoint"),
    ])
    def test_solver_breakdown_is_a_solve_failure(self, exc, monkeypatch,
                                                 capsys):
        def broken(instance, config):
            raise exc
        monkeypatch.setattr(cli, "solve", broken)
        code, out, err = run(["solve", str(DATA / "cover3.mps")], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {exc}\n"

    def test_infeasible_answer_still_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "empty.mps"
        p.write_text("NAME E\nROWS\n N C\n L R1\nCOLUMNS\n"
                     "    MARKER                 'MARKER' 'INTORG'\n"
                     " X C 1.0 R1 1.0\n"
                     "    MARKER                 'MARKER' 'INTEND'\n"
                     "RHS\n RHS R1 -5.0\nENDATA\n")
        code, out, _ = run(["solve", str(p)], capsys)
        assert code == 0
        assert "status     infeasible" in out
        assert "objective  -" in out


class TestTextOutput:
    def test_cover_instance_report(self, capsys):
        code, out, _ = run(["solve", str(DATA / "cover3.mps")], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "status     optimal"
        assert lines[1] == "objective  1"
        assert lines[2] == "dual bound 1"
        assert any(line.startswith("nodes") for line in lines)
        assert any(line.startswith("criteria") for line in lines)


class TestJsonOutput:
    def test_schema_and_values(self, capsys):
        code, out, _ = run(["solve", str(DATA / "cover3.mps"), "--json"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"status", "objective", "dual_bound", "nodes",
                                "rl_calls", "criterion_counts",
                                "wall_seconds", "seed"}
        assert payload["status"] == "optimal"
        assert payload["objective"] == pytest.approx(1.0)
        assert payload["dual_bound"] == pytest.approx(1.0)
        assert payload["seed"] == 0
        assert set(payload["criterion_counts"]) == set(CRITERION_NAMES)

    def test_byte_identical_reruns_modulo_clock(self, capsys):
        argv = ["solve", str(DATA / "cover3.mps"), "--json",
                "--rapid", "local", "--seed", "11"]
        outs = []
        for _ in range(2):
            code, out, _ = run(argv, capsys)
            assert code == 0
            payload = json.loads(out)
            payload["wall_seconds"] = 0.0
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]


class TestSideFiles:
    def test_event_log_written(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        code, _, _ = run(["solve", str(DATA / "cover3.mps"),
                          "--emit-events", str(log)], capsys)
        assert code == 0
        lines = log.read_text().strip().splitlines()
        assert lines[-1].startswith("done status optimal")
        assert any(line.startswith("node ") for line in lines)

    def test_solution_file_uses_column_names(self, tmp_path, capsys):
        sol = tmp_path / "point.sol"
        code, _, _ = run(["solve", str(DATA / "cover3.mps"),
                          "--solution-out", str(sol)], capsys)
        assert code == 0
        entries = dict(line.split() for line in
                       sol.read_text().strip().splitlines())
        assert entries == {"a": "0", "b": "1", "c": "0"}

    @pytest.mark.parametrize("flag", ["--emit-events", "--solution-out"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_fails_before_the_solve(self, flag, where,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        def no_solve(instance, config):
            raise AssertionError("solved before opening the outputs")

        monkeypatch.setattr(cli, "solve", no_solve)
        path = tmp_path / "no" / "such" / "dir" / "out.txt" \
            if where == "missing-dir" else tmp_path
        code, out, err = run(["solve", str(DATA / "cover3.mps"),
                              flag, str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err

    def test_outputs_open_after_the_config_check(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text("kept\n")
        code, _, _ = run(["solve", str(DATA / "cover3.mps"), "--freq-f", "0",
                          "--emit-events", str(log)], capsys)
        assert code == 3 and log.read_text() == "kept\n"

    def test_solution_file_is_empty_without_a_solution(self, tmp_path,
                                                        capsys):
        mps = tmp_path / "infeasible.mps"
        mps.write_text(INFEASIBLE)
        sol = tmp_path / "point.sol"
        code, out, _ = run(["solve", str(mps), "--solution-out", str(sol)],
                           capsys)
        assert code == 0 and "infeasible" in out
        assert sol.read_text() == ""

    def test_rapid_run_matches_default_answer(self, capsys):
        base = run(["solve", str(DATA / "cover3.mps"), "--json"], capsys)
        rapid = run(["solve", str(DATA / "cover3.mps"), "--json",
                     "--rapid", "root", "--criteria", "nsols,degeneracy"],
                    capsys)
        assert base[0] == 0 and rapid[0] == 0
        a, b = json.loads(base[1]), json.loads(rapid[1])
        assert a["objective"] == pytest.approx(b["objective"])
