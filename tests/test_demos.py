"""The quick demos run to completion against the current package.

`04_full_solve.py` (about 47 s) and `05_benchmark_report.py` (about
36 s) are left out: they solve full instances and would more than
double this suite's wall time for a check the other tests already make.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_model_and_mps.py", "02_lp_and_degeneracy.py",
               "03_propagation_and_probe.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
