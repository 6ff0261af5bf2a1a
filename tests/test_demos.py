"""Every demo runs to completion against the current package.

The two longest, `04_full_solve.py` and `05_benchmark_report.py`, each
take about 1 s on a shared 2-vCPU VM.  Temporary files a demo makes go
under the test's own directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_model_and_mps.py", "02_lp_and_degeneracy.py",
         "03_propagation_and_probe.py", "04_full_solve.py",
         "05_benchmark_report.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
