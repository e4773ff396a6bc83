"""Smoke test of the demos: each runs as a script in its own process, in
a scratch working directory, and exits 0. Demos 05 and 06 run full sweeps
and write their CSV into that directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_capacity_bounds.py", "02_convergecast_bounds.py",
         "03_build_a_network.py", "04_single_simulation.py",
         "05_sink_sweep.py", "06_missratio_knee.py"]


def run_demo(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if name.startswith("03_"):
        assert "text round trip of network.txt: bit-exact" in proc.stdout
    if name.startswith(("05_", "06_")):
        written = list(tmp_path.glob("*.csv"))
        assert len(written) == 1 and f"wrote {written[0].name}" in proc.stdout
