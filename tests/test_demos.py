"""Smoke test of the demos: each runs as a script in its own process, in
a scratch working directory, with numpy RuntimeWarnings turned into errors
(the suite's own warning filter does not reach a subprocess), and exits 0.
Demos 05 and 06 run full sweeps and write their CSV into that directory.

Each demo's stdout, and the CSV that demos 05 and 06 write, must match the
pinned sha256 byte for byte. A change that alters what a demo prints on
purpose regenerates these digests once and says so in CHANGES.md. Run as a
script, this file prints each current digest, one `name digest` line each
(for a CSV, `name file digest`):

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_capacity_bounds.py", "02_convergecast_bounds.py",
         "03_build_a_network.py", "04_single_simulation.py",
         "05_sink_sweep.py", "06_missratio_knee.py"]

STDOUT_SHA256 = {
    "01_capacity_bounds.py":
        "58a0d26d0bd05fd691dcebcfdfb6eb6b140a9992a2bc48c27c89b9c4c3ec8fa2",
    "02_convergecast_bounds.py":
        "7e9bfb6e04320e27a9e2ac275c1a9a2ddcba82a464474dbb1666c97dde5bccb1",
    "03_build_a_network.py":
        "866a6e5fe3eaeb990bb899a7f7a0c6cc11f68820ae2c22dce95506910441eb7a",
    "04_single_simulation.py":
        "657241d1ca53f687ab072af30575e0e468c3061e71c523fbd9fcf9847e374e02",
    "05_sink_sweep.py":
        "719f98b72fbc3380d6c8871342a103bd2405df13e1614fd5bc0731a640b78ca4",
    "06_missratio_knee.py":
        "973b1c74a8d8d3435ee09257333f2bfd17b4edd9ff804763225ebd99c08536f7",
}

# the file each sweep demo writes, and the sha256 of its bytes
CSV_SHA256 = {
    "05_sink_sweep.py": (
        "sink_sweep_400_c01828eef8a3.csv",
        "37f0102dba1aca5926f715c111fd48458e8f75cc7f771e5c6963d170863e588a"),
    "06_missratio_knee.py": (
        "missratio_sweep_144_6b77304b9d21.csv",
        "ad59fb6db62736a9411c24826fecc3a3a37ec59b897255a5744fbfc6b39722c3"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / name)],
                          cwd=cwd, env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    stdout = proc.stdout.decode()
    assert stdout
    if name.startswith("03_"):
        assert "text round trip of network.txt: bit-exact" in stdout
    written = list(tmp_path.glob("*.csv"))
    if name in CSV_SHA256:
        assert len(written) == 1 and f"wrote {written[0].name}" in stdout
        assert (written[0].name, sha256(written[0].read_bytes())) == CSV_SHA256[name]
    else:
        assert written == []
    assert sha256(proc.stdout) == STDOUT_SHA256[name]


def main() -> None:
    for name in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            proc = run_demo(name, tmp)
            print(name, sha256(proc.stdout))
            for csv in sorted(Path(tmp).glob("*.csv")):
                print(name, csv.name, sha256(csv.read_bytes()))


if __name__ == "__main__":
    main()
