"""Golden digests: fixed-seed runs whose event log and metrics must stay
byte-identical across refactors of the simulator, and the data rows of two
small simulated sweeps, which must stay byte-identical across refactors of
the sweeps.

Each scenario digest is the sha256 of the text event log, one line per
event, joined by newlines, followed by `repr(RunMetrics)`. The sweep digest
is the sha256 of the CSV data rows, header row included, without the
`config_hash` column, which changes whenever a spec's recorded fields do. A
change that alters the random streams or the event order on purpose
regenerates these digests once and says so in CHANGES.md. Run as a script,
this file prints each current digest, one `name digest` line each:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from rtcap import analytics as an
from rtcap import cli
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

from helpers import contended_run

BANDWIDTH = 250_000.0

GOLDEN = {
    "contended-13-drop":
        "4292b6179cc994d318febe9a0716d1872e92929541eb5ac9b18b89afe1354902",
    "contended-13-keep":
        "d552b4a1e5fca4bd1b75b8b457e68e45772a9a4c8466eebd3b32a6ae74e689ab",
    "knee-12x12-1x":
        "80749c3bd5fa445f6a3f315f9951701a264ff35391d9991cd1c18b3589843c02",
    "knee-12x12-4x":
        "d63322bf9630b0c3f81aeb56f27608fd6c37c2b778026912c48ddbc256e60b22",
    "probe-800-1.25x":
        "3df3651639cb238df714de68e8a11bd1f0c5bf1951b820a7b8f82c320748b932",
}


# the CSV data rows of both sweeps below, without their config_hash column
SWEEP_ROWS_GOLDEN = \
    "26c1768f36d0566330df55bcaa9b935d9d63cf4f85c3e96c805cf5800da48840"


def digest(log, metrics) -> str:
    return hashlib.sha256(("\n".join(log) + repr(metrics)).encode()).hexdigest()


def measured_dm_bound(topo, routes) -> float:
    """Convergecast DM bound (inversion factor 1) from the statistics
    measured on this network."""
    stats = tp.topology_stats(topo, routes)
    params = an.AnalyticParams(
        node_count=topo.node_count, bandwidth=BANDWIDTH,
        neighborhood_bound=stats.neighborhood_bound, inversion_factor=1.0,
        nodes_per_disk=max(1, stats.nodes_per_disk),
        max_hops=max(1, stats.max_hops), sink_count=len(routes.sinks))
    return an.rtcc_convergecast(an.DM, params, mode=an.EXACT).value


def loaded_run(grid: dict, load: float, packet_size: float, duration: float,
               stop_at_first_miss: bool = False):
    """Grid seed 0 and traffic seed 0, offered `load` times the network's
    measured DM bound."""
    topo, routes = tp.make_network(seed=0, **grid)
    rate = ex.probe_rate(load * measured_dm_bound(topo, routes), routes,
                         packet_size)
    cfg = sc.SimConfig(packet_size=packet_size, duration=duration,
                       arrival_rate=rate, seed=0,
                       stop_at_first_miss=stop_at_first_miss)
    log = []
    metrics = sc.run_simulation(topo, routes,
                                sc.generate_workload(topo, routes, cfg), cfg,
                                event_log=log)
    return log, metrics


def contended(drop_on_miss: bool):
    log = []
    _, _, _, metrics = contended_run(seed=13, drop_on_miss=drop_on_miss,
                                     event_log=log)
    return log, metrics


KNEE_GRID = dict(rows=12, cols=12, spacing=10.0, jitter=0.25, radio_range=20.5,
                 sink_count=4)
# the 800-node, 12-sink evaluation network of criterion 6
EVAL_GRID = dict(rows=20, cols=40, spacing=10.0, jitter=0.25, radio_range=20.5,
                 sink_count=12)

SCENARIOS = {
    "contended-13-drop": lambda: contended(True),
    "contended-13-keep": lambda: contended(False),
    "knee-12x12-1x": lambda: loaded_run(KNEE_GRID, 1.0, 5000.0, 10.0),
    "knee-12x12-4x": lambda: loaded_run(KNEE_GRID, 4.0, 5000.0, 10.0),
    # criterion 6's probe replication, stopped at its first miss
    "probe-800-1.25x": lambda: loaded_run(EVAL_GRID, 1.25, 1000.0, 30.0,
                                          stop_at_first_miss=True),
}


# a 6x6 network, 2 replications: a sink sweep at 3x the measured DM bound
# and a miss-ratio sweep across it. They run through the command line, whose
# flags stay put when the spec classes behind it change.
SMALL_SWEEP = ["--rows", "6", "--cols", "6", "--jitter", "0.2",
               "--radio-range", "15", "--packet-size", "12500",
               "--duration", "6", "--seed", "1", "--reps", "2"]
SWEEPS = [["--kind", "sink_sweep", "--values", "1,2,4", "--load-factor", "3"],
          ["--kind", "missratio_sweep", "--values", "0.5,1,2,4", "--sinks", "2"]]


def sweep_rows_digest() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as out_dir:
        for argv in SWEEPS:
            written = Path(out_dir, argv[1])
            code = cli.dispatch(["sweep", *argv, *SMALL_SWEEP,
                                 "--out-dir", str(written)], out=io.StringIO())
            assert code == 0
            [csv] = written.glob("*.csv")
            rows = [ln.split(",") for ln in csv.read_text().splitlines()
                    if not ln.startswith("#")]
            drop = rows[0].index("config_hash")
            lines += [",".join(r[:drop] + r[drop + 1:]) for r in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_event_log_and_metrics_unchanged(name):
    log, metrics = SCENARIOS[name]()
    assert log, "the scenario must log events"
    assert digest(log, metrics) == GOLDEN[name]


def test_sweep_rows_unchanged():
    assert sweep_rows_digest() == SWEEP_ROWS_GOLDEN


def main() -> None:
    for name in sorted(SCENARIOS):
        print(name, digest(*SCENARIOS[name]()))
    print("sweep-rows-6x6", sweep_rows_digest())


if __name__ == "__main__":
    main()
