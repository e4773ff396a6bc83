"""Golden digests: fixed-seed runs whose formatted event trace and metrics
must stay byte-identical across refactors of the simulator, and the data
rows of two small simulated sweeps, which must stay byte-identical across
refactors of the sweeps.

Each scenario digest is the sha256 of the run's event trace as
`format_events` renders it, one line per event, joined by newlines,
followed by `repr(RunMetrics)`. The sweep digest
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

from rtcap import cli
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

from helpers import EVAL_GRID, contended_run, receive_gaps, sweep_csv_rows

GOLDEN = {
    "contended-13-drop":
        "71b2351b76d62e816dded671deb14347f319c8fc7f74ba0eec325926944c0827",
    "knee-12x12-1x":
        "3a6fc1c3254d72240b17fd32426d210a1c21e92421a4f1bf7bf3fbb9d1d7b0d1",
    "knee-12x12-4x":
        "974cf200ab66195b1fdbdfd5c61c74025965edd027e83061b49ccfe6a695736b",
    "probe-800-1.25x":
        "992dd26ef07c1daa114f3f0f94e6b02f2521e4076612ab775635838780065fa9",
}


# the CSV data rows of both sweeps below, without their config_hash column
SWEEP_ROWS_GOLDEN = \
    "e1923e098f92a347026420d219d3b69229c80800967e25cb099467dd6ae09a2c"


def digest(log, metrics) -> str:
    return hashlib.sha256(("\n".join(log) + repr(metrics)).encode()).hexdigest()


def loaded_run(grid: dict, load: float, packet_size: float, duration: float,
               stop_at_first_miss: bool = False):
    """Grid seed 0 and traffic seed 0, offered `load` times the network's
    measured DM bound. Returns the formatted event trace and the metrics."""
    topo, routes = tp.make_network(seed=0, **grid)
    dm = ex.measured_bounds(topo, routes, 250_000.0, 1.0)[1].value
    rate = ex.probe_rate(load * dm, routes, packet_size)
    cfg = sc.SimConfig(packet_size=packet_size, duration=duration,
                       arrival_rate=rate, seed=0,
                       stop_at_first_miss=stop_at_first_miss)
    wl = sc.generate_workload(topo, routes, cfg)
    trace = []
    metrics = sc.run_simulation(topo, routes, wl, cfg, event_log=trace)
    return list(sc.format_events(trace, wl)), metrics


def contended():
    trace = []
    *_, wl, metrics = contended_run(seed=13, event_log=trace)
    return list(sc.format_events(trace, wl)), metrics


KNEE_GRID = dict(rows=12, cols=12, spacing=10.0, jitter=0.25, radio_range=20.5,
                 sink_count=4)

SCENARIOS = {
    "contended-13-drop": contended,
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
            rows = sweep_csv_rows(csv)
            drop = rows[0].index("config_hash")
            lines += [",".join(r[:drop] + r[drop + 1:]) for r in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_event_log_and_metrics_unchanged(name):
    log, metrics = SCENARIOS[name]()
    assert log, "the scenario must log events"
    assert digest(log, metrics) == GOLDEN[name]


# each scenario's packet airtime, packet_size / bandwidth, in seconds
TX_TIME = {"contended-13-drop": 12_500 / 250_000,
           "knee-12x12-4x": 5_000 / 250_000}


@pytest.mark.parametrize("name", sorted(TX_TIME))
def test_no_receiver_outpaces_the_channel(name):
    # the receive-rate law, checked on the event log text alone; the slack
    # covers float rounding (the smallest contended-13 gap is
    # 0.9999999999999964 airtimes)
    log, _ = SCENARIOS[name]()
    gaps = receive_gaps(log)
    assert gaps
    assert min(gaps) >= TX_TIME[name] * (1 - 1e-9)


def test_sweep_rows_unchanged():
    assert sweep_rows_digest() == SWEEP_ROWS_GOLDEN


def main() -> None:
    for name in sorted(SCENARIOS):
        print(name, digest(*SCENARIOS[name]()))
    print("sweep-rows-6x6", sweep_rows_digest())


if __name__ == "__main__":
    main()
