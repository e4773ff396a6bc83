"""Self-tests of the benchmark harness, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

from rtcap import simcore as sc
from rtcap import topology as tp

import run
import workloads
import worker
from tracer import Tracer, self_time_by_name, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["x", 2.0, 6.0, 0, 0],
        ["y", 4.0, 8.0, 0, 0],     # overlaps x by 2
        ["z", 9.0, 12.0, 0, 0],    # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert self_time_by_name(spans)["root"] == pytest.approx(3.0)


def test_wrappers_record_nesting_and_restore_originals():
    originals = (sc.run_simulation, sc.admissible_transmissions,
                 tp.compute_adjacency)
    topo, routes, cfg = _tiny_network()
    with Tracer() as tracer:
        tracer.patch(sc, "run_simulation", "simcore.loop")
        tracer.patch(sc, "admissible_transmissions", "simcore.mac")
        tracer.patch(tp, "compute_adjacency", "topology.adjacency")
        assert sc.run_simulation is not originals[0]
        with tracer.span("bench.job"):
            sc.run_simulation(topo, routes, sc.generate_workload(topo, routes, cfg),
                              cfg)
    assert (sc.run_simulation, sc.admissible_transmissions,
            tp.compute_adjacency) == originals
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["bench.job", "simcore.loop"]
    assert names.count("simcore.mac") > 0
    assert all(s[3] == 1 for s in tracer.spans if s[0] == "simcore.mac")


def _tiny_network():
    topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=3,
                                   radio_range=15.0, sink_count=1)
    cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=0.5, duration=4.0,
                       seed=3)
    return topo, routes, cfg


def _tiny_steady():
    steady = workloads.Steady.__new__(workloads.Steady)
    steady.topo, steady.routes, steady.config = _tiny_network()
    return steady


def test_tiny_run_passes_and_layers_account_for_wall():
    traced = worker.measure(_tiny_steady(), 0.0, full=True)
    assert traced["failed"] == 0 and traced["attempted"] > 0
    assert len(traced["digests"]) == 1
    layers = worker.layer_metrics(traced, traced)
    own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert own == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["simcore.mac_grants"] > 0
    assert "simcore.mac_grants" in worker.exact_counts(traced["per_job_counts"])


def test_broken_conservation_is_counted_as_failed(monkeypatch):
    real = sc.run_simulation

    def broken(topology, routes, workload, config, event_log=None):
        m = real(topology, routes, workload, config)
        return sc.RunMetrics(**{**m.__dict__, "delivered": m.delivered + 1})

    monkeypatch.setattr(sc, "run_simulation", broken)
    plain = worker.measure(_tiny_steady(), 0.0, full=False)
    assert plain["failed"] >= 1
    assert any("conservation" in f for f in plain["failures"])


class _AlwaysRaises(workloads.Workload):
    def job(self):
        raise sc.InvariantError("deliberately broken")


@pytest.mark.parametrize("trace", [0, 1])
def test_job_that_always_raises_is_reported_as_failed(trace, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.makedirs(run.OUT_DIR)
    args = argparse.Namespace(workload="steady", seed=0, seconds=0.0,
                              trace=trace)
    rep = worker.run(_AlwaysRaises(), args)
    result = run.emit(run._record(args), rep, [(0.1, 1.0)], args)
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1]) == result
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED job 0: job raised" in out
    assert "InvariantError: deliberately broken" in out
    if not trace:
        assert "op_ms_mean" not in result["metrics"]
        assert result["metrics"]["wall_s"]["value"] > 0


class _CountingWorkload:
    """A simcore Workload that counts reads of its packets."""

    def __init__(self, workload):
        self._workload, self.reads = workload, 0

    def __getattr__(self, name):
        if name == "packets":
            self.reads += 1
        return getattr(self._workload, name)


def test_untraced_run_reads_packets_only_through_the_simulator():
    topo, routes, cfg = _tiny_network()
    real = sc.generate_workload(topo, routes, cfg)
    alone = _CountingWorkload(real)
    sc.run_simulation(topo, routes, alone, cfg)
    observed = _CountingWorkload(real)
    with worker.RunTracer() as tracer:
        worker.install(tracer, full=False)
        metrics = sc.run_simulation(topo, routes, observed, cfg)
    assert observed.reads == alone.reads
    assert tracer.replications == [(None, metrics)]


def test_check_replication_rejects_bad_metrics():
    good = sc.RunMetrics(packets_generated=10, delivered=7, missed=2,
                         miss_ratio=0.2, capacity_consumption_at_first_miss=1.0,
                         first_miss_time=1.0, offered_demand=1.0,
                         in_flight_at_end=1, delays=(), seed=0)
    assert all(ok for _, ok in workloads.check_replication(10, good))
    assert all(ok for _, ok in workloads.check_replication(None, good))
    assert not all(ok for _, ok in workloads.check_replication(11, good))
    lost = sc.RunMetrics(**{**good.__dict__, "in_flight_at_end": 0})
    assert not all(ok for _, ok in workloads.check_replication(None, lost))


def test_run_fails_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "knee",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = worker.measure(_tiny_steady(), 0.0, full=True)
    measured = worker.layer_metrics(traced, traced)
    assert {k: run._unit(k) for k in measured} == declared
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
