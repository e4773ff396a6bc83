"""The four benchmark workloads: inputs from a seed, one job, output checks.

Each workload builds its inputs from the seed in `__init__` (the set-up
that `setup_s` measures), runs one fixed amount of work per `job()` and
judges a job's result in `check()`. Every job of a run repeats the same
input, so job times are repeated measurements and counts repeat exactly;
the seed varies the inputs between runs.

Why these four (see README.md for the per-layer predictions):

* probe  - one criterion-6 probe replication, stopped at its first miss:
           workload generation is a quarter of host time and most
           generated packets go unused.
* steady - the same 800-node network at half the DM bound for the full
           30 s: medium arbitration dominates.
* knee   - criterion-7 miss-ratio sweep through the CLI: many full-length
           runs on a small network with heavy expiry and drop traffic.
* build  - network construction and analytic root solves, no simulation:
           the dense adjacency dominates time and memory.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import io
import math
import os
import time

import numpy as np

from rtcap import analytics as an
from rtcap import cli
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

BANDWIDTH = 250_000.0

# the 800-node, 12-sink evaluation network of criterion 6
EVAL_GRID = dict(rows=20, cols=40, spacing=10.0, jitter=0.25, radio_range=20.5,
                 sink_count=12)
PROBE_REPS = 1
KNEE_REPS = 1
BUILD_GRID = dict(rows=50, cols=100, spacing=10.0, jitter=0.25,
                  radio_range=20.5, sink_count=12)
BUILD_SOLVES = 1000
# topology_stats of BUILD_GRID at seed 0: (neighborhood_bound, max_hops,
# nodes_per_disk)
BUILD_STATS_SEED0 = (17, 10, 12)


def digest(text) -> str:
    data = text if isinstance(text, bytes) else str(text).encode()
    return hashlib.sha256(data).hexdigest()


def check_replication(n_packets, m) -> list:
    """The checks every simulated replication must pass: packet conservation
    in its RunMetrics, and, when the trace counted the workload it was given
    (n_packets is not None), as many packets generated as that workload
    held."""
    out = [("conservation", m.delivered + m.missed + m.in_flight_at_end
            == m.packets_generated and m.in_flight_at_end >= 0)]
    if n_packets is not None:
        out.append(("generated equals the workload's packets",
                    m.packets_generated == n_packets))
    return out


def measured_dm_bound(topo, routes, inversion_factor: float):
    """Convergecast DM bound from the statistics measured on this network."""
    stats = tp.topology_stats(topo, routes)
    params = an.AnalyticParams(
        node_count=topo.node_count, bandwidth=BANDWIDTH,
        neighborhood_bound=stats.neighborhood_bound,
        inversion_factor=inversion_factor,
        nodes_per_disk=max(1, stats.nodes_per_disk),
        max_hops=max(1, stats.max_hops), sink_count=len(routes.sinks))
    return stats, params, an.rtcc_convergecast(an.DM, params, mode=an.EXACT)


class Workload:
    """A workload's interface to the job loop in worker.py.

    `__init__(seed, workdir)` is the set-up; `job()` is the timed work;
    `check(result, replications, first)` returns a list of (label, passed)
    and the result's digest. An operation is a replication unless a
    workload says otherwise through `op` and `op_times`.
    """

    op = "replication"

    def op_times(self, result, replication_s):
        return replication_s

    def diagnostics(self, result) -> dict:
        """Per-job numbers for the trace that no wrapper can see."""
        return {}


class _EvalNetwork(Workload):
    """Criterion 6's 800-node, 12-sink network (grid seed 0), its measured
    DM bound (inversion factor 1) and a load of LOAD times that bound, all
    built in set-up. The seed draws the traffic only: the grid decides
    whether probe runs first miss near t=1.2 s or t=2 s, so a grid per seed
    would change the amount of work by a third, and a few grid seeds add a
    fifth hop ring, which raises the bound and the load by a fifth."""

    LOAD = REPS = STOP = None

    def __init__(self, seed: int, workdir: str):
        self.topo, self.routes = tp.make_network(seed=0, **EVAL_GRID)
        _, _, self.dm = measured_dm_bound(self.topo, self.routes, 1.0)
        rate = ex.probe_rate(self.LOAD * self.dm.value, self.routes, 1000.0)
        self.config = sc.SimConfig(packet_size=1000.0, duration=30.0,
                                   arrival_rate=rate, seed=seed,
                                   replication_count=self.REPS,
                                   stop_at_first_miss=self.STOP)


class Probe(_EvalNetwork):
    """Criterion 6's probe: 1.25x the bound, replications stop at their
    first miss, critical capacity is the least consumption at a first miss."""

    LOAD, REPS, STOP = 1.25, PROBE_REPS, True

    def job(self):
        metrics = sc.run_replications(self.topo, self.routes, self.config)
        return metrics, sc.critical_capacity(metrics)

    def check(self, result, reps, first):
        metrics, critical = result
        out = [("replications run", len(reps) == len(metrics) == self.REPS),
               ("critical within 40% of the DM bound",
                critical.miss_observed
                and abs(critical.value - self.dm.value) <= 0.40 * self.dm.value)]
        for n_packets, m in reps:
            out += check_replication(n_packets, m)
            out.append(("replication misses",
                        m.missed > 0 and m.capacity_consumption_at_first_miss
                        is not None))
        return out, digest(repr(result))

    def diagnostics(self, result):
        _, critical = result
        if not critical.miss_observed:
            return {}
        return {"experiments.critical_over_dm_sum": critical.value / self.dm.value,
                "experiments.critical_over_dm_n": 1}


class Steady(_EvalNetwork):
    """The evaluation network at half the bound for the full 30 s, through
    generate_workload and run_simulation as the README shows."""

    LOAD, REPS, STOP = 0.5, 1, False

    def job(self):
        workload = sc.generate_workload(self.topo, self.routes, self.config)
        return sc.run_simulation(self.topo, self.routes, workload, self.config)

    def check(self, metrics, reps, first):
        out = [("one replication", len(reps) == 1)]
        for n_packets, m in reps:
            out += check_replication(n_packets, m)
            out.append(("no misses", m.missed == 0))
            out.append(("nothing in flight at end", m.in_flight_at_end == 0))
        return out, digest(repr(metrics))


class Knee(Workload):
    """Criterion-7 miss-ratio sweep, 0.25x to 4x the bound, via the CLI."""

    def __init__(self, seed: int, workdir: str):
        self.out_dir = workdir
        self.loads = ex.load_multiplier_series()
        self.argv = ["sweep", "--kind", "missratio_sweep", "--rows", "12",
                     "--cols", "12", "--sinks", "4", "--radio-range", "20.5",
                     "--packet-size", "5000", "--duration", "10",
                     "--reps", str(KNEE_REPS), "--seed", str(seed),
                     "--out-dir", self.out_dir]

    def job(self):
        return cli.dispatch(self.argv, out=io.StringIO())

    def check(self, code, reps, first):
        out = [("exit code 0", code == 0),
               ("replications run", len(reps) == KNEE_REPS * len(self.loads))]
        for n_packets, m in reps:
            out += check_replication(n_packets, m)
        paths = glob.glob(os.path.join(self.out_dir, "*.csv"))
        out.append(("one csv written", len(paths) == 1))
        if len(paths) != 1:
            return out, ""
        with open(paths[0], "rb") as fh:
            raw = fh.read()
        os.remove(paths[0])
        lines = [ln for ln in raw.decode().splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        out.append(("one csv row per load",
                    len(rows) == len(self.loads)
                    and all(math.isclose(float(r["swept_value"]), v, rel_tol=1e-8)
                            for r, v in zip(rows, self.loads))))
        for r in rows:
            if float(r["offered_demand"]) <= float(r["analytic_dm"]):
                out.append(("no misses at or below the bound",
                            float(r["miss_ratio"]) == 0.0))
        out.append(("top miss ratio above 0.25",
                    bool(rows) and float(rows[-1]["miss_ratio"]) > 0.25))
        return out, digest(raw)


class Build(Workload):
    """A 5000-node network, its measured bounds, and 1000 DM root solves."""

    op = "solve"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # criterion 3's parameter draw; n feeds only the balanced bound
        rng = np.random.default_rng(seed)
        self.draws = []
        for _ in range(BUILD_SOLVES):
            float(10.0 ** rng.uniform(0.0, 4.0))
            self.draws.append((float(rng.uniform(1.0, 100.0)),
                               int(rng.integers(1, 257))))

    def job(self):
        topo, routes = tp.make_network(seed=self.seed, **BUILD_GRID)
        stats, params, dm = measured_dm_bound(topo, routes, 2.0)
        edf = an.rtcc_convergecast(an.EDF, params)
        clock = time.perf_counter
        roots, times = [], []
        for m, k in self.draws:
            t0 = clock()
            roots.append(an.convergecast_dm_sink_utilization(m, k))
            times.append(clock() - t0)
        return topo, routes, stats, dm.value, edf.value, roots, times

    def op_times(self, result, replication_s):
        return result[-1]

    def check(self, result, reps, first):
        topo, routes, stats, dm, edf, roots, _ = result
        adjacency = topo.adjacency
        edges = {(min(v, w), max(v, w)) for v in adjacency for w in adjacency[v]}
        out = [("simulation not entered", not reps),
               ("all nodes routed", len(routes.hop_count) == topo.node_count)]
        if first:
            out += self._oracles(topo, routes, stats, edges, roots)
        return out, digest(repr((stats, len(edges), dm, edf, roots)))

    def _oracles(self, topo, routes, stats, edges, roots):
        from scipy.spatial import cKDTree

        adjacency = topo.adjacency
        out = [("adjacency symmetric",
                all(v in adjacency[w] for v in adjacency for w in adjacency[v]))]
        pairs = cKDTree(topo.positions()).query_pairs(BUILD_GRID["radio_range"])
        out.append(("adjacency equals k-d tree pairs", edges == pairs))
        sizes = [len(adjacency[v]) + 1 for v in adjacency]
        recomputed = (max(sizes), max(routes.hop_count.values()),
                      int(math.floor(sum(sizes) / len(sizes) + 0.5)))
        out.append(("topology stats recomputed", tuple(stats) == recomputed))
        if self.seed == 0:
            out.append(("topology stats pinned", tuple(stats) == BUILD_STATS_SEED0))
        for (m, k), d in zip(self.draws, roots):
            lhs = sum(an.stage_delay_term(d / ((2 * x - 1) * m))
                      for x in range(1, k + 1))
            out.append(("solve residual <= 1e-9", abs(lhs - 1.0) <= 1e-9))
        return out


WORKLOADS = {"probe": Probe, "steady": Steady, "knee": Knee, "build": Build}
