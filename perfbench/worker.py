"""Run one workload in this process and print its measurements as JSON.

    PYTHONPATH=src python3 perfbench/worker.py --workload steady --seed 3 \\
        --seconds 20 --trace 0
    PYTHONPATH=src python3 perfbench/worker.py --workload steady --seed 3 \\
        --setup-only

perfbench/run.py starts this in a fresh single-threaded process per run
and reads the last stdout line. Jobs repeat while a typical one still fits
in --seconds (at least one job). Untraced, only workload generation and
`run_simulation` are wrapped: their spans time replications, and the
`RunMetrics` each simulation returns is kept for the output checks. Nothing
inside a timed job reads the generated packets. With --trace 1 the first
half of the time wraps every layer boundary, the per-layer numbers and the
checks against the generated packets come from it, and the second half
runs untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from bisect import bisect_right
from collections import Counter

import numpy
from rtcap import analytics as an
from rtcap import cli
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

import calibrate
import workloads
from run import OUT_DIR
from tracer import END, NAME, START, Tracer, max_rss_mb, self_time_by_name


class RunTracer(Tracer):
    def __init__(self):
        super().__init__()
        # (packet count or None when untraced, RunMetrics) of each
        # replication in the current job
        self.replications = []


# ---- observers: counts taken at the layer boundaries --------------------

def _on_workload(tr, args, kwargs, result):
    tr.counts["simcore.packets_generated"] += len(result.packets)


def _on_simulation(tr, args, kwargs, metrics):
    workload, config = args[2], args[3]
    packets = workload.packets
    stopped = config.stop_at_first_miss and metrics.first_miss_time is not None
    end = metrics.first_miss_time if stopped else config.duration
    c = tr.counts
    c["simcore.packets_used"] += (bisect_right(packets, end,
                                               key=lambda p: p.arrival_time)
                                  if stopped else len(packets))
    c["simcore.sim_s"] += end
    c["simcore.delivered"] += metrics.delivered
    c["simcore.misses"] += metrics.missed
    tr.replications.append((len(packets), metrics))


def _keep_metrics(tr, args, kwargs, metrics):
    tr.replications.append((None, metrics))


def _on_mac(tr, args, kwargs, granted):
    c = tr.counts
    c["simcore.mac_passes"] += 1
    c["simcore.mac_candidates"] += len(args[0])
    c["simcore.mac_grants"] += len(granted)


def _on_adjacency(tr, args, kwargs, adjacency):
    c = tr.counts
    c["topology.adjacency_calls"] += 1
    c["topology.nodes"] += len(adjacency)
    c["topology.edges"] += sum(len(v) for v in adjacency.values()) // 2


def _counter(key):
    def observe(tr, args, kwargs, result):
        tr.counts[key] += 1
    return observe


def _on_sweep(tr, args, kwargs, rows):
    c = tr.counts
    c["experiments.rows"] += len(rows)
    c["experiments.rows_failed"] += sum(r.error is not None for r in rows)
    ratios = [r.simulated_critical / r.analytic_dm for r in rows
              if r.simulated_critical is not None]
    if ratios:
        c["experiments.critical_over_dm_sum"] += sum(ratios)
        c["experiments.critical_over_dm_n"] += len(ratios)
    if args[0].kind == "missratio_sweep":
        c["experiments.top_miss_ratio"] += rows[-1].miss_ratio


def install(tracer: Tracer, full: bool) -> None:
    """Replication clock always; every layer boundary when `full`."""
    if not full:
        tracer.patch(sc, "generate_workload", "simcore.workload")
        tracer.patch(sc, "run_simulation", "simcore.loop", _keep_metrics)
        return
    tracer.patch(sc, "generate_workload", "simcore.workload", _on_workload)
    tracer.patch(sc, "run_simulation", "simcore.loop", _on_simulation)
    tracer.patch(sc, "admissible_transmissions", "simcore.mac", _on_mac)
    tracer.patch(sc, "measured_capacity_consumption", "simcore.snapshot")
    tracer.patch(sc, "run_replications", "simcore.replications")
    tracer.patch(tp, "make_network", "topology.make_network")
    tracer.patch(tp, "generate_perturbed_grid", "topology.grid")
    tracer.patch(tp, "compute_adjacency", "topology.adjacency", _on_adjacency,
                 rss=True)
    tracer.patch(tp, "place_sinks", "topology.sinks")
    tracer.patch(tp, "build_routes", "topology.routes")
    tracer.patch(tp, "topology_stats", "topology.stats")
    tracer.patch(an, "convergecast_dm_sink_utilization", "analytics.dm_solve",
                 _counter("analytics.dm_solves"))
    tracer.patch(an, "rtcc_convergecast", "analytics.bound",
                 _counter("analytics.bound_calls"))
    tracer.patch(ex, "run_sweep", "experiments.sweep", _on_sweep)
    tracer.patch(ex, "emit_csv", "experiments.csv")
    tracer.patch(cli, "dispatch", "cli.dispatch")


# ---- the job loop -------------------------------------------------------

def measure(workload, seconds: float, full: bool) -> dict:
    """Repeat the workload's job for `seconds`; check every job's output."""
    tracer = RunTracer()
    job_s, op_s, per_job_counts, digests, failures = [], [], [], set(), []
    # host slowness sampled before the first job and after every job
    slow = [[calibrate.slowness() for _ in range(calibrate.FIRST_SAMPLES)]]
    attempted = failed = 0
    with tracer:
        install(tracer, full)
        # at least one job; another only if a typical one still fits
        deadline = time.perf_counter() + seconds
        while not job_s or (time.perf_counter() + statistics.median(job_s)
                            <= deadline):
            tracer.job = len(job_s)
            first_span = len(tracer.spans)
            before = Counter(tracer.counts)
            with tracer.span("bench.job") as root:
                try:
                    result, error = workload.job(), None
                except Exception:
                    result, error = None, traceback.format_exc()
            job_s.append(root[END] - root[START])
            if error is None:
                tracer.counts.update(workload.diagnostics(result))
            per_job_counts.append(dict(tracer.counts - before))

            # a replication runs from its workload generation, if it has
            # one of its own, to the end of its simulation
            rep_s, start = [], None
            for span in tracer.spans[first_span:]:
                if span[NAME] == "simcore.workload" and start is None:
                    start = span[START]
                elif span[NAME] == "simcore.loop":
                    rep_s.append(span[END] - (span[START] if start is None
                                              else start))
                    start = None

            op_s.append(workload.op_times(result, rep_s) if error is None else [])
            if error is None:
                checks, job_digest = workload.check(result, tracer.replications,
                                                    first=len(job_s) == 1)
                digests.add(job_digest)
                if len(job_s) > 1:
                    checks.append(("same digest as the first job",
                                   len(digests) == 1))
            else:
                checks = [("job raised", False)]
                failures.append(error)
            tracer.replications.clear()
            result = None
            attempted += len(checks)
            for label, ok in checks:
                if not ok:
                    failed += 1
                    failures.append(f"job {len(job_s) - 1}: {label}")
            slow.append([calibrate.slowness()
                         for _ in range(calibrate.samples_after(job_s[-1]))])
    # each job's slowness: the mean of the samples just before and after it
    around = [statistics.median(g) for g in slow]
    job_slowness = [(a + b) / 2 for a, b in zip(around, around[1:])]
    return {"tracer": tracer, "job_s": job_s, "job_slowness": job_slowness,
            "op_s": op_s,
            "per_job_counts": per_job_counts, "digests": sorted(digests),
            "attempted": attempted, "failed": failed, "failures": failures[:20]}


def rescaled_wall(run: dict) -> float:
    """Median over jobs of job time divided by the host slowness around it."""
    return statistics.median(t / s for t, s in zip(run["job_s"],
                                                   run["job_slowness"]))


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-job per-layer numbers from a traced phase, in host seconds."""
    tracer, jobs = traced["tracer"], len(traced["job_s"])
    own = self_time_by_name(tracer.spans)
    c = tracer.counts

    def self_s(name):
        return own.get(name, 0.0) / jobs

    def layer_s(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix)) / jobs

    def count(key):
        return c[key] / jobs

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    loop_total = sum(s[END] - s[START] for s in tracer.spans
                     if s[NAME] == "simcore.loop")
    events = c["simcore.packets_used"] + c["simcore.mac_grants"]
    return {
        "topology.grid_s": self_s("topology.grid"),
        "topology.adjacency_s": self_s("topology.adjacency"),
        "topology.adjacency_rss_mb": c["topology.adjacency.rss_mb"],
        "topology.sinks_s": self_s("topology.sinks"),
        "topology.routes_s": self_s("topology.routes"),
        "topology.stats_s": self_s("topology.stats"),
        "topology.self_s": layer_s("topology."),
        "topology.nodes": count("topology.nodes"),
        "topology.edges": count("topology.edges"),
        "topology.adjacency_calls": count("topology.adjacency_calls"),
        "analytics.dm_solve_s": self_s("analytics.dm_solve"),
        "analytics.dm_solves": count("analytics.dm_solves"),
        "analytics.bound_s": self_s("analytics.bound"),
        "analytics.bound_calls": count("analytics.bound_calls"),
        "analytics.self_s": layer_s("analytics."),
        "simcore.workload_s": self_s("simcore.workload"),
        "simcore.packets_generated": count("simcore.packets_generated"),
        "simcore.packets_used": count("simcore.packets_used"),
        "simcore.packets_used_ratio": ratio("simcore.packets_used",
                                            "simcore.packets_generated"),
        "simcore.mac_s": self_s("simcore.mac"),
        "simcore.mac_passes": count("simcore.mac_passes"),
        "simcore.mac_candidates": count("simcore.mac_candidates"),
        "simcore.mac_grants": count("simcore.mac_grants"),
        "simcore.mac_grant_ratio": ratio("simcore.mac_grants",
                                         "simcore.mac_candidates"),
        "simcore.loop_self_s": self_s("simcore.loop"),
        "simcore.snapshot_s": self_s("simcore.snapshot"),
        "simcore.sim_s": count("simcore.sim_s"),
        "simcore.events_per_s": events / loop_total if loop_total else 0.0,
        "simcore.delivered": count("simcore.delivered"),
        "simcore.misses": count("simcore.misses"),
        "simcore.self_s": layer_s("simcore."),
        "experiments.sweep_self_s": self_s("experiments.sweep"),
        "experiments.csv_s": self_s("experiments.csv"),
        "experiments.rows": count("experiments.rows"),
        "experiments.rows_failed": count("experiments.rows_failed"),
        "experiments.critical_over_dm": ratio("experiments.critical_over_dm_sum",
                                              "experiments.critical_over_dm_n"),
        "experiments.top_miss_ratio": count("experiments.top_miss_ratio"),
        "experiments.self_s": layer_s("experiments."),
        "cli.self_s": layer_s("cli."),
        "bench.self_s": layer_s("bench."),
        "trace.wall_s": sum(traced["job_s"]) / jobs,
        "trace.spans": len(tracer.spans) / jobs,
        "trace.overhead_ratio": (rescaled_wall(traced) / rescaled_wall(untraced)
                                 - 1.0),
    }


def exact_counts(per_job_counts: list) -> list:
    """Counts that read the same in every job of the run."""
    keys = set().union(*per_job_counts) if per_job_counts else set()
    return sorted(k for k in keys
                  if len({repr(c.get(k)) for c in per_job_counts}) == 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        report = {"ready": time.monotonic()}
        if not args.setup_only:
            report.update(run(workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run(workload, args) -> dict:
    # a traced half runs first, so growth of peak RSS across the first
    # adjacency call is measured from a fresh process
    seconds = args.seconds / 2 if args.trace else args.seconds
    traced = measure(workload, seconds, full=True) if args.trace else None
    plain = measure(workload, seconds, full=False)
    report = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "job_s": plain["job_s"], "job_slowness": plain["job_slowness"],
        "op": workload.op,
        "op_s": plain["op_s"],
        "peak_rss_mb": max_rss_mb(),
        "digests": plain["digests"],
        "attempted": plain["attempted"], "failed": plain["failed"],
        "failures": plain["failures"],
    }
    if traced is not None:
        report["layers"] = layer_metrics(traced, plain)
        report["exact_counts"] = exact_counts(traced["per_job_counts"])
        report["traced_slowness"] = traced["job_slowness"]
        report["digests"] = sorted(set(plain["digests"]) | set(traced["digests"]))
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        report["failures"] += traced["failures"]
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced["tracer"].write(spans_path)
        report["spans_path"] = spans_path
    return report


if __name__ == "__main__":
    sys.exit(main())
