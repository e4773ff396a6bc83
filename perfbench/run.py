"""rtcap benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload steady --seed 3 --seconds 20 --trace 0

Run from the repository root. Workloads are listed in BENCHMARK.json and
explained in perfbench/README.md. With --trace 0 the metrics are the
end-to-end ones. Job, operation and set-up times are divided by the host
slowness measured around them (calibrate.py):

  wall_s       median over jobs of one job's host time after set-up
  setup_s      median of five set-ups, each in its own process: interpreter
               start, import rtcap, and whatever the workload builds before
               its job
  op_ms_mean   median over jobs of the job's mean operation time: an
               operation is a replication (probe, steady, knee) or a DM
               root solve (build)
  peak_rss_mb  peak resident memory of the measuring process

With --trace 1 they are the per-layer ones from a traced run. The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
lines before it print every metric by name and unit, the raw times, the
run record and the result digest. A copy goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "op_ms_mean": "ms",
              "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, timeout: float) -> tuple:
    """Run worker.py; return (monotonic time at spawn, its JSON report).
    Its report's "ready" is its own monotonic clock at the end of set-up,
    which on Linux is the same clock as ours.

    subprocess.run kills and reaps the child when the timeout expires.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, env=_env(), timeout=max(timeout, 1.0),
        text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _record(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(), "python_exe": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg())}


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("probe", "steady", "knee", "build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "rtcap", "__init__.py")):
        print("perfbench: run from the repository root; src/rtcap is missing",
              file=sys.stderr)
        return 2
    began = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    record = _record(args)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining():
        return DEADLINE_S - (time.monotonic() - began)

    setups = []     # (raw set-up time, host slowness around it)
    if not args.trace:
        # an uncounted set-up first, so every counted one finds warm
        # bytecode caches, as a user's second run would
        _worker(common + ["--setup-only"], remaining())
        calibrate.slowness()        # uncounted too: warms the kernel
        before = calibrate.slowness()
        for _ in range(SETUP_SAMPLES):
            t0, rep = _worker(common + ["--setup-only"], remaining())
            after = calibrate.slowness()
            setups.append((rep["ready"] - t0, (before + after) / 2))
            before = after
    _, rep = _worker(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], remaining())
    emit(record, rep, setups, args)
    return 0


def end_to_end(rep: dict, setups: list) -> tuple:
    """The end-to-end metrics {name: (value, unit)} and their raw values,
    from the worker's report and the (set-up time, host slowness) pairs.
    op_ms_mean is left out when no job gave operation times, as when every
    job raised."""
    jobs = list(zip(rep["job_s"], rep["job_slowness"], rep["op_s"]))
    raw = {"wall_s": statistics.median(rep["job_s"]),
           "setup_s": statistics.median(t for t, _ in setups)}
    values = {"wall_s": statistics.median(t / slow for t, slow, _ in jobs),
              "setup_s": statistics.median(t / slow for t, slow in setups),
              "peak_rss_mb": rep["peak_rss_mb"]}
    if any(ops for _, _, ops in jobs):
        raw["op_ms_mean"] = statistics.median(
            1000.0 * statistics.fmean(ops) for _, _, ops in jobs if ops)
        values["op_ms_mean"] = statistics.median(
            1000.0 * statistics.fmean(ops) / slow
            for _, slow, ops in jobs if ops)
    return ({k: (values[k], unit) for k, unit in END_TO_END.items()
             if k in values}, raw)


def emit(record: dict, rep: dict, setups: list, args) -> dict:
    """Print the run record, digests, failures and metrics, keep a copy in
    OUT_DIR, and print the result JSON as the last line."""
    ops_rescaled = [1000.0 * t / slow
                    for slow, ops in zip(rep["job_slowness"], rep["op_s"])
                    for t in ops]
    record.update(python=rep["python"], numpy=rep["numpy"], job_s=rep["job_s"],
                  job_host_slowness=rep["job_slowness"],
                  operations=len(ops_rescaled),
                  operation=rep["op"], digests=rep["digests"],
                  failures=rep["failures"])
    if args.trace:
        record["traced_host_slowness"] = rep["traced_slowness"]
        metrics = {k: (v, _unit(k)) for k, v in sorted(rep["layers"].items())}
    else:
        metrics, raw = end_to_end(rep, setups)
        record.update(setup_s=[t for t, _ in setups],
                      setup_host_slowness=[slow for _, slow in setups],
                      raw=raw)

    print("record " + json.dumps(record))
    for d in rep["digests"]:
        print(f"digest {d}")
    for failure in rep["failures"]:
        print(f"FAILED {failure}")
    exact = set(rep.get("exact_counts", ()))
    for name, (value, unit) in metrics.items():
        mark = "  (exact: same in every job)" if name in exact else ""
        print(f"{name} = {value!r} {unit}{mark}")
    if not args.trace:
        for name in END_TO_END.keys() - metrics.keys():
            print(f"{name} missing: no job gave operation times")
        print("host slowness per set-up = "
              + ", ".join(f"{slow:.3f}" for _, slow in setups)
              + "; per job = "
              + ", ".join(f"{s:.3f}" for s in rep["job_slowness"])
              + "; as measured: "
              + ", ".join(f"{k} = {v!r}" for k, v in raw.items()))
        # the tail percentile with at least ten samples beyond it
        for q in (99, 90):
            if len(ops_rescaled) >= 10 * 100 // (100 - q):
                print(f"op_ms_p{q} = {_percentile(ops_rescaled, q)!r} ms "
                      f"({len(ops_rescaled)} {rep['op']}s)")
                break
        print(f"failed_share = {rep['failed'] / rep['attempted']!r} "
              f"({rep['failed']} of {rep['attempted']} operations)")

    result = {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
              "failed": rep["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return result


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_rss_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("sim_s"):
        return "sim-s"      # simulated seconds, not host time
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_over_dm")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
