"""Parameter sweeps that pair analytic capacity bounds with simulated
critical capacity, and byte-stable CSV output.

Five sweep kinds are supported:

* balanced_curves      analytic DM/EDF limits vs path length
* convergecast_curves  analytic DM/EDF limits vs sink hop radius
* radio_sweep          simulated critical capacity vs radio range
* sink_sweep           simulated critical capacity vs sink count
* missratio_sweep      miss ratio vs offered load as a multiple of the
                       analytic bound

Simulation rows always evaluate the analytic bound from the topology
statistics actually measured on that row's network (neighborhood bound,
disk population, hop radius), never from nominal inputs. Every row carries
its seed range and the sweep's configuration hash, and identical sweeps
produce byte-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from . import __version__
from . import analytics as an
from . import simcore as sc
from . import topology as tp

SWEEP_KINDS = ("balanced_curves", "convergecast_curves", "radio_sweep",
               "sink_sweep", "missratio_sweep")

_ANALYTIC_KINDS = ("balanced_curves", "convergecast_curves")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: the swept variable plus every fixed parameter.

    `analytic` supplies bandwidth and the inversion factor everywhere; its
    remaining fields matter only for the two analytic sweep kinds. The grid,
    radio range, and sink placement fields describe the simulated network;
    `sim` the workload. `load_factor` sets the probe load for critical-
    capacity runs as a multiple of the measured-topology DM bound.
    """

    kind: str
    values: tuple
    analytic: an.AnalyticParams
    sim: sc.SimConfig = sc.SimConfig()
    rows: int = 20
    cols: int = 20
    spacing: float = 10.0
    jitter: float = 0.25
    radio_range: float = 20.0
    sink_count: int = 12
    sink_mode: str = "subgrid"
    mode: str = an.EXACT
    load_factor: float = 1.5
    replication_count: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.values:
            raise ValueError("swept values must be non-empty")
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        if any(v <= 0 for v in self.values):
            raise ValueError("swept values must be positive")
        if self.kind == "sink_sweep":
            if any(int(v) != v for v in self.values):
                raise ValueError("sink counts must be integers")
            if max(self.values) > self.rows * self.cols:
                raise ValueError("more sinks than nodes")
        if self.kind in ("balanced_curves", "convergecast_curves"):
            if any(v < 1 for v in self.values):
                raise ValueError("hop counts must be >= 1")
        if self.replication_count < 1:
            raise ValueError("replication_count must be >= 1")
        if not (self.load_factor > 0):
            raise ValueError("load_factor must be > 0")


@dataclass(frozen=True)
class ResultRow:
    swept_value: float
    analytic_dm: float
    analytic_edf: float
    simulated_critical: Optional[float] = None
    miss_ratio: Optional[float] = None
    offered_demand: Optional[float] = None
    neighborhood_bound: Optional[int] = None
    nodes_per_disk: Optional[int] = None
    max_hops: Optional[int] = None
    seed_lo: int = 0
    seed_hi: int = 0
    config_hash: str = ""
    error: Optional[str] = None


def config_hash(spec: SweepSpec) -> str:
    """Deterministic 12-hex-digit digest of every sweep parameter."""
    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def load_multiplier_series(start: float = 0.25, stop: float = 4.0,
                           step: float = 1.25) -> tuple:
    """Multiplicative load grid for the miss-ratio sweep: start, start*step,
    ... capped so the final point is exactly `stop`."""
    out = []
    v = start
    while v < stop * (1 - 1e-12):
        out.append(round(v, 12))
        v *= step
    out.append(stop)
    return tuple(out)


def probe_rate(target_demand: float, routes: tp.RouteTable,
               packet_size: float) -> float:
    """Per-node arrival rate whose offered demand (bit-hops per second)
    matches target_demand on this route table."""
    total_hops = sum(h for v, h in routes.hop_count.items() if h > 0)
    if total_hops == 0:
        raise ValueError("route table carries no multi-hop traffic")
    return target_demand / (packet_size * total_hops)


def _measured_bounds(spec: SweepSpec, topo: tp.Topology, routes: tp.RouteTable):
    """Analytic convergecast bounds from the measured topology statistics."""
    stats = tp.topology_stats(topo, routes)
    params = an.AnalyticParams(
        node_count=topo.node_count,
        bandwidth=spec.analytic.bandwidth,
        neighborhood_bound=stats.neighborhood_bound,
        inversion_factor=spec.analytic.inversion_factor,
        nodes_per_disk=max(1, stats.nodes_per_disk),
        max_hops=max(1, stats.max_hops),
        sink_count=len(routes.sinks))
    dm = an.rtcc_convergecast(an.DM, params, mode=an.EXACT)
    edf = an.rtcc_convergecast(an.EDF, params, mode=spec.mode)
    return stats, dm, edf


def _simulation_row(spec: SweepSpec, value, digest: str) -> ResultRow:
    """Build the row's own network, measure its bounds, and run seeded
    replications at a load that is a multiple of the measured DM bound.

    The swept value is the radio range for radio_sweep, the sink count for
    sink_sweep, and the load multiple for missratio_sweep; the other kinds
    load at spec.load_factor and stop each run at its first miss. The row's
    critical capacity is the minimum first-miss consumption across
    replications.
    """
    radio_range = value if spec.kind == "radio_sweep" else spec.radio_range
    sink_count = int(value) if spec.kind == "sink_sweep" else spec.sink_count
    topo, routes = tp.make_network(spec.rows, spec.cols, spec.spacing, spec.jitter,
                                   spec.base_seed, radio_range, sink_count,
                                   spec.sink_mode)
    stats, dm, edf = _measured_bounds(spec, topo, routes)
    missratio = spec.kind == "missratio_sweep"
    load = value if missratio else spec.load_factor
    cfg = replace(spec.sim,
                  arrival_rate=probe_rate(load * dm.value, routes,
                                          spec.sim.packet_size),
                  seed=spec.base_seed, replication_count=spec.replication_count,
                  stop_at_first_miss=not missratio)
    metrics = sc.run_replications(topo, routes, cfg)
    return ResultRow(
        swept_value=value, analytic_dm=dm.value, analytic_edf=edf.value,
        simulated_critical=sc.critical_capacity(metrics).value,
        miss_ratio=(float(np.mean([m.miss_ratio for m in metrics]))
                    if missratio else None),
        offered_demand=float(np.mean([m.offered_demand for m in metrics])),
        neighborhood_bound=stats.neighborhood_bound,
        nodes_per_disk=stats.nodes_per_disk, max_hops=stats.max_hops,
        seed_lo=spec.base_seed, seed_hi=spec.base_seed + spec.replication_count - 1,
        config_hash=digest)


def _analytic_row(spec: SweepSpec, value, digest: str) -> ResultRow:
    """Closed-form DM and EDF limits at one path length (balanced_curves)
    or sink hop radius (convergecast_curves)."""
    if spec.kind == "balanced_curves":
        params = replace(spec.analytic, path_length=value)
        dm, edf = (an.rtcc_balanced(s, params) for s in (an.DM, an.EDF))
    else:
        params = replace(spec.analytic, max_hops=value)
        dm, edf = (an.rtcc_convergecast(s, params, mode=spec.mode)
                   for s in (an.DM, an.EDF))
    return ResultRow(swept_value=value, analytic_dm=dm.value,
                     analytic_edf=edf.value, seed_lo=spec.base_seed,
                     seed_hi=spec.base_seed, config_hash=digest)


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the sweep and return one ResultRow per swept value, in order.

    Analytic kinds evaluate the closed forms directly. Simulation kinds build
    the network for each swept value, measure its statistics, derive the
    analytic bound from them, and aggregate seeded replications. A failure in
    one simulated value flags that row and the sweep continues.
    """
    digest = config_hash(spec)
    rows = []
    for value in spec.values:
        if spec.kind in _ANALYTIC_KINDS:
            rows.append(_analytic_row(spec, value, digest))
            continue
        try:
            rows.append(_simulation_row(spec, value, digest))
        except (tp.RoutingError, an.SolverError, sc.InvariantError, ValueError) as err:
            rows.append(ResultRow(
                swept_value=value, analytic_dm=float("nan"),
                analytic_edf=float("nan"), seed_lo=spec.base_seed,
                seed_hi=spec.base_seed + spec.replication_count - 1,
                config_hash=digest, error=f"{type(err).__name__}: {err}"))
    return rows


_CSV_COLUMNS = ("swept_value", "analytic_dm", "analytic_edf", "simulated_critical",
                "miss_ratio", "offered_demand", "neighborhood_bound",
                "nodes_per_disk", "max_hops", "seed_lo", "seed_hi",
                "config_hash", "error")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def emit_csv(rows: Iterable, destination, spec: Optional[SweepSpec] = None) -> None:
    """Write rows as CSV: a comment block with the full configuration, one
    column-name header, one line per row. Numeric cells use 9 significant
    digits so repeated identical sweeps are byte-identical."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    lines = ["# rtcap sweep results", f"# tool_version={__version__}"]
    if spec is not None:
        lines.append(f"# config_hash={config_hash(spec)}")
        for key, value in sorted(dataclasses.asdict(spec).items()):
            lines.append(f"# {key}={value}")
    lines.append(",".join(_CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in _CSV_COLUMNS))
    with open(destination, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_filename(spec: SweepSpec) -> str:
    if spec.kind in _ANALYTIC_KINDS:
        node_count = spec.analytic.node_count
    else:
        node_count = spec.rows * spec.cols
    return f"{spec.kind}_{node_count}_{config_hash(spec)}.csv"
