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

    `analytic` supplies the inversion factor everywhere, and a bandwidth
    that must equal `sim.bandwidth`; its other fields matter only for the
    two analytic kinds. The grid, radio range, and sink fields describe the
    simulated network; `sim` the workload, the seed and the replication
    count. `load_factor` sets the probe load for critical-capacity runs as a
    multiple of the measured-topology DM bound.
    """

    kind: str
    values: tuple
    analytic: an.AnalyticParams
    sim: sc.SimConfig = sc.SimConfig(replication_count=10)
    rows: int = 20
    cols: int = 20
    spacing: float = 10.0
    jitter: float = 0.25
    radio_range: float = 20.0
    sink_count: int = 12
    sink_mode: str = "subgrid"
    mode: str = an.EXACT
    load_factor: float = 1.5

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.values:
            raise ValueError("swept values must be non-empty")
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        if any(v <= 0 for v in self.values):
            raise ValueError("swept values must be positive")
        if self.kind == "sink_sweep":
            if not all(float(v).is_integer() for v in self.values):
                raise ValueError("sink counts must be integers")
            if max(self.values) > self.rows * self.cols:
                raise ValueError("more sinks than nodes")
        if self.kind in _ANALYTIC_KINDS:
            if any(v < 1 for v in self.values):
                raise ValueError("hop counts must be >= 1")
        if not (self.load_factor > 0):
            raise ValueError("load_factor must be > 0")
        if self.analytic.bandwidth != self.sim.bandwidth:
            raise ValueError(f"analytic bandwidth {self.analytic.bandwidth!r} "
                             f"differs from sim bandwidth {self.sim.bandwidth!r}")


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


# the fixed parameter each simulation kind's swept value replaces
_SWEPT_FIELD = {"radio_sweep": "radio_range", "sink_sweep": "sink_count",
                "missratio_sweep": "load_factor"}

# the fixed fields a simulated row reads, `section.field` inside `analytic`
# and `sim`; every simulated row sets `sim.arrival_rate` and
# `sim.stop_at_first_miss` itself
_SIMULATION_READS = (
    "rows", "cols", "spacing", "jitter", "radio_range", "sink_count", "sink_mode",
    "mode", "load_factor", "analytic.bandwidth", "analytic.inversion_factor",
    "sim.bandwidth", "sim.packet_size", "sim.deadline_set", "sim.duration",
    "sim.drop_on_miss", "sim.seed", "sim.replication_count")

# the fixed fields each kind's rows read besides its swept values; analytic
# rows read the seed only into seed_lo/seed_hi
_READS = {
    "balanced_curves": ("analytic.node_count", "analytic.bandwidth",
                        "analytic.neighborhood_bound", "analytic.inversion_factor",
                        "sim.seed"),
    "convergecast_curves": ("analytic.bandwidth", "analytic.inversion_factor",
                            "analytic.nodes_per_disk", "analytic.sink_count",
                            "mode", "sim.seed"),
    **{kind: tuple(f for f in _SIMULATION_READS if f != swept)
       for kind, swept in _SWEPT_FIELD.items()},
}


def _recorded(spec: SweepSpec) -> dict:
    """The spec as its hash and CSV header record it: the kind, the swept
    values, and the fields of `_READS[kind]`, nested as in the spec."""
    reads = _READS[spec.kind]
    recorded = {}
    for key, value in dataclasses.asdict(spec).items():
        if isinstance(value, dict):
            recorded[key] = {k: v for k, v in value.items() if f"{key}.{k}" in reads}
        elif key in ("kind", "values") or key in reads:
            recorded[key] = value
    return recorded


def config_hash(spec: SweepSpec) -> str:
    """Deterministic 12-hex-digit digest of the recorded sweep parameters."""
    payload = json.dumps(_recorded(spec), sort_keys=True, default=str)
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

    The swept value replaces the kind's `_SWEPT_FIELD`: the radio range,
    the sink count, or the load multiple of missratio_sweep, whose runs go
    the full duration; the other kinds stop each run at its first miss. The
    row's critical capacity is the minimum first-miss consumption across
    replications. A failure flags the row instead of raising.
    """
    seeds = dict(seed_lo=spec.sim.seed,
                 seed_hi=spec.sim.seed + spec.sim.replication_count - 1)
    missratio = spec.kind == "missratio_sweep"
    try:
        spec = replace(spec, **{_SWEPT_FIELD[spec.kind]: value})
        topo, routes = tp.make_network(spec.rows, spec.cols, spec.spacing,
                                       spec.jitter, spec.sim.seed, spec.radio_range,
                                       int(spec.sink_count), spec.sink_mode)
        stats, dm, edf = _measured_bounds(spec, topo, routes)
        cfg = replace(spec.sim,
                      arrival_rate=probe_rate(spec.load_factor * dm.value, routes,
                                              spec.sim.packet_size),
                      stop_at_first_miss=not missratio)
        metrics = sc.run_replications(topo, routes, cfg)
    except (tp.RoutingError, an.SolverError, sc.InvariantError, ValueError) as err:
        return ResultRow(swept_value=value, analytic_dm=float("nan"),
                         analytic_edf=float("nan"), config_hash=digest,
                         error=f"{type(err).__name__}: {err}", **seeds)
    return ResultRow(
        swept_value=value, analytic_dm=dm.value, analytic_edf=edf.value,
        simulated_critical=sc.critical_capacity(metrics).value,
        miss_ratio=(float(np.mean([m.miss_ratio for m in metrics]))
                    if missratio else None),
        offered_demand=float(np.mean([m.offered_demand for m in metrics])),
        neighborhood_bound=stats.neighborhood_bound,
        nodes_per_disk=stats.nodes_per_disk, max_hops=stats.max_hops,
        config_hash=digest, **seeds)


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
                     analytic_edf=edf.value, seed_lo=spec.sim.seed,
                     seed_hi=spec.sim.seed, config_hash=digest)


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the sweep and return one ResultRow per swept value, in order.

    Analytic kinds evaluate the closed forms directly. Simulation kinds build
    the network for each swept value, measure its statistics, derive the
    analytic bound from them, and aggregate seeded replications. A failure in
    one simulated value flags that row and the sweep continues.
    """
    digest = config_hash(spec)
    row = _analytic_row if spec.kind in _ANALYTIC_KINDS else _simulation_row
    return [row(spec, value, digest) for value in spec.values]


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
    """Write rows as CSV: a comment block with the recorded configuration
    (see `_recorded`), one column-name header, one line per row. Numeric
    cells use 9 significant digits so repeated identical sweeps are
    byte-identical."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    lines = ["# rtcap sweep results", f"# tool_version={__version__}"]
    if spec is not None:
        lines.append(f"# config_hash={config_hash(spec)}")
        for key, value in sorted(_recorded(spec).items()):
            lines.append(f"# {key}={value}")
    lines.append(",".join(_CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in _CSV_COLUMNS))
    with open(destination, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_filename(spec: SweepSpec) -> str:
    """`<kind>_<node count>_<config hash>.csv`, with the node count only for
    kinds whose rows read one: the analytic node count of balanced_curves,
    the grid size of the simulation kinds."""
    reads = _READS[spec.kind]
    if "analytic.node_count" in reads:
        return f"{spec.kind}_{spec.analytic.node_count}_{config_hash(spec)}.csv"
    if "rows" in reads:
        return f"{spec.kind}_{spec.rows * spec.cols}_{config_hash(spec)}.csv"
    return f"{spec.kind}_{config_hash(spec)}.csv"
