"""Parameter sweeps that pair analytic capacity bounds with simulated
critical capacity, and byte-stable CSV output.

Five sweep kinds are supported. A `CurveSpec` describes the two closed-form
kinds:

* balanced_curves      analytic DM/EDF limits vs path length
* convergecast_curves  analytic DM/EDF limits vs sink hop radius

and a `SweepSpec` the three simulated convergecast kinds:

* radio_sweep          simulated critical capacity vs radio range
* sink_sweep           simulated critical capacity vs sink count
* missratio_sweep      miss ratio vs offered load as a multiple of the
                       analytic bound

Simulation rows always evaluate the analytic bound from the topology
statistics actually measured on that row's network (neighborhood bound,
disk population, hop radius), never from nominal inputs, and carry the seed
range of their replications. Curve rows carry no seed range: no seed enters
a closed form. Every row carries the sweep's configuration hash, and
identical sweeps produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from . import __version__
from . import analytics as an
from . import simcore as sc
from . import topology as tp

# the `analytic` fields each closed form reads besides the swept one
_CURVE_READS = {
    "balanced_curves": ("node_count", "bandwidth", "neighborhood_bound",
                        "inversion_factor"),
    "convergecast_curves": ("bandwidth", "inversion_factor", "nodes_per_disk",
                            "sink_count"),
}

# the fixed field each simulated kind's swept value replaces
_SWEPT_FIELD = {"radio_sweep": "radio_range", "sink_sweep": "sink_count",
                "missratio_sweep": "load_factor"}

# the kinds a CurveSpec describes; SweepSpec describes the others
CURVE_KINDS = tuple(_CURVE_READS)
SWEEP_KINDS = (*CURVE_KINDS, *_SWEPT_FIELD)


def _swept_values(kind: str, values, whole: bool) -> tuple:
    """The swept values in ascending order. Each must be > 0, which NaN is
    not, and appear once; with `whole`, each must be a whole number and
    becomes an int, so `(1.0, 2.0)` and `(1, 2)` describe one sweep."""
    if not values:
        raise ValueError("swept values must be non-empty")
    if not all(v > 0 for v in values):
        raise ValueError("swept values must be > 0")
    if whole:
        if not all(float(v).is_integer() for v in values):
            raise ValueError(f"{kind} values must be integers")
        values = [int(v) for v in values]
    values = tuple(sorted(values))
    repeated = [a for a, b in zip(values, values[1:]) if a == b]
    if repeated:
        raise ValueError(f"swept value {repeated[0]!r} is repeated")
    return values


@dataclass(frozen=True)
class CurveSpec:
    """A closed-form sweep: DM and EDF limits against path length
    (balanced_curves) or sink hop radius (convergecast_curves).

    The swept value replaces `analytic.path_length` or `analytic.max_hops`.
    `mode` is the convergecast evaluation mode; an exact sweep's hop radii
    must be whole numbers. No seed enters a closed form.
    """

    kind: str
    values: tuple
    analytic: an.AnalyticParams
    mode: str = an.EXACT

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.mode not in (an.EXACT, an.APPROXIMATE):
            raise ValueError(f"unknown mode {self.mode!r}, "
                             "expected exact or approximate")
        whole = self.kind == "convergecast_curves" and self.mode == an.EXACT
        object.__setattr__(self, "values",
                           _swept_values(self.kind, self.values, whole))
        if self.values[0] < 1:
            raise ValueError("hop counts must be >= 1")


@dataclass(frozen=True)
class SweepSpec:
    """A simulated convergecast sweep: the swept variable plus the network,
    the workload and the settings of the measured bounds.

    The grid, radio range, and sink count describe the network each row
    builds, its sinks placed by `topology.place_sinks`; `sim` the workload,
    the seed, the replication count and the channel bandwidth the bounds
    are computed for. Both bounds are exact; `inversion_factor` scales them.
    `load_factor` sets the probe load for critical-capacity runs as a
    multiple of the measured-topology DM bound. The swept value replaces
    `radio_range` (radio_sweep), `sink_count` (sink_sweep, whole numbers) or
    `load_factor` (missratio_sweep).
    """

    kind: str
    values: tuple
    sim: sc.SimConfig = sc.SimConfig(replication_count=10)
    rows: int = 20
    cols: int = 20
    spacing: float = 10.0
    jitter: float = 0.25
    radio_range: float = 20.0
    sink_count: int = 12
    inversion_factor: float = 2.0
    load_factor: float = 1.5

    def __post_init__(self):
        if self.kind not in _SWEPT_FIELD:
            raise ValueError(f"unknown simulated sweep kind {self.kind!r}")
        object.__setattr__(self, "values",
                           _swept_values(self.kind, self.values,
                                         self.kind == "sink_sweep"))
        if self.kind == "sink_sweep" and self.values[-1] > self.rows * self.cols:
            raise ValueError("more sinks than nodes")
        if not 1.0 <= self.inversion_factor <= 2.0:
            raise ValueError("inversion_factor must lie in [1, 2]")
        if not 0 < self.load_factor < math.inf:
            raise ValueError("load_factor must be finite and > 0")


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
    seed_lo: Optional[int] = None
    seed_hi: Optional[int] = None
    config_hash: str = ""
    error: Optional[str] = None


def _recorded(spec: CurveSpec | SweepSpec) -> dict:
    """The spec as its hash and CSV header record it: every field its rows
    read. A curve records its kind, values, the `analytic` fields of
    `_CURVE_READS` and, for convergecast, the mode. A simulated sweep
    records all of itself except the swept field and the two `sim` fields
    each row sets itself, `arrival_rate` and `stop_at_first_miss`."""
    recorded = dataclasses.asdict(spec)
    if isinstance(spec, CurveSpec):
        reads = _CURVE_READS[spec.kind]
        recorded["analytic"] = {k: v for k, v in recorded["analytic"].items()
                                if k in reads}
        if spec.kind != "convergecast_curves":
            del recorded["mode"]
        return recorded
    del recorded[_SWEPT_FIELD[spec.kind]]
    del recorded["sim"]["arrival_rate"], recorded["sim"]["stop_at_first_miss"]
    return recorded


def config_hash(spec: CurveSpec | SweepSpec) -> str:
    """Deterministic 12-hex-digit digest of the recorded sweep parameters."""
    payload = json.dumps(_recorded(spec), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def load_multiplier_series() -> tuple:
    """Multiplicative load grid for the miss-ratio sweep: 0.25, 0.25*1.25,
    ... capped so the final point is exactly 4.0."""
    out = []
    v = 0.25
    while v < 4.0 * (1 - 1e-12):
        out.append(round(v, 12))
        v *= 1.25
    out.append(4.0)
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
        bandwidth=spec.sim.bandwidth,
        neighborhood_bound=stats.neighborhood_bound,
        inversion_factor=spec.inversion_factor,
        nodes_per_disk=max(1, stats.nodes_per_disk),
        max_hops=max(1, stats.max_hops),
        sink_count=len(routes.sinks))
    dm, edf = (an.rtcc_convergecast(s, params, mode=an.EXACT)
               for s in (an.DM, an.EDF))
    return stats, dm, edf


def _simulation_row(spec: SweepSpec, value) -> dict:
    """The cells of one simulated row: build the row's own network, measure
    its bounds, and run seeded replications at a load that is a multiple of
    the measured DM bound.

    The swept value replaces the kind's `_SWEPT_FIELD` through the spec,
    whose checks apply to it: the radio range, the sink count, or the load
    multiple of missratio_sweep, whose runs go the full duration; the other
    kinds stop each run at its first miss. The row's critical capacity is
    the minimum first-miss consumption across replications.
    """
    row = replace(spec, **{_SWEPT_FIELD[spec.kind]: value})
    missratio = row.kind == "missratio_sweep"
    topo, routes = tp.make_network(row.rows, row.cols, row.spacing, row.jitter,
                                   row.sim.seed, row.radio_range,
                                   row.sink_count)
    stats, dm, edf = _measured_bounds(row, topo, routes)
    cfg = replace(row.sim,
                  arrival_rate=probe_rate(row.load_factor * dm.value, routes,
                                          row.sim.packet_size),
                  stop_at_first_miss=not missratio)
    metrics = sc.run_replications(topo, routes, cfg)
    return dict(
        analytic_dm=dm.value, analytic_edf=edf.value,
        simulated_critical=sc.critical_capacity(metrics).value,
        miss_ratio=(float(np.mean([m.miss_ratio for m in metrics]))
                    if missratio else None),
        offered_demand=float(np.mean([m.offered_demand for m in metrics])),
        neighborhood_bound=stats.neighborhood_bound,
        nodes_per_disk=stats.nodes_per_disk, max_hops=stats.max_hops)


def _curve_row(curve: CurveSpec, value) -> dict:
    """The cells of one closed-form row: DM and EDF limits at one path
    length (balanced_curves) or sink hop radius (convergecast_curves). A
    limit that is not finite raises, like a swept value the params refuse."""
    if curve.kind == "balanced_curves":
        params = replace(curve.analytic, path_length=value)
        dm, edf = (an.rtcc_balanced(s, params) for s in (an.DM, an.EDF))
    else:
        params = replace(curve.analytic, max_hops=value)
        dm, edf = (an.rtcc_convergecast(s, params, mode=curve.mode)
                   for s in (an.DM, an.EDF))
    if not (math.isfinite(dm.value) and math.isfinite(edf.value)):
        raise ValueError(f"limit not finite (DM {dm.value!r}, EDF {edf.value!r})")
    return dict(analytic_dm=dm.value, analytic_edf=edf.value)


def run_sweep(spec: CurveSpec | SweepSpec) -> list:
    """Evaluate the sweep and return one ResultRow per swept value, in order.

    A CurveSpec evaluates the closed forms directly. A SweepSpec builds the
    network for each swept value, measures its statistics, derives the
    analytic bound from them, and aggregates seeded replications. A value
    that fails flags its own row, with NaN bounds and the error as
    `"<Type>: <message>"`, and the sweep continues. Simulated rows carry
    their seed range, flagged or not.
    """
    digest = config_hash(spec)
    curve = isinstance(spec, CurveSpec)
    seeds = {} if curve else dict(
        seed_lo=spec.sim.seed,
        seed_hi=spec.sim.seed + spec.sim.replication_count - 1)
    rows = []
    for value in spec.values:
        try:
            cells = (_curve_row if curve else _simulation_row)(spec, value)
        except (tp.RoutingError, an.SolverError, sc.InvariantError, ValueError) as err:
            cells = dict(analytic_dm=math.nan, analytic_edf=math.nan,
                         error=f"{type(err).__name__}: {err}")
        rows.append(ResultRow(swept_value=value, config_hash=digest,
                              **cells, **seeds))
    return rows


_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


def _fmt(value):
    return format(value, ".9g") if isinstance(value, float) else value


def emit_csv(rows: Iterable, destination, spec: CurveSpec | SweepSpec) -> None:
    """Write rows as CSV: a comment block with the spec's hash and recorded
    configuration (see `_recorded`), one column-name header, one line per
    row. Float cells use 9 significant digits so repeated identical sweeps
    are byte-identical; a `None` cell is empty, and a cell holding a comma,
    a quote or a newline is quoted."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    comments = ["rtcap sweep results", f"tool_version={__version__}",
                f"config_hash={config_hash(spec)}",
                *(f"{key}={value}" for key, value in sorted(_recorded(spec).items()))]
    with open(destination, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(_CSV_COLUMNS)
        out.writerows([_fmt(getattr(row, col)) for col in _CSV_COLUMNS]
                      for row in rows)


def csv_filename(spec: CurveSpec | SweepSpec) -> str:
    """`<kind>_<node count>_<config hash>.csv`, with the node count only for
    kinds whose rows read one: the analytic node count of balanced_curves,
    the grid size of the simulated kinds."""
    if isinstance(spec, SweepSpec):
        return f"{spec.kind}_{spec.rows * spec.cols}_{config_hash(spec)}.csv"
    if "node_count" in _CURVE_READS[spec.kind]:
        return f"{spec.kind}_{spec.analytic.node_count}_{config_hash(spec)}.csv"
    return f"{spec.kind}_{config_hash(spec)}.csv"
