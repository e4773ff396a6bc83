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

SWEEP_KINDS = ("balanced_curves", "convergecast_curves", "radio_sweep",
               "sink_sweep", "missratio_sweep")

# the kinds a CurveSpec describes; SweepSpec describes the others
CURVE_KINDS = ("balanced_curves", "convergecast_curves")

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


def _check_mode(mode: str) -> None:
    if mode not in (an.EXACT, an.APPROXIMATE):
        raise ValueError(f"unknown mode {mode!r}, expected exact or approximate")


def _swept_values(kind: str, values, whole: bool) -> tuple:
    """The swept values in ascending order. Each must be > 0, which NaN is
    not; with `whole`, each must be a whole number and becomes an int, so
    `(1.0, 2.0)` and `(1, 2)` describe one sweep."""
    if not values:
        raise ValueError("swept values must be non-empty")
    if not all(v > 0 for v in values):
        raise ValueError("swept values must be > 0")
    if whole:
        if not all(float(v).is_integer() for v in values):
            raise ValueError(f"{kind} values must be integers")
        values = [int(v) for v in values]
    return tuple(sorted(values))


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
        _check_mode(self.mode)
        whole = self.kind == "convergecast_curves" and self.mode == an.EXACT
        object.__setattr__(self, "values",
                           _swept_values(self.kind, self.values, whole))
        if self.values[0] < 1:
            raise ValueError("hop counts must be >= 1")


@dataclass(frozen=True)
class SweepSpec:
    """A simulated convergecast sweep: the swept variable plus the network,
    the workload and the settings of the measured bounds.

    The grid, radio range, and sink fields describe the network each row
    builds; `sim` the workload, the seed, the replication count and the
    channel bandwidth the bounds are computed for. `inversion_factor` and
    `mode` (the EDF evaluation mode; DM is always exact) set the bounds.
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
    sink_mode: str = "subgrid"
    inversion_factor: float = 2.0
    mode: str = an.EXACT
    load_factor: float = 1.5

    def __post_init__(self):
        if self.kind not in _SWEPT_FIELD:
            raise ValueError(f"unknown simulated sweep kind {self.kind!r}")
        _check_mode(self.mode)
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
    if isinstance(spec, CurveSpec):
        reads = _CURVE_READS[spec.kind]
        recorded = dict(kind=spec.kind, values=spec.values, analytic={
            k: v for k, v in dataclasses.asdict(spec.analytic).items() if k in reads})
        if spec.kind == "convergecast_curves":
            recorded["mode"] = spec.mode
        return recorded
    recorded = dataclasses.asdict(spec)
    del recorded[_SWEPT_FIELD[spec.kind]]
    del recorded["sim"]["arrival_rate"], recorded["sim"]["stop_at_first_miss"]
    return recorded


def config_hash(spec: CurveSpec | SweepSpec) -> str:
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
        bandwidth=spec.sim.bandwidth,
        neighborhood_bound=stats.neighborhood_bound,
        inversion_factor=spec.inversion_factor,
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
    # the swept value is set here, not through the spec, whose checks would
    # refuse an infinite load before the row could be flagged for it
    settings = dict(radio_range=spec.radio_range, sink_count=spec.sink_count,
                    load_factor=spec.load_factor)
    settings[_SWEPT_FIELD[spec.kind]] = value
    try:
        topo, routes = tp.make_network(spec.rows, spec.cols, spec.spacing,
                                       spec.jitter, spec.sim.seed,
                                       settings["radio_range"],
                                       settings["sink_count"], spec.sink_mode)
        stats, dm, edf = _measured_bounds(spec, topo, routes)
        cfg = replace(spec.sim,
                      arrival_rate=probe_rate(settings["load_factor"] * dm.value,
                                              routes, spec.sim.packet_size),
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


def _curve_row(spec: CurveSpec, value, digest: str) -> ResultRow:
    """Closed-form DM and EDF limits at one path length (balanced_curves)
    or sink hop radius (convergecast_curves). A swept value the params
    refuse, a failed solve, or a limit that is not finite flags the row,
    like a failed simulated row."""
    try:
        if spec.kind == "balanced_curves":
            params = replace(spec.analytic, path_length=value)
            dm, edf = (an.rtcc_balanced(s, params) for s in (an.DM, an.EDF))
        else:
            params = replace(spec.analytic, max_hops=value)
            dm, edf = (an.rtcc_convergecast(s, params, mode=spec.mode)
                       for s in (an.DM, an.EDF))
    except (an.SolverError, ValueError) as err:
        return ResultRow(swept_value=value, analytic_dm=float("nan"),
                         analytic_edf=float("nan"), config_hash=digest,
                         error=f"{type(err).__name__}: {err}")
    finite = math.isfinite(dm.value) and math.isfinite(edf.value)
    return ResultRow(swept_value=value, analytic_dm=dm.value,
                     analytic_edf=edf.value, config_hash=digest,
                     error=None if finite else
                     f"ValueError: limit not finite (DM {dm.value!r}, "
                     f"EDF {edf.value!r})")


def run_sweep(spec: CurveSpec | SweepSpec) -> list:
    """Evaluate the sweep and return one ResultRow per swept value, in order.

    A CurveSpec evaluates the closed forms directly. A SweepSpec builds the
    network for each swept value, measures its statistics, derives the
    analytic bound from them, and aggregates seeded replications. A failure
    in one simulated value flags that row and the sweep continues.
    """
    digest = config_hash(spec)
    row = _curve_row if isinstance(spec, CurveSpec) else _simulation_row
    return [row(spec, value, digest) for value in spec.values]


_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def emit_csv(rows: Iterable, destination, spec: CurveSpec | SweepSpec) -> None:
    """Write rows as CSV: a comment block with the spec's hash and recorded
    configuration (see `_recorded`), one column-name header, one line per
    row. Numeric cells use 9 significant digits so repeated identical
    sweeps are byte-identical."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    lines = ["# rtcap sweep results", f"# tool_version={__version__}",
             f"# config_hash={config_hash(spec)}"]
    for key, value in sorted(_recorded(spec).items()):
        lines.append(f"# {key}={value}")
    lines.append(",".join(_CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in _CSV_COLUMNS))
    with open(destination, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_filename(spec: CurveSpec | SweepSpec) -> str:
    """`<kind>_<node count>_<config hash>.csv`, with the node count only for
    kinds whose rows read one: the analytic node count of balanced_curves,
    the grid size of the simulated kinds."""
    if isinstance(spec, SweepSpec):
        return f"{spec.kind}_{spec.rows * spec.cols}_{config_hash(spec)}.csv"
    if "node_count" in _CURVE_READS[spec.kind]:
        return f"{spec.kind}_{spec.analytic.node_count}_{config_hash(spec)}.csv"
    return f"{spec.kind}_{config_hash(spec)}.csv"
