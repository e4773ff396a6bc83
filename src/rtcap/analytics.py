"""Closed-form real-time capacity bounds for multi-hop wireless sensor networks.

Everything in this module is a pure function of its inputs: the
worst-case stage (per-hop) delay factor, path feasibility tests for
deadline-monotonic (DM) and earliest-deadline-first (EDF) medium
arbitration, and the network-wide capacity limits for the two extreme
traffic patterns:

* load-balanced traffic, where every contention neighborhood carries the
  same utilization, and
* convergecast traffic, where all packets drain toward data-aggregation
  sinks and the sink neighborhoods are the bottleneck.

The convergecast DM bound has no closed form; it is the root of a strictly
increasing, convex one-dimensional equation and is solved by Newton's method
from a closed-form upper bound, guarded by a bisection bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

DM = "DM"
EDF = "EDF"

EXACT = "exact"
APPROXIMATE = "approximate"

BALANCED = "balanced"
CONVERGECAST = "convergecast"

# the residual |f(D)| at which the convergecast DM root solve stops
_TOLERANCE = 1e-10


class PoleError(ValueError):
    """A neighborhood utilization sits at or beyond the delay-bound pole (>= 1)."""


class SolverError(RuntimeError):
    """The convergecast DM root solve failed to reach the residual tolerance
    `_TOLERANCE`.

    Carries the final bracket so the caller can inspect how far the solve got.
    """

    def __init__(self, message: str, lo: float, hi: float,
                 f_lo: float, f_hi: float, iterations: int):
        super().__init__(message)
        self.lo = lo
        self.hi = hi
        self.f_lo = f_lo
        self.f_hi = f_hi
        self.iterations = iterations


def _refuse_non_finite(name: str, value) -> None:
    """Raise `ValueError` naming `name` and the value when it is NaN,
    infinite or an int past the float range."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} is too large for a float") from None
    if not finite:
        raise ValueError(f"{name} is not finite: {value!r}")


@dataclass(frozen=True)
class AnalyticParams:
    """Parameter bag feeding the capacity-limit expressions.

    node_count          total nodes in the network
    bandwidth           effective channel bandwidth, bits/s
    neighborhood_bound  upper bound on contention-neighborhood size (node + peers)
    inversion_factor    pseudo-priority-inversion correction, in [1, 2];
                        defaults to the worst case 2
    path_length         hop count bound for load-balanced paths
    nodes_per_disk      average number of nodes inside one radio disk
    max_hops            largest hop distance to a sink (convergecast)
    sink_count          number of data-aggregation sinks
    """

    node_count: int
    bandwidth: float
    neighborhood_bound: int = 1
    inversion_factor: float = 2.0
    path_length: float = 1
    nodes_per_disk: float = 1
    max_hops: float = 1
    sink_count: int = 1

    def __post_init__(self):
        for f in fields(self):
            _refuse_non_finite(f.name, getattr(self, f.name))
        if not (self.node_count >= 1):
            raise ValueError("node_count must be >= 1")
        if not (self.bandwidth > 0):
            raise ValueError("bandwidth must be > 0")
        if not (self.neighborhood_bound >= 1):
            raise ValueError("neighborhood_bound must be >= 1")
        if not (1.0 <= self.inversion_factor <= 2.0):
            raise ValueError("inversion_factor must lie in [1, 2]")
        if not (self.path_length >= 1):
            raise ValueError("path_length must be >= 1")
        if not (self.nodes_per_disk >= 1):
            raise ValueError("nodes_per_disk must be >= 1")
        if not (self.max_hops >= 1):
            raise ValueError("max_hops must be >= 1")
        if not (self.sink_count >= 1):
            raise ValueError("sink_count must be >= 1")


@dataclass(frozen=True)
class CapacityBound:
    """A computed capacity limit in bits/s, tagged with how it was obtained."""

    value: float
    scheduler: str          # DM | EDF
    topology_class: str     # balanced | convergecast
    mode: str               # exact | approximate
    utilization_at_bottleneck: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a path schedulability test: lhs of the inequality vs its bound."""

    feasible: bool
    lhs_value: float
    bound: float
    margin: float


def stage_delay_term(vq: float) -> float:
    """Worst-case per-hop delay factor vq*(1 - vq/2)/(1 - vq).

    The factor multiplies the largest higher-priority deadline to bound the
    delay a packet can accumulate at one hop. It is 0 at vq=0, strictly
    increasing and convex on [0, 1), and diverges at vq=1. A NaN or
    infinite vq is refused with a `ValueError`.
    """
    _refuse_non_finite("neighborhood utilization", vq)
    if not (vq >= 0):
        raise ValueError(f"neighborhood utilization must be >= 0, got {vq}")
    if vq >= 1.0:
        raise PoleError(f"delay bound diverges at utilization {vq} >= 1")
    return vq * (1.0 - 0.5 * vq) / (1.0 - vq)


def dm_path_feasible(vqs: Iterable[float], delta: float = 1.0) -> FeasibilityReport:
    """Fixed-priority schedulability test along a path.

    The path is feasible when the summed stage delay factors do not exceed
    delta, the minimal deadline ratio of the priority policy. Deadline
    monotonic gives delta = 1, the largest possible bound; smaller values
    model other fixed-priority policies. A finite utilization at the pole
    (>= 1) yields an infeasible report with infinite lhs rather than an
    exception; a NaN or infinite one is refused with a `ValueError`.
    """
    if not (0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    lhs = 0.0
    for v in vqs:
        try:
            lhs += stage_delay_term(v)
        except PoleError:
            lhs = math.inf
            break
    return FeasibilityReport(
        feasible=lhs <= delta, lhs_value=lhs, bound=delta, margin=delta - lhs)


def edf_path_feasible(vqs: Iterable[float]) -> FeasibilityReport:
    """EDF schedulability test along a path: utilizations must sum to <= 1.
    A NaN or infinite utilization is refused with a `ValueError`."""
    lhs = 0.0
    for v in vqs:
        _refuse_non_finite("neighborhood utilization", v)
        if not (v >= 0):
            raise ValueError(f"neighborhood utilization must be >= 0, got {v}")
        lhs += v
    return FeasibilityReport(
        feasible=lhs <= 1.0, lhs_value=lhs, bound=1.0, margin=1.0 - lhs)


def balanced_vq_bound(path_length: float) -> float:
    """Largest per-neighborhood utilization a load-balanced DM path can carry.

    Closed-form root of stage_delay_term(v) = 1/path_length:

        v = 1/N + 1 - sqrt(1/N^2 + 1)

    Lies in (0, 2 - sqrt(2)]; N*v -> 1 as N grows.
    """
    n = float(path_length)
    if n < 1:
        raise ValueError(f"path_length must be >= 1, got {path_length}")
    return 1.0 / n + 1.0 - math.sqrt(1.0 / (n * n) + 1.0)


def rtcc_balanced(scheduler: str, params: AnalyticParams) -> CapacityBound:
    """Network capacity limit in bits/s for load-balanced traffic.

    DM:  n*B/(u*alpha) * (1/N + 1 - sqrt(1/N^2 + 1))
    EDF: n*B/(u*N*alpha)

    The DM limit never exceeds the EDF limit and converges to it as paths
    get longer.
    """
    scheduler = scheduler.upper()
    n = params.node_count
    b = params.bandwidth
    u = params.neighborhood_bound
    alpha = params.inversion_factor
    hops = params.path_length
    if scheduler == DM:
        vq = balanced_vq_bound(hops)
        value = n * b / (u * alpha) * vq
    elif scheduler == EDF:
        vq = 1.0 / hops
        value = n * b / (u * hops * alpha)
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}, expected DM or EDF")
    return CapacityBound(value=value, scheduler=scheduler, topology_class=BALANCED,
                         mode=EXACT, utilization_at_bottleneck=vq)


def convergecast_dm_sink_utilization(nodes_per_disk: float,
                                     max_hops: int) -> float:
    """Largest sink-neighborhood utilization a convergecast DM network sustains.

    Traffic destined to a sink loads ring x (population r_x = (2x-1)*m) with
    per-node utilization D/r_x. D is the root of

        f(D) = sum_{x=1..K} stage_delay_term(D / r_x) - 1 = 0

    f is strictly increasing and convex on (0, m), from -1 toward infinity at
    the innermost ring's pole. Since stage_delay_term(v) >= v + v^2/2 on
    [0, 1), the root of sum(v + v^2/2) = 1,

        D0 = 2 / (b + sqrt(b^2 + 4a)),  b = sum 1/r_x,  a = sum 1/(2 r_x^2),

    lies at or above D, and below m (0.732m at K = 1). Newton's method
    started at D0 therefore descends monotonically onto D; a step that
    leaves the bracket of the last points with f < 0 and f > 0 (rounding
    near the root) is replaced by bisection of that bracket. Returns the
    first D with residual |f(D)| <= `_TOLERANCE`.
    """
    _refuse_non_finite("nodes_per_disk", nodes_per_disk)
    m = float(nodes_per_disk)
    if m < 1:
        raise ValueError(f"nodes_per_disk must be >= 1, got {nodes_per_disk}")
    if max_hops < 1 or not float(max_hops).is_integer():
        raise ValueError(f"max_hops must be an integer >= 1, got {max_hops}")
    tolerance = _TOLERANCE

    # np.add.reduce skips np.sum's Python wrapper; the odd integers are exact
    total = np.add.reduce
    rings = np.arange(1.0, 2.0 * max_hops, 2.0) * m
    b = float(total(1.0 / rings))
    a = float(total(0.5 / (rings * rings)))
    d = 2.0 / (b + math.sqrt(b * b + 4.0 * a))
    lo, f_lo = 0.0, -1.0
    hi, f_hi = m, math.inf      # the innermost ring's pole
    for _ in range(200):
        v = d / rings
        w = 1.0 - v  # v < 1 below the pole, so no guard
        f = float(total(v * (1.0 - 0.5 * v) / w)) - 1.0  # stage_delay_term
        if abs(f) <= tolerance:
            return d
        if f > 0.0:
            hi, f_hi = d, f
        else:
            lo, f_lo = d, f
        # f'(D) = sum g'(v)/r_x with g'(v) = (1 + (1 - v)^-2) / 2
        step = d - f / float(total((0.5 + 0.5 / w ** 2) / rings))
        d = step if lo < step < hi else 0.5 * (lo + hi)
    raise SolverError(
        f"Newton iteration did not reach residual {tolerance:g} within 200 "
        f"iterations (bracket [{lo!r}, {hi!r}], residuals [{f_lo:.3e}, {f_hi:.3e}])",
        lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi, iterations=200)


def harmonic_odd_sum(max_hops: float, mode: str = EXACT) -> float:
    """Sum of reciprocals of the first `max_hops` odd integers.

    exact:        1 + 1/3 + 1/5 + ... + 1/(2K - 1), integer K only
    approximate:  1 + 0.5*ln(K), the large-K closed form (any K >= 1);
                  its error stays below 0.02 for every integer K.

    A NaN or infinite K is refused with a `ValueError`.
    """
    _refuse_non_finite("max_hops", max_hops)
    if not (max_hops >= 1):
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if mode == EXACT:
        k = int(max_hops)
        if k != max_hops:
            raise ValueError(f"exact mode needs an integer hop count, got {max_hops}")
        return float(np.add.reduce(1.0 / np.arange(1.0, 2.0 * k, 2.0)))
    if mode == APPROXIMATE:
        return 1.0 + 0.5 * math.log(max_hops)
    raise ValueError(f"unknown mode {mode!r}, expected exact or approximate")


def convergecast_edf_sink_utilization(nodes_per_disk: float, max_hops: int,
                                      mode: str = EXACT) -> float:
    """Largest sink-neighborhood utilization under EDF: m over the odd
    harmonic sum.

    Small hop counts with dense disks push the value above 1, a saturated
    sink neighborhood; such a value is reported as is.
    """
    _refuse_non_finite("nodes_per_disk", nodes_per_disk)
    m = float(nodes_per_disk)
    if m < 1:
        raise ValueError(f"nodes_per_disk must be >= 1, got {nodes_per_disk}")
    return m / harmonic_odd_sum(max_hops, mode)


def rtcc_convergecast(scheduler: str, params: AnalyticParams,
                      mode: str = EXACT) -> CapacityBound:
    """Network capacity limit in bits/s for convergecast traffic.

    With S the odd harmonic sum over the sink's hop radius K:

    DM exact:        sinks*B*K*(D/m)/alpha, D solved numerically
    DM approximate:  sinks*B*K/(alpha*S), the large-network closed form
    EDF:             sinks*B*K/(alpha*S), S exact or approximate

    The sink utilization D is divided by the disk population m so that the
    DM and EDF expressions are directly comparable; the DM value never
    exceeds the EDF value at equal mode. D enters the formula as solved,
    above 1 included, and is reported as `utilization_at_bottleneck`.
    """
    scheduler = scheduler.upper()
    if mode not in (EXACT, APPROXIMATE):
        raise ValueError(f"unknown mode {mode!r}, expected exact or approximate")
    m = float(params.nodes_per_disk)
    k = params.max_hops
    alpha = params.inversion_factor
    if scheduler == DM:
        if mode == EXACT:
            d = convergecast_dm_sink_utilization(m, k)
        else:
            d = convergecast_edf_sink_utilization(m, k, APPROXIMATE)
    elif scheduler == EDF:
        d = convergecast_edf_sink_utilization(m, k, mode)
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}, expected DM or EDF")
    value = params.sink_count * params.bandwidth * k * d / (m * alpha)
    return CapacityBound(value=value, scheduler=scheduler,
                         topology_class=CONVERGECAST, mode=mode,
                         utilization_at_bottleneck=d)


def balanced_vs_convergecast_ratio(max_hops: float) -> float:
    """How much more capacity load-balanced traffic carries than convergecast
    at equal path length: 1 + 0.5*ln(K). Equals 1 at K=1 and grows only
    logarithmically."""
    return harmonic_odd_sum(float(max_hops), APPROXIMATE)
