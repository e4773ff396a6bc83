"""Real-time communication capacity of multi-hop wireless sensor networks:
closed-form bounds for deadline-monotonic and earliest-deadline-first
scheduling, a deterministic packet-level simulator, and sweep harnesses that
cross-validate the two."""

# set before the submodule imports: experiments reads it at import time
__version__ = "0.1.0"

from .analytics import (
    APPROXIMATE,
    BALANCED,
    CONVERGECAST,
    DM,
    EDF,
    EXACT,
    AnalyticParams,
    CapacityBound,
    FeasibilityReport,
    PoleError,
    SolverError,
    balanced_vq_bound,
    balanced_vs_convergecast_ratio,
    convergecast_dm_sink_utilization,
    convergecast_edf_sink_utilization,
    dm_path_feasible,
    edf_path_feasible,
    harmonic_odd_sum,
    neighborhood_utilization,
    node_utilization,
    rtcc_balanced,
    rtcc_convergecast,
    stage_delay_term,
)
from .experiments import (
    CurveSpec,
    ResultRow,
    SweepSpec,
    config_hash,
    csv_filename,
    emit_csv,
    load_multiplier_series,
    probe_rate,
    run_sweep,
)
from .simcore import (
    Arrivals,
    CriticalCapacity,
    InvariantError,
    Medium,
    Packet,
    RunMetrics,
    SimConfig,
    Workload,
    admissible_transmissions,
    critical_capacity,
    format_events,
    generate_workload,
    measured_capacity_consumption,
    run_replications,
    run_simulation,
)
from .topology import (
    RouteTable,
    RoutingError,
    Topology,
    TopologyStats,
    build_routes,
    compute_adjacency,
    contention_sets,
    generate_perturbed_grid,
    load_topology,
    make_network,
    place_sinks,
    save_topology,
    topology_stats,
)
