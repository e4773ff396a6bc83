"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances. Run with `pytest tests/test_acceptance.py -v` to get one
pass/fail line per criterion.

 1. balanced DM/EDF curves: ordering and convergence of the closed forms
 2. convergecast curves: DM/EDF gap shrinks with the hop radius
 3. solver accuracy: both root solves hit residual <= 1e-9
 4. odd-harmonic closed form within 0.02 of the exact sum up to K = 1e6
 5. balanced/convergecast ratio is exactly 1 at a single hop
 6. simulated critical capacity within 40% of the measured-topology bound
    on the 800-node, 12-sink evaluation network
 7. miss-ratio knee: zero misses at or below the bound, sharp rise past it
 8. critical capacity nondecreasing in sink count (400 and 800 nodes)
 9. property suite: schedulability sufficiency, exclusion invariant,
    determinism, packet conservation
"""

import time

import numpy as np
import pytest
from scipy import stats

from rtcap import analytics as an
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

from helpers import (
    contended_run,
    instance_is_dm_feasible,
    replay_active_sets,
)

BANDWIDTH = 250_000.0


def test_criterion_1_balanced_curves():
    """DM <= EDF for every path length, and DM/EDF >= 0.95 at N=10,
    >= 0.98 at N=25."""
    ratios = {}
    for n in range(1, 51):
        params = an.AnalyticParams(node_count=800, bandwidth=BANDWIDTH,
                                   neighborhood_bound=12, path_length=n)
        dm = an.rtcc_balanced(an.DM, params).value
        edf = an.rtcc_balanced(an.EDF, params).value
        assert dm <= edf
        ratios[n] = dm / edf
    assert ratios[10] >= 0.95
    assert ratios[25] >= 0.98


def test_criterion_2_convergecast_gap_shrinks():
    """With m=10, the numeric DM bound sits closer to the closed-form EDF
    bound at K=64 than at K=4."""
    def rel_gap(k):
        params = an.AnalyticParams(node_count=800, bandwidth=BANDWIDTH,
                                   nodes_per_disk=10, max_hops=k, sink_count=1)
        dm = an.rtcc_convergecast(an.DM, params, mode=an.EXACT).value
        edf = an.rtcc_convergecast(an.EDF, params, mode=an.APPROXIMATE).value
        return (edf - dm) / edf
    assert rel_gap(64) < rel_gap(4)


def test_criterion_3_solver_residuals():
    """Closed-form and numeric roots satisfy their defining equalities with
    residual <= 1e-9 over 1000 random parameter draws."""
    rng = np.random.default_rng(31415)
    for _ in range(1000):
        n = float(10.0 ** rng.uniform(0.0, 4.0))
        m = float(rng.uniform(1.0, 100.0))
        k = int(rng.integers(1, 257))

        v = an.balanced_vq_bound(n)
        assert abs(an.stage_delay_term(v) - 1.0 / n) <= 1e-9

        d = an.convergecast_dm_sink_utilization(m, k)
        lhs = sum(an.stage_delay_term(d / ((2 * x - 1) * m))
                  for x in range(1, k + 1))
        assert abs(lhs - 1.0) <= 1e-9


def test_criterion_4_harmonic_approximation():
    """|exact - approximate| <= 0.02 for K sampled logarithmically on
    [1, 1e6] (densely at the small-K worst region)."""
    ks = sorted(set(range(1, 129)) | {int(k) for k in np.logspace(0, 6, 60)})
    for k in ks:
        err = abs(an.harmonic_odd_sum(k, an.EXACT)
                  - an.harmonic_odd_sum(k, an.APPROXIMATE))
        assert err <= 0.02, f"K={k}: error {err}"


def test_criterion_5_ratio_identity():
    """The balanced/convergecast capacity ratio is exactly 1 at K=1."""
    assert an.balanced_vs_convergecast_ratio(1) == 1.0


def test_criterion_6_simulation_analysis_agreement():
    """800-node perturbed grid, neighborhood size ~12, 12 sinks, 10
    replications: simulated critical capacity within 40% of the analytic
    convergecast DM bound computed from the measured (u, m, K_d).

    The comparison bound uses inversion_factor=1: the probe load and the
    agreement band measure the schedulability analysis itself, not the
    worst-case pseudo-inversion allowance (the library default stays 2).
    """
    t0 = time.time()
    spec = ex.SweepSpec(
        kind="sink_sweep", values=(12,),
        sim=sc.SimConfig(bandwidth=BANDWIDTH, packet_size=1000.0, duration=30.0,
                         seed=0, replication_count=10),
        rows=20, cols=40, spacing=10.0, jitter=0.25, radio_range=20.5,
        inversion_factor=1.0, load_factor=1.25)
    row = ex.run_sweep(spec)[0]
    elapsed = time.time() - t0

    assert row.error is None
    assert 11 <= row.nodes_per_disk <= 13     # the Fig 2/5 neighborhood regime
    assert row.simulated_critical is not None, "no miss observed at probe load"
    rel = abs(row.simulated_critical - row.analytic_dm) / row.analytic_dm
    assert rel <= 0.40, f"relative difference {rel:.3f} exceeds 40%"
    assert elapsed < 300.0, f"desk-scale runtime target exceeded: {elapsed:.0f}s"


@pytest.fixture(scope="module")
def knee_rows():
    spec = ex.SweepSpec(
        kind="missratio_sweep", values=ex.load_multiplier_series(),
        sim=sc.SimConfig(bandwidth=BANDWIDTH, packet_size=5000.0, duration=10.0,
                         seed=0, replication_count=10),
        rows=12, cols=12, spacing=10.0, jitter=0.25, radio_range=20.5,
        sink_count=4, load_factor=1.0)
    return ex.run_sweep(spec)


def test_criterion_7_missratio_knee(knee_rows):
    """Sweeping offered load from 0.25x to 4x the analytic bound: zero
    misses wherever measured demand is at or below the bound, miss ratio
    above 0.25 at the top, and a nondecreasing trend (Spearman >= 0.9,
    10 seeds per load)."""
    rows = knee_rows
    assert rows[0].swept_value == 0.25 and rows[-1].swept_value == 4.0

    below = [r for r in rows if r.offered_demand <= r.analytic_dm]
    assert len(below) >= 4, "sweep never probed loads below the bound"
    for r in below:
        assert r.miss_ratio == 0.0, (
            f"missed at demand {r.offered_demand:.0f} <= bound {r.analytic_dm:.0f}")

    assert rows[-1].miss_ratio > 0.25

    rho = stats.spearmanr([r.swept_value for r in rows],
                          [r.miss_ratio for r in rows]).statistic
    # a shortfall made of ties among the zero-miss loads reads apart from
    # a real reversal in the listed ratios
    assert rho >= 0.9, (
        f"Spearman rho {rho:.4f} < 0.9; mean miss ratio per load: "
        + ", ".join(f"{r.swept_value:.4g}:{r.miss_ratio:.4g}" for r in rows))


@pytest.mark.parametrize("rows,cols", [(20, 20), (20, 40)],
                         ids=["400-nodes", "800-nodes"])
def test_criterion_8_sink_count_trend(rows, cols):
    """Critical capacity is nondecreasing over {1, 2, 4, 8, 16} sinks
    (Spearman >= 0.9)."""
    spec = ex.SweepSpec(
        kind="sink_sweep", values=(1, 2, 4, 8, 16),
        sim=sc.SimConfig(bandwidth=BANDWIDTH, packet_size=4000.0, duration=30.0,
                         seed=0, replication_count=5),
        rows=rows, cols=cols, spacing=10.0, jitter=0.25, radio_range=20.5,
        load_factor=2.5)
    out = ex.run_sweep(spec)
    assert all(r.error is None for r in out)
    criticals = [r.simulated_critical for r in out]
    assert all(c is not None for c in criticals)
    rho = stats.spearmanr([r.swept_value for r in out], criticals).statistic
    assert rho >= 0.9


def test_criterion_9a_schedulability_sufficiency():
    """Random instances of <= 12 nodes whose measured neighborhood
    utilizations pass the fixed-priority path test never miss a deadline
    under DM arbitration (100 seeded instances)."""
    rng = np.random.default_rng(2024)
    feasible = 0
    for trial in range(100):
        grid_rows, grid_cols = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4)])
        radio = float(rng.choice([15.0, 20.0]))
        topo, routes = tp.make_network(int(grid_rows), int(grid_cols),
                                       spacing=10.0, jitter=0.2, seed=trial,
                                       radio_range=radio, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0,
                           arrival_rate=float(rng.uniform(0.02, 0.8)),
                           duration=10.0, seed=trial)
        wl = sc.generate_workload(topo, routes, cfg)
        if not wl.packets or not instance_is_dm_feasible(topo, routes, wl,
                                                         cfg.tx_time):
            continue
        feasible += 1
        metrics = sc.run_simulation(topo, routes, wl, cfg)
        assert metrics.missed == 0
    assert feasible >= 20


def test_criterion_9b_exclusion_invariant():
    """The spatial exclusion rule is enforced on every grant: the run-time
    check rejects conflicting grants, and a full event-log replay of a
    contended run finds no violation."""
    adjacency = {0: frozenset({1}), 1: frozenset({0, 2}), 2: frozenset({1, 3}),
                 3: frozenset({2})}
    # the in-flight record maps each busy endpoint to its transmission, a
    # (sender, receiver, workload position) tuple
    tx = (0, 1, 99)
    with pytest.raises(sc.InvariantError):
        sc._verify_exclusion(2, 3, {0: tx, 1: tx}, adjacency)  # sender 2 near receiver 1
    tx = (1, 0, 9)
    with pytest.raises(sc.InvariantError):
        sc._verify_exclusion(3, 2, {0: tx, 1: tx}, adjacency)  # receiver 2 near sender 1

    trace = []
    topo, _, _, wl, metrics = contended_run(seed=13, rate=8.0,
                                            event_log=trace)
    assert metrics.missed > 0  # the replay covers a genuinely contended run
    replay_active_sets(sc.format_events(trace, wl), topo.adjacency)


def test_criterion_9c_determinism(tmp_path):
    """Every seeded pipeline is bit-reproducible: topology files, workloads,
    run metrics, and sweep CSVs."""
    files = []
    for name in ("a", "b"):
        topo, routes = tp.make_network(5, 5, spacing=10.0, jitter=0.25, seed=9,
                                       radio_range=20.5, sink_count=2)
        path = tmp_path / f"topo_{name}.txt"
        tp.save_topology(topo, path, routes.sinks)
        files.append(path.read_bytes())

        cfg = sc.SimConfig(packet_size=5000.0, arrival_rate=3.0, duration=6.0,
                           seed=9, replication_count=2)
        wl = sc.generate_workload(topo, routes, cfg)
        metrics = sc.run_simulation(topo, routes, wl, cfg)

        spec = ex.SweepSpec(kind="missratio_sweep", values=(0.5, 1.0),
                            sim=cfg, rows=5, cols=5, radio_range=20.5,
                            sink_count=2)
        csv = tmp_path / f"sweep_{name}.csv"
        ex.emit_csv(ex.run_sweep(spec), csv, spec)
        files.append(csv.read_bytes())
        files.append((wl, metrics))
    assert files[0] == files[3]   # topology bytes
    assert files[1] == files[4]   # sweep csv bytes
    assert files[2] == files[5]   # workload and metrics


def test_criterion_9d_conservation():
    """Generated = delivered + missed + in flight."""
    *_, m = contended_run(seed=7, rate=8.0)
    assert m.packets_generated > 100
    assert m.delivered + m.missed + m.in_flight_at_end == m.packets_generated
