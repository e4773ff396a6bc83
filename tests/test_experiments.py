"""Sweep mechanics: SweepSpec validation, analytic/simulated pairing,
replication aggregation, and byte-stable CSV output."""

import math
from dataclasses import replace

import pytest

import rtcap
from rtcap import analytics as an
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

ANALYTIC = an.AnalyticParams(node_count=100, bandwidth=250_000.0,
                             neighborhood_bound=10, inversion_factor=2.0,
                             nodes_per_disk=10, max_hops=4, sink_count=4)

SMALL_SIM = sc.SimConfig(packet_size=12_500.0, duration=6.0, seed=1,
                         replication_count=2)


def small_sim_spec(kind, values, **kw):
    defaults = dict(kind=kind, values=values, analytic=ANALYTIC, sim=SMALL_SIM,
                    rows=6, cols=6, spacing=10.0, jitter=0.2, radio_range=15.0,
                    sink_count=2, load_factor=3.0)
    defaults.update(kw)
    return ex.SweepSpec(**defaults)


class TestSweepSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ex.SweepSpec(kind="nope", values=(1,), analytic=ANALYTIC)

    def test_empty_values(self):
        with pytest.raises(ValueError):
            ex.SweepSpec(kind="balanced_curves", values=(), analytic=ANALYTIC)

    def test_values_sorted_canonically(self):
        spec = ex.SweepSpec(kind="balanced_curves", values=(5, 1, 3),
                            analytic=ANALYTIC)
        assert spec.values == (1, 3, 5)

    def test_sink_counts_must_be_integral(self):
        with pytest.raises(ValueError):
            ex.SweepSpec(kind="sink_sweep", values=(1.5,), analytic=ANALYTIC)

    def test_too_many_sinks(self):
        with pytest.raises(ValueError):
            ex.SweepSpec(kind="sink_sweep", values=(1, 500), analytic=ANALYTIC,
                         rows=6, cols=6)

    def test_config_hash_stable_and_sensitive(self):
        a = small_sim_spec("sink_sweep", (1, 2))
        b = small_sim_spec("sink_sweep", (1, 2))
        c = small_sim_spec("sink_sweep", (1, 2), sim=replace(SMALL_SIM, seed=9))
        assert ex.config_hash(a) == ex.config_hash(b)
        assert ex.config_hash(a) != ex.config_hash(c)

    @pytest.mark.parametrize("kind,field,a,b", [
        ("radio_sweep", "radio_range", 15.0, 30.0),
        ("sink_sweep", "sink_count", 2, 5),
        ("missratio_sweep", "load_factor", 1.5, 3.0)])
    def test_config_hash_ignores_overwritten_field(self, kind, field, a, b):
        # the swept value replaces `field`, and every simulated row sets the
        # arrival rate and stop-at-first-miss itself
        first = small_sim_spec(kind, (1, 2), **{field: a})
        second = small_sim_spec(kind, (1, 2), **{field: b},
                                sim=replace(SMALL_SIM, arrival_rate=7.0,
                                            stop_at_first_miss=True))
        assert ex.config_hash(first) == ex.config_hash(second)
        assert ex.csv_filename(first) == ex.csv_filename(second)
        assert ex.config_hash(small_sim_spec(kind, (1, 2), rows=7)) \
            != ex.config_hash(first)

    @pytest.mark.parametrize("kind", ["radio_sweep", "sink_sweep",
                                      "missratio_sweep"])
    def test_simulation_hash_records_two_analytic_fields(self, kind):
        # the measured bounds read only bandwidth and inversion factor
        base = small_sim_spec(kind, (1, 2))
        unread = small_sim_spec(kind, (1, 2), analytic=replace(
            ANALYTIC, node_count=7, neighborhood_bound=3, path_length=9,
            nodes_per_disk=2, max_hops=8, sink_count=3))
        assert ex.config_hash(unread) == ex.config_hash(base)
        assert ex.config_hash(small_sim_spec(kind, (1, 2), analytic=replace(
            ANALYTIC, inversion_factor=1.0))) != ex.config_hash(base)

    @pytest.mark.parametrize("kind,read,unread", [
        ("balanced_curves", dict(neighborhood_bound=3),
         dict(nodes_per_disk=2, max_hops=8, sink_count=3, path_length=9)),
        ("convergecast_curves", dict(nodes_per_disk=2),
         dict(node_count=7, neighborhood_bound=3, path_length=9, max_hops=8))])
    def test_analytic_hash_records_what_rows_read(self, kind, read, unread):
        base = ex.SweepSpec(kind=kind, values=(1, 2), analytic=ANALYTIC)
        same = replace(base, analytic=replace(ANALYTIC, **unread), rows=7,
                       cols=3, radio_range=5.0, sink_count=2, load_factor=4.0,
                       sim=replace(base.sim, duration=2.0, replication_count=3))
        assert ex.config_hash(same) == ex.config_hash(base)
        # the seed stays: rows carry it as their seed range
        for changed in (replace(base, analytic=replace(ANALYTIC, **read)),
                        replace(base, sim=replace(base.sim, seed=4))):
            assert ex.config_hash(changed) != ex.config_hash(base)

    def test_one_bandwidth(self):
        # a bound for one channel next to a simulation of another is refused
        with pytest.raises(ValueError, match="bandwidth"):
            small_sim_spec("sink_sweep", (1, 2),
                           sim=replace(SMALL_SIM, bandwidth=1_000_000.0))
        with pytest.raises(ValueError, match="bandwidth"):
            ex.SweepSpec(kind="balanced_curves", values=(1,),
                         analytic=replace(ANALYTIC, bandwidth=1_000_000.0))


class TestLoadMultiplierSeries:
    def test_default_grid(self):
        series = ex.load_multiplier_series()
        assert series[0] == 0.25
        assert series[-1] == 4.0
        for a, b in zip(series, series[1:-1]):
            assert b / a == pytest.approx(1.25)
        assert all(s <= 4.0 for s in series)


class TestProbeRate:
    def test_chain(self):
        topo = tp.generate_perturbed_grid(1, 3, 10.0, 0.0, seed=0,
                                          radio_range=10.0)
        routes = tp.build_routes(topo, [2])
        # hop counts 2 + 1: demand = rate * 1000 * 3
        assert ex.probe_rate(3000.0, routes, 1000.0) == pytest.approx(1.0)

    def test_no_traffic_rejected(self):
        topo = tp.generate_perturbed_grid(1, 1, 10.0, 0.0, seed=0,
                                          radio_range=10.0)
        routes = tp.build_routes(topo, [0])
        with pytest.raises(ValueError):
            ex.probe_rate(1000.0, routes, 1000.0)


class TestAnalyticSweeps:
    def test_balanced_curves(self):
        spec = ex.SweepSpec(kind="balanced_curves", values=tuple(range(1, 31)),
                            analytic=ANALYTIC)
        rows = ex.run_sweep(spec)
        assert len(rows) == 30
        assert [r.swept_value for r in rows] == list(range(1, 31))
        for row in rows:
            assert row.analytic_dm <= row.analytic_edf
            assert row.config_hash == ex.config_hash(spec)

    def test_balanced_matches_direct_call(self):
        spec = ex.SweepSpec(kind="balanced_curves", values=(5,), analytic=ANALYTIC)
        row = ex.run_sweep(spec)[0]
        params = replace(ANALYTIC, path_length=5)
        assert row.analytic_dm == an.rtcc_balanced(an.DM, params).value
        assert row.analytic_edf == an.rtcc_balanced(an.EDF, params).value

    def test_convergecast_curves_gap_shrinks(self):
        spec = ex.SweepSpec(kind="convergecast_curves", values=(1, 4, 16, 64),
                            analytic=ANALYTIC)
        rows = ex.run_sweep(spec)
        gaps = [(r.analytic_edf - r.analytic_dm) / r.analytic_edf for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(r.analytic_dm <= r.analytic_edf for r in rows)


class TestSimulationSweeps:
    def test_sink_sweep_rows_and_pairing(self):
        spec = small_sim_spec("sink_sweep", (1, 4))
        rows = ex.run_sweep(spec)
        assert [r.swept_value for r in rows] == [1, 4]
        for row in rows:
            assert row.error is None
            # the analytic bound must come from this row's measured stats
            params = an.AnalyticParams(
                node_count=36, bandwidth=ANALYTIC.bandwidth,
                neighborhood_bound=row.neighborhood_bound,
                inversion_factor=ANALYTIC.inversion_factor,
                nodes_per_disk=row.nodes_per_disk, max_hops=row.max_hops,
                sink_count=int(row.swept_value))
            assert row.analytic_dm == pytest.approx(
                an.rtcc_convergecast(an.DM, params).value)
            assert row.seed_lo == 1 and row.seed_hi == 2

    def test_sink_sweep_measures_critical(self):
        spec = small_sim_spec("sink_sweep", (2,), load_factor=4.0)
        row = ex.run_sweep(spec)[0]
        assert row.simulated_critical is not None
        assert row.simulated_critical > 0

    def test_radio_sweep_flags_disconnected_value(self):
        # 5 m range cannot connect a 10 m grid: the row is flagged, the
        # sweep continues and the viable value still succeeds; a miss-ratio
        # sweep on the same disconnected network flags its row, too
        radio = ex.run_sweep(small_sim_spec("radio_sweep", (5.0, 15.0)))
        knee = ex.run_sweep(small_sim_spec("missratio_sweep", (0.05,),
                                           radio_range=5.0))
        for row in (radio[0], knee[0]):
            assert row.error is not None and "RoutingError" in row.error
            assert math.isnan(row.analytic_dm)
            assert row.miss_ratio is None
        assert radio[1].error is None
        assert radio[1].analytic_dm > 0

    def test_missratio_low_load_no_misses(self):
        spec = small_sim_spec("missratio_sweep", (0.01, 0.05))
        rows = ex.run_sweep(spec)
        for row in rows:
            assert row.miss_ratio == 0.0
            assert row.simulated_critical is None
            assert row.offered_demand is not None

    def test_replication_order_independent(self):
        topo, routes = tp.make_network(4, 4, spacing=10.0, jitter=0.2, seed=3,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=4.0, duration=6.0,
                           seed=0, replication_count=4)
        metrics = sc.run_replications(topo, routes, cfg)
        forward = sc.critical_capacity(metrics)
        backward = sc.critical_capacity(list(reversed(metrics)))
        assert forward == backward


class TestCsv:
    def test_structure_and_single_row(self, tmp_path):
        spec = ex.SweepSpec(kind="balanced_curves", values=(5,), analytic=ANALYTIC)
        rows = ex.run_sweep(spec)
        dest = tmp_path / ex.csv_filename(spec)
        ex.emit_csv(rows, dest, spec)
        lines = dest.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert f"# tool_version={rtcap.__version__}" in comments
        assert any("config_hash" in c for c in comments)
        assert any("inversion_factor" in c for c in comments)
        assert data[0].startswith("swept_value,analytic_dm,analytic_edf")
        assert len(data) == 2

    def test_header_has_one_copy_of_each_setting(self, tmp_path):
        spec = small_sim_spec("missratio_sweep", (0.05,))
        dest = tmp_path / "knee.csv"
        ex.emit_csv(ex.run_sweep(spec), dest, spec)
        comments = [ln for ln in dest.read_text().splitlines()
                    if ln.startswith("#")]
        sim = [c for c in comments if c.startswith("# sim=")]
        assert len(sim) == 1
        assert "'seed': 1" in sim[0] and "'replication_count': 2" in sim[0]
        assert "arrival_rate" not in sim[0] and "stop_at_first_miss" not in sim[0]
        keys = {c[2:].split("=", 1)[0] for c in comments if "=" in c}
        assert not keys & {"replication_count", "base_seed", "load_factor"}
        assert {"radio_range", "sink_count", "rows"} <= keys

    def test_byte_identical_reruns(self, tmp_path):
        spec = small_sim_spec("missratio_sweep", (0.05, 0.1))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ex.emit_csv(ex.run_sweep(spec), a, spec)
        ex.emit_csv(ex.run_sweep(spec), b, spec)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ex.emit_csv([], tmp_path / "x.csv")

    def test_filename_scheme(self):
        spec = small_sim_spec("sink_sweep", (1, 2))
        name = ex.csv_filename(spec)
        assert name.startswith("sink_sweep_36_")
        assert name.endswith(".csv")
        analytic = ex.SweepSpec(kind="balanced_curves", values=(1,),
                                analytic=ANALYTIC)
        assert ex.csv_filename(analytic).startswith("balanced_curves_100_")
        # convergecast rows read no node count
        curves = ex.SweepSpec(kind="convergecast_curves", values=(1,),
                              analytic=ANALYTIC)
        assert ex.csv_filename(curves) == \
            f"convergecast_curves_{ex.config_hash(curves)}.csv"

    def test_none_cells_empty(self, tmp_path):
        row = ex.ResultRow(swept_value=1.0, analytic_dm=2.0, analytic_edf=3.0)
        dest = tmp_path / "row.csv"
        ex.emit_csv([row], dest)
        data = dest.read_text().splitlines()[-1]
        assert ",," in data  # optional fields serialize as empty cells
