"""Sweep mechanics: SweepSpec validation, analytic/simulated pairing,
replication aggregation, and byte-stable CSV output."""

import dataclasses
import math
import re
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
    defaults = dict(kind=kind, values=values, sim=SMALL_SIM, rows=6, cols=6,
                    spacing=10.0, jitter=0.2, radio_range=15.0, sink_count=2,
                    load_factor=3.0)
    defaults.update(kw)
    return ex.SweepSpec(**defaults)


def spec_for(kind, values=(1, 2)):
    if kind in ex.CURVE_KINDS:
        return ex.CurveSpec(kind=kind, values=values, analytic=ANALYTIC)
    return small_sim_spec(kind, values)


# a value unlike the one `spec_for` sets, for every settable spec field
ALTERED = {
    "values": (1, 3), "mode": an.APPROXIMATE, "rows": 7, "cols": 7,
    "spacing": 12.0, "jitter": 0.1, "radio_range": 18.0, "sink_count": 3,
    "inversion_factor": 1.0, "load_factor": 2.0,
    "analytic.node_count": 7, "analytic.bandwidth": 1_000_000.0,
    "analytic.neighborhood_bound": 3, "analytic.inversion_factor": 1.0,
    "analytic.path_length": 9, "analytic.nodes_per_disk": 2,
    "analytic.max_hops": 8, "analytic.sink_count": 3,
    "sim.bandwidth": 1_000_000.0, "sim.packet_size": 2_000.0,
    "sim.deadline_set": (1.0,), "sim.arrival_rate": 7.0, "sim.duration": 3.0,
    "sim.seed": 4, "sim.replication_count": 3,
    "sim.stop_at_first_miss": True,
}

# the settable fields each kind's rows never read: the swept field, the
# `sim` fields every simulated row sets itself, and the closed-form inputs
# a curve does not use
UNREAD = {
    "balanced_curves": {"analytic.path_length", "analytic.nodes_per_disk",
                        "analytic.max_hops", "analytic.sink_count", "mode"},
    "convergecast_curves": {"analytic.max_hops", "analytic.node_count",
                            "analytic.neighborhood_bound", "analytic.path_length"},
    **{kind: {swept, "sim.arrival_rate", "sim.stop_at_first_miss"}
       for kind, swept in (("radio_sweep", "radio_range"),
                           ("sink_sweep", "sink_count"),
                           ("missratio_sweep", "load_factor"))},
}


def settable(spec):
    """Every field a caller can set, `section.field` inside a nested one."""
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if dataclasses.is_dataclass(value):
            yield from (f"{field.name}.{f.name}" for f in dataclasses.fields(value))
        elif field.name != "kind":
            yield field.name


def altered(spec, path):
    section, _, name = path.rpartition(".")
    if section:
        nested = replace(getattr(spec, section), **{name: ALTERED[path]})
        return replace(spec, **{section: nested})
    return replace(spec, **{name: ALTERED[path]})


class TestSweepSpec:
    def test_unknown_kind(self):
        # each kind has one spec: a curve kind is unknown to SweepSpec, and
        # a simulated kind to CurveSpec
        for kind in ("nope", "balanced_curves"):
            with pytest.raises(ValueError, match="unknown"):
                ex.SweepSpec(kind=kind, values=(1,))
        for kind in ("nope", "sink_sweep"):
            with pytest.raises(ValueError, match="unknown"):
                ex.CurveSpec(kind=kind, values=(1,), analytic=ANALYTIC)

    def test_empty_values(self):
        with pytest.raises(ValueError):
            ex.CurveSpec(kind="balanced_curves", values=(), analytic=ANALYTIC)

    def test_values_sorted_canonically(self):
        spec = ex.CurveSpec(kind="balanced_curves", values=(5, 1, 3),
                            analytic=ANALYTIC)
        assert spec.values == (1, 3, 5)

    @pytest.mark.parametrize("kind", ex.SWEEP_KINDS)
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    def test_values_must_be_positive(self, kind, value):
        # NaN fails `> 0`; it used to pass `<= 0` and write an all-NaN row
        with pytest.raises(ValueError, match="> 0"):
            spec_for(kind, (value, 2))

    @pytest.mark.parametrize("kind", ["sink_sweep", "convergecast_curves"])
    def test_whole_number_values_hash_alike(self, kind):
        # sink counts and exact hop radii become ints in the spec, so a
        # Python sweep and a command-line sweep share one file name
        floats, ints = spec_for(kind, (2.0, 1.0)), spec_for(kind, (1, 2))
        assert floats.values == (1, 2)
        assert all(type(v) is int for v in floats.values)
        assert ex.config_hash(floats) == ex.config_hash(ints)
        assert ex.csv_filename(floats) == ex.csv_filename(ints)

    @pytest.mark.parametrize("kind,values,repeated", [
        ("balanced_curves", (1, 1, 2), "1"),
        ("convergecast_curves", (2, 1, 2.0), "2"),
        ("sink_sweep", (1, 1.0), "1"),
        ("radio_sweep", (15.0, 20.0, 15), "15")])
    def test_repeated_value_refused(self, kind, values, repeated):
        # a repeated value ran its row, or every replication of it, twice;
        # whole-number kinds compare the values after conversion to int
        with pytest.raises(ValueError,
                           match=rf"swept value {repeated}(\.0)? is repeated"):
            spec_for(kind, values)

    def test_approximate_hop_radii_stay_real(self):
        spec = ex.CurveSpec(kind="convergecast_curves", values=(2.5, 1.0),
                            analytic=ANALYTIC, mode=an.APPROXIMATE)
        assert spec.values == (1.0, 2.5)

    def test_sink_counts_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            ex.SweepSpec(kind="sink_sweep", values=(1.5,))
        with pytest.raises(ValueError, match="integer"):
            ex.CurveSpec(kind="convergecast_curves", values=(2.5,),
                         analytic=ANALYTIC)

    def test_curve_spec_checks_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'exakt'"):
            ex.CurveSpec(kind="balanced_curves", values=(1,), analytic=ANALYTIC,
                         mode="exakt")

    @pytest.mark.parametrize("kind,mode", [
        ("balanced_curves", an.EXACT), ("convergecast_curves", an.APPROXIMATE)])
    def test_hop_counts_below_one_refused(self, kind, mode):
        with pytest.raises(ValueError, match="hop counts must be >= 1"):
            ex.CurveSpec(kind=kind, values=(0.5, 2), analytic=ANALYTIC, mode=mode)

    def test_too_many_sinks(self):
        with pytest.raises(ValueError):
            ex.SweepSpec(kind="sink_sweep", values=(1, 500), rows=6, cols=6)

    @pytest.mark.parametrize("field,value", [
        ("inversion_factor", 0.5), ("inversion_factor", 3.0),
        ("inversion_factor", math.nan), ("load_factor", 0.0),
        ("load_factor", math.inf), ("load_factor", math.nan)])
    def test_bound_settings_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_sim_spec("sink_sweep", (1, 2), **{field: value})

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

    @pytest.mark.parametrize("kind", ex.SWEEP_KINDS)
    def test_hash_records_exactly_what_rows_read(self, kind):
        # every settable field of the spec changes the hash unless the
        # kind's rows never read it
        base = spec_for(kind)
        for path in settable(base):
            changed = altered(base, path)
            assert changed != base, path
            assert (ex.config_hash(changed) != ex.config_hash(base)) \
                == (path not in UNREAD[kind]), path


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
        spec = ex.CurveSpec(kind="balanced_curves", values=tuple(range(1, 31)),
                            analytic=ANALYTIC)
        rows = ex.run_sweep(spec)
        assert len(rows) == 30
        assert [r.swept_value for r in rows] == list(range(1, 31))
        for row in rows:
            assert row.analytic_dm <= row.analytic_edf
            assert row.config_hash == ex.config_hash(spec)
            # no seed enters a closed form
            assert row.seed_lo is None and row.seed_hi is None

    def test_balanced_matches_direct_call(self):
        spec = ex.CurveSpec(kind="balanced_curves", values=(5,), analytic=ANALYTIC)
        row = ex.run_sweep(spec)[0]
        params = replace(ANALYTIC, path_length=5)
        assert row.analytic_dm == an.rtcc_balanced(an.DM, params).value
        assert row.analytic_edf == an.rtcc_balanced(an.EDF, params).value

    def test_convergecast_curves_gap_shrinks(self):
        spec = ex.CurveSpec(kind="convergecast_curves", values=(1, 4, 16, 64),
                            analytic=ANALYTIC)
        rows = ex.run_sweep(spec)
        gaps = [(r.analytic_edf - r.analytic_dm) / r.analytic_edf for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(r.analytic_dm <= r.analytic_edf for r in rows)

    def test_non_finite_limit_flags_its_row(self):
        # at B = 1e306 a 1e4-hop radius overflows the limit itself, while an
        # infinite radius is refused by the params before any limit is taken
        spec = ex.CurveSpec(kind="convergecast_curves",
                            values=(1, 2.5, 1e4, math.inf),
                            analytic=replace(ANALYTIC, bandwidth=1e306),
                            mode=an.APPROXIMATE)
        rows = ex.run_sweep(spec)
        assert [r.error for r in rows] == [
            None, None, "ValueError: limit not finite (DM inf, EDF inf)",
            "ValueError: max_hops is not finite: inf"]
        assert all(math.isnan(r.analytic_dm) for r in rows[2:])

    def test_refused_value_flags_its_row(self):
        # the params refuse an infinite path length for that row alone
        spec = ex.CurveSpec(kind="balanced_curves", values=(1, math.inf),
                            analytic=ANALYTIC)
        ok, bad = ex.run_sweep(spec)
        assert ok.error is None and ok.analytic_dm > 0
        assert math.isnan(bad.analytic_dm) and math.isnan(bad.analytic_edf)
        assert bad.error == "ValueError: path_length is not finite: inf"


class TestFlaggedRows:
    """A value that fails flags its own row one way, on every path: NaN
    bounds and the error as "<Type>: <message>"; a simulated row keeps its
    seed range."""

    @pytest.mark.parametrize("spec,error", [
        (ex.CurveSpec(kind="balanced_curves", values=(math.inf,),
                      analytic=ANALYTIC),
         r"ValueError: path_length is not finite: inf"),
        (ex.CurveSpec(kind="balanced_curves", values=(1,),
                      analytic=replace(ANALYTIC, node_count=10**308)),
         r"ValueError: limit not finite \(DM inf, EDF inf\)"),
        (small_sim_spec("radio_sweep", (5.0,)),
         r"RoutingError: 34 node\(s\) cannot reach a sink: \[0, 1, .*"),
        (small_sim_spec("missratio_sweep", (math.inf,)),
         r"ValueError: load_factor must be finite and > 0")],
        ids=["curve_refusal", "curve_limit_not_finite", "simulated_error",
             "swept_load_inf"])
    def test_nan_bounds_and_typed_error(self, spec, error):
        [row] = ex.run_sweep(spec)
        assert math.isnan(row.analytic_dm) and math.isnan(row.analytic_edf)
        assert re.fullmatch(error, row.error)
        assert row.swept_value == spec.values[0]
        assert row.config_hash == ex.config_hash(spec)
        assert row.simulated_critical is None and row.offered_demand is None
        simulated = isinstance(spec, ex.SweepSpec)
        assert (row.seed_lo, row.seed_hi) == ((1, 2) if simulated else (None, None))

    def test_non_integer_grid_flags_every_row(self):
        # the grid refuses a float size by name, so each row is flagged and
        # the sweep finishes, where numpy's TypeError aborted it
        spec = ex.SweepSpec(kind="radio_sweep", values=(15, 20), rows=2.5,
                            cols=3, sink_count=1,
                            sim=sc.SimConfig(duration=1, replication_count=1))
        rows = ex.run_sweep(spec)
        assert [r.swept_value for r in rows] == [15, 20]
        assert all(r.error == "ValueError: rows must be an integer >= 1, got 2.5"
                   for r in rows)


class TestSimulationSweeps:
    def test_sink_sweep_rows_and_pairing(self):
        spec = small_sim_spec("sink_sweep", (1, 4))
        rows = ex.run_sweep(spec)
        assert [r.swept_value for r in rows] == [1, 4]
        for row in rows:
            assert row.error is None
            # the analytic bound must come from this row's measured stats
            params = an.AnalyticParams(
                node_count=36, bandwidth=spec.sim.bandwidth,
                neighborhood_bound=row.neighborhood_bound,
                inversion_factor=spec.inversion_factor,
                nodes_per_disk=row.nodes_per_disk, max_hops=row.max_hops,
                sink_count=int(row.swept_value))
            assert row.analytic_dm == pytest.approx(
                an.rtcc_convergecast(an.DM, params, mode=an.EXACT).value)
            assert row.analytic_edf == pytest.approx(
                an.rtcc_convergecast(an.EDF, params, mode=an.EXACT).value)
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

    def test_replication_i_runs_on_seed_plus_i(self):
        topo, routes = tp.make_network(4, 4, spacing=10.0, jitter=0.2, seed=3,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=4.0, duration=6.0,
                           seed=5, replication_count=3)
        metrics = sc.run_replications(topo, routes, cfg)
        assert metrics == [
            sc.run_simulation(topo, routes, sc.generate_workload(
                topo, routes, replace(cfg, seed=cfg.seed + i)), cfg)
            for i in range(cfg.replication_count)]
        assert [m.seed for m in metrics] == [5, 6, 7]


class TestCsv:
    def test_structure_and_single_row(self, tmp_path):
        spec = ex.CurveSpec(kind="balanced_curves", values=(5,), analytic=ANALYTIC)
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
        spec = ex.CurveSpec(kind="balanced_curves", values=(1,), analytic=ANALYTIC)
        with pytest.raises(ValueError):
            ex.emit_csv([], tmp_path / "x.csv", spec)

    def test_filename_scheme(self):
        spec = small_sim_spec("sink_sweep", (1, 2))
        name = ex.csv_filename(spec)
        assert name.startswith("sink_sweep_36_")
        assert name.endswith(".csv")
        analytic = ex.CurveSpec(kind="balanced_curves", values=(1,),
                                analytic=ANALYTIC)
        assert ex.csv_filename(analytic).startswith("balanced_curves_100_")
        # convergecast rows read no node count
        curves = ex.CurveSpec(kind="convergecast_curves", values=(1,),
                              analytic=ANALYTIC)
        assert ex.csv_filename(curves) == \
            f"convergecast_curves_{ex.config_hash(curves)}.csv"

    def test_none_cells_empty(self, tmp_path):
        row = ex.ResultRow(swept_value=1.0, analytic_dm=2.0, analytic_edf=3.0)
        dest = tmp_path / "row.csv"
        spec = ex.CurveSpec(kind="balanced_curves", values=(1,), analytic=ANALYTIC)
        ex.emit_csv([row], dest, spec)
        data = dest.read_text().splitlines()[-1]
        assert ",," in data  # optional fields serialize as empty cells
