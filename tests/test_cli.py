"""CLI behavior: flag parsing, config-file precedence, round-trip printing,
and exit codes."""

import io

import pytest

from rtcap import analytics as an
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp
from rtcap.cli import dispatch

from helpers import contended_run


def run_cli(argv):
    out = io.StringIO()
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestAnalyze:
    def test_edf_balanced_example(self):
        code, out = run_cli(["analyze", "--topology", "balanced",
                             "--scheduler", "edf", "--n", "100", "--B", "250000",
                             "--u", "10", "--N", "5", "--alpha", "2"])
        assert code == 0
        header, row = data_lines(out)
        assert "bits_per_s" in header
        fields = row.split()
        assert fields[0] == "EDF"
        # printed value round-trips bit-for-bit to the library result
        params = an.AnalyticParams(node_count=100, bandwidth=250000.0,
                                   neighborhood_bound=10, inversion_factor=2.0,
                                   path_length=5.0)
        assert float(fields[3]) == an.rtcc_balanced(an.EDF, params).value
        assert float(fields[3]) == 250000.0

    def test_both_schedulers_ordered(self):
        code, out = run_cli(["analyze", "--n", "100", "--B", "250000",
                             "--u", "10", "--N", "5"])
        assert code == 0
        rows = data_lines(out)[1:]
        assert [r.split()[0] for r in rows] == ["DM", "EDF"]
        assert float(rows[0].split()[3]) <= float(rows[1].split()[3])

    def test_ratio_at_unity(self):
        code, out = run_cli(["analyze", "--ratio", "--Kd", "1"])
        assert code == 0
        assert float(out.strip()) == 1.0

    @pytest.mark.parametrize("argv,field", [
        (["--N", "nan"], "path_length"),
        (["--topology", "convergecast", "--scheduler", "edf", "--m", "nan"],
         "nodes_per_disk"),
        (["--topology", "convergecast", "--mode", "approximate", "--Kd", "nan"],
         "max_hops")], ids=["N", "m", "Kd"])
    def test_nan_parameter_is_usage_error(self, argv, field, capsys):
        # each of these printed nan and exited 0 before AnalyticParams
        # refused NaN
        code, _ = run_cli(["analyze"] + argv)
        assert code == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["--topology", "convergecast", "--m", "inf"], "nodes_per_disk"),
        (["--topology", "convergecast", "--scheduler", "edf", "--m", "inf"],
         "nodes_per_disk"),
        (["--B", "inf"], "bandwidth")], ids=["m", "m_edf", "B"])
    def test_infinite_parameter_is_usage_error(self, argv, field, capsys):
        # refused before any solve: a numpy RuntimeWarning from an infinite
        # setting would fail this test under the suite's warning filter
        code, _ = run_cli(["analyze"] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid parameters" in err and f"{field} is not finite" in err

    def test_integer_too_large_for_a_float_is_usage_error(self, capsys):
        # an int past the float range used to escape as an OverflowError
        # traceback from the params' finiteness check
        code, _ = run_cli(["analyze", "--n", "1" + "0" * 400])
        assert code == 1
        assert "invalid parameters" in capsys.readouterr().err

    def test_convergecast_round_trip(self):
        code, out = run_cli(["analyze", "--topology", "convergecast",
                             "--scheduler", "dm", "--m", "10", "--Kd", "4",
                             "--sinks", "4", "--B", "1000", "--alpha", "1"])
        assert code == 0
        row = data_lines(out)[1].split()
        params = an.AnalyticParams(node_count=100, bandwidth=1000.0,
                                   neighborhood_bound=10, inversion_factor=1.0,
                                   path_length=5.0, nodes_per_disk=10.0,
                                   max_hops=4.0, sink_count=4)
        assert float(row[3]) == an.rtcc_convergecast(an.DM, params).value

    def test_feasibility_reports(self):
        code, out = run_cli(["analyze", "--vqs", "0.381966,0.381966"])
        assert code == 0
        lines = data_lines(out)
        dm = next(ln for ln in lines if ln.startswith("DM"))
        edf = next(ln for ln in lines if ln.startswith("EDF"))
        assert dm.split()[1] == "yes"
        assert float(dm.split()[2]) == pytest.approx(1.0, abs=1e-6)
        assert float(edf.split()[2]) == pytest.approx(0.763932, abs=1e-6)

    def test_defaults_echoed(self):
        code, out = run_cli(["analyze"])
        assert code == 0
        assert out.startswith("# params ")
        assert "alpha=2.0" in out

    def test_csv_output(self, tmp_path):
        dest = tmp_path / "bounds.csv"
        code, _ = run_cli(["analyze", "--scheduler", "both", "--csv", str(dest)])
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[1].startswith("scheduler,")
        assert len(lines) == 4

    def test_invalid_alpha_is_usage_error(self, capsys):
        code, _ = run_cli(["analyze", "--alpha", "9"])
        assert code == 1
        assert "invalid parameters" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _ = run_cli([])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        code, _ = run_cli(["analyze", "--frobnicate"])
        assert code == 1

    def test_unknown_command(self):
        code, _ = run_cli(["explode"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--seed", "5"],
        ["simulate", "--out-dir", "x"],
    ], ids=["analyze-seed", "simulate-out-dir"])
    def test_flags_a_command_never_reads_rejected(self, argv):
        code, _ = run_cli(argv)
        assert code == 1


class TestConfigFile:
    def test_file_values_used_and_overridden(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[analytics]\nN = 5\nB = 250000\nu = 10\nn = 100\n"
                       "alpha = 2\n")
        code, out = run_cli(["analyze", "--config", str(cfg),
                             "--scheduler", "edf"])
        assert code == 0
        assert float(data_lines(out)[1].split()[3]) == 250000.0
        # a flag takes precedence over the file
        code, out = run_cli(["analyze", "--config", str(cfg),
                             "--scheduler", "edf", "--N", "10"])
        assert float(data_lines(out)[1].split()[3]) == 125000.0

    def test_unknown_keys_rejected_by_name(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[analytics]\nbandwidht = 1\n[simulation]\nrate = 1\n")
        code, _ = run_cli(["analyze", "--config", str(cfg)])
        assert code == 1
        assert "analytics.bandwidht" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, _ = run_cli(["analyze", "--config", "/nonexistent.ini"])
        assert code == 1

    @pytest.mark.parametrize("text, argv, key", [
        ("[topology]\nsink_mode = grid\n", ["sweep", "--kind", "sink_sweep"],
         "topology.sink_mode"),
        ("[analytics]\nmode = exakt\n", ["analyze"], "analytics.mode"),
    ], ids=["sweep-sink-mode", "analyze-mode"])
    def test_values_checked_like_flags(self, tmp_path, capsys, text, argv, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out_dir = ["--out-dir", str(tmp_path)] if argv[0] == "sweep" else []
        code, _ = run_cli([*argv, "--config", str(cfg), *out_dir])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestSimulate:
    def test_small_run(self):
        code, out = run_cli(["simulate", "--rows", "3", "--cols", "3",
                             "--radio-range", "15", "--sinks", "1",
                             "--rate", "2", "--duration", "5", "--reps", "2",
                             "--seed", "7"])
        assert code == 0
        assert "# measured u=" in out
        reps = [ln for ln in data_lines(out) if ln.startswith("replication")]
        assert len(reps) == 2
        assert "critical_capacity" in data_lines(out)[-1]

    def test_deterministic_output(self):
        argv = ["simulate", "--rows", "3", "--cols", "3", "--radio-range", "15",
                "--sinks", "1", "--rate", "2", "--duration", "5", "--reps", "1"]
        assert run_cli(argv) == run_cli(argv)

    def test_verbose_adds_delay_stats(self):
        code, out = run_cli(["simulate", "-v", "--rows", "3", "--cols", "3",
                             "--radio-range", "15", "--sinks", "1",
                             "--rate", "2", "--duration", "5", "--reps", "1"])
        assert code == 0
        assert "delays: n=" in out

    def test_event_log_written(self, tmp_path):
        log = tmp_path / "events.log"
        code, _ = run_cli(["simulate", "--rows", "2", "--cols", "2",
                           "--radio-range", "15", "--sinks", "1",
                           "--rate", "2", "--duration", "5", "--reps", "2",
                           "--seed", "7", "--event-log", str(log)])
        assert code == 0
        assert any(" arrival " in ln for ln in log.read_text().splitlines())
        # the first replication's log: the run with workload seed --seed
        topo, routes = tp.make_network(2, 2, spacing=10.0, jitter=0.25, seed=7,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(arrival_rate=2.0, duration=5.0, seed=7)
        direct = []
        sc.run_simulation(topo, routes, sc.generate_workload(topo, routes, cfg),
                          cfg, event_log=direct)
        assert log.read_text() == "".join(line + "\n" for line in direct)

    @pytest.mark.parametrize("keep", [True, False], ids=["keep", "drop"])
    def test_keep_on_miss(self, tmp_path, keep):
        # the contended 3x3 network of helpers.contended_run, through the CLI
        log = tmp_path / "events.log"
        code, _ = run_cli(["simulate", "--rows", "3", "--cols", "3",
                           "--jitter", "0.2", "--radio-range", "15",
                           "--sinks", "1", "--packet-size", "12500",
                           "--rate", "6", "--duration", "8", "--seed", "3",
                           "--reps", "1", "--event-log", str(log)]
                          + (["--keep-on-miss"] if keep else []))
        assert code == 0
        misses = [ln.split()[-1] for ln in log.read_text().splitlines()
                  if " miss " in ln]
        assert misses and set(misses) == {"kept" if keep else "dropped"}
        direct = []
        contended_run(seed=3, drop_on_miss=not keep, event_log=direct)
        assert log.read_text() == "".join(line + "\n" for line in direct)

    @pytest.mark.parametrize("flag,value,key", [
        ("--rate", "inf", "arrival_rate"), ("--duration", "inf", "duration"),
        ("--deadlines", "0.5,nan", "deadline_set")])
    def test_non_finite_setting_is_usage_error(self, flag, value, key, capsys):
        # each of these ran forever before SimConfig refused it
        code, _ = run_cli(["simulate", "--rows", "3", "--cols", "3",
                           "--radio-range", "15", "--reps", "1", flag, value])
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", ["inf", "1e308"])
    def test_non_finite_grid_is_usage_error(self, spacing, capsys):
        # both died with an OverflowError traceback, or as a non-finite node
        code, _ = run_cli(["simulate", "--rows", "3", "--cols", "3",
                           "--radio-range", "15", "--reps", "1",
                           "--spacing", spacing])
        assert code == 1
        assert "invalid parameters: spacing" in capsys.readouterr().err

    def test_disconnected_network_is_runtime_error(self, capsys):
        code, _ = run_cli(["simulate", "--rows", "1", "--cols", "3",
                           "--spacing", "100", "--radio-range", "5",
                           "--sinks", "1", "--jitter", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_balanced_sweep_writes_csv(self, tmp_path):
        code, out = run_cli(["sweep", "--kind", "balanced_curves",
                             "--values", "1,2,3", "--out-dir", str(tmp_path)])
        assert code == 0
        files = list(tmp_path.glob("balanced_curves_*.csv"))
        assert len(files) == 1
        assert str(files[0]) in out
        assert len(data_lines(files[0].read_text())) == 4  # header + 3 rows

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTCAP_OUT_DIR", str(tmp_path))
        code, _ = run_cli(["sweep", "--kind", "convergecast_curves",
                           "--values", "1,4"])
        assert code == 0
        assert list(tmp_path.glob("convergecast_curves_*.csv"))

    def test_sim_sweep_small(self, tmp_path):
        code, out = run_cli(["sweep", "--kind", "sink_sweep", "--values", "1,2",
                             "--rows", "5", "--cols", "5", "--radio-range", "15",
                             "--packet-size", "12500", "--duration", "5",
                             "--reps", "2", "--load-factor", "3",
                             "--out-dir", str(tmp_path)])
        assert code == 0
        csv = next(tmp_path.glob("sink_sweep_25_*.csv")).read_text()
        assert len(data_lines(csv)) == 3

    @pytest.mark.parametrize("argv", [
        ["--kind", "balanced_curves", "--values", "1,2,3"],
        ["--kind", "sink_sweep", "--values", "1,2", "--rows", "4", "--cols", "4",
         "--radio-range", "15", "--reps", "1", "--duration", "2"]],
        ids=["balanced_curves", "sink_sweep"])
    def test_unread_setting_keeps_file_name(self, tmp_path, argv):
        # balanced curves read no network field, and a sink sweep's swept
        # sink count replaces --sinks
        flag, a, b = (("--rows", "5", "6") if "balanced_curves" in argv
                      else ("--sinks", "2", "3"))
        written = []
        for value in (a, b):
            out_dir = tmp_path / value
            code, _ = run_cli(["sweep", *argv, flag, value, "--out-dir", str(out_dir)])
            assert code == 0
            [csv] = out_dir.glob("*.csv")
            written.append((csv.name, csv.read_bytes()))
        assert written[0] == written[1]

    def test_convergecast_file_name_has_no_node_count(self, tmp_path):
        # convergecast rows never read analytics.n, so it must not name the file
        written = []
        for n in ("100", "200"):
            cfg = tmp_path / f"n{n}.ini"
            cfg.write_text(f"[analytics]\nn = {n}\n")
            out_dir = tmp_path / n
            code, _ = run_cli(["sweep", "--kind", "convergecast_curves",
                               "--values", "1,2,4", "--config", str(cfg),
                               "--out-dir", str(out_dir)])
            assert code == 0
            [csv] = out_dir.glob("*.csv")
            written.append((csv.name, csv.read_bytes()))
        assert written[0] == written[1]
        assert written[0][0].count("_") == 2  # convergecast_curves_<hash>.csv

    def test_bad_out_dir_fails_before_the_sweep(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(ex, "run_sweep", lambda spec: calls.append(spec))
        occupied = tmp_path / "occupied"
        occupied.write_text("a file, not a directory")
        code, _ = run_cli(["sweep", "--kind", "balanced_curves",
                           "--values", "1,2", "--out-dir", str(occupied)])
        assert code == 2
        assert calls == []

    @pytest.mark.parametrize("argv,flagged", [
        (["--kind", "missratio_sweep", "--values", "1,inf"], ["inf"]),
        (["--kind", "sink_sweep", "--values", "1,2", "--load-factor", "inf"],
         None)],
        ids=["swept_inf", "load_factor_inf"])
    def test_infinite_load_flags_its_row(self, tmp_path, argv, flagged):
        # an infinite swept load is an infinite arrival rate, which SimConfig
        # refuses for that row alone; the spec refuses an infinite
        # --load-factor before any row runs
        code, _ = run_cli(["sweep", *argv, "--rows", "4", "--cols", "4",
                           "--radio-range", "15", "--reps", "1",
                           "--duration", "2", "--out-dir", str(tmp_path)])
        if flagged is None:
            assert code == 1
            assert not list(tmp_path.glob("*.csv"))
            return
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        errors = {row.split(",")[0]: row.split(",")[-1]
                  for row in data_lines(csv.read_text())[1:]}
        assert sorted(v for v, err in errors.items() if err) == flagged
        assert all("arrival_rate must be finite" in errors[v] for v in flagged)

    @pytest.mark.parametrize("spacing", ["inf", "1e308"])
    def test_non_finite_grid_flags_its_row(self, tmp_path, spacing):
        code, _ = run_cli(["sweep", "--kind", "sink_sweep", "--values", "1",
                           "--rows", "3", "--cols", "3", "--radio-range", "15",
                           "--reps", "1", "--duration", "2",
                           "--spacing", spacing, "--out-dir", str(tmp_path)])
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        [row] = data_lines(csv.read_text())[1:]
        assert "ValueError: spacing must be" in row

    def test_non_finite_curve_limit_flags_its_row(self, tmp_path):
        code, _ = run_cli(["sweep", "--kind", "convergecast_curves", "--mode",
                           "approximate", "--values", "1,2.5,inf",
                           "--out-dir", str(tmp_path)])
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        errors = {row.split(",")[0]: row.split(",")[-1]
                  for row in data_lines(csv.read_text())[1:]}
        assert [v for v, err in errors.items() if err] == ["inf"]

    def test_refused_curve_value_flags_its_row(self, tmp_path):
        # the params refuse an infinite path length for that row alone
        code, _ = run_cli(["sweep", "--kind", "balanced_curves", "--values",
                           "1,inf", "--out-dir", str(tmp_path)])
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        errors = {row.split(",")[0]: row.split(",")[-1]
                  for row in data_lines(csv.read_text())[1:]}
        assert [v for v, err in errors.items() if err] == ["inf"]
        assert "path_length is not finite" in errors["inf"]

    @pytest.mark.parametrize("argv", [
        ["--kind", "sink_sweep", "--values", "1.5,2", "--rows", "4", "--cols", "4",
         "--radio-range", "15", "--reps", "1", "--duration", "2"],
        ["--kind", "convergecast_curves", "--values", "2.5,3"]],
        ids=["sink_sweep", "convergecast_curves"])
    def test_non_integral_value_rejected(self, tmp_path, argv, capsys):
        # not truncated to 1 sink or K=2: the spec's own check refuses it
        code, _ = run_cli(["sweep", *argv, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "integer" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv,key", [
        (["--kind", "sink_sweep", "--alpha", "3"], "inversion_factor"),
        (["--kind", "radio_sweep", "--values", "15,nan"], "> 0"),
        (["--kind", "balanced_curves", "--values", "nan"], "> 0"),
        (["--kind", "convergecast_curves", "--mode", "approximate",
          "--values", "1,nan"], "> 0")],
        ids=["alpha_3", "radio_nan", "balanced_nan", "convergecast_nan"])
    def test_bad_setting_fails_before_the_sweep(self, tmp_path, monkeypatch,
                                                capsys, argv, key):
        # the spec refuses it, so no network is built and no row is written
        calls = []
        monkeypatch.setattr(ex, "run_sweep", lambda spec: calls.append(spec))
        code, _ = run_cli(["sweep", *argv, "--out-dir", str(tmp_path)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert calls == []
        assert not list(tmp_path.glob("*.csv"))

    def test_rate_rejected(self, tmp_path):
        # sweeps load the network at a multiple of its measured bound
        code, _ = run_cli(["sweep", "--kind", "sink_sweep", "--rate", "2",
                           "--out-dir", str(tmp_path)])
        assert code == 1
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulation]\nrate = 2\n")
        code, _ = run_cli(["sweep", "--kind", "sink_sweep", "--config", str(cfg),
                           "--out-dir", str(tmp_path)])
        assert code == 1
        assert not list(tmp_path.glob("*.csv"))
