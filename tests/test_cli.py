"""CLI behavior: flag parsing, files of flags and their precedence,
round-trip printing, and exit codes."""

import argparse
import io

import pytest

from rtcap import analytics as an
from rtcap import cli
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp
from rtcap.cli import dispatch

from helpers import contended_run, sweep_csv_rows


def run_cli(argv):
    out = io.StringIO()
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def header(text):
    """The `# key=value` lines of a sweep CSV's comment block, as a dict."""
    return dict(ln[2:].split("=", 1) for ln in text.splitlines()
                if ln.startswith("# ") and "=" in ln)


# a sink sweep small enough to run twice in a test
SMALL_SINK_SWEEP = ["--kind", "sink_sweep", "--values", "1,2", "--rows", "4",
                    "--cols", "4", "--radio-range", "15", "--reps", "1",
                    "--duration", "2"]


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

    @pytest.mark.parametrize("argv,message", [
        (["--n", "1" + "0" * 400], "node_count is too large for a float"),
        (["--topology", "convergecast", "--m", "inf"],
         "nodes_per_disk is not finite")], ids=["n_overflow", "m_inf"])
    def test_refused_setting_prints_nothing(self, argv, message, capsys):
        # the params are built before the `# params` line is echoed
        code, out = run_cli(["analyze"] + argv)
        assert code == 1
        assert out == ""
        assert message in capsys.readouterr().err

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

    def test_defaults_echoed(self):
        code, out = run_cli(["analyze"])
        assert code == 0
        assert out.startswith("# params ")
        assert "alpha=2.0" in out

    def test_echo_names_every_setting_read(self):
        code, out = run_cli(["analyze", "--topology", "convergecast",
                             "--scheduler", "dm"])
        assert code == 0
        echo = out.splitlines()[0]
        assert [pair.split("=")[0] for pair in echo.split()[2:]] == [
            "topology", "scheduler", "n", "B", "u", "alpha", "N", "m", "Kd",
            "sinks", "mode"]
        assert "topology='convergecast'" in echo and "scheduler='dm'" in echo

    def test_csv_output(self, tmp_path):
        dest = tmp_path / "bounds.csv"
        code, _ = run_cli(["analyze", "--scheduler", "both", "--csv", str(dest)])
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[2].startswith("scheduler,")
        assert len(lines) == 5

    def test_csv_records_the_params_line(self, tmp_path):
        dest = tmp_path / "bounds.csv"
        code, out = run_cli(["analyze", "--topology", "convergecast",
                             "--csv", str(dest)])
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "# rtcap analyze"
        assert lines[1] == out.splitlines()[0]
        assert (lines[1].startswith("# params ")
                and "topology='convergecast'" in lines[1])

    def test_bad_csv_path_prints_nothing(self, tmp_path):
        # the file is opened before the first line of stdout
        code, out = run_cli(["analyze", "--csv",
                             str(tmp_path / "missing" / "b.csv")])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv,flag", [
        (["--ratio"], "--ratio"), (["--vqs", "0.3"], "--vqs")],
        ids=["ratio", "vqs"])
    def test_other_questions_are_other_commands(self, argv, flag, capsys):
        # each is a question of its own command, `ratio` or `feasible`
        code, out = run_cli(["analyze", *argv])
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_invalid_alpha_is_usage_error(self, capsys):
        code, _ = run_cli(["analyze", "--alpha", "9"])
        assert code == 1
        assert "invalid parameters" in capsys.readouterr().err


class TestFeasible:
    def test_feasibility_reports(self):
        code, out = run_cli(["feasible", "--vqs", "0.381966,0.381966"])
        assert code == 0
        lines = data_lines(out)
        dm = next(ln for ln in lines if ln.startswith("DM"))
        edf = next(ln for ln in lines if ln.startswith("EDF"))
        assert dm.split()[1] == "yes"
        assert float(dm.split()[2]) == pytest.approx(1.0, abs=1e-6)
        assert float(edf.split()[2]) == pytest.approx(0.763932, abs=1e-6)

    def test_output_round_trips(self):
        code, out = run_cli(["feasible", "--vqs", "0.3,0.2", "--delta", "0.5"])
        assert code == 0
        echo, _, dm, edf = out.splitlines()
        assert echo == "# params vqs=(0.3, 0.2) delta=0.5"
        rep = an.dm_path_feasible((0.3, 0.2), delta=0.5)
        assert dm.split()[2:] == [repr(rep.lhs_value), repr(rep.bound),
                                  repr(rep.margin)]
        assert float(edf.split()[2]) == an.edf_path_feasible((0.3, 0.2)).lhs_value

    @pytest.mark.parametrize("argv,message", [
        ([], "--vqs needs at least one"),
        (["--vqs", ""], "--vqs needs at least one"),
        (["--vqs", "1.5,-1"], "neighborhood utilization must be >= 0"),
        (["--vqs", "nan"], "neighborhood utilization is not finite: nan"),
        (["--vqs", "0.2,inf"], "neighborhood utilization is not finite: inf")],
        ids=["missing", "empty", "negative", "nan", "inf"])
    def test_refused_path_prints_nothing(self, argv, message, capsys):
        # an empty path was reported feasible, a refused one echoed its
        # params before the refusal, and a non-finite one printed NaN or
        # infinite reports
        code, out = run_cli(["feasible", *argv])
        assert code == 1 and out == ""
        assert message in capsys.readouterr().err


class TestRatio:
    def test_ratio_at_unity(self):
        code, out = run_cli(["ratio", "--Kd", "1"])
        assert code == 0
        assert float(out.strip()) == 1.0

    def test_prints_one_number(self):
        code, out = run_cli(["ratio", "--Kd", "4"])
        assert code == 0
        assert out == repr(an.balanced_vs_convergecast_ratio(4.0)) + "\n"

    @pytest.mark.parametrize("kd", ["nan", "inf"])
    def test_non_finite_hops_refused(self, kd, capsys):
        # printed nan or inf and exited 0 before harmonic_odd_sum refused it
        code, out = run_cli(["ratio", "--Kd", kd])
        assert code == 1 and out == ""
        assert f"max_hops is not finite: {kd}" in capsys.readouterr().err


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
        ["analyze", "-v"],
        ["sweep", "--kind", "balanced_curves", "--N", "5"],
    ], ids=["analyze-seed", "simulate-out-dir", "analyze-verbose", "sweep-N"])
    def test_flags_a_command_never_reads_rejected(self, argv):
        code, _ = run_cli(argv)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--rows", "3", "--cols", "3", "--radio-range", "15",
         "--duration", "1", "--reps", "1", "--keep-on-miss"],
        ["sweep", "--kind", "convergecast_curves", "--values", "1",
         "--out-dir", "{tmp}", "--keep-on-miss"],
        ["analyze", "--topology", "convergecast", "--clamp"],
    ], ids=["simulate-keep-on-miss", "sweep-keep-on-miss", "analyze-clamp"])
    def test_retired_result_modes_rejected(self, tmp_path, argv, capsys):
        # a missed packet always leaves the network, and a convergecast
        # bound is never clamped: neither rule has a second mode
        code, out = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["simulate", "--rows", "3", "--cols", "3", "--radio-range", "15",
         "--duration", "1", "--reps", "1"],
        ["sweep", "--kind", "sink_sweep", "--values", "1", "--out-dir", "{tmp}"],
    ], ids=["simulate", "sweep"])
    def test_retired_sink_mode_rejected(self, tmp_path, argv, capsys):
        # sinks are placed by the grid's shape alone
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out = run_cli([*argv, "--sink-mode", "random"])
        assert code == 1 and out == ""
        assert ("unrecognized arguments: --sink-mode random"
                in capsys.readouterr().err)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv,message", [
        (["ratio", "--Kd", "-inf"], "max_hops is not finite"),
        (["simulate", "--rows", "3", "--cols", "3", "--reps", "1",
          "--jitter", "-1e-3"], "jitter must lie in [0, 0.5)"),
        (["analyze", "--B", "-1e5"], "bandwidth must be > 0"),
    ], ids=["ratio-Kd", "simulate-jitter", "analyze-B"])
    def test_value_that_starts_with_a_dash_is_a_value(self, argv, message,
                                                      capsys):
        # argparse alone reads -inf, -1e-3 and -1e5 as flags and reports
        # the flag before them as missing its value
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kind", "sink_sweep", "--load", "2"],
        ["analyze", "--sched", "edf"],
        ["simulate", "--dead", "0.5"],
    ], ids=["sweep-load", "analyze-sched", "simulate-dead"])
    def test_prefix_of_a_flag_rejected(self, tmp_path, argv, capsys):
        # argparse would read each as its unique longer flag
        code, _ = run_cli([*argv, "--rows", "3", "--cols", "3", "--reps", "1",
                           "--duration", "1", "--out-dir", str(tmp_path)]
                          if argv[0] == "sweep" else argv)
        assert code == 1
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    # a small run of every branch of every command
    EVERY_BRANCH = [
        ["analyze", "--scheduler", "edf", "--csv", "{tmp}/bounds.csv"],
        ["analyze", "--topology", "convergecast", "--mode", "approximate"],
        ["feasible", "--vqs", "0.3,0.2"],
        ["ratio"],
        ["simulate", "-v", "--rows", "2", "--cols", "2", "--radio-range", "15",
         "--duration", "2", "--reps", "1", "--event-log", "{tmp}/events.log"],
        *(["sweep", "-v", "--kind", kind, "--values", values, "--rows", "3",
           "--cols", "3", "--radio-range", "15", "--duration", "2", "--reps",
           "1", "--out-dir", "{tmp}/" + kind]
          for kind, values in (("balanced_curves", "1,2"),
                               ("convergecast_curves", "1,2"),
                               ("radio_sweep", "15"), ("sink_sweep", "1"),
                               ("missratio_sweep", "0.5"))),
    ]

    def test_every_option_read_is_a_flag_of_its_command(self, tmp_path,
                                                        monkeypatch):
        # each handler reads its options from one dict; record the keys
        # each run reads. Every branch of a command reads every flag it
        # takes, except for sweep, whose kinds read different flags: there
        # the union over its branches must equal its flags
        [subparsers] = [a for a in cli._build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        flags = {command: {a.dest for a in parser._actions} - {"help"}
                 for command, parser in subparsers.choices.items()}
        reads = []

        class Recorded(dict):
            def __getitem__(self, key):
                reads[-1].add(key)
                return super().__getitem__(key)

        for command in flags:
            handler = getattr(cli, "_cmd_" + command)
            monkeypatch.setattr(
                cli, "_cmd_" + command,
                lambda cfg, out, handler=handler: handler(Recorded(cfg), out))
        sweep_reads = set()
        for argv in self.EVERY_BRANCH:
            reads.append(set())
            code, _ = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
            assert code == 0, argv
            if argv[0] == "sweep":
                sweep_reads |= reads[-1]
            else:
                assert reads[-1] == flags[argv[0]], argv
        assert {argv[0] for argv in self.EVERY_BRANCH} == set(flags)
        assert sweep_reads == flags["sweep"]


    @pytest.mark.parametrize("argv,flag,text", [
        (["simulate", "--deadlines", "0.5,x"], "--deadlines", "0.5,x"),
        (["sweep", "--kind", "sink_sweep", "--values", "1,x"], "--values", "1,x"),
        (["feasible", "--vqs", "0.1,y"], "--vqs", "0.1,y")],
        ids=["simulate-deadlines", "sweep-values", "feasible-vqs"])
    def test_malformed_list_names_its_flag(self, tmp_path, capsys, argv, flag,
                                           text):
        # argparse parses a comma list by its row's kind, so the refusal
        # names the flag, and no handler runs
        out_dir = ["--out-dir", str(tmp_path)] if argv[0] == "sweep" else []
        code, out = run_cli([*argv, *out_dir])
        assert code == 1 and out == ""
        assert (f"usage error: argument {flag}: expected comma-separated "
                f"numbers, got {text!r}") in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_every_flag_is_an_option_row(self):
        # no flag is declared by hand beside the table
        [subparsers] = [a for a in cli._build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        for command, parser in subparsers.choices.items():
            flags = {a.dest: a.option_strings for a in parser._actions
                     if a.dest != "help"}
            assert set(flags) == {key for key, opt in cli._OPTIONS.items()
                                  if command in opt.commands}, command
            for key, names in flags.items():
                assert names[-1] == "--" + key.replace("_", "-")


class TestConfigFile:
    """Options files are files of flags, read with `@path`."""

    def test_file_values_used_and_overridden(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--N 5 --B 250000\n--u 10 --n 100\n\n--alpha 2\n")
        code, out = run_cli(["analyze", f"@{args}", "--scheduler", "edf"])
        assert code == 0
        assert float(data_lines(out)[1].split()[3]) == 250000.0
        # a later flag takes precedence over the file, and the file over an
        # earlier flag
        code, out = run_cli(["analyze", f"@{args}", "--scheduler", "edf",
                             "--N", "10"])
        assert float(data_lines(out)[1].split()[3]) == 125000.0
        code, out = run_cli(["analyze", "--N", "10", f"@{args}",
                             "--scheduler", "edf"])
        assert float(data_lines(out)[1].split()[3]) == 250000.0

    def test_unknown_keys_rejected_by_name(self, tmp_path, capsys):
        args = tmp_path / "run.args"
        args.write_text("--bandwidht 1\n")
        code, _ = run_cli(["analyze", f"@{args}"])
        assert code == 1
        assert "--bandwidht" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, _ = run_cli(["analyze", "@/nonexistent.args"])
        assert code == 1
        assert "/nonexistent.args" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, flag", [
        ("--mode exakt\n", ["sweep", "--kind", "sink_sweep"], "--mode"),
        ("--mode exakt\n", ["analyze"], "--mode"),
    ], ids=["sweep-mode", "analyze-mode"])
    def test_values_checked_like_flags(self, tmp_path, capsys, text, argv, flag):
        args = tmp_path / "run.args"
        args.write_text(text)
        out_dir = ["--out-dir", str(tmp_path)] if argv[0] == "sweep" else []
        code, _ = run_cli([*argv, f"@{args}", *out_dir])
        assert code == 1
        assert f"argument {flag}: invalid choice" in capsys.readouterr().err
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
        wl = sc.generate_workload(topo, routes, cfg)
        trace = []
        sc.run_simulation(topo, routes, wl, cfg, event_log=trace)
        assert log.read_text() == "".join(
            line + "\n" for line in sc.format_events(trace, wl))

    def test_bad_event_log_fails_before_the_runs(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(sc, "run_replications",
                            lambda *args, **kw: calls.append(args))
        code, out = run_cli(["simulate", "--rows", "2", "--cols", "2",
                             "--radio-range", "15", "--reps", "1",
                             "--event-log", str(tmp_path / "no" / "log.txt")])
        assert code == 2
        assert calls == [] and out == ""

    def test_missed_packets_logged_as_dropped(self, tmp_path):
        # the contended 3x3 network of helpers.contended_run, through the CLI
        log = tmp_path / "events.log"
        code, _ = run_cli(["simulate", "--rows", "3", "--cols", "3",
                           "--jitter", "0.2", "--radio-range", "15",
                           "--sinks", "1", "--packet-size", "12500",
                           "--rate", "6", "--duration", "8", "--seed", "3",
                           "--reps", "1", "--event-log", str(log)])
        assert code == 0
        misses = [ln.split()[-1] for ln in log.read_text().splitlines()
                  if " miss " in ln]
        assert misses and set(misses) == {"dropped"}
        trace = []
        _, _, _, wl, _ = contended_run(seed=3, event_log=trace)
        assert log.read_text() == "".join(
            line + "\n" for line in sc.format_events(trace, wl))

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

    def test_analytic_flags_recorded(self, tmp_path):
        code, _ = run_cli(["sweep", "--kind", "balanced_curves", "--n", "200",
                           "--u", "12", "--values", "1,2",
                           "--out-dir", str(tmp_path)])
        assert code == 0
        [csv] = tmp_path.glob("balanced_curves_200_*.csv")
        analytic = header(csv.read_text())["analytic"]
        assert "'node_count': 200" in analytic
        assert "'neighborhood_bound': 12" in analytic

    def test_workload_flags_recorded(self, tmp_path):
        code, _ = run_cli(["sweep", "--kind", "sink_sweep", "--values", "1",
                           "--rows", "3", "--cols", "3", "--radio-range", "15",
                           "--duration", "2", "--reps", "1",
                           "--deadlines", "0.25,0.5", "--out-dir", str(tmp_path)])
        assert code == 0
        [csv] = tmp_path.glob("*.csv")
        recorded = header(csv.read_text())
        # sinks are placed by the grid's shape and both bounds are exact:
        # neither is a setting
        assert "sink_mode" not in recorded and "mode" not in recorded
        assert "'deadline_set': (0.25, 0.5)" in recorded["sim"]

    def test_sim_sweep_small(self, tmp_path):
        code, out = run_cli(["sweep", "--kind", "sink_sweep", "--values", "1,2",
                             "--rows", "5", "--cols", "5", "--radio-range", "15",
                             "--packet-size", "12500", "--duration", "5",
                             "--reps", "2", "--load-factor", "3",
                             "--out-dir", str(tmp_path)])
        assert code == 0
        csv = next(tmp_path.glob("sink_sweep_25_*.csv")).read_text()
        assert len(data_lines(csv)) == 3

    @pytest.mark.parametrize("argv,flag,a,b", [
        (["--kind", "balanced_curves", "--values", "1,2,3"], "--rows", "5", "6"),
        (SMALL_SINK_SWEEP, "--sinks", "2", "3"),
        (SMALL_SINK_SWEEP, "--mode", "exact", "approximate")],
        ids=["balanced_curves", "sink_sweep", "sink_sweep-mode"])
    def test_unread_setting_keeps_file_name(self, tmp_path, argv, flag, a, b):
        # balanced curves read no network field, a sink sweep's swept sink
        # count replaces --sinks, and a simulated row's bounds are exact
        # whatever --mode says
        written = []
        for value in (a, b):
            out_dir = tmp_path / value
            code, _ = run_cli(["sweep", *argv, flag, value, "--out-dir", str(out_dir)])
            assert code == 0
            [csv] = out_dir.glob("*.csv")
            written.append((csv.name, csv.read_bytes()))
        assert written[0] == written[1]

    def test_convergecast_file_name_has_no_node_count(self, tmp_path):
        # convergecast rows never read the node count, so it must not name
        # the file
        written = []
        for n in ("100", "200"):
            out_dir = tmp_path / n
            code, _ = run_cli(["sweep", "--kind", "convergecast_curves",
                               "--values", "1,2,4", "--n", n,
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
        # the swept load goes through the spec, whose check refuses an
        # infinite one for that row alone; an infinite --load-factor is
        # refused before any row runs
        code, _ = run_cli(["sweep", *argv, "--rows", "4", "--cols", "4",
                           "--radio-range", "15", "--reps", "1",
                           "--duration", "2", "--out-dir", str(tmp_path)])
        if flagged is None:
            assert code == 1
            assert not list(tmp_path.glob("*.csv"))
            return
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        errors = {row[0]: row[-1] for row in sweep_csv_rows(csv)[1:]}
        assert sorted(v for v, err in errors.items() if err) == flagged
        assert all(errors[v] == "ValueError: load_factor must be finite and > 0"
                   for v in flagged)

    @pytest.mark.parametrize("spacing", ["inf", "1e308"])
    def test_non_finite_grid_flags_its_row(self, tmp_path, spacing):
        code, _ = run_cli(["sweep", "--kind", "sink_sweep", "--values", "1",
                           "--rows", "3", "--cols", "3", "--radio-range", "15",
                           "--reps", "1", "--duration", "2",
                           "--spacing", spacing, "--out-dir", str(tmp_path)])
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        columns, row = sweep_csv_rows(csv)
        assert len(row) == len(columns)
        assert row[-1].startswith("ValueError: spacing must be")

    @pytest.mark.parametrize("argv", [
        ["--kind", "radio_sweep", "--values", "5,15", "--rows", "4",
         "--cols", "4"],
        ["--kind", "sink_sweep", "--values", "1,2", "--rows", "3", "--cols", "3",
         "--radio-range", "15", "--spacing", "inf"]],
        ids=["disconnected_radio_sweep", "spacing_inf"])
    def test_flagged_rows_keep_the_header_width(self, tmp_path, argv):
        # the error texts hold commas (the node ids that reach no sink, and
        # "max(rows, cols) * spacing"), so the writer quotes them
        code, _ = run_cli(["sweep", *argv, "--packet-size", "12500",
                           "--duration", "3", "--reps", "1",
                           "--out-dir", str(tmp_path)])
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        columns, *rows = sweep_csv_rows(csv)
        assert columns == list(ex._CSV_COLUMNS)
        assert rows and all(len(row) == len(columns) for row in rows)
        assert any("," in row[-1] for row in rows)

    def test_non_finite_curve_limit_flags_its_row(self, tmp_path):
        # at --B 1e306 a 1e4-hop radius overflows the limit itself; an
        # infinite radius is refused by the params first
        code, _ = run_cli(["sweep", "--kind", "convergecast_curves", "--mode",
                           "approximate", "--values", "1,2.5,1e4,inf",
                           "--B", "1e306", "--out-dir", str(tmp_path)])
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        errors = {row[0]: row[-1] for row in sweep_csv_rows(csv)[1:]}
        assert errors == {
            "1": "", "2.5": "",
            "10000": "ValueError: limit not finite (DM inf, EDF inf)",
            "inf": "ValueError: max_hops is not finite: inf"}

    def test_refused_curve_value_flags_its_row(self, tmp_path):
        # the params refuse an infinite path length for that row alone
        code, _ = run_cli(["sweep", "--kind", "balanced_curves", "--values",
                           "1,inf", "--out-dir", str(tmp_path)])
        assert code == 2
        [csv] = tmp_path.glob("*.csv")
        errors = {row[0]: row[-1] for row in sweep_csv_rows(csv)[1:]}
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
          "--values", "1,nan"], "> 0"),
        (["--kind", "sink_sweep", "--seed", "-1"], "seed must be an integer >= 0"),
        (["--kind", "sink_sweep", "--values", ""],
         "swept values must be non-empty"),
        (["--kind", "balanced_curves", "--values", "1,1,2"],
         "swept value 1.0 is repeated"),
        (["--kind", "sink_sweep", "--values", "1,1.0"],
         "swept value 1 is repeated"),
        (["--kind", "radio_sweep"], "--values is required for radio_sweep")],
        ids=["alpha_3", "radio_nan", "balanced_nan", "convergecast_nan",
             "seed_negative", "values_empty", "balanced_repeated",
             "sink_repeated", "radio_values_missing"])
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

    def test_rate_rejected(self, tmp_path, capsys):
        # sweeps load the network at a multiple of its measured bound
        code, _ = run_cli(["sweep", "--kind", "sink_sweep", "--rate", "2",
                           "--out-dir", str(tmp_path)])
        assert code == 1
        args = tmp_path / "run.args"
        args.write_text("--kind sink_sweep\n--rate 2\n")
        code, _ = run_cli(["sweep", f"@{args}", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unrecognized arguments: --rate 2" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
