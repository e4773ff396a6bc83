"""Command-line front end: closed-form analysis, single simulations, and
figure-reproduction sweeps.

Five commands, one question each:

* analyze    print the DM/EDF capacity bounds of one topology
* feasible   test one path for DM and EDF feasibility
* ratio      print the balanced/convergecast capacity ratio
* simulate   run seeded replications on one generated network
* sweep      run a parameter sweep and write its CSV

Every option a command reads is a flag of that command, and nothing else
sets it. A file of flags stands in for any run of them: in
`rtcap sweep @run.args --rows 30`, the words of run.args, split on
whitespace, take the place of `@run.args`. A later flag overrides an
earlier one, so `--rows 30` here wins over a `--rows` in the file.
Flags must be spelled out in full; no prefix abbreviates one. Values
printed by `analyze` use repr so they round-trip bit-for-bit to the
underlying library results.

Exit codes: 0 success, 1 usage error or refused setting, 2 solver or
simulation error. All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import NamedTuple, Optional

from . import analytics as an
from . import experiments as ex
from . import simcore as sc
from . import topology as tp


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented contract is 1
    def error(self, message):
        raise UsageError(message)

    # a line of a file of flags may hold several words
    def convert_arg_line_to_args(self, arg_line):
        return arg_line.split()

    # argparse takes a word that starts with "-" as a value only if it
    # reads as -5 or -.5; here every word float() parses is a value, so
    # `--Kd -inf` reaches the check that refuses it. No flag is a number.
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


class _Option(NamedTuple):
    kind: object        # int, float, str, _floats, bool (a switch) or choices
    default: object
    commands: tuple     # commands that take it as a --flag
    param: Optional[str] = None  # the library parameter it fills
    help: Optional[str] = None


def _floats(text: str) -> tuple:
    """A comma-separated list of numbers; blank items are skipped."""
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


_A, _F, _R, _S, _W = "analyze", "feasible", "ratio", "simulate", "sweep"

# The one declaration of every flag a command takes: each row becomes a
# --flag of each command it names, with the row's default, and argparse
# parses its value by the row's kind. A row's `param` names the library
# parameter the flag fills, so `_from_flags` passes the flag to every
# AnalyticParams, SimConfig, make_network, CurveSpec or SweepSpec call that
# takes that parameter. A new option is one row here.
_OPTIONS = {
    "n": _Option(int, 100, (_A, _W), "node_count"),
    "B": _Option(float, 250_000.0, (_A, _S, _W), "bandwidth"),
    "u": _Option(int, 10, (_A, _W), "neighborhood_bound"),
    "alpha": _Option(float, 2.0, (_A, _W), "inversion_factor"),
    # a sweep's swept value replaces path_length or max_hops, so `sweep`
    # has no --N or --Kd
    "N": _Option(float, 5.0, (_A,), "path_length"),
    "m": _Option(float, 10.0, (_A, _W), "nodes_per_disk"),
    "Kd": _Option(float, 4.0, (_A, _R), "max_hops"),
    "sinks": _Option(int, 1, (_A, _S, _W), "sink_count"),
    "mode": _Option((an.EXACT, an.APPROXIMATE), an.EXACT, (_A, _W), "mode"),
    "topology": _Option(("balanced", "convergecast"), "balanced", (_A,)),
    "scheduler": _Option(("dm", "edf", "both"), "both", (_A,)),
    "csv": _Option(str, None, (_A,), help="also write the bounds as CSV"),
    "vqs": _Option(_floats, None, (_F,), help=(
        "comma-separated neighborhood utilizations of the path")),
    "delta": _Option(float, 1.0, (_F,)),
    "rows": _Option(int, 20, (_S, _W), "rows"),
    "cols": _Option(int, 20, (_S, _W), "cols"),
    "spacing": _Option(float, 10.0, (_S, _W), "spacing"),
    "jitter": _Option(float, 0.25, (_S, _W), "jitter"),
    "radio_range": _Option(float, 20.0, (_S, _W), "radio_range"),
    "rate": _Option(float, 1.0, (_S,), "arrival_rate"),
    "duration": _Option(float, 30.0, (_S, _W), "duration"),
    "packet_size": _Option(float, 1000.0, (_S, _W), "packet_size"),
    "deadlines": _Option(_floats, "0.5,1.0,2.0", (_S, _W), "deadline_set",
                         "comma-separated deadline set, seconds"),
    "seed": _Option(int, 0, (_S, _W), "seed"),
    "reps": _Option(int, 10, (_S, _W), "replication_count"),
    "verbose": _Option(bool, False, (_S, _W)),
    "event_log": _Option(str, None, (_S,), help=(
        "write the first replication's event log here")),
    "kind": _Option(ex.SWEEP_KINDS, "balanced_curves", (_W,), "kind"),
    # sweep passes each kind's default values itself
    "values": _Option(_floats, None, (_W,), help="comma-separated swept values"),
    "load_factor": _Option(float, 1.5, (_W,), "load_factor"),
    "out_dir": _Option(str, ".", (_W,), help="output directory"),
}

_DEFAULT_SWEPT_VALUES = {
    "balanced_curves": tuple(float(n) for n in range(1, 31)),
    "convergecast_curves": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    "missratio_sweep": ex.load_multiplier_series(),
    "sink_sweep": (1.0, 2.0, 4.0, 8.0, 16.0),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rtcap", description=__doc__.splitlines()[0],
                     fromfile_prefix_chars="@", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command")
    commands = {
        name: sub.add_parser(name, help=text, allow_abbrev=False)
        for name, text in ((_A, "print analytic capacity bounds"),
                           (_F, "test one path's DM and EDF feasibility"),
                           (_R, "print the balanced/convergecast ratio"),
                           (_S, "run seeded simulation replications"),
                           (_W, "run a sweep and write CSV"))}
    for key, opt in _OPTIONS.items():
        parse = ({"action": "store_true"} if opt.kind is bool else
                 {"choices": opt.kind} if isinstance(opt.kind, tuple) else
                 {"type": opt.kind})
        flags = (("-v", "--verbose") if key == "verbose"
                 else ("--" + key.replace("_", "-"),))
        for command in opt.commands:
            commands[command].add_argument(*flags, dest=key, default=opt.default,
                                           help=opt.help, **parse)
    return parser


def _from_flags(target, cfg: dict, **given):
    """Call `target` with `given` and with every flag of `cfg` whose row's
    `param` is a parameter of `target`."""
    takes = inspect.signature(target).parameters
    return target(**{opt.param: cfg[key] for key, opt in _OPTIONS.items()
                     if key in cfg and opt.param in takes}, **given)


def _params_line(cfg: dict, keys) -> str:
    return "# params " + " ".join(f"{k}={cfg[k]!r}" for k in keys)


def _cmd_analyze(cfg, out) -> int:
    # computed, and the CSV written, before stdout: a failure prints nothing
    params = _from_flags(an.AnalyticParams, cfg)
    schedulers = {"dm": [an.DM], "edf": [an.EDF], "both": [an.DM, an.EDF]}
    bounds = [an.rtcc_balanced(s, params) if cfg["topology"] == "balanced"
              else an.rtcc_convergecast(s, params, mode=cfg["mode"])
              for s in schedulers[cfg["scheduler"]]]
    echo = _params_line(cfg, ("topology", "scheduler", "n", "B", "u", "alpha",
                              "N", "m", "Kd", "sinks", "mode"))
    if cfg["csv"]:
        with open(cfg["csv"], "w") as fh:
            fh.write(f"# rtcap analyze\n{echo}\n")
            fh.write("scheduler,topology,mode,bits_per_s,bottleneck_utilization\n")
            for b in bounds:
                fh.write(f"{b.scheduler},{b.topology_class},{b.mode},"
                         f"{b.value:.9g},{b.utilization_at_bottleneck:.9g}\n")
    print(echo, file=out)
    print(f"{'scheduler':<10} {'topology':<13} {'mode':<12} "
          f"{'bits_per_s':<24} bottleneck_utilization", file=out)
    for b in bounds:
        print(f"{b.scheduler:<10} {b.topology_class:<13} {b.mode:<12} "
              f"{b.value!r:<24} {b.utilization_at_bottleneck!r}", file=out)
    return 0


def _cmd_feasible(cfg, out) -> int:
    if not cfg["vqs"]:  # the library calls a path of no hops feasible
        raise UsageError("--vqs needs at least one neighborhood utilization")
    reports = (("DM", an.dm_path_feasible(cfg["vqs"], delta=cfg["delta"])),
               ("EDF", an.edf_path_feasible(cfg["vqs"])))
    print(_params_line(cfg, ("vqs", "delta")), file=out)
    print(f"{'test':<5} {'feasible':<9} {'lhs':<22} {'bound':<22} margin",
          file=out)
    for name, rep in reports:
        print(f"{name:<5} {('yes' if rep.feasible else 'no'):<9} "
              f"{rep.lhs_value!r:<22} {rep.bound!r:<22} {rep.margin!r}",
              file=out)
    return 0


def _cmd_ratio(cfg, out) -> int:
    print(repr(an.balanced_vs_convergecast_ratio(cfg["Kd"])), file=out)
    return 0


def _cmd_simulate(cfg, out) -> int:
    sim = _from_flags(sc.SimConfig, cfg)
    if cfg["event_log"]:
        # a bad log path fails before the runs, not after
        open(cfg["event_log"], "w").close()
    topo, routes = _from_flags(tp.make_network, cfg)
    stats = tp.topology_stats(topo, routes)
    trace = [] if cfg["event_log"] else None
    results = sc.run_replications(topo, routes, sim, event_log=trace)
    if trace is not None:
        # replication 0 draws with the seed of `sim` itself
        workload = sc.generate_workload(topo, routes, sim)
        with open(cfg["event_log"], "w") as fh:
            fh.writelines(line + "\n"
                          for line in sc.format_events(trace, workload))
    print(_params_line(cfg, ("rows", "cols", "spacing", "jitter", "radio_range",
                             "sinks", "B", "packet_size",
                             "deadlines", "rate", "duration", "seed",
                             "reps")), file=out)
    print(f"# measured u={stats.neighborhood_bound} m={stats.nodes_per_disk} "
          f"Kd={stats.max_hops}", file=out)
    for metrics in results:
        fm = metrics.capacity_consumption_at_first_miss
        print(f"replication seed={metrics.seed}: generated={metrics.packets_generated} "
              f"delivered={metrics.delivered} missed={metrics.missed} "
              f"miss_ratio={metrics.miss_ratio!r} "
              f"offered_demand={metrics.offered_demand!r} "
              f"first_miss_capacity={fm!r}", file=out)
        if cfg["verbose"] and metrics.delays:
            mean_delay = sum(metrics.delays) / len(metrics.delays)
            print(f"  delays: n={len(metrics.delays)} mean={mean_delay!r} "
                  f"max={max(metrics.delays)!r}", file=out)

    critical = sc.critical_capacity(results)
    if critical.miss_observed:
        print(f"critical_capacity={critical.value!r} "
              f"(over {critical.replications} replications)", file=out)
    else:
        print(f"critical_capacity=none (no miss observed in "
              f"{critical.replications} replications)", file=out)
    return 0


def _cmd_sweep(cfg, out) -> int:
    kind, values = cfg["kind"], cfg["values"]
    if values is None:
        if kind not in _DEFAULT_SWEPT_VALUES:
            raise UsageError(f"--values is required for {kind}")
        values = _DEFAULT_SWEPT_VALUES[kind]
    if kind in ex.CURVE_KINDS:
        spec = _from_flags(ex.CurveSpec, cfg, values=values,
                           analytic=_from_flags(an.AnalyticParams, cfg))
    else:
        spec = _from_flags(ex.SweepSpec, cfg, values=values,
                           sim=_from_flags(sc.SimConfig, cfg))
    # a bad output directory fails before the sweep runs, not after
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    rows = ex.run_sweep(spec)
    dest = os.path.join(out_dir, ex.csv_filename(spec))
    ex.emit_csv(rows, dest, spec)
    if cfg["verbose"]:
        for r in rows:
            print(f"  {r.swept_value}: analytic_dm={r.analytic_dm!r} "
                  f"analytic_edf={r.analytic_edf!r} "
                  f"critical={r.simulated_critical!r} "
                  f"miss_ratio={r.miss_ratio!r}"
                  + (f" error={r.error}" if r.error else ""), file=out)
    flagged = sum(1 for r in rows if r.error is not None)
    print(f"wrote {dest} ({len(rows)} rows"
          + (f", {flagged} flagged" if flagged else "") + ")", file=out)
    return 0 if flagged == 0 else 2


def dispatch(argv, out=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        handlers = {_A: _cmd_analyze, _F: _cmd_feasible, _R: _cmd_ratio,
                    _S: _cmd_simulate, _W: _cmd_sweep}
        return handlers[args.command](vars(args), out)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 1
    except (an.SolverError, tp.RoutingError, sc.InvariantError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
