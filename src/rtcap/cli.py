"""Command-line front end: closed-form analysis, single simulations, and
figure-reproduction sweeps.

Three commands:

* analyze    print capacity bounds (and optional path feasibility reports)
* simulate   run seeded replications on one generated network
* sweep      run a parameter sweep and write its CSV

Options can come from an INI-style config file (sections [analytics],
[topology], [simulation], [sweep]; flat key = value entries). Command-line
flags override file values, which override built-in defaults; unknown file
keys are rejected rather than ignored, and file values get the same type and
choice checks as flags. Values printed by `analyze` use
repr so they round-trip bit-for-bit to the underlying library results.

Exit codes: 0 success, 1 usage/configuration error, 2 solver or simulation
error. All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import configparser
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


class _Option(NamedTuple):
    kind: object        # int, float, str or bool, or a tuple of allowed strings
    default: object
    section: str        # config-file section
    commands: tuple     # commands that take it as a --flag
    help: Optional[str] = None


_A, _S, _W = "analyze", "simulate", "sweep"  # command names, for the table

# The one declaration of every option: the config-file reader, the merge
# and the flag parsers are all derived from this table.
_OPTIONS = {
    "n": _Option(int, 100, "analytics", (_A,)),
    "B": _Option(float, 250_000.0, "analytics", (_A, _S, _W)),
    "u": _Option(int, 10, "analytics", (_A,)),
    "alpha": _Option(float, 2.0, "analytics", (_A, _W)),
    "N": _Option(float, 5.0, "analytics", (_A,)),
    "m": _Option(float, 10.0, "analytics", (_A,)),
    "Kd": _Option(float, 4.0, "analytics", (_A,)),
    "sinks": _Option(int, 1, "analytics", (_A, _S, _W)),
    "mode": _Option((an.EXACT, an.APPROXIMATE), an.EXACT, "analytics", (_A, _W)),
    "delta": _Option(float, 1.0, "analytics", (_A,)),
    "rows": _Option(int, 20, "topology", (_S, _W)),
    "cols": _Option(int, 20, "topology", (_S, _W)),
    "spacing": _Option(float, 10.0, "topology", (_S, _W)),
    "jitter": _Option(float, 0.25, "topology", (_S, _W)),
    "radio_range": _Option(float, 20.0, "topology", (_S, _W)),
    "sink_mode": _Option(("subgrid", "random"), "subgrid", "topology", (_S,)),
    "rate": _Option(float, 1.0, "simulation", (_S,)),
    "duration": _Option(float, 30.0, "simulation", (_S, _W)),
    "packet_size": _Option(float, 1000.0, "simulation", (_S, _W)),
    "deadlines": _Option(str, "0.5,1.0,2.0", "simulation", (_S,),
                         "comma-separated deadline set, seconds"),
    # set from the command line only through simulate's --keep-on-miss
    "drop_on_miss": _Option(bool, True, "simulation", ()),
    "seed": _Option(int, 0, "simulation", (_S, _W)),
    "reps": _Option(int, 10, "simulation", (_S, _W)),
    "kind": _Option(ex.SWEEP_KINDS, "balanced_curves", "sweep", (_W,)),
    "values": _Option(str, "", "sweep", (_W,), "comma-separated swept values"),
    "load_factor": _Option(float, 1.5, "sweep", (_W,)),
}

_DEFAULT_SWEPT_VALUES = {
    "balanced_curves": tuple(float(n) for n in range(1, 31)),
    "convergecast_curves": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    "missratio_sweep": ex.load_multiplier_series(),
    "sink_sweep": (1.0, 2.0, 4.0, 8.0, 16.0),
}


def _file_value(section: str, key: str, raw: str):
    """Convert one config-file entry with the same checks its flag gets."""
    kind = _OPTIONS[key].kind
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(raw)
            return raw
        return kind(raw)
    except (KeyError, ValueError):
        raise UsageError(f"bad value for {section}.{key}: {raw!r}")


def _load_config_file(path) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (N vs n, B, Kd)
    if not parser.read(path):
        raise UsageError(f"cannot read config file {path}")
    out = {}
    offending = []
    for section in parser.sections():
        for key, raw in parser[section].items():
            if key in _OPTIONS and _OPTIONS[key].section == section:
                out[key] = _file_value(section, key, raw)
            else:
                offending.append(f"{section}.{key}")
    if offending:
        raise UsageError("unknown config keys: " + ", ".join(sorted(offending)))
    return out


def _merge(args: argparse.Namespace, file_values: dict) -> dict:
    """Flag > config file > default, for every option in the table."""
    merged = {key: opt.default for key, opt in _OPTIONS.items()}
    merged.update(file_values)
    for key in _OPTIONS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rtcap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    common = _Parser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("-v", "--verbose", action="store_true")

    commands = {
        "analyze": sub.add_parser("analyze", parents=[common],
                                  help="print analytic capacity bounds"),
        "simulate": sub.add_parser("simulate", parents=[common],
                                   help="run seeded simulation replications"),
        "sweep": sub.add_parser("sweep", parents=[common],
                                help="run a sweep and write CSV"),
    }
    for key, opt in _OPTIONS.items():
        choices = opt.kind if isinstance(opt.kind, tuple) else None
        for command in opt.commands:
            commands[command].add_argument(
                "--" + key.replace("_", "-"), dest=key, help=opt.help,
                type=None if choices else opt.kind, choices=choices)

    pa = commands["analyze"]
    pa.add_argument("--topology", choices=["balanced", "convergecast"],
                    default="balanced")
    pa.add_argument("--scheduler", choices=["dm", "edf", "both"], default="both")
    pa.add_argument("--clamp", action="store_true",
                    help="cap saturated sink utilizations at 1")
    pa.add_argument("--ratio", action="store_true",
                    help="print the balanced/convergecast capacity ratio for --Kd")
    pa.add_argument("--vqs", help="comma-separated neighborhood utilizations: "
                                  "print DM and EDF path feasibility reports")
    pa.add_argument("--csv", help="also write the bounds as CSV")

    ps = commands["simulate"]
    ps.add_argument("--keep-on-miss", dest="drop_on_miss", action="store_false",
                    default=None, help="keep forwarding packets that missed")
    ps.add_argument("--event-log", dest="event_log",
                    help="write the first replication's event log here")

    pw = commands["sweep"]
    pw.add_argument("--out-dir", dest="out_dir",
                    help="output directory (default $RTCAP_OUT_DIR or .)")

    return parser


def _params_from(cfg: dict) -> an.AnalyticParams:
    return an.AnalyticParams(
        node_count=cfg["n"], bandwidth=cfg["B"], neighborhood_bound=cfg["u"],
        inversion_factor=cfg["alpha"], path_length=cfg["N"],
        nodes_per_disk=cfg["m"], max_hops=cfg["Kd"], sink_count=cfg["sinks"])


def _sim_from(cfg: dict, **fields) -> sc.SimConfig:
    """The workload, seed and replication settings every simulating command
    shares; `fields` adds the ones only some commands set."""
    return sc.SimConfig(
        bandwidth=cfg["B"], packet_size=cfg["packet_size"],
        deadline_set=_parse_floats(cfg["deadlines"]),
        duration=cfg["duration"], drop_on_miss=cfg["drop_on_miss"],
        seed=cfg["seed"], replication_count=cfg["reps"], **fields)


def _echo_params(cfg: dict, keys, out) -> None:
    pairs = " ".join(f"{k}={cfg[k]!r}" for k in keys)
    print(f"# params {pairs}", file=out)


def _cmd_analyze(args, cfg, out) -> int:
    if args.ratio:
        print(repr(an.balanced_vs_convergecast_ratio(cfg["Kd"])), file=out)
        return 0

    _echo_params(cfg, ("n", "B", "u", "alpha", "N", "m", "Kd", "sinks",
                       "mode", "delta"), out)

    if args.vqs is not None:
        vqs = _parse_floats(args.vqs)
        dm = an.dm_path_feasible(vqs, delta=cfg["delta"])
        edf = an.edf_path_feasible(vqs)
        print(f"{'test':<5} {'feasible':<9} {'lhs':<22} {'bound':<22} margin",
              file=out)
        for name, rep in (("DM", dm), ("EDF", edf)):
            print(f"{name:<5} {('yes' if rep.feasible else 'no'):<9} "
                  f"{rep.lhs_value!r:<22} {rep.bound!r:<22} {rep.margin!r}",
                  file=out)
        return 0

    params = _params_from(cfg)
    schedulers = {"dm": [an.DM], "edf": [an.EDF], "both": [an.DM, an.EDF]}
    bounds = []
    for scheduler in schedulers[args.scheduler]:
        if args.topology == "balanced":
            bounds.append(an.rtcc_balanced(scheduler, params))
        else:
            bounds.append(an.rtcc_convergecast(scheduler, params,
                                               mode=cfg["mode"],
                                               clamp=args.clamp))
    print(f"{'scheduler':<10} {'topology':<13} {'mode':<12} "
          f"{'bits_per_s':<24} bottleneck_utilization", file=out)
    for b in bounds:
        print(f"{b.scheduler:<10} {b.topology_class:<13} {b.mode:<12} "
              f"{b.value!r:<24} {b.utilization_at_bottleneck!r}", file=out)

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("# rtcap analyze\n")
            fh.write("scheduler,topology,mode,bits_per_s,bottleneck_utilization\n")
            for b in bounds:
                fh.write(f"{b.scheduler},{b.topology_class},{b.mode},"
                         f"{b.value:.9g},{b.utilization_at_bottleneck:.9g}\n")
    return 0


def _cmd_simulate(args, cfg, out) -> int:
    sim = _sim_from(cfg, arrival_rate=cfg["rate"])
    topo, routes = tp.make_network(cfg["rows"], cfg["cols"], cfg["spacing"],
                                   cfg["jitter"], cfg["seed"],
                                   cfg["radio_range"], cfg["sinks"],
                                   cfg["sink_mode"])
    stats = tp.topology_stats(topo, routes)
    _echo_params(cfg, ("rows", "cols", "spacing", "jitter", "radio_range",
                       "sinks", "sink_mode", "B", "packet_size", "deadlines",
                       "rate", "duration", "drop_on_miss", "seed", "reps"), out)
    print(f"# measured u={stats.neighborhood_bound} m={stats.nodes_per_disk} "
          f"Kd={stats.max_hops}", file=out)

    log = [] if args.event_log else None
    results = sc.run_replications(topo, routes, sim, event_log=log)
    if log is not None:
        sc.write_event_log(log, args.event_log)
    for metrics in results:
        fm = metrics.capacity_consumption_at_first_miss
        print(f"replication seed={metrics.seed}: generated={metrics.packets_generated} "
              f"delivered={metrics.delivered} missed={metrics.missed} "
              f"miss_ratio={metrics.miss_ratio!r} "
              f"offered_demand={metrics.offered_demand!r} "
              f"first_miss_capacity={fm!r}", file=out)
        if args.verbose and metrics.delays:
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


def _cmd_sweep(args, cfg, out) -> int:
    kind = cfg["kind"]
    if cfg["values"]:
        values = _parse_floats(cfg["values"])
    elif kind in _DEFAULT_SWEPT_VALUES:
        values = _DEFAULT_SWEPT_VALUES[kind]
    else:
        raise UsageError(f"--values is required for {kind}")
    if kind in ex.CURVE_KINDS:
        spec = ex.CurveSpec(kind=kind, values=values, analytic=_params_from(cfg),
                            mode=cfg["mode"])
    else:
        spec = ex.SweepSpec(
            kind=kind, values=values, sim=_sim_from(cfg), rows=cfg["rows"],
            cols=cfg["cols"], spacing=cfg["spacing"], jitter=cfg["jitter"],
            radio_range=cfg["radio_range"], sink_count=cfg["sinks"],
            sink_mode=cfg["sink_mode"], inversion_factor=cfg["alpha"],
            mode=cfg["mode"], load_factor=cfg["load_factor"])
    # a bad output directory fails before the sweep runs, not after
    out_dir = args.out_dir or os.environ.get("RTCAP_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    rows = ex.run_sweep(spec)
    dest = os.path.join(out_dir, ex.csv_filename(spec))
    ex.emit_csv(rows, dest, spec)
    if args.verbose:
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
        file_values = _load_config_file(args.config) if args.config else {}
        if args.command == "sweep" and "rate" in file_values:
            # sweeps load the network at a multiple of its measured bound
            raise UsageError("sweep does not read simulation.rate; set the load "
                             "with load_factor (or values for missratio_sweep)")
        cfg = _merge(args, file_values)
        if args.command == "analyze":
            return _cmd_analyze(args, cfg, out)
        if args.command == "simulate":
            return _cmd_simulate(args, cfg, out)
        return _cmd_sweep(args, cfg, out)
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
