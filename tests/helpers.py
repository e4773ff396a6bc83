"""Shared test fixtures and independent oracles used by the unit and
acceptance suites."""

import csv
import itertools
from collections import defaultdict

from rtcap import analytics as an
from rtcap import simcore as sc
from rtcap import topology as tp


def chain_network(n, radio_range=10.0, sink_at_end=True):
    """1 x n grid with spacing 10 and the sink at the right end."""
    topo = tp.generate_perturbed_grid(1, n, 10.0, 0.0, seed=0,
                                      radio_range=radio_range)
    sink = n - 1 if sink_at_end else 0
    return topo, tp.build_routes(topo, [sink])


def mk_packet(pid, origin, at, deadline, tie=0.0):
    return sc.Packet(id=pid, origin=origin, arrival_time=at,
                     relative_deadline=deadline, tie_key=tie)


def mk_workload(packets):
    return sc.Workload(packets=tuple(packets), seed=0)


def sweep_csv_rows(path):
    """The rows under a sweep CSV's `#` comment block, column names first,
    as `csv.reader` parses them."""
    with open(path, newline="") as fh:
        return list(csv.reader(itertools.dropwhile(
            lambda line: line.startswith("#"), fh)))


# the 800-node, 12-sink evaluation network of criterion 6
EVAL_GRID = dict(rows=20, cols=40, spacing=10.0, jitter=0.25, radio_range=20.5,
                 sink_count=12)


def measured_dm_bound(topo, routes) -> float:
    """Convergecast DM bound (inversion factor 1, 250 kbit/s) from the
    statistics measured on this network."""
    stats = tp.topology_stats(topo, routes)
    params = an.AnalyticParams(
        node_count=topo.node_count, bandwidth=250_000.0,
        neighborhood_bound=stats.neighborhood_bound, inversion_factor=1.0,
        nodes_per_disk=max(1, stats.nodes_per_disk),
        max_hops=max(1, stats.max_hops), sink_count=len(routes.sinks))
    return an.rtcc_convergecast(an.DM, params, mode=an.EXACT).value


def contended_run(seed=3, rate=6.0, event_log=None):
    """3x3 grid under enough load (50 ms hops) to produce real contention.
    Returns the network, the config, the workload that ran and its metrics,
    so a caller can render `event_log` with `sc.format_events`."""
    topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=seed,
                                   radio_range=15.0, sink_count=1)
    cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=rate, duration=8.0,
                       seed=seed)
    wl = sc.generate_workload(topo, routes, cfg)
    metrics = sc.run_simulation(topo, routes, wl, cfg, event_log=event_log)
    return topo, routes, cfg, wl, metrics


def replay_active_sets(log, adjacency):
    """Re-verify the exclusion rule over the whole log, independently of the
    simulator's own per-grant check."""
    active = {}
    for line in log:
        parts = line.split()
        kind = parts[1]
        if kind == "grant":
            s, r = (int(x) for x in parts[2].split("->"))
            pid = int(parts[3])
            for (s0, r0) in active.values():
                assert not ({s, r} & {s0, r0}), line
                assert s not in adjacency[r0], line
                assert r not in adjacency[s0], line
            active[pid] = (s, r)
        elif kind == "complete":
            active.pop(int(parts[3]))
    assert not active


def receive_gaps(log):
    """The time between each two consecutive `complete` lines into the same
    receiver, read from the text event log alone. A receiver takes one
    packet at a time, so each gap is at least one packet's airtime: no node
    receives more than B*w plus one packet's bits in any window w."""
    last, gaps = {}, []
    for line in log:
        time, kind, link = line.split()[:3]
        if kind == "complete":
            receiver = link.split("->")[1]
            if receiver in last:
                gaps.append(float(time) - last[receiver])
            last[receiver] = float(time)
    return gaps


def audit_priority_order(log, adjacency, next_hop):
    """No grant may leapfrog a strictly-smaller-deadline packet that was
    queued and unblocked in the same contention set at that instant."""

    def conflicts(a, b):
        (sa, ra), (sb, rb) = a, b
        return bool({sa, ra} & {sb, rb}) or sa in adjacency[rb] or sb in adjacency[ra]

    queued = defaultdict(dict)   # node -> pid -> relative deadline
    deadlines = {}
    active = {}
    violations = []
    for line in log:
        parts = line.split()
        kind = parts[1]
        if kind == "arrival":
            node, pid, dl = int(parts[2]), int(parts[3]), float(parts[4])
            deadlines[pid] = dl
            queued[node][pid] = dl
        elif kind == "enqueue":
            node, pid = int(parts[2]), int(parts[3])
            queued[node][pid] = deadlines[pid]
        elif kind == "grant":
            s, r = (int(x) for x in parts[2].split("->"))
            pid = int(parts[3])
            dl = deadlines[pid]
            # within the node, the head must carry the minimal deadline
            assert dl <= min(queued[s].values()), line
            blockers = list(active.values())
            for v, pending in queued.items():
                if v == s or not pending:
                    continue
                head_dl = min(pending.values())
                cand = (v, next_hop[v])
                if head_dl < dl and conflicts(cand, (s, r)):
                    blocked = any(conflicts(cand, b) for b in blockers)
                    if not blocked:
                        violations.append((line, v, head_dl))
            del queued[s][pid]
            active[pid] = (s, r)
        elif kind == "complete":
            active.pop(int(parts[3]))
        elif kind == "miss":
            loc, pid = parts[2], int(parts[3])
            if loc != "air":
                queued[int(loc)].pop(pid, None)
    return violations


def max_node_utilizations(topology, routes, workload, tx_time):
    """Worst instantaneous utilization each node sees if every packet stays
    in the network for its whole deadline window (a conservative upper
    bound: early deliveries only lower the true value). `tx_time` is the
    run's per-hop transmission time."""
    deltas = defaultdict(list)
    for p in workload.packets:
        u = tx_time / p.relative_deadline
        for v in routes.route(p.origin):
            deltas[v].append((p.arrival_time, u))
            deltas[v].append((p.absolute_deadline, -u))
    peaks = {}
    for v in topology.adjacency:
        level = peak = 0.0
        for _, d in sorted(deltas.get(v, [])):
            level += d
            peak = max(peak, level)
        peaks[v] = peak
    return peaks


def instance_is_dm_feasible(topology, routes, workload, tx_time):
    """Path-by-path fixed-priority feasibility check on measured (worst-case)
    neighborhood utilizations at per-hop time `tx_time`."""
    peaks = max_node_utilizations(topology, routes, workload, tx_time)
    cont = tp.contention_sets(topology)
    vq = {x: sum(peaks[y] for y in members) for x, members in cont.items()}
    for origin in topology.adjacency:
        if origin in routes.sinks:
            continue
        senders = routes.route(origin)[:-1]
        if not an.dm_path_feasible([vq[v] for v in senders]).feasible:
            return False
    return True
