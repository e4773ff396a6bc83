"""Shared test fixtures and independent oracles used by the unit and
acceptance suites."""

import csv
import heapq
import itertools
import math
import tracemalloc
from collections import defaultdict

import numpy as np

from rtcap import analytics as an
from rtcap import simcore as sc
from rtcap import topology as tp


def chain_network(n, radio_range=10.0, sink_at_end=True):
    """1 x n grid with spacing 10 and the sink at the right end."""
    topo = tp.generate_perturbed_grid(1, n, 10.0, 0.0, seed=0,
                                      radio_range=radio_range)
    sink = n - 1 if sink_at_end else 0
    return topo, tp.build_routes(topo, [sink])


def star(n, radio_range=10.0):
    """The sink, node 0, at the centre and `n` sources, nodes 1..n, evenly
    spaced on a circle of radius 0.4 * radio_range around it. Every two
    nodes are in range, so the exclusion rule lets one transmission at a
    time, and every route is one hop."""
    angles = 2 * math.pi * np.arange(n) / n
    ring = 0.4 * radio_range * np.column_stack((np.cos(angles), np.sin(angles)))
    topo = tp.Topology(np.vstack(([0.0, 0.0], ring)), radio_range)
    return topo, tp.build_routes(topo, [0])


def uniprocessor_reference(workload, tx_time):
    """A one-hop star run by hand as a non-preemptive deadline-monotonic
    uniprocessor with drop at the deadline. Returns ({position: delay} of
    the delivered packets, miss count).

    Work-conserving: whenever the channel is free, the packets that have
    arrived by then wait in one heap in (relative deadline, tie key,
    position) order. A head whose deadline is at or before the instant it
    reaches the head is dropped as missed; any other is sent for `tx_time`,
    and missed if its transmission ends after its deadline. Reads the
    workload as `Packet`s and nothing else of the simulator."""
    packets = list(workload.packets)
    ready, delays = [], {}
    missed = nxt = 0
    now = 0.0
    while nxt < len(packets) or ready:
        if not ready:
            now = max(now, packets[nxt].arrival_time)
        while nxt < len(packets) and packets[nxt].arrival_time <= now:
            p = packets[nxt]
            heapq.heappush(ready, (p.relative_deadline, p.tie_key, nxt))
            nxt += 1
        pos = heapq.heappop(ready)[-1]
        p = packets[pos]
        deadline = p.arrival_time + p.relative_deadline
        if deadline <= now:
            missed += 1
            continue
        now += tx_time
        if now > deadline:
            missed += 1
        else:
            delays[pos] = now - p.arrival_time
    return delays, missed


def np_dm_response_times(tasks, tx_time):
    """Worst-case response times of periodic tasks on a non-preemptive
    deadline-monotonic uniprocessor, by the exact level-i busy-period
    analysis (Davis, Burns, Bril & Lukkien 2007). `tasks` are (period,
    deadline) pairs with distinct deadlines, and every job takes
    `tx_time`, one hop on the channel. Returns each task's worst response
    time, in the order given.

    For task i, blocking B is the longest lower-priority hop: `tx_time`
    when a task has a larger deadline, else 0. The level-i busy period t
    solves t = B + sum over i and the higher-priority tasks j of
    ceil(t/T_j)*C and holds ceil(t/T_i) jobs of i. The q-th starts at the
    fixed point of w = B + q*C + sum over the higher-priority j of
    (floor(w/T_j) + 1)*C and responds at w - q*T_i + C; every job of the
    busy period is checked. The utilization of i and the higher-priority
    tasks must be below 1. Reads nothing of the simulator."""
    def fixed_point(w, step):
        while (nxt := step(w)) != w:
            w = nxt
        return w

    c = tx_time
    worst = []
    for period, deadline in tasks:
        higher = [t for t, d in tasks if d < deadline]
        if c / period + sum(c / t for t in higher) >= 1:
            raise ValueError(f"level-{deadline} utilization is not below 1")
        blocking = c if any(d > deadline for _, d in tasks) else 0.0
        busy = fixed_point(blocking + c * (1 + len(higher)), lambda t: (
            blocking + c * sum(math.ceil(t / p) for p in [period, *higher])))
        responses = []
        for q in range(math.ceil(busy / period)):
            start = fixed_point(blocking + c * (q + len(higher)), lambda w: (
                blocking + c * (q + sum(math.floor(w / p) + 1
                                        for p in higher))))
            responses.append(start - q * period + c)
        worst.append(max(responses))
    return worst


def mark(sets, sender, receiver, on_air=True):
    """Put the link sender->receiver on the MAC's sets, (busy endpoints,
    senders, receivers), as the MAC does at a grant; with on_air=False take
    it off them, as the run does when the transmission completes."""
    busy, senders, receivers = sets
    for members, node in ((busy, sender), (busy, receiver),
                          (senders, sender), (receivers, receiver)):
        if on_air:
            members.add(node)
        else:
            members.discard(node)


def reference_run(topology, routes, workload, config, key):
    """A network run by a plain greedy pass over the whole backlog at every
    instant; returns its event trace as (time, kind, node, receiver,
    position) tuples, as `run_simulation` logs them.

    `key(arrival_time, relative_deadline, tie_key, position)` is the
    packets' priority, smallest first, ending in the position. An instant is
    the earliest of the next arrival, the next hop's end and the next
    deadline of a packet still in the network. It runs hops ending then, in
    grant order (a packet that missed in the air goes no further; one that
    reaches a sink is delivered), then arrivals in workload order, then
    deadlines in position order: a queued packet leaves its node's queue, a
    packet in the air is logged at node -1. With `config.stop_at_first_miss`
    the run ends at the first instant with a miss. Otherwise every node
    with a queued packet offers its most urgent one to its next hop, and in
    key order a link is granted unless an endpoint is on the air, its
    sender is in range of a receiving node or its receiver in range of a
    sending node. Uses lists, dicts and sets alone; of the simulator it
    reads only the workload's `Packet`s and the six event codes."""
    packets = list(workload.packets)
    adjacency, next_hop = topology.adjacency, routes.next_hop
    sinks = set(routes.sinks)
    tx_time = config.packet_size / config.bandwidth
    deadline = [p.arrival_time + p.relative_deadline for p in packets]
    queued = defaultdict(list)  # node -> keys of its queued packets
    where = {}                  # position -> node holding it, queued or sending
    air = {}                    # position -> (sender, receiver, end), by grant
    trace, nxt = [], 0
    while True:
        due = [end for _, _, end in air.values()]
        due += [deadline[pos] for pos in where]
        if nxt < len(packets):
            due.append(packets[nxt].arrival_time)
        if not due:
            return trace
        now = min(due)
        for pos, (s, r, end) in list(air.items()):
            if end != now:
                continue
            del air[pos]
            trace.append((now, sc.COMPLETE, s, r, pos))
            if pos not in where:
                continue
            if r in sinks:
                del where[pos]
                trace.append((now, sc.DELIVER, r, -1, pos))
            else:
                where[pos] = r
                p = packets[pos]
                queued[r].append(key(p.arrival_time, p.relative_deadline,
                                     p.tie_key, pos))
                trace.append((now, sc.ENQUEUE, r, -1, pos))
        while nxt < len(packets) and packets[nxt].arrival_time == now:
            p = packets[nxt]
            where[nxt] = p.origin
            queued[p.origin].append(key(now, p.relative_deadline, p.tie_key,
                                        nxt))
            trace.append((now, sc.ARRIVAL, p.origin, -1, nxt))
            nxt += 1
        missed = sorted(pos for pos in where if deadline[pos] == now)
        for pos in missed:
            node = where.pop(pos)
            if pos in air:
                trace.append((now, sc.MISS, -1, -1, pos))
            else:
                queued[node] = [k for k in queued[node] if k[-1] != pos]
                trace.append((now, sc.MISS, node, -1, pos))
        if missed and config.stop_at_first_miss:
            return trace
        for head, v in sorted((min(keys), v) for v, keys in queued.items()
                              if keys):
            r = next_hop[v]
            if any({v, r} & {s, t} or t in adjacency[v] or s in adjacency[r]
                   for s, t, _ in air.values()):
                continue
            queued[v].remove(head)
            air[head[-1]] = (v, r, now + tx_time)
            trace.append((now, sc.GRANT, v, r, head[-1]))


def mk_packet(origin, at, deadline, tie=0.0):
    return sc.Packet(origin=origin, arrival_time=at,
                     relative_deadline=deadline, tie_key=tie)


def mk_workload(packets):
    """A workload of the packets as listed: each one's position is its
    identity, so they must be in time order."""
    return sc.Workload(packets=tuple(packets), seed=0)


def sweep_csv_rows(path):
    """The rows under a sweep CSV's `#` comment block, column names first,
    as `csv.reader` parses them."""
    with open(path, newline="") as fh:
        return list(csv.reader(itertools.dropwhile(
            lambda line: line.startswith("#"), fh)))


# the 800-node, 12-sink evaluation network of criterion 6
def traced_peak(fn):
    """`fn()` run under tracemalloc: (its result, the peak of the memory
    it traced, in bytes)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


EVAL_GRID = dict(rows=20, cols=40, spacing=10.0, jitter=0.25, radio_range=20.5,
                 sink_count=12)


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
            pos = int(parts[3])
            for (s0, r0) in active.values():
                assert not ({s, r} & {s0, r0}), line
                assert s not in adjacency[r0], line
                assert r not in adjacency[s0], line
            active[pos] = (s, r)
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


def first_miss_claim(trace, workload, packet_size):
    """The capacity claimed at a run's first miss, from its definition and
    the run's event trace alone: at the first miss, at time t by packet m,
    each packet that has arrived claims packet_size times the hops it has
    completed over its relative deadline while its deadline window is open,
    delivered or not. A window closing at t is still open for m and for the
    packets after m, whose expiries come after m's in the run's order, and
    closed for those before it. Claims are summed in workload order; None
    when nothing missed."""
    misses = [i for i, record in enumerate(trace) if record[1] == sc.MISS]
    if not misses:
        return None
    before = trace[:misses[0]]
    t, m = trace[misses[0]][0], trace[misses[0]][4]
    arrived = sorted(pos for _, kind, _, _, pos in before if kind == sc.ARRIVAL)
    hops = defaultdict(int)
    for _, kind, _, _, pos in before:
        if kind == sc.COMPLETE:
            hops[pos] += 1
    total = 0.0
    for pos in arrived:
        p = workload.packets[pos]
        end = p.arrival_time + p.relative_deadline
        if end > t or (end == t and pos >= m):
            total += hops[pos] * packet_size / p.relative_deadline
    return total


def links_conflict(adjacency, a, b):
    """Two links (sender, receiver) conflict when they share a node or
    either sender is in range of the other's receiver."""
    (sa, ra), (sb, rb) = a, b
    return bool({sa, ra} & {sb, rb}) or sa in adjacency[rb] or sb in adjacency[ra]


def audit_priority_order(log, adjacency, next_hop):
    """No grant may leapfrog a strictly-smaller-deadline packet that was
    queued and unblocked in the same contention set at that instant."""
    queued = defaultdict(dict)   # node -> position -> relative deadline
    deadlines = {}
    active = {}
    violations = []
    for line in log:
        parts = line.split()
        kind = parts[1]
        if kind == "arrival":
            node, pos, dl = int(parts[2]), int(parts[3]), float(parts[4])
            deadlines[pos] = dl
            queued[node][pos] = dl
        elif kind == "enqueue":
            node, pos = int(parts[2]), int(parts[3])
            queued[node][pos] = deadlines[pos]
        elif kind == "grant":
            s, r = (int(x) for x in parts[2].split("->"))
            pos = int(parts[3])
            dl = deadlines[pos]
            # within the node, the head must carry the minimal deadline
            assert dl <= min(queued[s].values()), line
            blockers = list(active.values())
            for v, pending in queued.items():
                if v == s or not pending:
                    continue
                head_dl = min(pending.values())
                cand = (v, next_hop[v])
                if head_dl < dl and links_conflict(adjacency, cand, (s, r)):
                    blocked = any(links_conflict(adjacency, cand, b)
                                  for b in blockers)
                    if not blocked:
                        violations.append((line, v, head_dl))
            del queued[s][pos]
            active[pos] = (s, r)
        elif kind == "complete":
            active.pop(int(parts[3]))
        elif kind == "miss":
            loc, pos = parts[2], int(parts[3])
            if loc != "air":
                queued[int(loc)].pop(pos, None)
    return violations


def audit_work_conserving(log, adjacency, next_hop):
    """At the end of every instant, each node that holds a queued packet and
    is not an endpoint of an active transmission must have its head link
    (node, next_hop[node]) in conflict with an active transmission: the MAC
    leaves no grantable head idle. Reads a run's text event log alone; the
    run must not stop at its first miss, which skips that instant's grants.
    Returns the (time, node) pairs left idle."""
    queued = defaultdict(set)   # node -> positions queued there
    active = {}                 # position -> (sender, receiver)
    idle = []

    def audit(time):
        links = list(active.values())
        engaged = {v for link in links for v in link}
        for v, pending in queued.items():
            if pending and v not in engaged and not any(
                    links_conflict(adjacency, (v, next_hop[v]), link)
                    for link in links):
                idle.append((time, v))

    now = None
    for line in log:
        parts = line.split()
        if parts[0] != now:
            if now is not None:
                audit(now)
            now = parts[0]
        kind = parts[1]
        if kind in ("arrival", "enqueue"):
            queued[int(parts[2])].add(int(parts[3]))
        elif kind == "grant":
            s, r = (int(x) for x in parts[2].split("->"))
            pos = int(parts[3])
            queued[s].discard(pos)
            active[pos] = (s, r)
        elif kind == "complete":
            active.pop(int(parts[3]))
        elif kind == "miss" and parts[2] != "air":
            queued[int(parts[2])].discard(int(parts[3]))
    if now is not None:
        audit(now)
    return idle


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
            deltas[v].append((p.arrival_time + p.relative_deadline, -u))
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
    # a node's contention set: itself and its radio neighbours
    cont = {x: (x, *nbrs) for x, nbrs in topology.adjacency.items()}
    vq = {x: sum(peaks[y] for y in members) for x, members in cont.items()}
    for origin in topology.adjacency:
        if origin in routes.sinks:
            continue
        senders = routes.route(origin)[:-1]
        if not an.dm_path_feasible([vq[v] for v in senders]).feasible:
            return False
    return True
