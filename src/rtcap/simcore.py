"""Deterministic packet-level discrete-event simulation.

Models the evaluation setup end to end: Poisson traffic at every non-sink
node with deadlines drawn from a preselected set, an idealized
deadline-monotonic MAC that grants transmissions in global priority order
subject to disk-model spatial exclusion, hop-by-hop forwarding along the
shortest-hop route table, eager deadline-miss detection, and measurement of
the capacity consumed by deadline-live traffic at the instant of the first
miss (a packet claims capacity from its arrival until its deadline passes;
a missed packet's claim drops to zero).

Arbitration is incremental. A `Medium` holds the busy endpoints and, per
node, how many active senders and how many active receivers have that node
in radio range; each grant and each completion updates it once, in
O(degree). After a completion frees endpoint x, only backlogged nodes in
reach[x] = N[x] | {v : next_hop[v] in N[x]} (N[x] the closed
neighbourhood) are re-arbitrated besides the nodes the instant touched: a
head (v, next_hop[v]) is blocked by (s, r) only through v or next_hop[v]
being s or r, v in N(r), or next_hop[v] in N(s), so freeing x unblocks
nothing outside reach[x].

A single run is strictly sequential and reproducible: identical
(topology, routes, workload) inputs give bit-identical metrics. Replications
differ only in the workload seed.

The optional event log is plain text, one event per line:

    <time> arrival <node> <pid> <deadline>
    <time> enqueue <node> <pid>
    <time> grant <sender>-><receiver> <pid>
    <time> complete <sender>-><receiver> <pid>
    <time> deliver <node> <pid>
    <time> miss <node|air> <pid> <dropped|kept>
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .topology import RouteTable, Topology

# event ranks: completions free the channel before same-instant arrivals are
# queued, and a completion landing exactly at the deadline still counts as
# on time because it is processed before the expiry check
_COMPLETE, _ARRIVAL, _EXPIRE = 0, 1, 2


class InvariantError(RuntimeError):
    """The simulator reached a state that violates one of its invariants."""


@dataclass
class Packet:
    """One packet: its arrival (time, origin, deadline, tie key) and the run
    state. Size and per-hop time are the run's, the route the origin's. A run
    copies each workload packet when it arrives and moves only the copy."""

    id: int
    origin: int
    arrival_time: float
    relative_deadline: float
    tie_key: float
    current_node: int = -1
    hops_traversed: int = 0
    missed: bool = False
    dropped: bool = False

    @property
    def absolute_deadline(self) -> float:
        return self.arrival_time + self.relative_deadline


@dataclass(frozen=True)
class ActiveTransmission:
    sender: int
    receiver: int
    packet_id: int


@dataclass(frozen=True)
class SimConfig:
    """Workload and run parameters. Rates are per non-sink node."""

    bandwidth: float = 250_000.0
    packet_size: float = 1_000.0
    deadline_set: tuple = (0.5, 1.0, 2.0)
    arrival_rate: float = 1.0
    duration: float = 30.0
    drop_on_miss: bool = True
    seed: int = 0
    replication_count: int = 1
    stop_at_first_miss: bool = False

    def __post_init__(self):
        if not (self.bandwidth > 0):
            raise ValueError("bandwidth must be > 0")
        if not (self.packet_size > 0):
            raise ValueError("packet_size must be > 0")
        if not self.deadline_set or any(d <= 0 for d in self.deadline_set):
            raise ValueError("deadline_set must be non-empty and positive")
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")
        if not (self.duration > 0):
            raise ValueError("duration must be > 0")
        if self.replication_count < 1:
            raise ValueError("replication_count must be >= 1")

    @property
    def tx_time(self) -> float:
        return self.packet_size / self.bandwidth

    @property
    def overloaded(self) -> bool:
        """One node's own traffic alone claims the whole channel: a flag for
        overload experiments, not an error."""
        return self.arrival_rate * self.tx_time >= 1.0


@dataclass(frozen=True)
class Workload:
    """Time-ordered packet arrivals and the seed that drew them."""

    packets: tuple
    seed: int


@dataclass(frozen=True)
class RunMetrics:
    packets_generated: int
    delivered: int
    missed: int
    miss_ratio: float
    capacity_consumption_at_first_miss: Optional[float]
    first_miss_time: Optional[float]
    offered_demand: float
    in_flight_at_end: int
    delays: tuple
    seed: int


@dataclass(frozen=True)
class CriticalCapacity:
    """Minimum capacity consumption at which any replication first missed.

    value is None when no replication observed a miss up to its offered
    demand; miss_observed distinguishes that case from a true zero.
    """

    value: Optional[float]
    miss_observed: bool
    replications: int


def priority_key(packet: Packet):
    """Global deadline-monotonic transmission order: smallest relative
    deadline first, ties broken by the packet's seeded random tie key."""
    return (packet.relative_deadline, packet.tie_key, packet.id)


def generate_workload(topology: Topology, routes: RouteTable, config: SimConfig,
                      seed: Optional[int] = None) -> Workload:
    """Seeded Poisson arrivals at every non-sink node over the run duration.

    Each packet gets a deadline drawn uniformly from the configured set and
    a random priority tie key. Packet ids are assigned in arrival-time order.
    """
    use_seed = config.seed if seed is None else seed
    rng = np.random.default_rng(use_seed)
    deadlines = list(config.deadline_set)
    sinks = frozenset(routes.sinks)
    raw = []
    for node in topology.nodes:
        if node.id in sinks or config.arrival_rate == 0:
            continue
        t = 0.0
        while True:
            t += rng.exponential(1.0 / config.arrival_rate)
            if t > config.duration:
                break
            deadline = deadlines[rng.integers(len(deadlines))]
            raw.append((t, node.id, deadline, rng.random()))
    raw.sort()
    packets = tuple(
        Packet(id=pid, origin=origin, arrival_time=t, relative_deadline=deadline,
               tie_key=tie, current_node=origin)
        for pid, (t, origin, deadline, tie) in enumerate(raw))
    return Workload(packets=packets, seed=use_seed)


class Medium:
    """The shared channel: busy endpoints plus, per node, how many active
    senders (`near_senders`) and active receivers (`near_receivers`) have
    that node in radio range. Adjacency is open (a node is not its own
    neighbour); an endpoint's own use of the channel is tracked by `busy`.
    """

    __slots__ = ("adjacency", "busy", "near_senders", "near_receivers")

    def __init__(self, adjacency: dict):
        self.adjacency = adjacency
        self.busy = set()
        self.near_senders = dict.fromkeys(adjacency, 0)
        self.near_receivers = dict.fromkeys(adjacency, 0)

    def occupy(self, sender: int, receiver: int) -> None:
        self.busy.add(sender)
        self.busy.add(receiver)
        near_senders, near_receivers = self.near_senders, self.near_receivers
        for v in self.adjacency[sender]:
            near_senders[v] += 1
        for v in self.adjacency[receiver]:
            near_receivers[v] += 1

    def release(self, sender: int, receiver: int) -> None:
        self.busy.discard(sender)
        self.busy.discard(receiver)
        near_senders, near_receivers = self.near_senders, self.near_receivers
        for v in self.adjacency[sender]:
            near_senders[v] -= 1
        for v in self.adjacency[receiver]:
            near_receivers[v] -= 1

    def is_idle(self) -> bool:
        return not (self.busy or any(self.near_senders.values())
                    or any(self.near_receivers.values()))


def admissible_transmissions(candidates: Iterable, medium: Medium) -> list:
    """Grant head-of-queue transmissions in global priority order under the
    spatial exclusion rule.

    candidates are (packet, sender, receiver) triples. A candidate is granted
    iff its sender is outside radio range of every receiving node, its
    receiver is outside radio range of every sending node (counting both the
    already-active transmissions in `medium` and grants made earlier in this
    pass), and neither endpoint is already engaged. Each grant occupies the
    medium. Returns the granted triples in priority order.
    """
    busy = medium.busy
    near_senders, near_receivers = medium.near_senders, medium.near_receivers
    granted = []
    for packet, sender, receiver in sorted(candidates, key=lambda c: priority_key(c[0])):
        if sender in busy or receiver in busy:
            continue
        if near_receivers[sender] or near_senders[receiver]:
            continue
        medium.occupy(sender, receiver)
        granted.append((packet, sender, receiver))
    return granted


def measured_capacity_consumption(packets: Iterable, packet_size: float) -> float:
    """Capacity consumed by the given packets, in bits/s: each packet's
    traversed hop count times the packet size, normalized by its end-to-end
    deadline."""
    return sum(p.hops_traversed * packet_size / p.relative_deadline
               for p in packets)


def _verify_exclusion(sender: int, receiver: int, air: dict,
                      adjacency: dict) -> None:
    # independent re-check of every grant against the live transmissions,
    # `air` mapping each busy endpoint to its transmission; adjacency is
    # symmetric, so only the two endpoints' neighbours can conflict
    for v in (sender, receiver):
        if v in air:
            tx = air[v]
            raise InvariantError(
                f"node reuse: grant {sender}->{receiver} overlaps "
                f"{tx.sender}->{tx.receiver}")
    for v in adjacency[sender]:
        if v in air and air[v].receiver == v:
            raise InvariantError(
                f"sender {sender} inside range of receiving node {v}")
    for v in adjacency[receiver]:
        if v in air and air[v].sender == v:
            raise InvariantError(
                f"receiver {receiver} inside range of sending node {v}")


def _release_reach(adjacency: dict, next_hop: dict) -> dict:
    """reach[x] = N[x] | {v : next_hop[v] in N[x]}: every node whose
    head-of-queue transmission freeing endpoint x can unblock."""
    senders_to = {x: [] for x in adjacency}
    for v, w in next_hop.items():
        senders_to[w].append(v)
    reach = {}
    for x, nbrs in adjacency.items():
        ball = nbrs | {x}
        reach[x] = frozenset(ball.union(*(senders_to[y] for y in ball)))
    return reach


class _NodeQueue:
    """Per-node priority queue with lazy removal of dropped packets."""

    __slots__ = ("heap",)

    def __init__(self):
        self.heap = []

    def push(self, packet: Packet):
        heapq.heappush(self.heap, (priority_key(packet), packet))

    def head(self) -> Optional[Packet]:
        while self.heap:
            packet = self.heap[0][1]
            if packet.dropped:
                heapq.heappop(self.heap)
                continue
            return packet
        return None

    def pop_head(self) -> Packet:
        return heapq.heappop(self.heap)[1]


def run_simulation(topology: Topology, routes: RouteTable, workload: Workload,
                   config: SimConfig, event_log: Optional[list] = None) -> RunMetrics:
    """Event-driven run over the workload; returns the per-run metrics.

    Events are arrivals, transmission completions, and deadline expiries.
    The `Medium` keeps, per node, the number of active senders and of active
    receivers in range, updated once per grant and once per completion.
    After the events of each instant are applied, the medium is re-arbitrated
    over the backlogged nodes the instant touched (arrivals, dropped heads)
    plus reach[x] for every endpoint x a completion freed. That gives the
    same grants as a pass over the whole backlog: freeing x can only unblock
    a head (v, next_hop[v]) through v or next_hop[v] lying in N[x], every
    other idle head was blocked after the previous pass by a transmission
    that is still active, and grants within a pass only add blocking. The
    spatial exclusion invariant is re-verified on every grant against the
    active transmissions, and a run that drains without stopping must leave
    the medium idle. Deadline misses are detected eagerly by expiry timers so
    the capacity consumption at the first miss is sampled at the right
    instant. Packet size and per-hop time come from `config`, hop counts
    from `routes`; a packet is delivered when it reaches a sink, a node
    with no next hop.
    """
    adjacency = topology.adjacency
    next_hop, hop_count = routes.next_hop, routes.hop_count
    reach = _release_reach(adjacency, next_hop)
    size, tx_time = config.packet_size, config.tx_time

    packets = workload.packets
    # time-averaged demand: each packet claims size/deadline at every route
    # node for its deadline window, so the deadline cancels and the demand is
    # bit-hops injected per second
    offered = sum(hop_count[p.origin] * size for p in packets) / config.duration

    events = [(p.arrival_time, _ARRIVAL, seq, p) for seq, p in enumerate(packets)]
    heapq.heapify(events)
    seq = len(events)

    queues = {node.id: _NodeQueue() for node in topology.nodes}
    backlog = set()
    medium = Medium(adjacency)
    busy = medium.busy
    air = {}               # busy endpoint -> its ActiveTransmission
    # capacity accounting follows the demand model: a packet claims capacity
    # from arrival until its deadline expires, even once delivered; only
    # expiry (miss or deadline passing after delivery) releases the claim
    live = {}              # packet id -> Packet
    log = event_log.append if event_log is not None else None

    delivered = 0
    missed = 0
    delays = []
    first_miss_capacity = None
    first_miss_time = None
    stop = False

    def grant_pass(nodes):
        nonlocal seq
        if not nodes:
            return
        candidates = []
        for v in nodes:
            if v in busy:
                continue
            head = queues[v].head()
            if head is None:
                backlog.discard(v)
                continue
            candidates.append((head, v, next_hop[v]))
        for packet, s, r in admissible_transmissions(candidates, medium):
            _verify_exclusion(s, r, air, adjacency)
            popped = queues[s].pop_head()
            if popped is not packet:
                raise InvariantError(f"queue head changed under grant at node {s}")
            if queues[s].head() is None:
                backlog.discard(s)
            air[s] = air[r] = ActiveTransmission(s, r, packet.id)
            heapq.heappush(events, (now + tx_time, _COMPLETE, seq, packet))
            seq += 1
            if log:
                log(f"{now!r} grant {s}->{r} {packet.id}")

    while events and not stop:
        now = events[0][0]
        touched = set()    # nodes whose head or admissibility may have changed

        while events and events[0][0] == now:
            _, rank, _, packet = heapq.heappop(events)

            if rank == _ARRIVAL:
                packet = replace(packet, current_node=packet.origin)
                queues[packet.origin].push(packet)
                backlog.add(packet.origin)
                live[packet.id] = packet
                touched.add(packet.origin)
                heapq.heappush(events, (packet.absolute_deadline, _EXPIRE, seq, packet))
                seq += 1
                if log:
                    log(f"{now!r} arrival {packet.origin} {packet.id} "
                        f"{packet.relative_deadline!r}")

            elif rank == _COMPLETE:
                tx = air.pop(packet.current_node)
                del air[tx.receiver]
                medium.release(tx.sender, tx.receiver)
                touched.update(reach[tx.sender])
                touched.update(reach[tx.receiver])
                packet.hops_traversed += 1
                packet.current_node = tx.receiver
                if log:
                    log(f"{now!r} complete {tx.sender}->{tx.receiver} {packet.id}")
                if packet.dropped:
                    pass  # missed mid-flight and dropped at hop boundary
                elif tx.receiver not in next_hop:  # a sink
                    if packet.missed:
                        pass  # late arrival of a kept packet: contributes nothing
                    else:
                        delivered += 1
                        delays.append(now - packet.arrival_time)
                        if log:
                            log(f"{now!r} deliver {tx.receiver} {packet.id}")
                else:
                    queues[tx.receiver].push(packet)
                    backlog.add(tx.receiver)
                    if log:
                        log(f"{now!r} enqueue {tx.receiver} {packet.id}")

            else:  # _EXPIRE, once per packet
                if packet.current_node not in next_hop:
                    live.pop(packet.id, None)  # delivered on time
                    continue
                tx = air.get(packet.current_node)
                was_queued = tx is None or tx.packet_id != packet.id
                packet.missed = True
                missed += 1
                if first_miss_capacity is None:
                    # snapshot includes the packet that just expired
                    first_miss_capacity = measured_capacity_consumption(
                        live.values(), size)
                    first_miss_time = now
                    if config.stop_at_first_miss:
                        stop = True
                live.pop(packet.id, None)
                if config.drop_on_miss:
                    packet.dropped = True
                    if was_queued:
                        touched.add(packet.current_node)
                if log:
                    loc = packet.current_node if was_queued else "air"
                    log(f"{now!r} miss {loc} {packet.id} "
                        f"{'dropped' if config.drop_on_miss else 'kept'}")

        if stop:
            break
        grant_pass(touched & backlog)

    if not stop and not medium.is_idle():
        raise InvariantError("medium not idle after the run drained")

    generated = len(packets)
    in_flight = generated - delivered - missed
    return RunMetrics(
        packets_generated=generated,
        delivered=delivered,
        missed=missed,
        miss_ratio=missed / generated if generated else 0.0,
        capacity_consumption_at_first_miss=first_miss_capacity,
        first_miss_time=first_miss_time,
        offered_demand=offered,
        in_flight_at_end=in_flight,
        delays=tuple(delays),
        seed=workload.seed)


def run_replications(topology: Topology, routes: RouteTable,
                     config: SimConfig, event_log: Optional[list] = None) -> list:
    """Independent seeded replications: workload seeds are seed, seed+1, ...
    Results come back in seed order. A given `event_log` receives the first
    replication's events."""
    results = []
    for i in range(config.replication_count):
        workload = generate_workload(topology, routes, config, seed=config.seed + i)
        results.append(run_simulation(topology, routes, workload, config,
                                      event_log=event_log if i == 0 else None))
    return results


def critical_capacity(metrics: Iterable) -> CriticalCapacity:
    """Minimum over replications of the capacity consumption at first miss."""
    metrics = list(metrics)
    if not metrics:
        raise ValueError("need at least one replication")
    values = [m.capacity_consumption_at_first_miss for m in metrics
              if m.capacity_consumption_at_first_miss is not None]
    return CriticalCapacity(value=min(values, default=None),
                            miss_observed=bool(values), replications=len(metrics))


def write_event_log(lines: Iterable, path) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
