"""Deterministic packet-level discrete-event simulation.

Models the evaluation setup end to end: Poisson traffic at every non-sink
node with deadlines drawn from a preselected set, an idealized
deadline-monotonic MAC that grants transmissions in global priority order
subject to disk-model spatial exclusion, hop-by-hop forwarding along the
shortest-hop route table, eager deadline-miss detection, and measurement of
the capacity consumed by deadline-live traffic at the instant of the first
miss (a packet claims capacity from its arrival until its deadline passes;
a missed packet's claim drops to zero).

The scheduling policy lives in `priority_key` alone. A packet's key is
computed once per packet, at its arrival, and carried hop by hop in the
packet's one heap entry; the MAC (`admissible_transmissions`) grants
candidates in the order of the keys it is given and knows no rule of its
own.

Arbitration is by set membership. A `Medium` holds the busy endpoints,
active senders and active receivers as sets, each grant and completion
updating them in O(1). After a completion frees the link (s, next_hop[s]),
only backlogged nodes in its reach, reach(s) | reach(next_hop[s]) with
reach(x) = N[x] | {v : next_hop[v] in N[x]} (N[x] the closed
neighbourhood), are re-arbitrated besides the nodes the instant touched: a
head (v, next_hop[v]) is blocked by (s, r) only through v or next_hop[v]
being s or r, v in N(r), or next_hop[v] in N(s), so freeing the link
unblocks nothing outside its reach.

A workload is drawn in rounds of numpy blocks, one row per node, each
round from its own child of `np.random.SeedSequence(config.seed)` (see
`generate_workload`). A node's arrivals therefore depend on neither the
duration nor which other nodes are sinks: a shorter run's workload is
exactly the first part of a longer one's. The workload holds its arrivals
as columns (`Arrivals`), and a `Packet` is built only when it is read.

A run reads the workload's arrivals in time order through a cursor over
those columns; its event queues hold only transmission completions and
deadline expiries. Each instant runs three phases, then one grant pass:

1. completions at that instant, so the channel is freed before
   same-instant arrivals are queued;
2. arrivals at that instant, in workload order;
3. expiries at that instant, so a completion landing exactly at the
   deadline still counts as on time.

Packets are immutable records of their arrival. The run owns what moves,
held per packet by workload position: the node that holds each packet
until it leaves the network, which a packet that misses its deadline does
at once. Hops traversed is hop_count[origin] - hop_count[node], since each
route hop lowers the hop count by exactly one.

A single run is strictly sequential and reproducible: identical
(topology, routes, workload) inputs give bit-identical metrics. Replications
differ only in the workload seed: replication i draws with
`config.seed + i`.

The optional event log is a trace of number tuples, one per event:
(time, kind, node, receiver, workload position), `kind` one of the six
event codes ARRIVAL ... MISS. `format_events` renders a trace as text.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .topology import RouteTable, Topology


# event codes, the `kind` of a trace record
ARRIVAL, ENQUEUE, GRANT, COMPLETE, DELIVER, MISS = range(6)


class InvariantError(RuntimeError):
    """The simulator reached a state that violates one of its invariants."""


class Packet(NamedTuple):
    """One packet's arrival: time, origin, relative deadline and priority
    tie key. Size and per-hop time are the run's, the route the origin's,
    and where the packet is belongs to the run that moves it."""

    id: int
    origin: int
    arrival_time: float
    relative_deadline: float
    tie_key: float

    @property
    def absolute_deadline(self) -> float:
        return self.arrival_time + self.relative_deadline


@dataclass(frozen=True)
class SimConfig:
    """Workload and run parameters. Rates are per non-sink node."""

    bandwidth: float = 250_000.0
    packet_size: float = 1_000.0
    deadline_set: tuple = (0.5, 1.0, 2.0)
    arrival_rate: float = 1.0
    duration: float = 30.0
    seed: int = 0
    replication_count: int = 1
    stop_at_first_miss: bool = False

    def __post_init__(self):
        # infinite and NaN settings are refused: an infinite rate or
        # duration never ends the arrival draw, and an expiry at NaN never
        # comes due
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and > 0")
        if not 0 < self.packet_size < math.inf:
            raise ValueError("packet_size must be finite and > 0")
        if not self.deadline_set or not all(0 < d < math.inf
                                            for d in self.deadline_set):
            raise ValueError("deadline_set must be non-empty, finite and positive")
        if not 0 <= self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be finite and >= 0")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be finite and > 0")
        # a float seed or count fails deep inside numpy or range(), and a
        # negative seed fails in every replication's SeedSequence
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if (not isinstance(self.replication_count, (int, np.integer))
                or self.replication_count < 1):
            raise ValueError(f"replication_count must be an integer >= 1, "
                             f"got {self.replication_count!r}")

    @property
    def tx_time(self) -> float:
        return self.packet_size / self.bandwidth

    @property
    def overloaded(self) -> bool:
        """One node's own traffic alone claims the whole channel: a flag for
        overload experiments, not an error."""
        return self.arrival_rate * self.tx_time >= 1.0


@dataclass(frozen=True, eq=False)
class Arrivals:
    """A workload's arrivals in workload order as five read-only numpy
    columns, one per `Packet` field, read as `Packet`s that are built on
    demand. It supports `len`, integer indexing (so `bisect` works on it),
    iteration and equality with other `Arrivals` or with a tuple of
    packets.

    The float columns must be finite, deadlines > 0, arrival times in
    order and ids distinct: a NaN arrival never comes due, an infinite one
    or a NaN deadline ends the run short, a deadline <= 0 misses before its
    arrival, an arrival out of order would be read after later events, and
    the run's priority keys tell packets apart by id. A breach raises
    `ValueError` naming the field and the first offending packet id."""

    id: np.ndarray
    origin: np.ndarray
    arrival_time: np.ndarray
    relative_deadline: np.ndarray
    tie_key: np.ndarray

    def __post_init__(self):
        for name, dtype in zip(Packet._fields, (np.int64, np.int64, float,
                                                float, float)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name in ("arrival_time", "relative_deadline", "tie_key"):
            self._refuse(~np.isfinite(getattr(self, name)),
                         f"{name} must be finite")
        self._refuse(self.relative_deadline <= 0,
                     "relative_deadline must be > 0")
        times = self.arrival_time
        self._refuse(np.append(False, times[1:] < times[:-1]),
                     "arrival_time must not decrease")
        ids = self.id
        if not (ids[1:] > ids[:-1]).all():  # ascending ids are distinct
            order = np.argsort(ids, kind="stable")
            repeats = np.zeros(len(ids), dtype=bool)
            repeats[order[1:][np.diff(ids[order]) == 0]] = True
            self._refuse(repeats, "id must be unique")

    def _refuse(self, bad: np.ndarray, rule: str) -> None:
        if bad.any():
            raise ValueError(f"{rule}, first broken by packet "
                             f"{self.id[bad.argmax()]}")

    def columns(self) -> tuple:
        return tuple(getattr(self, name) for name in Packet._fields)

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, index: int) -> Packet:
        return Packet._make(column[index].item() for column in self.columns())

    def __iter__(self):
        # packets are built a slice of the columns at a time, as they are read
        step = 1024
        for start in range(0, len(self), step):
            yield from map(Packet._make, zip(*(
                column[start:start + step].tolist()
                for column in self.columns())))

    def __eq__(self, other):
        if isinstance(other, (Arrivals, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True)
class Workload:
    """Packet arrivals in time order, held as `Arrivals` columns, and the
    seed that drew them. Packets given by hand may come in any order: they
    are sorted stably by arrival time, so same-time arrivals keep their
    given order, and they keep their ids. `Arrivals` are taken as they
    are, already in workload order."""

    packets: Arrivals
    seed: int

    def __post_init__(self):
        if not isinstance(self.packets, Arrivals):
            ordered = sorted(self.packets, key=attrgetter("arrival_time"))
            columns = zip(*ordered) if ordered else [()] * len(Packet._fields)
            object.__setattr__(self, "packets", Arrivals(*columns))


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
    demand, and a true zero is 0.0.
    """

    value: Optional[float]
    replications: int

    @property
    def miss_observed(self) -> bool:
        return self.value is not None


def priority_key(packet: Packet):
    """Global deadline-monotonic transmission order: smallest relative
    deadline first, ties broken by the packet's seeded random tie key."""
    return (packet.relative_deadline, packet.tie_key, packet.id)


# arrivals each node draws per round of `generate_workload`
_BLOCK = 64


def generate_workload(topology: Topology, routes: RouteTable,
                      config: SimConfig) -> Workload:
    """Seeded Poisson arrivals at every non-sink node over the run duration.

    Each packet gets a deadline drawn uniformly from the configured set and
    a random priority tie key. The draw goes in rounds: round r takes the
    r-th child of `np.random.SeedSequence(config.seed)` and draws three
    (node count x `_BLOCK`) matrices, of exponential gaps (cumulated onto
    each row's last arrival time), deadline indices and tie keys, row v for
    node v. Sink rows are drawn and discarded, and rounds go on until every
    non-sink node has passed the duration. So a shorter run's workload is exactly the first part of a longer
    one's, and making a node a sink removes only that node's arrivals.
    Packets are sorted by arrival time, then origin, and their ids are
    their positions in that order. The workload holds the columns; its
    packets are built when they are read.
    """
    origins = np.arange(topology.node_count)
    sources = ~np.isin(origins, routes.sinks)
    shape = (len(origins), _BLOCK)
    rounds = np.random.SeedSequence(config.seed)
    last = np.zeros(len(origins))
    # an empty first entry gives the columns their types when nothing is drawn
    drawn = [(np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64),
              np.empty(0))]
    while config.arrival_rate > 0 and (last[sources] <= config.duration).any():
        rng = np.random.default_rng(rounds.spawn(1)[0])
        gaps = rng.exponential(1.0 / config.arrival_rate, shape)
        gaps[:, 0] += last
        times = np.cumsum(gaps, axis=1)
        deadline_index = rng.integers(len(config.deadline_set), size=shape)
        ties = rng.random(shape)
        last = times[:, -1]
        live = sources[:, None] & (times <= config.duration)
        drawn.append((times[live],
                      np.broadcast_to(origins[:, None], shape)[live],
                      deadline_index[live], ties[live]))
    times, origin, deadline_index, ties = map(np.concatenate, zip(*drawn))
    order = np.lexsort((origin, times))
    deadlines = np.array(config.deadline_set, dtype=float)
    packets = Arrivals(np.arange(len(order)), origin[order], times[order],
                       deadlines[deadline_index[order]], ties[order])
    return Workload(packets=packets, seed=config.seed)


class Medium:
    """The shared channel: the endpoints (`busy`), the senders and the
    receivers of the active transmissions, as sets. Adjacency is open (a
    node is not its own neighbour) and symmetric, so a node is in range of
    an active receiver iff `receivers` meets its neighbours."""

    __slots__ = ("adjacency", "busy", "senders", "receivers")

    def __init__(self, adjacency: dict):
        self.adjacency = adjacency
        self.busy = set()
        self.senders = set()
        self.receivers = set()

    def occupy(self, sender: int, receiver: int) -> None:
        self.busy.add(sender)
        self.busy.add(receiver)
        self.senders.add(sender)
        self.receivers.add(receiver)

    def release(self, sender: int, receiver: int) -> None:
        self.busy.discard(sender)
        self.busy.discard(receiver)
        self.senders.discard(sender)
        self.receivers.discard(receiver)

    def is_idle(self) -> bool:
        return not (self.busy or self.senders or self.receivers)


def admissible_transmissions(candidates: Iterable, medium: Medium) -> list:
    """Grant head-of-queue transmissions in the order of their given keys
    under the spatial exclusion rule.

    candidates are (key, packet, sender, receiver) tuples; the key is the
    packet's priority, computed at its arrival, smallest first, and the
    packet is whatever the caller wants back (the run passes its heap
    entry). A candidate is granted iff its sender is outside radio range of
    every receiving node, its receiver is outside radio range of every
    sending node (counting both the already-active transmissions in
    `medium` and grants made earlier in this pass), and neither endpoint is
    already engaged. Each grant occupies the medium. Returns the granted
    (packet, sender, receiver) triples in key order.
    """
    adjacency, busy = medium.adjacency, medium.busy
    senders, receivers = medium.senders, medium.receivers
    granted = []
    for _, packet, sender, receiver in sorted(candidates, key=itemgetter(0)):
        if sender in busy or receiver in busy:
            continue
        if not (receivers.isdisjoint(adjacency[sender])
                and senders.isdisjoint(adjacency[receiver])):
            continue
        medium.occupy(sender, receiver)
        granted.append((packet, sender, receiver))
    return granted


def measured_capacity_consumption(claims: Iterable, packet_size: float) -> float:
    """Capacity consumed by packets given as (hops traversed, relative
    deadline) pairs, in bits/s: each packet's hop count times the packet
    size, normalized by its end-to-end deadline."""
    return sum(hops * packet_size / deadline for hops, deadline in claims)


def _verify_exclusion(sender: int, receiver: int, air: dict,
                      adjacency: dict) -> None:
    # independent re-check of every grant against the live transmissions,
    # `air` mapping each busy endpoint to its transmission's (sender,
    # receiver, ...) tuple; adjacency is symmetric, so only the two
    # endpoints' neighbours can conflict
    for v in (sender, receiver):
        if v in air:
            tx = air[v]
            raise InvariantError(
                f"node reuse: grant {sender}->{receiver} overlaps "
                f"{tx[0]}->{tx[1]}")
    for v in filter(air.__contains__, adjacency[sender]):
        if air[v][1] == v:
            raise InvariantError(
                f"sender {sender} inside range of receiving node {v}")
    for v in filter(air.__contains__, adjacency[receiver]):
        if air[v][0] == v:
            raise InvariantError(
                f"receiver {receiver} inside range of sending node {v}")


def _release_reach(adjacency: dict, next_hop: dict) -> dict:
    """reach[s] = reach(s) | reach(next_hop[s]) for every sender s, with
    reach(x) = N[x] | {v : next_hop[v] in N[x]}: every node whose
    head-of-queue transmission freeing the link (s, next_hop[s]) can
    unblock."""
    senders_to = [[] for _ in adjacency]
    for v, w in next_hop.items():
        senders_to[w].append(v)
    reach = {}
    for s, r in next_hop.items():
        ball = {s, r, *adjacency[s], *adjacency[r]}
        reach[s] = frozenset(ball.union(*(senders_to[y] for y in ball)))
    return reach


def _offered_demand(packets: Arrivals, routes: RouteTable,
                    size: float) -> float:
    """Bit-hops the packets inject, summed in workload order; over the
    duration that is the time-averaged demand, since each packet claims
    size/deadline at every route node for its deadline window and the
    deadline cancels. A packet whose origin is a sink or not a node is
    refused with a `ValueError` naming the packet and the node."""
    hop_count = routes.hop_count
    demand = {v: hop_count[v] * size for v in routes.next_hop}
    origins = packets.origin.tolist()
    try:
        return sum(map(demand.__getitem__, origins))
    except KeyError:
        pos = next(i for i, v in enumerate(origins) if v not in demand)
        node = origins[pos]
        what = "a sink" if node in hop_count else "not a node"
        raise ValueError(f"packet {packets.id[pos]} originates at node "
                         f"{node}, which is {what}") from None


def run_simulation(topology: Topology, routes: RouteTable, workload: Workload,
                   config: SimConfig, event_log: Optional[list] = None) -> RunMetrics:
    """Event-driven run over the workload; returns the per-run metrics.

    Each instant runs three phases, then one grant pass: completions at
    `now`, arrivals at `now` (read in order through a cursor over the
    workload's arrival columns, each packet built as the cursor reaches
    it), and deadline expiries at `now`. Completions free the channel
    before same-instant arrivals are queued, and a completion landing
    exactly at the deadline counts as on time because expiries come last.
    Every hop takes `tx_time`, so completions come due in grant order and
    wait in a FIFO; expiries wait in a heap keyed by deadline and workload
    position.

    A packet's `priority_key` is computed once, at its arrival, into its
    entry (key, workload position, absolute deadline). That one entry moves
    unchanged from its node's priority heap to the completion FIFO and on
    to the next node's heap, hop by hop. The run keeps its per-packet state
    by workload position: the node holding each packet from its arrival
    until it leaves the network. Before the first event, a packet whose
    origin is a sink or not a node is refused with a `ValueError`.

    The `Medium` keeps the busy endpoints, active senders and active
    receivers as sets, added to once per grant and discarded from once per
    completion. After the phases of each instant that touched a node, the
    medium is re-arbitrated over the backlogged nodes (those with a heap)
    the instant touched (arrivals, dropped heads) plus reach[s] for every
    link (s, next_hop[s]) a completion freed. That gives the same grants as
    a pass over the whole backlog: freeing the link can only unblock a head
    (v, next_hop[v]) through v or next_hop[v] lying in N[s] or
    N[next_hop[s]], every other idle head was blocked after the previous
    pass by a transmission that is still active, and grants within a pass
    only add blocking. The spatial exclusion invariant is re-verified on
    every grant against the active transmissions, never against the
    `Medium`, and a run that drains without stopping must leave
    the medium idle. Deadline misses are detected eagerly by expiry timers so
    the capacity consumption at the first miss is sampled at the right
    instant. A missed packet leaves the network at once and is never sent
    on: a queued one's heap entry is discarded once it reaches the head,
    and one in the air goes no further when its hop completes. Packet size
    and per-hop time come from `config`, hop counts from `routes`; a packet
    is delivered when it reaches a sink, a node with no next hop. A given
    `event_log` list receives one (time, kind, node, receiver, workload
    position) tuple per event.
    """
    adjacency = topology.adjacency
    next_hop, hop_count = routes.next_hop, routes.hop_count
    reach = _release_reach(adjacency, next_hop)
    size, tx_time = config.packet_size, config.tx_time

    packets = workload.packets
    pending = iter(packets)    # each packet is built when the cursor reads it
    times = packets.arrival_time.tolist()
    arrivals = len(times)
    times.append(math.inf)     # past the last arrival
    offered = _offered_demand(packets, routes, size) / config.duration

    cursor = 0             # position of the next arrival in the workload
    completions = deque()  # (time, entry, (sender, receiver, position))
    expiries = []          # heap of (absolute deadline, position)

    # position -> the node holding that packet: queued, sending, or the sink
    # that took it on time, until its expiry; None before it arrives and
    # once it has left
    at = [None] * arrivals
    # backlogged node -> heap of entries (key, position, absolute deadline),
    # held only while the heap is non-empty; a dropped packet's entry leaves
    # once it is the head
    queues = {}
    medium = Medium(adjacency)
    busy, release = medium.busy, medium.release
    air = {}               # busy endpoint -> its (sender, receiver, position)
    log = event_log.append if event_log is not None else None

    missed = 0
    delays = []
    first_miss_capacity = None
    first_miss_time = None
    stop = False

    key_of = priority_key
    push, pop = heapq.heappush, heapq.heappop

    while completions or cursor < arrivals or expiries:
        now = times[cursor]
        if completions and completions[0][0] < now:
            now = completions[0][0]
        if expiries and expiries[0][0] < now:
            now = expiries[0][0]
        # backlogged nodes whose head or admissibility may have changed; a
        # node is added once it has a heap, and heaps are deleted only in
        # the grant pass
        touched = set()

        while completions and completions[0][0] == now:
            _, entry, tx = completions.popleft()
            s, r, pos = tx
            del air[s], air[r]
            release(s, r)
            # the backlogged nodes in the freed link's reach, found by
            # iterating the smaller of the reach and the backlog
            near = reach[s]
            touched |= (near.intersection(queues) if len(queues) < len(near)
                        else queues.keys() & near)
            if log:
                log((now, COMPLETE, s, r, pos))
            if at[pos] is None:
                continue  # missed mid-flight and dropped at hop boundary
            if r in next_hop:
                at[pos] = r
                push(queues.get(r) or queues.setdefault(r, []), entry)
                touched.add(r)
                if log:
                    log((now, ENQUEUE, r, -1, pos))
            else:
                at[pos] = r
                delays.append(now - times[pos])
                if log:
                    log((now, DELIVER, r, -1, pos))

        while times[cursor] == now:
            packet = next(pending)
            origin, deadline = packet.origin, packet.absolute_deadline
            at[cursor] = origin
            push(queues.get(origin) or queues.setdefault(origin, []),
                 (key_of(packet), cursor, deadline))
            touched.add(origin)
            push(expiries, (deadline, cursor))
            if log:
                log((now, ARRIVAL, origin, -1, cursor))
            cursor += 1

        while expiries and expiries[0][0] == now:  # once per packet
            expiry = pop(expiries)
            pos = expiry[1]
            node = at[pos]
            if node not in next_hop:
                at[pos] = None  # delivered on time
                continue
            tx = air.get(node)
            was_queued = tx is None or tx[2] != pos
            missed += 1
            if first_miss_capacity is None:
                # a packet claims capacity from arrival until its expiry, even
                # once delivered: before the first miss that is the expiry
                # heap plus the packet just expired, summed in workload order
                claimants = sorted(p for _, p in [*expiries, expiry])
                hops = [hop_count[v] - hop_count[at[p]] for p, v in zip(
                    claimants, packets.origin[claimants].tolist())]
                first_miss_capacity = measured_capacity_consumption(
                    zip(hops, packets.relative_deadline[claimants].tolist()),
                    size)
                first_miss_time = now
                stop = config.stop_at_first_miss
            at[pos] = None
            if was_queued:
                touched.add(node)
            if log:
                log((now, MISS, node if was_queued else -1, -1, pos))

        if stop:
            break
        if not touched:
            continue
        candidates = []
        for v in touched:
            if v in busy:
                continue
            heap = queues[v]
            while heap and at[heap[0][1]] is None:
                pop(heap)
            if heap:
                entry = heap[0]
                candidates.append((entry[0], entry, v, next_hop[v]))
            else:
                del queues[v]
        for entry, s, r in admissible_transmissions(candidates, medium):
            _verify_exclusion(s, r, air, adjacency)
            heap = queues[s]
            if pop(heap) is not entry:
                raise InvariantError(f"queue head changed under grant at node {s}")
            if not heap:
                del queues[s]
            tx = air[s] = air[r] = (s, r, entry[1])
            completions.append((now + tx_time, entry, tx))
            if log:
                log((now, GRANT, s, r, entry[1]))

    if not stop and not medium.is_idle():
        raise InvariantError("medium not idle after the run drained")

    # counted from what the run still holds, not from the other counts:
    # arrivals the cursor has not read, and packets at a non-sink node,
    # queued or in the air
    in_flight = arrivals - cursor + sum(
        1 for node in islice(at, cursor) if node in next_hop)
    return RunMetrics(
        packets_generated=arrivals,
        delivered=len(delays),
        missed=missed,
        miss_ratio=missed / arrivals if arrivals else 0.0,
        capacity_consumption_at_first_miss=first_miss_capacity,
        first_miss_time=first_miss_time,
        offered_demand=offered,
        in_flight_at_end=in_flight,
        delays=tuple(delays),
        seed=workload.seed)


def run_replications(topology: Topology, routes: RouteTable,
                     config: SimConfig, event_log: Optional[list] = None) -> list:
    """Independent seeded replications: replication i draws its workload
    from `replace(config, seed=config.seed + i)`. Results come back in seed
    order. A given `event_log` receives the first replication's trace;
    `format_events` renders it against that replication's workload,
    `generate_workload(topology, routes, config)`."""
    results = []
    for i in range(config.replication_count):
        workload = generate_workload(topology, routes,
                                     replace(config, seed=config.seed + i))
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
    return CriticalCapacity(value=min(values, default=None), replications=len(metrics))


def format_events(trace: Iterable, workload: Workload):
    """The text lines of a run's event trace, one per record, in trace
    order:

        <time> arrival <node> <pid> <deadline>
        <time> enqueue <node> <pid>
        <time> grant <sender>-><receiver> <pid>
        <time> complete <sender>-><receiver> <pid>
        <time> deliver <node> <pid>
        <time> miss <node|air> <pid> dropped

    `workload` is the run's own. A packet is named by its id and an arrival
    carries its relative deadline, both read from the workload's columns by
    position; a miss in the air has node -1. Times and deadlines are
    written with repr, so they read back bit for bit."""
    ids = workload.packets.id.tolist()
    deadlines = workload.packets.relative_deadline.tolist()
    for time, kind, node, receiver, pos in trace:
        if kind == ARRIVAL:
            yield f"{time!r} arrival {node} {ids[pos]} {deadlines[pos]!r}"
        elif kind == ENQUEUE:
            yield f"{time!r} enqueue {node} {ids[pos]}"
        elif kind == GRANT:
            yield f"{time!r} grant {node}->{receiver} {ids[pos]}"
        elif kind == COMPLETE:
            yield f"{time!r} complete {node}->{receiver} {ids[pos]}"
        elif kind == DELIVER:
            yield f"{time!r} deliver {node} {ids[pos]}"
        else:
            where = "air" if node < 0 else node
            yield f"{time!r} miss {where} {ids[pos]} dropped"
