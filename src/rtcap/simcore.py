"""Deterministic packet-level discrete-event simulation.

Models the evaluation setup end to end: Poisson traffic at every non-sink
node with deadlines drawn from a preselected set, an idealized
deadline-monotonic MAC that grants transmissions in global priority order
subject to disk-model spatial exclusion, hop-by-hop forwarding along the
shortest-hop route table, eager deadline-miss detection, and measurement of
the capacity consumed by deadline-live traffic at the instant of the first
miss (a packet claims capacity from its arrival until its deadline passes;
a missed packet's claim drops to zero).

A workload is drawn in rounds of numpy blocks, one row per node, each
round from its own child of `np.random.SeedSequence(config.seed)` (see
`generate_workload`). A node's arrivals therefore depend on neither the
duration nor which other nodes are sinks: a shorter run's workload is
exactly the first part of a longer one's. One node x `_BLOCK` matrix is
live at a time, each cut to its kept entries before the next is drawn, so
the draw's memory follows the node count and the packets kept. The
workload holds its arrivals as columns (`Arrivals`), and a `Packet` is
built only when it is read; `Arrivals.rows` reads chosen fields a slice of
the columns at a time.

A packet is its position in the workload, and the scheduling policy
lives in `priority_key` alone. A packet's key is computed once, at its
arrival, from the arrival's fields as plain numbers; it is one flat tuple
whose last field is the position, and that tuple is the packet's entry:
its node-heap entry, its completion-FIFO entry and its MAC candidate key,
carried unchanged hop by hop. The MAC (`admissible_transmissions`) grants
(key, sender, receiver) candidates in key order and knows no rule of its
own. A run's keys are distinct, since each ends in the packet's position.

A run reads the arrivals in time order through a cursor over the columns,
each arrival's time with its other fields, building no `Packet`; a
sentinel past the last arrival ends the read. Its event queues hold only
transmission completions, a FIFO since every hop takes `tx_time`, and
deadline expiries, a heap of (absolute deadline, position). Each instant
runs three phases, then one grant pass:

1. completions at that instant, so the channel is freed before
   same-instant arrivals are queued;
2. arrivals at that instant, in workload order;
3. expiries at that instant, so a completion landing exactly at the
   deadline still counts as on time.

Packets are immutable records of their arrival; the run owns what moves.
Its per-packet state grows with the arrivals read, so a run that stops at
its first miss holds nothing for the unread tail: `times[pos]` is the
arrival time of packet pos, and `at[pos]` the node holding it, queued or
sending, from its arrival until it leaves the network, delivered or
missed, and None after. Each node has one heap of entries, in a list
indexed by node, so a node is backlogged exactly when its heap is
non-empty; the run reads next hops and hop counts from lists indexed by
node too, built once from the route table. A sink is a node of hop count
0: a packet that reaches one is delivered, so no sink ever holds a packet.
A packet that misses its deadline leaves at once and is never sent on: a
queued one's entry is discarded once it reaches the head of its heap, and
one in the air goes no further when its hop completes. A delivered
packet's expiry is discarded unread once it reaches the head of the expiry
heap, so its deadline makes no instant. Hops traversed is
hop_count[origin] - hop_count[node] while a packet is in the network,
since each route hop lowers the hop count by exactly one, and
hop_count[origin] once it has been delivered. The capacity claimed at the
first miss is read from the arrival columns by its definition
(`_first_miss_claim`), not from the run's queues.

Arbitration is by set membership. The run owns two sets that it passes to
the MAC, the active senders and the active receivers; an endpoint is busy
when it is in either. The MAC adds each grant's sender and receiver to
them, and the run removes them when the transmission completes, each in
O(1). The run keeps its own record of the air apart from those sets, and
the MAC never writes it: `air` maps each busy endpoint to its (sender,
receiver, position), and two sets hold the active senders and receivers.
One lookup, `_conflict`, finds the live transmission a link conflicts with
against that record, ruling a conflict out by two endpoint lookups in `air`
and two `isdisjoint` tests of the sender and receiver sets against the
endpoints' neighbours: a grant must find none, and a refused head must find
one. A refused head whose receiver is busy reads its blocker from `air` at
once, as `_conflict`'s first lookup would.

A blocked head waits on its blocker, as a conditional event does in the
three-phase method. After the phases of each instant, the MAC arbitrates
only the backlogged nodes the instant touched: arrivals, dropped heads,
and for each completed (s, r) the nodes s and r and the wait-list of s.
After the pass, each refused candidate that is no endpoint goes on the
wait-list of the active sender whose transmission `_conflict` finds for
it: the one using its receiver, else one receiving in range of it, else
one sending in range of its receiver. That gives the same grants as a pass
over the whole backlog: a node's head link (v, next_hop[v]) never changes,
so every idle head left out is still blocked by the transmission it waits
on, and a node left out as an endpoint is touched when its own
transmission ends.

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
import operator
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .topology import RouteTable, Topology


# event codes, the `kind` of a trace record
ARRIVAL, ENQUEUE, GRANT, COMPLETE, DELIVER, MISS = range(6)


class InvariantError(RuntimeError):
    """The simulator reached a state that violates one of its invariants."""


class Packet(NamedTuple):
    """One packet's arrival: origin, time, relative deadline and priority
    tie key. Its identity is its position in the workload; size and
    per-hop time are the run's, the route the origin's, and where the
    packet is belongs to the run that moves it."""

    origin: int
    arrival_time: float
    relative_deadline: float
    tie_key: float


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


# packets `Arrivals.rows` converts from the columns at a time
_SLICE = 1024


@dataclass(frozen=True, eq=False)
class Arrivals:
    """A workload's arrivals in workload order as four read-only numpy
    columns, one per `Packet` field, read as `Packet`s that are built on
    demand. It supports `len`, integer indexing (so `bisect` works on it;
    any other index is a `TypeError`), iteration and equality with other
    `Arrivals` or with a tuple of packets. `rows` reads chosen fields
    without building packets.

    Origins must be whole numbers, since the int64 cast would truncate a
    fractional one to another node. The float columns must be finite,
    deadlines > 0 and arrival times in order: a NaN arrival never comes
    due, an infinite one or a NaN deadline ends the run short, a deadline
    <= 0 misses before its arrival, and an arrival out of order would be
    read after later events. A breach raises `ValueError` naming the field
    and the first offending packet by its position."""

    origin: np.ndarray
    arrival_time: np.ndarray
    relative_deadline: np.ndarray
    tie_key: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin)
        if origin.dtype.kind not in "iu":  # an integer column is whole
            origin = origin.astype(float)
            self._refuse(~np.isfinite(origin) | (origin != np.floor(origin)),
                         "origin must be a whole number")
        for name, dtype in zip(Packet._fields, (np.int64, float, float, float)):
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

    @staticmethod
    def _refuse(bad: np.ndarray, rule: str) -> None:
        if bad.any():
            raise ValueError(f"{rule}, first broken by packet {bad.argmax()}")

    def columns(self) -> tuple:
        return tuple(getattr(self, name) for name in Packet._fields)

    def __len__(self) -> int:
        return len(self.origin)

    def __getitem__(self, index: int) -> Packet:
        try:
            index = operator.index(index)
        except TypeError:
            raise TypeError(f"Arrivals indices must be integers, not "
                            f"{type(index).__name__}") from None
        return Packet._make(column[index].item() for column in self.columns())

    def rows(self, *names: str):
        """The named fields of each packet in workload order, as a tuple of
        Python numbers, converted from the columns a slice at a time as
        they are read."""
        columns = [getattr(self, name) for name in names]
        for start in range(0, len(self), _SLICE):
            yield from zip(*(column[start:start + _SLICE].tolist()
                             for column in columns))

    def __iter__(self):
        return map(Packet._make, self.rows(*Packet._fields))

    def __eq__(self, other):
        if isinstance(other, (Arrivals, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True)
class Workload:
    """Packet arrivals in time order, held as `Arrivals` columns, and the
    seed that drew them. Packets given by hand go into `Arrivals` as they
    are listed, so they must already be in time order; each packet's
    position in the list is its identity, and an arrival out of order is
    refused by its position."""

    packets: Arrivals
    seed: int

    def __post_init__(self):
        if not isinstance(self.packets, Arrivals):
            columns = tuple(zip(*self.packets)) or [()] * len(Packet._fields)
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


def priority_key(arrival_time: float, relative_deadline: float,
                 tie_key: float, position: int) -> tuple:
    """Global deadline-monotonic transmission order: smallest relative
    deadline first, ties broken by the packet's seeded random tie key, then
    by its position in the workload. Takes the arrival's fields as plain
    numbers and returns one flat tuple, which the run uses as the packet's
    heap entry: its last field must be the position."""
    return (relative_deadline, tie_key, position)


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
    non-sink node has passed the duration. So a shorter run's workload is
    exactly the first part of a longer one's, and making a node a sink
    removes only that node's arrivals. One matrix is live at a time: each
    is cut to its kept entries before the next is drawn.
    Packets are sorted by arrival time, then origin, and a packet's place
    in that order is its identity. The workload holds the columns; its
    packets are built when they are read.
    """
    origins = np.arange(topology.node_count)
    sources = ~np.isin(origins, routes.sinks)
    shape = (len(origins), _BLOCK)
    rounds = np.random.SeedSequence(config.seed)
    last = np.zeros(len(origins))
    # each column's kept entries, one piece per round; an empty first piece
    # gives the columns their types when nothing is drawn
    kept_times, kept_origin = [np.empty(0)], [np.empty(0, np.int64)]
    kept_index, kept_ties = [np.empty(0, np.int64)], [np.empty(0)]
    while config.arrival_rate > 0 and (last[sources] <= config.duration).any():
        rng = np.random.default_rng(rounds.spawn(1)[0])
        # one matrix at a time, each cut to its live entries before the
        # next is drawn: the gaps, cumulated in place onto each row's last
        # arrival time, then the deadline indices, then the tie keys
        times = rng.exponential(1.0 / config.arrival_rate, shape)
        times[:, 0] += last
        np.cumsum(times, axis=1, out=times)
        last = times[:, -1].copy()
        live = times <= config.duration
        live &= sources[:, None]
        kept_times.append(times[live])
        del times
        kept_origin.append(np.broadcast_to(origins[:, None], shape)[live])
        kept_index.append(
            rng.integers(len(config.deadline_set), size=shape)[live])
        kept_ties.append(rng.random(shape)[live])
    # the columns joined and sorted one at a time, each unsorted column
    # freed as its sorted one is built
    times, origin = _joined(kept_times), _joined(kept_origin)
    order = np.lexsort((origin, times))
    times, origin = times[order], origin[order]
    deadlines = np.array(config.deadline_set, dtype=float)
    deadlines = deadlines[_joined(kept_index)[order]]
    packets = Arrivals(origin, times, deadlines, _joined(kept_ties)[order])
    return Workload(packets=packets, seed=config.seed)


def _joined(pieces: list) -> np.ndarray:
    # the pieces as one array, the list emptied so that they are freed
    joined = np.concatenate(pieces)
    pieces.clear()
    return joined


def admissible_transmissions(candidates: Iterable, adjacency: dict,
                             senders: set, receivers: set) -> list:
    """Grant head-of-queue transmissions in the order of their given keys
    under the spatial exclusion rule.

    candidates are (key, sender, receiver) tuples; the key is the packet's
    priority, computed at its arrival, smallest first. Candidates are taken
    in the order of the tuples themselves, so equal keys fall to the sender,
    then the receiver. `senders` and `receivers` are the senders and the
    receivers of the active transmissions. Adjacency is open (a node is
    not its own neighbour) and symmetric, so a node is in range of an
    active receiver iff `receivers` meets its neighbours. A candidate is
    granted iff its sender is outside radio range of every receiving node,
    its receiver is outside radio range of every sending node (counting
    both the active transmissions and grants made earlier in this pass),
    and neither endpoint is in either set: a link need not be in range,
    since a hand-built route table may hold an out-of-range next hop. Each
    grant's sender is added to `senders` and its receiver to `receivers`;
    whoever ends a transmission removes them again. Returns the granted
    candidates, the tuples as given, in that order.
    """
    granted = []
    for candidate in sorted(candidates):
        _, sender, receiver = candidate
        if (sender in senders or sender in receivers
                or receiver in senders or receiver in receivers):
            continue
        if not (receivers.isdisjoint(adjacency[sender])
                and senders.isdisjoint(adjacency[receiver])):
            continue
        senders.add(sender)
        receivers.add(receiver)
        granted.append(candidate)
    return granted


def measured_capacity_consumption(claims: Iterable, packet_size: float) -> float:
    """Capacity consumed by packets given as (hops traversed, relative
    deadline) pairs, in bits/s: each packet's hop count times the packet
    size, normalized by its end-to-end deadline."""
    return sum(hops * packet_size / deadline for hops, deadline in claims)


def _conflict(sender: int, receiver: int, air: dict, sending: set,
              receiving: set, adjacency: dict) -> Optional[tuple]:
    # the live transmission the link sender->receiver conflicts with, or
    # None, from the run's own record of the air, not the MAC's sets: `air`
    # maps each busy endpoint to its (sender, receiver, position), and
    # `sending` and `receiving` hold the active senders and receivers. It is
    # one using either endpoint, else the first receiver among the sender's
    # neighbours, else the first sender among the receiver's; adjacency is
    # symmetric, so only the endpoints' neighbours can conflict
    if sender in air or receiver in air:
        return air.get(sender) or air[receiver]
    near = adjacency[sender]
    if not receiving.isdisjoint(near):
        return air[next(filter(receiving.__contains__, near))]
    near = adjacency[receiver]
    if not sending.isdisjoint(near):
        return air[next(filter(sending.__contains__, near))]
    return None


def _offered_demand(packets: Arrivals, hop_count: list,
                    config: SimConfig) -> float:
    """Bit-hops the packets inject over the duration: the time-averaged
    demand, since each packet claims size/deadline at every route node for
    its deadline window and the deadline cancels. The hops are summed as
    integers, then scaled by the packet size. A packet that arrives after
    the duration, or whose origin is a sink or not a node, is refused with
    a `ValueError` naming the first such packet by its position. Packets
    are counted per origin, so only the refusal builds per-packet arrays."""
    late = int(np.searchsorted(packets.arrival_time, config.duration, "right"))
    if late < len(packets):
        raise ValueError(f"packet {late} arrives at "
                         f"{packets.arrival_time[late].item()!r}, after the "
                         f"duration {config.duration!r}")
    # route hops by node, a node being its index; 0 marks a sink, and an
    # origin outside the array is not a node
    hops = np.array(hop_count, np.int64)
    origin = packets.origin
    # packets sent by each node, when every origin is one
    nodes_only = (not len(origin)
                  or 0 <= origin.min() <= origin.max() < len(hops))
    sent = np.bincount(origin, minlength=len(hops)) if nodes_only else None
    if sent is None or sent[hops == 0].any():
        node = (origin >= 0) & (origin < len(hops))
        claimed = np.zeros(len(origin), np.int64)
        claimed[node] = hops[origin[node]]
        pos = int(claimed.argmin())
        v = origin[pos].item()
        what = "a sink" if node[pos] else "not a node"
        raise ValueError(f"packet {pos} originates at node {v}, which is "
                         f"{what}")
    return int(sent @ hops) * config.packet_size / config.duration


def _first_miss_claim(packets: Arrivals, cursor: int, now: float, missing: int,
                      at: list, hop_count: dict, packet_size: float) -> float:
    """Capacity claimed at `now`, the instant packet `missing` is the first
    to miss. A packet claims from its arrival until its deadline, even once
    delivered: each arrived packet (position < `cursor`) whose arrival time
    plus relative deadline is later than `now`, or equal to `now` at a
    position at or after `missing` (the run expires equal deadlines in
    workload order). A packet in the network claims the hops it has
    traversed, a delivered one (`at` None, no hop count) its whole route;
    the claims are summed in workload order."""
    deadlines = packets.relative_deadline[:cursor]
    expiry = packets.arrival_time[:cursor] + deadlines
    claimants = np.flatnonzero(
        (expiry > now) | ((expiry == now) & (np.arange(cursor) >= missing)))
    hops = [hop_count[v] - hop_count.get(at[p], 0) for p, v in zip(
        claimants.tolist(), packets.origin[claimants].tolist())]
    return measured_capacity_consumption(
        zip(hops, deadlines[claimants].tolist()), packet_size)


def run_simulation(topology: Topology, routes: RouteTable, workload: Workload,
                   config: SimConfig, event_log: Optional[list] = None) -> RunMetrics:
    """Run the workload over the network; return its `RunMetrics`.

    `topology` gives the radio adjacency, `routes` the next hops and hop
    counts, and `config` the packet size, per-hop time, duration and stop
    rule: with `config.stop_at_first_miss` the run ends at the instant of
    its first miss, before that instant's grant pass. A given `event_log`
    list receives one (time, kind, node, receiver, workload position)
    tuple per event.

    Before the first event, a packet that arrives after the duration or
    whose origin is a sink or not a node is refused with a `ValueError`
    naming it by its position. The run raises `InvariantError` if a grant
    conflicts with a live transmission, if a node's heap head changes
    under its grant, if a refused candidate has nothing blocking it, or if
    a run that drains without stopping leaves one of the MAC's sets
    non-empty, the medium not idle.
    """
    adjacency = topology.adjacency
    # the route table by node; a sink's next hop, None, is never read
    nodes = range(topology.node_count)
    next_hop = [routes.next_hop.get(v) for v in nodes]
    hop_count = [routes.hop_count[v] for v in nodes]
    size, tx_time = config.packet_size, config.tx_time

    packets = workload.packets
    arrivals = len(packets)
    offered = _offered_demand(packets, hop_count, config)
    # the fields of each arrival, read a slice of the columns at a time,
    # then a sentinel past the last arrival
    pending = chain(packets.rows("arrival_time", "origin", "relative_deadline",
                                 "tie_key"), [(math.inf, -1, 0.0, 0.0)])
    next_time, origin, relative, tie = next(pending)

    cursor = 0             # position of the next arrival in the workload
    times = []             # position -> arrival time, for each arrival read
    completions = deque()  # (time, entry, (sender, receiver, position))
    expiries = []          # heap of (absolute deadline, position)

    # position -> the node holding that packet, queued or sending, for each
    # arrival read; None once it has left, delivered or missed
    at = []
    # node -> heap of entries, each a packet's priority key with its
    # position last; a dropped packet's entry leaves once it is the head
    queues = [[] for _ in nodes]
    # the MAC's sets: active senders, active receivers
    senders, receivers = set(), set()
    # the run's own record of the air, kept apart from the MAC's sets
    air = {}               # busy endpoint -> its (sender, receiver, position)
    sending = set()        # active senders
    receiving = set()      # active receivers
    # active sender -> the nodes whose head its transmission blocked
    waiting = defaultdict(list)
    log = event_log.append if event_log is not None else None

    missed = 0
    delays = []
    first_miss_capacity = None
    first_miss_time = None
    stop = False

    key_of = priority_key
    push, pop = heapq.heappush, heapq.heappop

    while completions or cursor < arrivals or expiries:
        now = next_time
        if completions and completions[0][0] < now:
            now = completions[0][0]
        if expiries and expiries[0][0] < now:
            now = expiries[0][0]
        # backlogged nodes whose head or admissibility may have changed
        touched = set()

        while completions and completions[0][0] == now:
            _, entry, tx = completions.popleft()
            s, r, pos = tx
            del air[s], air[r]
            sending.remove(s)
            receiving.remove(r)
            senders.discard(s)
            receivers.discard(r)
            # the sender and the heads the link blocked, if backlogged; the
            # receiver is touched below, when it queues the packet or drops it
            if queues[s]:
                touched.add(s)
            if s in waiting:
                touched.update(filter(queues.__getitem__, waiting.pop(s)))
            if log:
                log((now, COMPLETE, s, r, pos))
            if at[pos] is None:
                if queues[r]:
                    touched.add(r)
                continue  # missed mid-flight and dropped at hop boundary
            if hop_count[r]:
                at[pos] = r
                push(queues[r], entry)
                touched.add(r)
                if log:
                    log((now, ENQUEUE, r, -1, pos))
            else:
                at[pos] = None
                delays.append(now - times[pos])
                if log:
                    log((now, DELIVER, r, -1, pos))

        while next_time == now:
            times.append(now)
            at.append(origin)
            push(queues[origin], key_of(now, relative, tie, cursor))
            touched.add(origin)
            push(expiries, (now + relative, cursor))
            if log:
                log((now, ARRIVAL, origin, -1, cursor))
            cursor += 1
            next_time, origin, relative, tie = next(pending)

        # expiries due now, and heads whose packet was delivered, so the
        # next instant is never chosen by a delivered packet's deadline
        while expiries:
            deadline, pos = expiries[0]
            node = at[pos]
            if node is None:  # delivered, perhaps at this instant
                pop(expiries)
                continue
            if deadline != now:
                break
            pop(expiries)
            tx = air.get(node)
            was_queued = tx is None or tx[2] != pos
            missed += 1
            if first_miss_capacity is None:
                first_miss_capacity = _first_miss_claim(
                    packets, cursor, now, pos, at, routes.hop_count, size)
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
            if v in air:
                continue
            heap = queues[v]
            while heap and at[heap[0][-1]] is None:
                pop(heap)
            if heap:
                candidates.append((heap[0], v, next_hop[v]))
        for entry, s, r in admissible_transmissions(
                candidates, adjacency, senders, receivers):
            tx = _conflict(s, r, air, sending, receiving, adjacency)
            if tx:
                raise InvariantError(f"grant {s}->{r} conflicts with live "
                                     f"{tx[0]}->{tx[1]}")
            if pop(queues[s]) is not entry:
                raise InvariantError(f"queue head changed under grant at node {s}")
            tx = air[s] = air[r] = (s, r, entry[-1])
            sending.add(s)
            receiving.add(r)
            completions.append((now + tx_time, entry, tx))
            if log:
                log((now, GRANT, s, r, entry[-1]))
        for _, v, r in candidates:
            if v not in air:  # refused, and no endpoint of a grant since
                # at a busy receiver, the transmission using it, as
                # `_conflict` would find it first
                tx = air.get(r) or _conflict(v, r, air, sending, receiving,
                                             adjacency)
                if not tx:
                    raise InvariantError(f"candidate {v}->{r} refused with "
                                         f"nothing blocking it")
                waiting[tx[0]].append(v)

    if not stop and (senders or receivers):
        raise InvariantError("medium not idle after the run drained")

    # counted from what the run still holds, not from the other counts:
    # arrivals the cursor has not read, and packets queued or in the air
    in_flight = arrivals - at.count(None)
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

        <time> arrival <node> <pos> <deadline>
        <time> enqueue <node> <pos>
        <time> grant <sender>-><receiver> <pos>
        <time> complete <sender>-><receiver> <pos>
        <time> deliver <node> <pos>
        <time> miss <node|air> <pos> dropped

    `workload` is the run's own. A packet is named by its position in the
    workload, and an arrival carries its relative deadline, read from the
    workload's column; a miss in the air has node -1. Times and deadlines
    are written with repr, so they read back bit for bit."""
    deadlines = workload.packets.relative_deadline.tolist()
    for time, kind, node, receiver, pos in trace:
        if kind == ARRIVAL:
            yield f"{time!r} arrival {node} {pos} {deadlines[pos]!r}"
        elif kind == ENQUEUE:
            yield f"{time!r} enqueue {node} {pos}"
        elif kind == GRANT:
            yield f"{time!r} grant {node}->{receiver} {pos}"
        elif kind == COMPLETE:
            yield f"{time!r} complete {node}->{receiver} {pos}"
        elif kind == DELIVER:
            yield f"{time!r} deliver {node} {pos}"
        else:
            where = "air" if node < 0 else node
            yield f"{time!r} miss {where} {pos} dropped"
