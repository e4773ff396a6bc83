"""Simulator tests: hand-traced event sequences, direct arbitration checks,
event-log audits of the exclusion and priority rules, and the cross-module
schedulability property (analytically feasible instances never miss)."""

import copy
from bisect import bisect_right
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtcap import analytics as an
from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

from helpers import (
    EVAL_GRID,
    audit_priority_order,
    audit_work_conserving,
    chain_network,
    contended_run,
    first_miss_claim,
    instance_is_dm_feasible,
    links_conflict,
    mark,
    mk_packet,
    mk_workload,
    np_dm_response_times,
    reference_run,
    replay_active_sets,
    star,
    traced_peak,
    uniprocessor_reference,
)


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

class TestGenerateWorkload:
    def _network(self):
        return tp.make_network(3, 3, spacing=10.0, jitter=0.0, seed=0,
                               radio_range=10.0, sink_count=1)

    def test_zero_rate_empty(self):
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=0.0, duration=10.0)
        wl = sc.generate_workload(topo, routes, cfg)
        assert wl.packets == ()

    def test_same_seed_identical(self):
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=2.0, duration=10.0, seed=5)
        a = sc.generate_workload(topo, routes, cfg)
        b = sc.generate_workload(topo, routes, cfg)
        assert a == b

    def test_different_seed_differs(self):
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=2.0, duration=10.0)
        a = sc.generate_workload(topo, routes, replace(cfg, seed=1))
        b = sc.generate_workload(topo, routes, replace(cfg, seed=2))
        assert a != b

    def test_single_deadline_set(self):
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=2.0, duration=10.0, deadline_set=(0.75,))
        wl = sc.generate_workload(topo, routes, cfg)
        assert wl.packets and all(p.relative_deadline == 0.75 for p in wl.packets)

    def test_sinks_generate_nothing(self):
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=2.0, duration=10.0)
        wl = sc.generate_workload(topo, routes, cfg)
        sink = routes.sinks[0]
        assert all(p.origin != sink for p in wl.packets)

    def test_explicit_route_sinks_drive_the_workload(self):
        # sinks passed to build_routes, not chosen by place_sinks
        topo = tp.generate_perturbed_grid(3, 3, 10.0, 0.0, seed=0,
                                          radio_range=10.0)
        routes = tp.build_routes(topo, [4])
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=1.0, duration=8.0)
        wl = sc.generate_workload(topo, routes, cfg)
        m = sc.run_simulation(topo, routes, wl, cfg)
        assert wl.packets and all(p.origin != 4 for p in wl.packets)
        assert m.delivered > 0
        assert m.delivered + m.missed + m.in_flight_at_end == m.packets_generated

    def test_sorted_by_time_then_origin(self):
        # that order is the packets' positions, their only identity
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=3.0, duration=5.0)
        wl = sc.generate_workload(topo, routes, cfg)
        order = [(p.arrival_time, p.origin) for p in wl.packets]
        assert len(order) > 1 and order == sorted(order)

    def test_route_fields(self):
        # a packet holds only its arrival; the route, size and per-hop time
        # stay with the route table and the config, its position with the run
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=1.0, duration=5.0)
        wl = sc.generate_workload(topo, routes, cfg)
        assert sc.Packet._fields == (
            "origin", "arrival_time", "relative_deadline", "tie_key")
        assert [f.name for f in fields(sc.Arrivals)] == list(sc.Packet._fields)
        assert wl.packets
        for p in wl.packets:
            assert p.origin in routes.next_hop and routes.hop_count[p.origin] > 0
        assert cfg.tx_time == pytest.approx(cfg.packet_size / cfg.bandwidth)

    def test_peak_is_one_round_matrix(self):
        # one node x _BLOCK matrix is live at a time, cut to its live
        # entries before the next is drawn; four at once peaked at 4.27
        # matrices here
        topo, routes = tp.make_network(100, 100, seed=0, radio_range=20.5,
                                       sink_count=12)
        cfg = sc.SimConfig(arrival_rate=0.05, duration=20.0)
        wl, peak = traced_peak(lambda: sc.generate_workload(topo, routes, cfg))
        assert len(wl.packets) > 0
        assert peak <= 2 * topo.node_count * sc._BLOCK * 8

    def test_packet_immutable(self):
        p = mk_packet(0, 0.0, 1.0)
        for field in sc.Packet._fields:
            with pytest.raises(AttributeError):
                setattr(p, field, 1)
        assert p == mk_packet(0, 0.0, 1.0)

    @pytest.mark.parametrize("field", ["bandwidth", "packet_size",
                                       "arrival_rate", "duration"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_setting_rejected(self, field, value):
        # an infinite rate or duration never ends the arrival draw, and a
        # NaN expiry never comes due
        with pytest.raises(ValueError, match=field):
            sc.SimConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_deadline_rejected(self, value):
        with pytest.raises(ValueError, match="deadline_set"):
            sc.SimConfig(deadline_set=(0.5, value))

    @pytest.mark.parametrize("field,value,message", [
        ("replication_count", 2.5, "replication_count must be an integer >= 1"),
        ("seed", 1.5, "seed must be an integer >= 0"),
        ("seed", -1, "seed must be an integer >= 0")],
        ids=["fractional_count", "fractional_seed", "negative_seed"])
    def test_bad_seed_or_count_rejected(self, field, value, message):
        # each failed inside numpy or range(), naming no field: a sweep
        # aborted on the first two, and flagged every row on the third
        with pytest.raises(ValueError, match=message):
            sc.SimConfig(**{field: value})

    def test_numpy_integer_seed_and_count_accepted(self):
        cfg = sc.SimConfig(seed=np.int64(3), replication_count=np.int32(2))
        assert (cfg.seed, cfg.replication_count) == (3, 2)

    def test_overload_flag(self):
        # tx_time = 0.004 s, so 300 pkts/s/node claims > 100% of the channel
        assert sc.SimConfig(arrival_rate=300.0, duration=1.0).overloaded
        assert not sc.SimConfig(arrival_rate=1.0, duration=1.0).overloaded


class TestMalformedInputs:
    """Hand-built arrivals and origins the run cannot serve are refused
    with a `ValueError` naming the field or node and the first offending
    packet by its workload position, before any run starts."""

    @pytest.mark.parametrize("field, packet", [
        ("arrival_time", mk_packet(0, at=float("nan"), deadline=1.0)),
        ("arrival_time", mk_packet(0, at=float("inf"), deadline=1.0)),
        ("relative_deadline", mk_packet(0, at=0.5, deadline=float("nan"))),
        ("relative_deadline", mk_packet(0, at=0.5, deadline=-1.0)),
        ("relative_deadline", mk_packet(0, at=0.5, deadline=0.0)),
        ("tie_key", mk_packet(0, at=0.5, deadline=1.0, tie=float("nan"))),
    ])
    def test_bad_float_column_refused(self, field, packet):
        good = mk_packet(1, at=0.0, deadline=1.0)
        with pytest.raises(ValueError, match=rf"{field} .*packet 2\b"):
            mk_workload([good, good, packet, packet])

    @pytest.mark.parametrize("origin", [1.7, -0.5, float("nan"),
                                        float("inf"), float("-inf")])
    def test_origin_not_a_whole_number_refused(self, origin):
        # the int64 cast would truncate 1.7 to node 1 and send it from there
        with pytest.raises(ValueError,
                           match=r"origin must be a whole number.*packet 1\b"):
            sc.Arrivals([2.0, origin], [0.0, 1.0], [1.0, 1.0], [0.1, 0.2])

    def test_whole_float_origin_accepted(self):
        packets = sc.Arrivals([1.0, 2.0], [0.0, 1.0], [1.0, 1.0], [0.1, 0.2])
        assert packets.origin.tolist() == [1, 2]
        assert packets.origin.dtype == np.int64

    def test_arrivals_out_of_time_order_refused(self):
        # nothing sorts arrivals, so a run would read the later-listed,
        # earlier arrival after events that come after it; packets given by
        # hand are refused alike (`test_hand_built_copy_runs_alike`)
        with pytest.raises(ValueError,
                           match=r"arrival_time must not decrease.*packet 1\b"):
            sc.Arrivals([0, 1, 0], [1.0, 0.5, 2.0], [1.0] * 3, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("origin, what", [(2, "a sink"),
                                              (7, "not a node")])
    def test_origin_outside_the_route_table_refused(self, origin, what):
        topo, routes = chain_network(3)
        wl = mk_workload([mk_packet(0, 0.0, 1.0), mk_packet(origin, 0.1, 1.0)])
        with pytest.raises(ValueError,
                           match=rf"packet 1 .*node {origin}, which is {what}"):
            sc.run_simulation(topo, routes, wl, sc.SimConfig(duration=1.0))

    def test_arrival_after_the_duration_refused(self):
        # offered demand is averaged over the duration, so an arrival after
        # it would be counted against time the run does not cover
        topo, routes = chain_network(3)
        cfg = sc.SimConfig(arrival_rate=5.0, duration=3.0)
        wl = sc.generate_workload(topo, routes, cfg)
        late = bisect_right(wl.packets, 1.0, key=lambda p: p.arrival_time)
        assert 0 < late < len(wl.packets)
        trace = []
        with pytest.raises(ValueError, match=rf"packet {late} arrives at "
                                             r".*after the duration 1\.0$"):
            sc.run_simulation(topo, routes, wl, replace(cfg, duration=1.0),
                              event_log=trace)
        assert trace == []  # refused before the first event
        # an arrival at the duration itself is in the run
        at_end = mk_workload([mk_packet(0, 0.5, 1.0), mk_packet(1, 1.0, 1.0)])
        m = sc.run_simulation(topo, routes, at_end, replace(cfg, duration=1.0))
        assert m.offered_demand == pytest.approx(2000.0 + 1000.0)


@pytest.fixture(scope="module")
def probe_network():
    """Criterion 6's network and its seed-0 probe config at 1.25x the
    measured DM bound, stopped at the first miss."""
    topo, routes = tp.make_network(seed=0, **EVAL_GRID)
    dm = ex.measured_bounds(topo, routes, 250_000.0, 1.0)[1].value
    rate = ex.probe_rate(1.25 * dm, routes, 1000.0)
    cfg = sc.SimConfig(packet_size=1000.0, duration=30.0, arrival_rate=rate,
                       seed=0, stop_at_first_miss=True)
    return topo, routes, cfg


class TestWorkloadStreams:
    """The draw goes in rounds of per-node blocks, so the workload does not
    depend on the duration, and a node's arrivals not on which other nodes
    are sinks."""

    def test_shorter_run_is_a_prefix(self, probe_network):
        topo, routes, cfg = probe_network
        long = sc.generate_workload(topo, routes, cfg)
        short = sc.generate_workload(topo, routes, replace(cfg, duration=8.0))
        assert 0 < len(short.packets) < len(long.packets)
        assert short.packets == tuple(long.packets)[:len(short.packets)]
        assert long.packets[len(short.packets)].arrival_time > 8.0

    def test_first_miss_does_not_depend_on_duration(self, probe_network):
        topo, routes, cfg = probe_network
        runs = []
        for duration in (8.0, 30.0):
            run_cfg = replace(cfg, duration=duration)
            runs.append(sc.run_simulation(
                topo, routes, sc.generate_workload(topo, routes, run_cfg),
                run_cfg))
        short, long = runs
        assert short.first_miss_time is not None and short.first_miss_time < 8.0
        assert short.first_miss_time == long.first_miss_time
        assert short.capacity_consumption_at_first_miss == \
            long.capacity_consumption_at_first_miss

    def test_first_miss_memory_does_not_depend_on_duration(self,
                                                           probe_network):
        # a run that stops at its first miss holds state for the arrivals
        # it read, not for the unread tail: a run over every arrival peaked
        # at 2.4 times the 8-s run here
        topo, routes, cfg = probe_network
        peaks = []
        for duration in (8.0, 30.0):
            run_cfg = replace(cfg, duration=duration)
            wl = sc.generate_workload(topo, routes, run_cfg)
            m, peak = traced_peak(
                lambda: sc.run_simulation(topo, routes, wl, run_cfg))
            assert m.first_miss_time is not None and m.first_miss_time < 8.0
            peaks.append(peak)
        short, long = peaks
        assert long <= 1.25 * short

    def test_matches_a_per_arrival_loop(self):
        # the same rounds drawn, then walked one arrival at a time
        topo, routes = tp.make_network(3, 4, spacing=10.0, jitter=0.2, seed=1,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(arrival_rate=9.0, duration=20.0, seed=6,
                           deadline_set=(0.5, 1.0, 2.0))
        rounds = np.random.SeedSequence(cfg.seed)
        last = dict.fromkeys(range(topo.node_count), 0.0)
        raw = []
        while any(last[v] <= cfg.duration for v in last if v not in routes.sinks):
            rng = np.random.default_rng(rounds.spawn(1)[0])
            shape = (len(topo.nodes), sc._BLOCK)
            gaps = rng.exponential(1.0 / cfg.arrival_rate, shape)
            index = rng.integers(len(cfg.deadline_set), size=shape)
            ties = rng.random(shape)
            for v in range(topo.node_count):
                for k in range(sc._BLOCK):
                    last[v] += float(gaps[v, k])
                    if v not in routes.sinks and last[v] <= cfg.duration:
                        raw.append((last[v], v,
                                    cfg.deadline_set[index[v, k]],
                                    float(ties[v, k])))
        # more than two blocks per source: at least three rounds
        assert len(raw) > 2 * sc._BLOCK * (len(topo.nodes) - 1)
        expected = tuple(sc.Packet(origin, t, d, tie)
                         for t, origin, d, tie in sorted(raw))
        assert sc.generate_workload(topo, routes, cfg).packets == expected

    def test_extra_sink_removes_only_its_arrivals(self):
        topo = tp.generate_perturbed_grid(4, 4, 10.0, 0.2, seed=2,
                                          radio_range=15.0)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=3.0,
                           duration=20.0, seed=4)

        def per_node(sinks):
            wl = sc.generate_workload(topo, tp.build_routes(topo, sinks), cfg)
            out = {}
            for p in wl.packets:
                out.setdefault(p.origin, []).append(
                    (p.arrival_time, p.relative_deadline, p.tie_key))
            return out

        before, after = per_node([0]), per_node([0, 10])
        assert 10 in before and 0 not in before
        assert after == {v: arrivals for v, arrivals in before.items()
                         if v != 10}

    @pytest.mark.parametrize("built", ["generated", "by hand"])
    def test_packets_read_as_a_sequence(self, built):
        if built == "generated":
            topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.0,
                                           seed=0, radio_range=10.0,
                                           sink_count=1)
            wl = sc.generate_workload(topo, routes,
                                      sc.SimConfig(arrival_rate=3.0,
                                                   duration=5.0))
        else:
            wl = mk_workload([mk_packet(2, 0.2, 2.0, 0.1),
                              mk_packet(1, 0.5, 1.0, 0.3),
                              mk_packet(1, 0.9, 0.5, 0.2)])
        packets = wl.packets
        listed = tuple(packets)
        assert len(packets) == len(listed) >= 3
        assert all(type(p) is sc.Packet for p in listed)
        assert packets[0] == listed[0] and packets[-1] == listed[-1]
        assert packets == listed and packets != listed[:-1]
        middle = listed[1].arrival_time
        assert bisect_right(packets, middle, key=lambda p: p.arrival_time) == \
            sum(p.arrival_time <= middle for p in listed)
        assert sc.Workload(packets=listed, seed=wl.seed) == wl
        if built == "by hand":  # taken as listed
            assert [p.origin for p in listed] == [2, 1, 1]

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_rows_across_slice_boundaries(self, n):
        # the run reads three fields through `rows`, a slice of the columns
        # at a time; the packets built one index at a time are the reference
        rng = np.random.default_rng(n)
        packets = sc.Arrivals(np.arange(n) % 7, np.arange(n) * 0.01,
                              1.0 + np.arange(n) % 3, rng.random(n))
        listed = tuple(packets)
        assert listed == tuple(packets[i] for i in range(n))
        run_fields = ("origin", "relative_deadline", "tie_key")
        read = list(packets.rows(*run_fields))
        assert read == [tuple(getattr(p, f) for f in run_fields)
                        for p in listed]
        assert list(packets.rows(*sc.Packet._fields)) == list(listed)
        assert all(type(o) is int and type(d) is float and type(t) is float
                   for o, d, t in read)

    @pytest.mark.parametrize("index", [slice(1, 3), 1.0, "1", None])
    def test_non_integer_index_refused(self, index):
        packets = mk_workload([mk_packet(0, 0.1 * i, 1.0)
                               for i in range(4)]).packets
        with pytest.raises(TypeError, match=rf"not {type(index).__name__}$"):
            packets[index]
        assert packets[np.int64(1)] == packets[1] == packets[-3]


# ---------------------------------------------------------------------------
# Medium arbitration
# ---------------------------------------------------------------------------

def dm_key(packet, position):
    """The packet's deadline-monotonic key, computed from its fields as the
    run computes it at the packet's arrival at that workload position."""
    return sc.priority_key(packet.arrival_time, packet.relative_deadline,
                           packet.tie_key, position)


def dm(packet, sender, receiver, position=0):
    """A MAC candidate keyed in deadline-monotonic order, as the run queues
    the packet at that workload position."""
    return (dm_key(packet, position), sender, receiver)


class TestAdmissibleTransmissions:
    def medium(self, n, active=()):
        """The MAC's arguments after the candidates on an n-chain: its
        adjacency, then the busy endpoints, senders and receivers of the
        active transmissions."""
        topo, _ = chain_network(n)
        sets = (set(), set(), set())
        for s, r, _ in active:
            mark(sets, s, r)
        return (topo.adjacency, *sets)

    def test_single_candidate_granted(self):
        medium = self.medium(3)
        pkt = mk_packet(0, 0.0, 1.0)
        grants = sc.admissible_transmissions([dm(pkt, 0, 1)], *medium)
        assert grants == [dm(pkt, 0, 1)]

    def test_sender_near_active_receiver_blocked(self):
        medium = self.medium(4, [(0, 1, 99)])
        pkt = mk_packet(2, 0.0, 1.0)
        assert sc.admissible_transmissions([dm(pkt, 2, 3)], *medium) == []

    def test_receiver_near_active_sender_blocked(self):
        medium = self.medium(4, [(1, 0, 99)])
        pkt = mk_packet(3, 0.0, 1.0)
        # receiver 2 is inside sender 1's range
        assert sc.admissible_transmissions([dm(pkt, 3, 2)], *medium) == []

    def test_disjoint_neighborhoods_both_granted(self):
        medium = self.medium(6)
        p1 = mk_packet(0, 0.0, 1.0)
        p2 = mk_packet(4, 0.0, 1.0)
        grants = sc.admissible_transmissions([dm(p1, 0, 1), dm(p2, 4, 5)],
                                             *medium)
        assert len(grants) == 2

    def test_priority_wins_shared_receiver(self):
        medium = self.medium(4)
        urgent = mk_packet(3, 0.0, 0.5)
        lax = mk_packet(1, 0.0, 2.0)
        grants = sc.admissible_transmissions(
            [dm(lax, 1, 2, 0), dm(urgent, 3, 2, 1)], *medium)
        assert grants == [dm(urgent, 3, 2, 1)]

    def test_tie_breaks_by_key(self):
        # the tie key decides before the position does
        medium = self.medium(4)
        a = mk_packet(1, 0.0, 1.0, tie=0.9)
        b = mk_packet(3, 0.0, 1.0, tie=0.1)
        grants = sc.admissible_transmissions([dm(a, 1, 2, 0), dm(b, 3, 2, 1)],
                                             *medium)
        assert grants == [dm(b, 3, 2, 1)]

    def test_grant_follows_the_given_keys(self):
        # keys by absolute deadline, as EDF gives them, invert DM's order:
        # the lax packet arrived first and is due first
        medium = self.medium(4)
        lax = mk_packet(1, at=0.0, deadline=2.0)
        urgent = mk_packet(3, at=1.8, deadline=0.5)
        assert dm_key(urgent, 1) < dm_key(lax, 0)

        def edf(packet, position, sender, receiver):
            _, at, deadline, tie = packet
            return ((at + deadline, tie, position), sender, receiver)

        assert edf(lax, 0, 1, 2)[0] < edf(urgent, 1, 3, 2)[0]
        grants = sc.admissible_transmissions(
            [edf(urgent, 1, 3, 2), edf(lax, 0, 1, 2)], *medium)
        assert grants == [edf(lax, 0, 1, 2)]

    def test_busy_endpoint_blocked(self):
        medium = self.medium(6, [(4, 5, 99)])
        pkt = mk_packet(4, 0.0, 1.0)
        assert sc.admissible_transmissions([dm(pkt, 4, 3)], *medium) == []

    @pytest.mark.parametrize("links", [
        [(3, 2), (1, 2)],   # a shared receiver: the lower sender wins
        [(1, 2), (1, 0)]])  # a shared sender: the lower receiver wins
    def test_equal_keys_fall_to_sender_then_receiver(self, links):
        # candidates are granted in the order of the whole tuples, and a
        # granted candidate comes back as the tuple given
        key = (1.0, 0.5, 0)
        first, second = [(key, s, r) for s, r in links]
        grants = sc.admissible_transmissions([first, second], *self.medium(4))
        assert len(grants) == 1 and grants[0] is second


class TestMedium:
    @staticmethod
    def rebuilt(active):
        """Busy endpoints, senders and receivers recomputed from the active
        (sender, receiver, position) transmissions alone."""
        busy = {v for s, r, _ in active for v in (s, r)}
        return busy, {s for s, _, _ in active}, {r for _, r, _ in active}

    @staticmethod
    def record(active):
        """The run's record of the air for the active transmissions: each
        busy endpoint mapped to its transmission, the senders, the
        receivers."""
        air = {v: tx for tx in active for v in tx[:2]}
        return air, {s for s, _, _ in active}, {r for _, r, _ in active}

    @pytest.mark.parametrize("seed", range(5))
    def test_random_occupy_release_matches_rebuild(self, seed):
        topo, routes = tp.make_network(6, 6, spacing=10.0, jitter=0.2,
                                       seed=seed, radio_range=15.0,
                                       sink_count=1)
        adjacency = topo.adjacency
        rng = np.random.default_rng(seed)
        sets = (set(), set(), set())
        active = []
        for step in range(400):
            if active and rng.random() < 0.45:
                s, r, _ = active.pop(int(rng.integers(len(active))))
                mark(sets, s, r, on_air=False)
            else:
                s = int(rng.choice(sorted(routes.next_hop)))
                r = routes.next_hop[s]
                pkt = mk_packet(s, 0.0, 1.0)
                if not sc.admissible_transmissions([dm(pkt, s, r)],
                                                   adjacency, *sets):
                    continue
                assert sc._conflict(s, r, *self.record(active),
                                    adjacency) is None
                active.append((s, r, step))
            assert sets == self.rebuilt(active)
        for s, r, _ in active:
            mark(sets, s, r, on_air=False)
        assert not any(sets)

    @pytest.mark.parametrize("seed", range(3))
    def test_verify_exclusion_matches_brute_force(self, seed):
        # the conflict lookup for every head-of-route pair against a random
        # live set, checked against a scan of all live transmissions: it
        # finds nothing exactly when the scan does, and otherwise one of
        # the live transmissions, which conflicts with the pair
        topo, routes = tp.make_network(6, 6, spacing=10.0, jitter=0.2,
                                       seed=seed, radio_range=15.0,
                                       sink_count=1)
        adjacency = topo.adjacency
        rng = np.random.default_rng(seed)
        sets = (set(), set(), set())
        active = []
        for step, s in enumerate(rng.permutation(sorted(routes.next_hop))[:8]):
            s, r = int(s), routes.next_hop[int(s)]
            pkt = mk_packet(s, 0.0, 1.0)
            if sc.admissible_transmissions([dm(pkt, s, r)], adjacency, *sets):
                active.append((s, r, step))
        record = self.record(active)
        for s, r in routes.next_hop.items():
            conflict = any({s, r} & {ts, tr} or s in adjacency[tr]
                           or r in adjacency[ts] for ts, tr, _ in active)
            tx = sc._conflict(s, r, *record, adjacency)
            assert (tx is not None) == conflict
            if tx is not None:
                assert tx in active
                assert links_conflict(adjacency, (s, r), tx[:2])

    @pytest.mark.parametrize("active, blocker", [
        ([(0, 1, 7), (3, 4, 9)], (3, 4, 9)),  # an endpoint first
        ([(4, 5, 8), (0, 1, 7)], (0, 1, 7)),  # then a receiver near 2
        ([(4, 5, 8), (1, 0, 7)], (4, 5, 8)),  # then a sender near 3
        ([(1, 0, 7), (5, 4, 8)], None)])
    def test_conflict_lookup_order(self, active, blocker):
        # on a chain, where v's neighbours are v - 1 and v + 1, the link
        # 2->3 meets every kind of conflict; a refused head waits on the
        # transmission found first, which decides the nodes re-arbitrated
        adjacency = chain_network(6)[0].adjacency
        assert sc._conflict(2, 3, *self.record(active), adjacency) == blocker

    def test_run_must_leave_medium_idle(self, monkeypatch):
        # a MAC that leaves a phantom sender, node -1, in `senders`, which no
        # completion removes; it is no node, so the MAC never meets it and
        # the run drains
        mac = sc.admissible_transmissions

        def leaky(candidates, adjacency, busy, senders, receivers):
            senders.add(-1)
            return mac(candidates, adjacency, busy, senders, receivers)

        monkeypatch.setattr(sc, "admissible_transmissions", leaky)
        with pytest.raises(sc.InvariantError, match="medium not idle"):
            contended_run(seed=3)

    def test_conflicting_grant_raises(self, monkeypatch):
        # a MAC that grants every candidate has its first conflicting grant
        # caught by the per-grant check, against the transmissions in the air
        def grant_all(candidates, adjacency, *sets):
            for _, sender, receiver in candidates:
                mark(sets, sender, receiver)
            return list(candidates)

        monkeypatch.setattr(sc, "admissible_transmissions", grant_all)
        with pytest.raises(sc.InvariantError,
                           match=r"grant \d+->\d+ conflicts with live "
                                 r"\d+->\d+"):
            contended_run(seed=3)

    def test_grant_must_pop_the_queue_head(self, monkeypatch):
        # a MAC that grants as the real one does but hands back each key as
        # an equal copy: the run pops the node's head entry itself, which is
        # not the granted key
        mac = sc.admissible_transmissions

        def copying(candidates, *state):
            return [((*key,), s, r) for key, s, r in mac(candidates, *state)]

        monkeypatch.setattr(sc, "admissible_transmissions", copying)
        with pytest.raises(sc.InvariantError,
                           match=r"queue head changed under grant at node "
                                 r"\d+$"):
            contended_run(seed=3)

    def test_refusal_needs_a_blocker(self, monkeypatch):
        # a MAC that refuses every candidate leaves the first head idle with
        # nothing in the air to block it
        monkeypatch.setattr(sc, "admissible_transmissions",
                            lambda candidates, *state: [])
        with pytest.raises(sc.InvariantError,
                           match=r"candidate \d+->\d+ refused with nothing "
                                 r"blocking it"):
            contended_run(seed=3)


@st.composite
def small_networks(draw):
    """A small perturbed grid whose grid neighbours are always in range,
    with its routes."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    return tp.make_network(rows, cols, spacing=10.0, jitter=0.2,
                           seed=draw(st.integers(0, 2**16)),
                           radio_range=draw(st.floats(15.0, 25.0)),
                           sink_count=draw(st.integers(1, 2)))


@st.composite
def mac_cases(draw):
    """A network, random active links and random candidates over its
    directed radio links: endpoints may repeat, within the candidates and
    against the active links."""
    topo, _ = draw(small_networks())
    links = [(v, w) for v, nbrs in topo.adjacency.items() for w in nbrs]
    active = draw(st.lists(st.sampled_from(links), max_size=4))
    candidates = draw(st.lists(st.tuples(st.sampled_from(links),
                                         st.integers(0, 3)), max_size=8))
    return topo.adjacency, active, candidates


class TestMacProperties:
    @staticmethod
    def oracle(adjacency, active, candidates):
        """The docstring's rule by brute force: in key order, a candidate is
        granted iff no active or earlier-granted (s0, r0) shares an endpoint
        with it, has r0 in range of its sender or s0 in range of its
        receiver."""
        on_air = list(active)
        granted = []
        for key, s, r in sorted(candidates, key=lambda c: c[0]):
            if any({s, r} & {s0, r0} or s in adjacency[r0]
                   or r in adjacency[s0] for s0, r0 in on_air):
                continue
            on_air.append((s, r))
            granted.append((key, s, r))
        return granted

    @settings(max_examples=300, deadline=None)
    @given(mac_cases())
    def test_grants_match_brute_force(self, case):
        adjacency, active, drawn = case
        # each key ends in the candidate's index, as a run's ends in the
        # packet's position, so grants of two candidates on the same link
        # stay apart
        candidates = [((rank, i), s, r)
                      for i, ((s, r), rank) in enumerate(drawn)]
        sets = (set(), set(), set())
        for s, r in active:
            mark(sets, s, r)
        assert sc.admissible_transmissions(candidates, adjacency, *sets) \
            == self.oracle(adjacency, active, candidates)

    def test_run_reaches_the_mac_through_the_module(self, monkeypatch):
        # a tracer times the MAC by replacing this module attribute
        calls = []
        mac = sc.admissible_transmissions

        def counting(candidates, *state):
            calls.append(len(candidates))
            return mac(candidates, *state)

        monkeypatch.setattr(sc, "admissible_transmissions", counting)
        contended_run(seed=3)
        assert calls


# ---------------------------------------------------------------------------
# Hand-traced runs
# ---------------------------------------------------------------------------

class TestRunSimulationTraces:
    # 1000-bit packets at 2500 bits/s: every hop takes 0.4 s
    CFG = sc.SimConfig(bandwidth=2500.0, duration=10.0)

    def test_single_uncontended_hop(self):
        topo, routes = chain_network(2)
        wl = mk_workload([mk_packet(0, at=1.0, deadline=1.0)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.delivered == 1 and m.missed == 0
        assert m.delays == (pytest.approx(0.4),)

    def test_two_hop_chain(self):
        topo, routes = chain_network(3)
        wl = mk_workload([mk_packet(0, at=0.0, deadline=2.0)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.delivered == 1
        assert m.delays == (pytest.approx(0.8),)

    def test_dm_order_at_one_node(self):
        topo, routes = chain_network(2)
        wl = mk_workload([
            mk_packet(0, at=0.0, deadline=2.0),
            mk_packet(0, at=0.0, deadline=0.9),
        ])
        trace = []
        m = sc.run_simulation(topo, routes, wl, self.CFG, event_log=trace)
        grants = [pos for _, kind, _, _, pos in trace if kind == sc.GRANT]
        # the smaller-deadline packet goes first; the other waits one slot
        assert grants == [1, 0]
        assert m.delivered == 2
        assert sorted(m.delays) == [pytest.approx(0.4), pytest.approx(0.8)]

    def test_delivery_exactly_at_deadline_counts(self):
        topo, routes = chain_network(2)
        wl = mk_workload([mk_packet(0, at=0.0, deadline=0.4)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.delivered == 1 and m.missed == 0

    def test_miss_and_first_miss_capacity(self):
        # relay chain 0 -> 1 -> 2(sink); packet from the relay is lowest
        # priority, the origin's packet expires mid-second-hop with one hop
        # already traversed
        topo, routes = chain_network(3)
        wl = mk_workload([
            mk_packet(0, at=0.0, deadline=0.45),
            mk_packet(1, at=0.0, deadline=5.0),
        ])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.missed == 1 and m.delivered == 1
        assert m.first_miss_time == pytest.approx(0.45)
        # at t=0.45 the expiring packet has traversed 1 hop (1000 bits / 0.45 s)
        # and the relay packet none
        assert m.capacity_consumption_at_first_miss == pytest.approx(1000 / 0.45)

    def test_receiver_sends_when_its_incoming_packet_missed_in_the_air(self):
        # chain 0 -> 1 -> 2(sink): packet 0 expires at 0.2 on the hop 0 -> 1,
        # and packet 1 queues at the receiving node 1 at 0.1; the hop's end
        # at 0.4 frees node 1, which has nothing to forward and sends its own
        topo, routes = chain_network(3)
        wl = mk_workload([
            mk_packet(0, at=0.0, deadline=0.2),
            mk_packet(1, at=0.1, deadline=5.0),
        ])
        trace = []
        m = sc.run_simulation(topo, routes, wl, self.CFG, event_log=trace)
        assert [(t, s, r, pos) for t, kind, s, r, pos in trace
                if kind == sc.GRANT] == [(0.0, 0, 1, 0), (0.4, 1, 2, 1)]
        assert m.missed == 1 and m.delivered == 1
        assert m.delays == (pytest.approx(0.7),)

    def test_first_miss_snapshot_counts_delivered_and_mid_route(self):
        # chain 0 -> 1 -> 2 -> 3(sink). Packet 0 is delivered at 0.4 but
        # claims its full route until its deadline at 5.0. Packet 1 is on
        # its second hop, 1 -> 2, from 0.9 to 1.3. Packet 2 waits at the
        # busy node 2 and expires at 1.2.
        topo, routes = chain_network(4)
        wl = mk_workload([
            mk_packet(2, at=0.0, deadline=5.0),
            mk_packet(0, at=0.5, deadline=4.0),
            mk_packet(2, at=1.0, deadline=0.2),
        ])
        trace = []
        m = sc.run_simulation(topo, routes, wl, self.CFG, event_log=trace)
        # packet 2 misses while queued at node 2
        assert [(node, pos) for _, kind, node, _, pos in trace
                if kind == sc.MISS] == [(2, 2)]
        assert m.first_miss_time == pytest.approx(1.2)
        assert m.missed == 1 and m.delivered == 2
        # one hop over 5.0 s for packet 0, one hop over 4.0 s for packet 1,
        # none for packet 2
        assert m.capacity_consumption_at_first_miss == \
            pytest.approx(1000 / 5.0 + 1000 / 4.0)

    # chain 0 -> 1 -> 2(sink), runs cut at the first miss or not
    FIRST_MISS_CASES = {
        # A is delivered at 0.4 and claims its hop until 3.0; B, delivered
        # at 0.9, stops claiming at 1.0; C misses at 1.5 on its second hop;
        # D waits at node 0 and E has not arrived when the run stops
        "delivered_claims": (
            [mk_packet(1, at=0.0, deadline=3.0),
             mk_packet(1, at=0.5, deadline=0.5),
             mk_packet(0, at=1.0, deadline=0.5),
             mk_packet(0, at=1.2, deadline=5.0),
             mk_packet(0, at=2.0, deadline=1.0)],
            1.5, 1000 / 3.0 + 1000 / 0.5, 2),
        # three windows close at 1.0: packet 0's (delivered at 0.4), packet
        # 1's (queued behind packet 2 on the shared node 1, it misses) and
        # packet 2's (delivered at 1.0 exactly); only the window after the
        # missing packet's position claims
        "equal_deadline_claims_after_the_miss": (
            [mk_packet(1, at=0.0, deadline=1.0),
             mk_packet(0, at=0.6, deadline=0.4, tie=0.9),
             mk_packet(1, at=0.6, deadline=0.4, tie=0.1)],
            1.0, 1000 / 0.4, 0),
    }

    @pytest.mark.parametrize("case", FIRST_MISS_CASES)
    @pytest.mark.parametrize("stop", [False, True], ids=["drop", "stopped"])
    def test_first_miss_claim_matches_its_definition(self, case, stop):
        packets, when, claim, in_flight = self.FIRST_MISS_CASES[case]
        topo, routes = chain_network(3)
        wl = mk_workload(packets)
        trace = []
        m = sc.run_simulation(topo, routes, wl,
                              replace(self.CFG, stop_at_first_miss=stop),
                              event_log=trace)
        assert m.first_miss_time == when
        assert m.capacity_consumption_at_first_miss == \
            first_miss_claim(trace, wl, self.CFG.packet_size)
        assert m.capacity_consumption_at_first_miss == pytest.approx(claim)
        assert m.delivered + m.missed + m.in_flight_at_end == len(packets)
        if stop:
            assert m.in_flight_at_end == in_flight
        else:
            assert m.in_flight_at_end == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_first_miss_claim_of_a_contended_run(self, seed):
        trace = []
        _, _, cfg, wl, m = contended_run(seed=seed, rate=8.0, event_log=trace)
        assert m.capacity_consumption_at_first_miss is not None
        assert m.capacity_consumption_at_first_miss == \
            first_miss_claim(trace, wl, cfg.packet_size)

    @pytest.mark.parametrize("origins", [(0, 1), (1, 0)])
    def test_full_tie_granted_in_listed_order(self, origins):
        # one instant, one deadline and one tie key, on links 0->1 and 1->2
        # that share node 1: the earlier-listed packet goes first, from
        # whichever node it was listed at
        topo, routes = chain_network(3)
        wl = mk_workload([mk_packet(v, at=0.0, deadline=2.0, tie=0.5)
                          for v in origins])
        trace = []
        m = sc.run_simulation(topo, routes, wl, self.CFG, event_log=trace)
        grants = [(now, node, pos) for now, kind, node, _, pos in trace
                  if kind == sc.GRANT]
        assert [g for g in grants if g[0] == 0.0] == [(0.0, origins[0], 0)]
        assert m.delivered == 2

    def test_hand_built_copy_runs_alike(self):
        topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=3,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=6.0, duration=8.0,
                           seed=3)
        wl = sc.generate_workload(topo, routes, cfg)
        runs = []
        for workload in (wl, sc.Workload(tuple(wl.packets), wl.seed)):
            trace = []
            m = sc.run_simulation(topo, routes, workload, cfg, event_log=trace)
            runs.append((trace, m))
        assert runs[0][1].missed > 0
        assert runs[1] == runs[0]
        # nothing sorts a hand-built workload, so its positions are the
        # caller's: the reversed copy is refused at its first earlier arrival
        backwards = tuple(wl.packets)[::-1]
        first = next(i for i in range(1, len(backwards)) if
                     backwards[i].arrival_time < backwards[i - 1].arrival_time)
        with pytest.raises(ValueError, match=r"arrival_time must not decrease"
                                             rf".*packet {first}$"):
            sc.Workload(backwards, wl.seed)

    def test_no_miss_leaves_capacity_none(self):
        topo, routes = chain_network(2)
        wl = mk_workload([mk_packet(0, at=0.0, deadline=1.0)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.capacity_consumption_at_first_miss is None
        assert m.first_miss_time is None

    def test_offered_demand(self):
        topo, routes = chain_network(3)
        wl = mk_workload([
            mk_packet(0, at=0.0, deadline=1.0),
            mk_packet(1, at=3.0, deadline=1.0),
        ])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.offered_demand == pytest.approx((2 * 1000 + 1 * 1000) / 10.0)


class TestMeasuredCapacityConsumption:
    def test_empty(self):
        assert sc.measured_capacity_consumption([], 1000.0) == 0.0

    def test_formula(self):
        # (hops traversed, relative deadline)
        assert sc.measured_capacity_consumption([(2, 1.0)], 1000.0) == \
            pytest.approx(2000.0)

    def test_additive(self):
        claims = [(2, 1.0) for _ in range(2)]
        assert sc.measured_capacity_consumption(claims, 1000.0) == \
            pytest.approx(4000.0)


class TestCriticalCapacity:
    def _metrics(self, cap):
        return sc.RunMetrics(1, 0, 1, 1.0, cap, 0.1 if cap is not None else None,
                             100.0, 0, (), 0)

    def test_single(self):
        cc = sc.critical_capacity([self._metrics(5000.0)])
        assert cc.value == 5000.0 and cc.miss_observed

    def test_minimum(self):
        cc = sc.critical_capacity([self._metrics(v) for v in (5000.0, 4200.0, 6100.0)])
        assert cc.value == 4200.0

    def test_no_miss_flagged(self):
        cc = sc.critical_capacity([self._metrics(None), self._metrics(None)])
        assert cc.value is None and not cc.miss_observed
        assert cc.replications == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sc.critical_capacity([])


# ---------------------------------------------------------------------------
# Whole-run properties
# ---------------------------------------------------------------------------

def traced_run(stop):
    """The contended 3x3 network of `contended_run` at seed 7 and 8
    packets/s: the run's metrics and its event trace."""
    topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=7,
                                   radio_range=15.0, sink_count=1)
    cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=8.0, duration=8.0,
                       seed=7, stop_at_first_miss=stop)
    trace = []
    m = sc.run_simulation(topo, routes, sc.generate_workload(topo, routes, cfg),
                          cfg, event_log=trace)
    return m, trace


class TestRunProperties:
    def test_determinism(self):
        *_, a = contended_run(seed=11)
        *_, b = contended_run(seed=11)
        assert a == b

    def test_conservation(self):
        *_, m = contended_run(seed=7)
        assert m.packets_generated > 0
        assert m.delivered + m.missed + m.in_flight_at_end == m.packets_generated
        assert m.in_flight_at_end == 0  # run drains completely
        assert m.miss_ratio == pytest.approx(m.missed / m.packets_generated)

    def test_in_flight_matches_a_log_replay(self):
        # a stopped run ends with arrivals unread and packets queued or in
        # the air; its trace says which arrived and left
        m, trace = traced_run(stop=True)
        arrived, held, events = 0, set(), {sc.DELIVER: 0, sc.MISS: 0}
        for _, kind, _, _, pos in trace:
            if kind == sc.ARRIVAL:
                arrived += 1
                held.add(pos)
            elif kind in events:
                events[kind] += 1
                held.remove(pos)
        assert m.first_miss_time is not None and held
        assert 0 < arrived < m.packets_generated
        assert (m.delivered, m.missed) == (events[sc.DELIVER], events[sc.MISS])
        assert m.in_flight_at_end == m.packets_generated - arrived + len(held)
        assert m.delivered + m.missed + m.in_flight_at_end == m.packets_generated

    @pytest.mark.parametrize("stop", [False, True], ids=["drop", "stopped"])
    def test_trace_records_are_numbers(self, stop):
        # the run formats nothing: each event is a (time, kind, node,
        # receiver, position) tuple, and `format_events` owns the text
        m, trace = traced_run(stop)
        assert m.missed > 0
        for record in trace:
            assert type(record) is tuple
            assert tuple(map(type, record)) == (float, int, int, int, int)
        # every logging site is reached, and each kind is one of the six
        assert {kind for _, kind, *_ in trace} == set(range(6))

    def test_workload_not_written(self):
        topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=7,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=8.0, duration=8.0,
                           seed=7)
        wl = sc.generate_workload(topo, routes, cfg)
        before = copy.deepcopy(wl)
        m = sc.run_simulation(topo, routes, wl, cfg)
        assert m.missed > 0
        assert wl == before

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, None],
                             ids=["1", "2", "3", "4", "5", "stopped"])
    def test_missed_packet_leaves_the_network(self, seed):
        # after its miss a packet is never queued, sent or delivered again;
        # a miss in the air (node -1) still ends the hop it was on, so that
        # transmission's completion is the one later record naming it
        if seed is None:
            m, trace = traced_run(stop=True)
        else:
            trace = []
            *_, m = contended_run(seed=seed, rate=8.0, event_log=trace)
        assert m.missed > 0
        gone = {}  # missed position -> whether its hop's completion is due
        for record in trace:
            _, kind, node, _, pos = record
            if pos in gone:
                assert kind == sc.COMPLETE and gone[pos], record
                gone[pos] = False
            elif kind == sc.MISS:
                gone[pos] = node == -1
        assert len(gone) == m.missed
        if seed is not None:  # a drained run completes every hop
            assert not any(gone.values())

    def test_stop_at_first_miss_matches_full_run(self):
        topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=5,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=8.0, duration=8.0,
                           seed=5)
        wl = sc.generate_workload(topo, routes, cfg)
        full = sc.run_simulation(topo, routes, wl, cfg)
        stopped = sc.run_simulation(
            topo, routes, wl,
            sc.SimConfig(packet_size=12_500.0, arrival_rate=8.0, duration=8.0,
                         seed=5, stop_at_first_miss=True))
        assert full.capacity_consumption_at_first_miss is not None
        assert stopped.capacity_consumption_at_first_miss == \
               full.capacity_consumption_at_first_miss
        assert stopped.first_miss_time == full.first_miss_time
        assert stopped.missed >= 1

    def test_miss_ratio_monotone_in_rate(self):
        # trend of the per-rate means over seeds, not per-seed monotonicity
        rates = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2,
                                       seed=1, radio_range=15.0, sink_count=1)
        means = []
        for rate in rates:
            ratios = []
            for seed in range(10):
                cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=rate,
                                   duration=6.0, seed=seed)
                wl = sc.generate_workload(topo, routes, cfg)
                ratios.append(sc.run_simulation(topo, routes, wl, cfg).miss_ratio)
            means.append(np.mean(ratios))
        # the trend as criterion 7 states it; a rank correlation is
        # degenerate over the low rates' tied zero means
        assert means == sorted(means)
        assert means[0] == 0.0
        assert means[-1] > 0.25


@st.composite
def tied_workloads(draw):
    """A small network and a hand-built workload on it, in time order, whose
    tie keys are all zero, so equal deadlines fall to the position."""
    topo, routes = draw(small_networks())
    assume(routes.next_hop)  # a grid of sinks alone has no origin
    n = draw(st.integers(1, 30))
    origins = draw(st.lists(st.sampled_from(sorted(routes.next_hop)),
                            min_size=n, max_size=n))
    # arrivals on a 0.1 s grid and 0.4 s hops give same-instant events
    slots = sorted(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)))
    deadlines = draw(st.lists(st.sampled_from([0.3, 0.8, 1.2, 2.0, 5.0]),
                              min_size=n, max_size=n))
    packets = [mk_packet(origin, 0.1 * slot, deadline)
               for origin, slot, deadline in zip(origins, slots, deadlines)]
    return topo, routes, mk_workload(packets)


class TestPositionIndexedRun:
    """A packet is its workload position: the run keeps per-packet state by
    it, breaks full priority ties by it, and computes each packet's
    priority key once, at its arrival."""

    @settings(max_examples=60, deadline=None)
    @given(tied_workloads(), st.booleans())
    def test_position_breaks_ties_like_a_tie_key(self, case, stop):
        # tie keys rising with position order every packet as zero keys do
        topo, routes, wl = case
        cfg = sc.SimConfig(bandwidth=2500.0, duration=10.0,
                           stop_at_first_miss=stop)
        n = len(wl.packets)
        rising = mk_workload([p._replace(tie_key=i / n)
                              for i, p in enumerate(wl.packets)])
        traces = [], []
        runs = [sc.run_simulation(topo, routes, w, cfg, event_log=trace)
                for w, trace in zip((wl, rising), traces)]
        assert runs[0] == runs[1]
        assert traces[0] == traces[1]

    def test_priority_key_once_per_arrival(self, monkeypatch):
        keyed = []
        key = sc.priority_key

        def counting(arrival_time, relative_deadline, tie_key, position):
            keyed.append((arrival_time, relative_deadline, tie_key, position))
            return key(arrival_time, relative_deadline, tie_key, position)

        monkeypatch.setattr(sc, "priority_key", counting)
        trace = []
        _, _, _, wl, m = contended_run(seed=3, event_log=trace)
        arrived = [pos for _, kind, _, _, pos in trace if kind == sc.ARRIVAL]
        assert any(kind == sc.ENQUEUE for _, kind, *_ in trace)  # relayed
        assert len(arrived) == m.packets_generated > 0
        # once per arrival, in arrival order, for the packet at that position
        assert [pos for *_, pos in keyed] == arrived
        assert all(wl.packets[pos][1:] == tuple(fields)
                   for *fields, pos in keyed)


# ---------------------------------------------------------------------------
# Whole-network reference
# ---------------------------------------------------------------------------

class TestReferenceRun:
    """The run arbitrates only the nodes an instant touched and files each
    refused head on one blocker's wait-list; `reference_run` makes a plain
    greedy pass over the whole backlog at every instant. Their traces must
    be equal, tuple for tuple."""

    @settings(max_examples=100, deadline=None)
    @given(small_networks(), st.integers(0, 2**16), st.floats(1.0, 16.0),
           st.sampled_from([1000.0, 5000.0, 12_500.0]),
           st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.5, 1.0, 2.0]),
                    min_size=1, max_size=3, unique=True).map(tuple),
           st.booleans())
    def test_trace_equals_the_reference(self, network, seed, rate, size,
                                        deadlines, stop):
        topo, routes = network
        cfg = sc.SimConfig(packet_size=size, deadline_set=deadlines,
                           arrival_rate=rate, duration=3.0, seed=seed,
                           stop_at_first_miss=stop)
        wl = sc.generate_workload(topo, routes, cfg)
        trace = []
        sc.run_simulation(topo, routes, wl, cfg, event_log=trace)
        assert trace == reference_run(topo, routes, wl, cfg, sc.priority_key)


# ---------------------------------------------------------------------------
# Exact oracle: the one-hop star
# ---------------------------------------------------------------------------

class TestStarOracle:
    """On a star every two nodes are in range, so one transmission is in
    the air at a time, and each source's heap head is its most urgent
    packet: the network is a non-preemptive deadline-monotonic
    uniprocessor with drop at the deadline, which
    `uniprocessor_reference` runs by hand."""

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_star_is_one_contention_set(self, n):
        topo, routes = star(n)
        assert all(len(nbrs) == n for nbrs in topo.adjacency.values())
        assert routes.sinks == (0,)
        assert all(routes.hop_count[v] == 1 for v in range(1, n + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**16), st.floats(0.3, 1.3))
    def test_run_matches_the_uniprocessor(self, n, seed, load):
        # `load` is the offered share of the one channel; 4-ms hops against
        # 20-100 ms deadlines, so overloaded runs drop and miss in the air
        topo, routes = star(n)
        cfg = sc.SimConfig(deadline_set=(0.02, 0.05, 0.1), duration=3.0,
                           seed=seed)
        cfg = replace(cfg, arrival_rate=load / (n * cfg.tx_time))
        wl = sc.generate_workload(topo, routes, cfg)
        trace = []
        m = sc.run_simulation(topo, routes, wl, cfg, event_log=trace)
        times = wl.packets.arrival_time
        delivered = {pos: t - times[pos] for t, kind, _, _, pos in trace
                     if kind == sc.DELIVER}
        missed = sum(kind == sc.MISS for _, kind, *_ in trace)
        delays, misses = uniprocessor_reference(wl, cfg.tx_time)
        assert delivered.keys() == delays.keys()
        assert all(abs(delivered[pos] - delays[pos]) <= 1e-9
                   for pos in delays)
        assert missed == misses == m.missed
        assert len(delays) + misses == len(wl.packets)

    def test_one_hop_test_misses_blocking(self):
        """The paper's one-hop test passes an instance the run misses.
        Two sources share the sink's channel with 4-ms hops: the lax packet
        (D = 0.1 s) is released at t = 0 and the urgent one (D = 7.5 ms) 1 ns
        later. Their utilization, 0.004/0.1 + 0.004/0.0075 = 0.5733, passes
        both the DM path test (lhs 0.9585) and the EDF one. But the channel
        is non-preemptive: the urgent packet is blocked for the lax one's
        whole 4-ms hop, and 4 ms of blocking plus its own 4 ms exceed its
        7.5 ms (non-preemptive blocking; George, Rivierre & Spuri 1996).
        The run misses it in the air, as the exact uniprocessor does, and the
        instance check that counts each packet at its sink too calls it
        infeasible."""
        topo, routes = star(2)
        cfg = sc.SimConfig()
        assert cfg.tx_time == 0.004
        wl = mk_workload([mk_packet(1, 0.0, 0.1), mk_packet(2, 1e-9, 0.0075)])
        vq = cfg.tx_time / 0.1 + cfg.tx_time / 0.0075
        assert vq == pytest.approx(0.5733, abs=1e-4)
        dm_report = an.dm_path_feasible([vq])
        assert dm_report.feasible
        assert dm_report.lhs_value == pytest.approx(0.9585, abs=1e-4)
        assert an.edf_path_feasible([vq]).feasible
        trace = []
        m = sc.run_simulation(topo, routes, wl, cfg, event_log=trace)
        assert [record for record in trace if record[1] == sc.MISS] \
            == [(pytest.approx(0.007500001, abs=1e-12), sc.MISS, -1, -1, 1)]
        assert (m.delivered, m.missed) == (1, 1)
        assert uniprocessor_reference(wl, cfg.tx_time) \
            == ({0: pytest.approx(m.delays[0])}, m.missed)
        assert not instance_is_dm_feasible(topo, routes, wl, cfg.tx_time)
        # the exact non-preemptive analysis, each packet a periodic task with
        # T = D, fails it: 4 ms blocked plus 4 ms sent
        _, urgent = np_dm_response_times([(0.1, 0.1), (0.0075, 0.0075)],
                                         cfg.tx_time)
        assert urgent == pytest.approx(0.008, abs=1e-15) and urgent > 0.0075

    # release offset of the task under test and its higher-priority tasks
    # behind the blocking packet, which goes first at t = 0
    OFFSET = 1e-9

    def critical_instant(self, tasks, i, tx_time):
        """Task i's critical instant on a star with source j + 1 for task
        j: the lowest-priority packet, if any task is below i, at t = 0,
        then i and every higher-priority task at `OFFSET` and periodically
        after it, past i's level-i busy period. Returns the run's trace,
        its metrics and the workload."""
        _, deadline = tasks[i]
        level = [j for j, (_, d) in enumerate(tasks) if d <= deadline]
        lower = [j for j, (_, d) in enumerate(tasks) if d > deadline]
        # bounds i's busy period, as t <= B + sum of (t/T_j + 1)*C over it
        horizon = tx_time * (len(level) + 1) / (
            1 - sum(tx_time / tasks[j][0] for j in level))
        releases = [(self.OFFSET + k * tasks[j][0], j + 1, tasks[j][1])
                    for j in level
                    for k in range(int(horizon / tasks[j][0]) + 1)]
        if lower:
            k = max(lower, key=lambda j: tasks[j][1])
            releases.append((0.0, k + 1, tasks[k][1]))
        wl = mk_workload([mk_packet(v, t, d) for t, v, d in sorted(releases)])
        topo, routes = star(len(tasks))
        trace = []
        cfg = sc.SimConfig(duration=horizon + 1.0)
        assert cfg.tx_time == tx_time
        m = sc.run_simulation(topo, routes, wl, cfg, event_log=trace)
        return trace, m, wl

    def responses(self, trace, wl, source):
        """The response times of the packets from `source`, in delivery
        order."""
        times, origins = wl.packets.arrival_time, wl.packets.origin
        return [t - times[pos] for t, kind, _, _, pos in trace
                if kind == sc.DELIVER and origins[pos] == source]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_worst_response_is_the_np_analysis(self, n):
        """Periodic sources, one task each with a distinct deadline D <= T,
        drawn until the exact non-preemptive analysis finds every task
        schedulable. From each task's critical instant the run misses
        nothing, and the task's largest response equals the analysis: the
        blocking packet goes first 1 ns early, so the run may be faster by
        that offset."""
        tx_time = 0.004
        rng = np.random.default_rng(n)
        drawn = 0
        while drawn < 20:
            deadlines = rng.uniform(2 * tx_time, (n + 1) * tx_time, n)
            tasks = list(zip(deadlines * rng.uniform(1.0, 1.05, n),
                             deadlines))
            if (len(set(deadlines)) < n
                    or sum(tx_time / t for t, _ in tasks) >= 0.98):
                continue
            analysis = np_dm_response_times(tasks, tx_time)
            if any(r > d - 1e-6 for r, (_, d) in zip(analysis, tasks)):
                continue
            drawn += 1
            for i in range(n):
                trace, m, wl = self.critical_instant(tasks, i, tx_time)
                assert m.missed == 0
                worst = max(self.responses(trace, wl, i + 1))
                assert abs(worst - analysis[i]) <= 1e-9 + self.OFFSET, \
                    (tasks, i)

    def test_a_later_job_can_be_the_worst(self):
        """Three tasks with 4-ms hops (after Davis et al. 2007, scaled and
        with periods nudged off common multiples): the lowest-priority
        task's level busy period holds two of its jobs, and the second
        responds later than the first, so an analysis that checked only the
        first job would call 12 ms its worst."""
        tasks = [(0.00999, 0.00999), (0.0139, 0.0135), (0.0141, 0.0141)]
        analysis = np_dm_response_times(tasks, 0.004)
        assert analysis == pytest.approx([0.008, 0.012, 0.0139], abs=1e-12)
        trace, m, wl = self.critical_instant(tasks, 2, 0.004)
        first, second, *_ = self.responses(trace, wl, 3)
        assert m.missed == 0
        assert first == pytest.approx(0.012, abs=1e-12)
        assert second == pytest.approx(analysis[2], abs=1e-12)


# ---------------------------------------------------------------------------
# Event-log audits
# ---------------------------------------------------------------------------

class TestEventLogAudits:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_exclusion_holds_everywhere(self, seed):
        trace = []
        topo, _, _, wl, m = contended_run(seed=seed, rate=8.0,
                                          event_log=trace)
        assert m.packets_generated > 0
        replay_active_sets(sc.format_events(trace, wl), topo.adjacency)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_priority_leapfrogging(self, seed):
        trace = []
        topo, routes, _, wl, _ = contended_run(seed=seed, rate=8.0,
                                               event_log=trace)
        violations = audit_priority_order(sc.format_events(trace, wl),
                                          topo.adjacency, routes.next_hop)
        assert violations == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_grantable_head_left_idle(self, seed):
        trace = []
        topo, routes, _, wl, _ = contended_run(seed=seed, rate=8.0,
                                               event_log=trace)
        assert audit_work_conserving(sc.format_events(trace, wl),
                                     topo.adjacency, routes.next_hop) == []

    def test_work_conservation_audit_flags_an_idle_head(self):
        # node 0 of a 3-chain queues a packet at 0.0 and is granted only at
        # 0.5, with nothing in the air between
        topo, routes = chain_network(3)
        log = ["0.0 arrival 0 0 1.0", "0.5 grant 0->1 0", "0.6 complete 0->1 0",
               "0.6 enqueue 1 0"]
        assert audit_work_conserving(log, topo.adjacency, routes.next_hop) \
            == [("0.0", 0), ("0.6", 1)]

    @settings(max_examples=40, deadline=None)
    @given(small_networks(), st.integers(0, 2**16))
    def test_heavy_load_audits(self, network, seed):
        # 50 ms hops at 8 packets/s per node keep every contention set busy
        topo, routes = network
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=8.0,
                           duration=3.0, seed=seed)
        wl = sc.generate_workload(topo, routes, cfg)
        trace = []
        sc.run_simulation(topo, routes, wl, cfg, event_log=trace)
        log = list(sc.format_events(trace, wl))
        replay_active_sets(log, topo.adjacency)
        assert audit_priority_order(log, topo.adjacency, routes.next_hop) == []
        assert audit_work_conserving(log, topo.adjacency,
                                     routes.next_hop) == []


# ---------------------------------------------------------------------------
# Cross-module schedulability sufficiency
# ---------------------------------------------------------------------------

class TestSchedulabilitySufficiency:
    def test_feasible_instances_never_miss(self):
        rng = np.random.default_rng(2024)
        feasible = 0
        for trial in range(100):
            rows, cols = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4)])
            radio = float(rng.choice([15.0, 20.0]))
            topo, routes = tp.make_network(int(rows), int(cols), spacing=10.0,
                                           jitter=0.2, seed=trial,
                                           radio_range=radio, sink_count=1)
            cfg = sc.SimConfig(packet_size=12_500.0,
                               arrival_rate=float(rng.uniform(0.02, 0.8)),
                               duration=10.0, seed=trial)
            wl = sc.generate_workload(topo, routes, cfg)
            if not wl.packets or not instance_is_dm_feasible(topo, routes, wl,
                                                             cfg.tx_time):
                continue
            feasible += 1
            m = sc.run_simulation(topo, routes, wl, cfg)
            assert m.missed == 0, f"feasible instance {trial} missed deadlines"
        # the property must actually be exercised
        assert feasible >= 20, f"only {feasible} feasible instances generated"
