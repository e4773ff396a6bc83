"""Simulator tests: hand-traced event sequences, direct arbitration checks,
event-log audits of the exclusion and priority rules, and the cross-module
schedulability property (analytically feasible instances never miss)."""

import copy
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcap import experiments as ex
from rtcap import simcore as sc
from rtcap import topology as tp

from helpers import (
    EVAL_GRID,
    audit_priority_order,
    chain_network,
    contended_run,
    instance_is_dm_feasible,
    measured_dm_bound,
    mk_packet,
    mk_workload,
    replay_active_sets,
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

    def test_sorted_with_sequential_ids(self):
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=3.0, duration=5.0)
        wl = sc.generate_workload(topo, routes, cfg)
        times = [p.arrival_time for p in wl.packets]
        assert times == sorted(times)
        assert [p.id for p in wl.packets] == list(range(len(wl.packets)))

    def test_route_fields(self):
        # a packet holds only its arrival; the route, size and per-hop time
        # stay with the route table and the config, its position with the run
        topo, routes = self._network()
        cfg = sc.SimConfig(arrival_rate=1.0, duration=5.0)
        wl = sc.generate_workload(topo, routes, cfg)
        assert sc.Packet._fields == (
            "id", "origin", "arrival_time", "relative_deadline", "tie_key")
        assert wl.packets
        for p in wl.packets:
            assert p.origin in routes.next_hop and routes.hop_count[p.origin] > 0
        assert cfg.tx_time == pytest.approx(cfg.packet_size / cfg.bandwidth)

    def test_packet_immutable(self):
        p = mk_packet(0, 0, 0.0, 1.0)
        for field in ("id", "origin", "arrival_time", "relative_deadline",
                      "tie_key"):
            with pytest.raises(AttributeError):
                setattr(p, field, 1)
        assert p == mk_packet(0, 0, 0.0, 1.0)

    def test_hand_built_packets_sorted_stably(self):
        early = mk_packet(1, 1, at=0.5, deadline=1.0)
        first = mk_packet(2, 2, at=1.0, deadline=1.0)
        second = mk_packet(0, 0, at=1.0, deadline=1.0)
        wl = mk_workload([first, second, early])
        assert wl.packets == (early, first, second)

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

    def test_overload_flag(self):
        # tx_time = 0.004 s, so 300 pkts/s/node claims > 100% of the channel
        assert sc.SimConfig(arrival_rate=300.0, duration=1.0).overloaded
        assert not sc.SimConfig(arrival_rate=1.0, duration=1.0).overloaded


class TestMalformedInputs:
    """Hand-built arrivals and origins the run cannot serve are refused
    with a `ValueError` naming the field or node and the first offending
    packet, before any run starts."""

    @pytest.mark.parametrize("field, packet", [
        ("arrival_time", mk_packet(7, 0, at=float("nan"), deadline=1.0)),
        ("arrival_time", mk_packet(7, 0, at=float("inf"), deadline=1.0)),
        ("relative_deadline", mk_packet(7, 0, at=0.5, deadline=float("nan"))),
        ("relative_deadline", mk_packet(7, 0, at=0.5, deadline=-1.0)),
        ("relative_deadline", mk_packet(7, 0, at=0.5, deadline=0.0)),
        ("tie_key", mk_packet(7, 0, at=0.5, deadline=1.0, tie=float("nan"))),
    ])
    def test_bad_float_column_refused(self, field, packet):
        good = mk_packet(3, 1, at=0.0, deadline=1.0)
        with pytest.raises(ValueError, match=rf"{field} .*packet 7\b"):
            mk_workload([good, packet])

    def test_repeated_id_refused(self):
        # the first packet to repeat an earlier id, in workload order
        packets = [mk_packet(4, 0, 0.0, 1.0), mk_packet(5, 0, 0.1, 1.0),
                   mk_packet(9, 1, 0.2, 1.0), mk_packet(5, 1, 0.3, 1.0),
                   mk_packet(4, 1, 0.4, 1.0)]
        with pytest.raises(ValueError, match=r"id must be unique.*packet 5\b"):
            mk_workload(packets)

    def test_arrivals_out_of_time_order_refused(self):
        # a Workload sorts packets given by hand but takes Arrivals as they
        # are, so a run would read the later-listed, earlier arrival after
        # events that come after it
        with pytest.raises(ValueError,
                           match=r"arrival_time must not decrease.*packet 6\b"):
            sc.Arrivals([5, 6, 7], [0, 1, 0], [1.0, 0.5, 2.0], [1.0] * 3,
                        [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("origin, what", [(2, "a sink"),
                                              (7, "not a node")])
    def test_origin_outside_the_route_table_refused(self, origin, what):
        topo, routes = chain_network(3)
        wl = mk_workload([mk_packet(3, 0, 0.0, 1.0),
                          mk_packet(8, origin, 0.1, 1.0)])
        with pytest.raises(ValueError,
                           match=rf"packet 8 .*node {origin}, which is {what}"):
            sc.run_simulation(topo, routes, wl, sc.SimConfig(duration=1.0))


@pytest.fixture(scope="module")
def probe_network():
    """Criterion 6's network and its seed-0 probe config at 1.25x the
    measured DM bound, stopped at the first miss."""
    topo, routes = tp.make_network(seed=0, **EVAL_GRID)
    rate = ex.probe_rate(1.25 * measured_dm_bound(topo, routes), routes, 1000.0)
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
        expected = tuple(sc.Packet(pid, origin, t, d, tie)
                         for pid, (t, origin, d, tie) in enumerate(sorted(raw)))
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
            wl = mk_workload([mk_packet(4, 1, 0.5, 1.0, 0.3),
                              mk_packet(9, 2, 0.2, 2.0, 0.1),
                              mk_packet(7, 1, 0.9, 0.5, 0.2)])
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
        if built == "by hand":
            assert [p.id for p in listed] == [9, 4, 7]


# ---------------------------------------------------------------------------
# Medium arbitration
# ---------------------------------------------------------------------------

def dm(packet, sender, receiver):
    """A MAC candidate keyed in deadline-monotonic order, as the run queues
    it."""
    return (sc.priority_key(packet), packet, sender, receiver)


class TestAdmissibleTransmissions:
    def medium(self, n, active=()):
        topo, _ = chain_network(n)
        medium = sc.Medium(topo.adjacency)
        for tx in active:
            medium.occupy(tx.sender, tx.receiver)
        return medium

    def test_single_candidate_granted(self):
        medium = self.medium(3)
        pkt = mk_packet(0, 0, 0.0, 1.0)
        grants = sc.admissible_transmissions([dm(pkt, 0, 1)], medium)
        assert grants == [(pkt, 0, 1)]

    def test_sender_near_active_receiver_blocked(self):
        medium = self.medium(4, [sc.ActiveTransmission(0, 1, 99)])
        pkt = mk_packet(0, 2, 0.0, 1.0)
        assert sc.admissible_transmissions([dm(pkt, 2, 3)], medium) == []

    def test_receiver_near_active_sender_blocked(self):
        medium = self.medium(4, [sc.ActiveTransmission(1, 0, 99)])
        pkt = mk_packet(0, 3, 0.0, 1.0)
        # receiver 2 is inside sender 1's range
        assert sc.admissible_transmissions([dm(pkt, 3, 2)], medium) == []

    def test_disjoint_neighborhoods_both_granted(self):
        medium = self.medium(6)
        p1 = mk_packet(0, 0, 0.0, 1.0)
        p2 = mk_packet(1, 4, 0.0, 1.0)
        grants = sc.admissible_transmissions([dm(p1, 0, 1), dm(p2, 4, 5)],
                                             medium)
        assert len(grants) == 2

    def test_priority_wins_shared_receiver(self):
        medium = self.medium(4)
        urgent = mk_packet(0, 3, 0.0, 0.5)
        lax = mk_packet(1, 1, 0.0, 2.0)
        grants = sc.admissible_transmissions([dm(lax, 1, 2), dm(urgent, 3, 2)],
                                             medium)
        assert [g[0].id for g in grants] == [0]

    def test_tie_breaks_by_key(self):
        medium = self.medium(4)
        a = mk_packet(5, 1, 0.0, 1.0, tie=0.9)
        b = mk_packet(9, 3, 0.0, 1.0, tie=0.1)
        grants = sc.admissible_transmissions([dm(a, 1, 2), dm(b, 3, 2)], medium)
        assert [g[0].id for g in grants] == [9]

    def test_grant_follows_the_given_keys(self):
        # keys by absolute deadline, as EDF gives them, invert DM's order:
        # the lax packet arrived first and is due first
        medium = self.medium(4)
        lax = mk_packet(0, 1, at=0.0, deadline=2.0)
        urgent = mk_packet(1, 3, at=1.8, deadline=0.5)
        assert lax.absolute_deadline < urgent.absolute_deadline
        assert sc.priority_key(urgent) < sc.priority_key(lax)

        def edf(packet, sender, receiver):
            key = (packet.absolute_deadline, packet.tie_key, packet.id)
            return (key, packet, sender, receiver)

        grants = sc.admissible_transmissions(
            [edf(urgent, 3, 2), edf(lax, 1, 2)], medium)
        assert grants == [(lax, 1, 2)]

    def test_busy_endpoint_blocked(self):
        medium = self.medium(6, [sc.ActiveTransmission(4, 5, 99)])
        pkt = mk_packet(0, 4, 0.0, 1.0)
        assert sc.admissible_transmissions([dm(pkt, 4, 3)], medium) == []


class TestMedium:
    @staticmethod
    def rebuilt(active):
        """Busy endpoints, senders and receivers recomputed from the active
        transmissions alone."""
        busy = {v for tx in active for v in (tx.sender, tx.receiver)}
        return (busy, {tx.sender for tx in active},
                {tx.receiver for tx in active})

    @pytest.mark.parametrize("seed", range(5))
    def test_random_occupy_release_matches_rebuild(self, seed):
        topo, routes = tp.make_network(6, 6, spacing=10.0, jitter=0.2,
                                       seed=seed, radio_range=15.0,
                                       sink_count=1)
        adjacency = topo.adjacency
        rng = np.random.default_rng(seed)
        medium = sc.Medium(adjacency)
        active = []
        for step in range(400):
            if active and rng.random() < 0.45:
                tx = active.pop(int(rng.integers(len(active))))
                medium.release(tx.sender, tx.receiver)
            else:
                s = int(rng.choice(sorted(routes.next_hop)))
                r = routes.next_hop[s]
                pkt = mk_packet(step, s, 0.0, 1.0)
                if not sc.admissible_transmissions([dm(pkt, s, r)], medium):
                    continue
                air = {v: tx for tx in active for v in (tx.sender, tx.receiver)}
                sc._verify_exclusion(s, r, air, adjacency)
                active.append(sc.ActiveTransmission(s, r, step))
            assert (medium.busy, medium.senders, medium.receivers) \
                == self.rebuilt(active)
        for tx in active:
            medium.release(tx.sender, tx.receiver)
        assert medium.is_idle()

    @pytest.mark.parametrize("seed", range(3))
    def test_verify_exclusion_matches_brute_force(self, seed):
        # every head-of-route pair against a random live set, checked against
        # a scan of all live transmissions
        topo, routes = tp.make_network(6, 6, spacing=10.0, jitter=0.2,
                                       seed=seed, radio_range=15.0,
                                       sink_count=1)
        adjacency = topo.adjacency
        rng = np.random.default_rng(seed)
        medium = sc.Medium(adjacency)
        active = []
        for step, s in enumerate(rng.permutation(sorted(routes.next_hop))[:8]):
            s, r = int(s), routes.next_hop[int(s)]
            pkt = mk_packet(step, s, 0.0, 1.0)
            if sc.admissible_transmissions([dm(pkt, s, r)], medium):
                active.append(sc.ActiveTransmission(s, r, step))
        air = {v: tx for tx in active for v in (tx.sender, tx.receiver)}
        for s, r in routes.next_hop.items():
            conflict = any({s, r} & {tx.sender, tx.receiver}
                           or s in adjacency[tx.receiver]
                           or r in adjacency[tx.sender] for tx in active)
            try:
                sc._verify_exclusion(s, r, air, adjacency)
                raised = False
            except sc.InvariantError:
                raised = True
            assert raised == conflict

    def test_run_must_leave_medium_idle(self, monkeypatch):
        # a release that forgets the sender leaves it in `senders`
        def leaky_release(medium, sender, receiver):
            medium.busy.discard(sender)
            medium.busy.discard(receiver)
            medium.receivers.discard(receiver)

        monkeypatch.setattr(sc.Medium, "release", leaky_release)
        with pytest.raises(sc.InvariantError, match="medium not idle"):
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
        for _, packet, s, r in sorted(candidates, key=lambda c: c[0]):
            if any({s, r} & {s0, r0} or s in adjacency[r0]
                   or r in adjacency[s0] for s0, r0 in on_air):
                continue
            on_air.append((s, r))
            granted.append((packet, s, r))
        return granted

    @settings(max_examples=300, deadline=None)
    @given(mac_cases())
    def test_grants_match_brute_force(self, case):
        adjacency, active, drawn = case
        candidates = [((rank, i), mk_packet(i, s, 0.0, 1.0), s, r)
                      for i, ((s, r), rank) in enumerate(drawn)]
        medium = sc.Medium(adjacency)
        for s, r in active:
            medium.occupy(s, r)
        assert sc.admissible_transmissions(candidates, medium) \
            == self.oracle(adjacency, active, candidates)

    @settings(max_examples=100, deadline=None)
    @given(small_networks())
    def test_link_reach_covers_every_head_it_can_unblock(self, network):
        topo, routes = network
        adjacency, next_hop = topo.adjacency, routes.next_hop
        reach = sc._release_reach(adjacency, next_hop)
        assert reach.keys() == next_hop.keys()
        for s, r in next_hop.items():
            ball = {s, r, *adjacency[s], *adjacency[r]}
            unblockable = {v for v, w in next_hop.items()
                           if v in ball or w in ball}
            assert unblockable <= reach[s]

    def test_run_reaches_the_mac_through_the_module(self, monkeypatch):
        # a tracer times the MAC by replacing this module attribute
        calls = []
        mac = sc.admissible_transmissions

        def counting(candidates, medium):
            calls.append(len(candidates))
            return mac(candidates, medium)

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
        wl = mk_workload([mk_packet(0, 0, at=1.0, deadline=1.0)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.delivered == 1 and m.missed == 0
        assert m.delays == (pytest.approx(0.4),)

    def test_two_hop_chain(self):
        topo, routes = chain_network(3)
        wl = mk_workload([mk_packet(0, 0, at=0.0, deadline=2.0)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.delivered == 1
        assert m.delays == (pytest.approx(0.8),)

    def test_dm_order_at_one_node(self):
        topo, routes = chain_network(2)
        wl = mk_workload([
            mk_packet(0, 0, at=0.0, deadline=2.0),
            mk_packet(1, 0, at=0.0, deadline=0.9),
        ])
        log = []
        m = sc.run_simulation(topo, routes, wl, self.CFG, event_log=log)
        grants = [line for line in log if " grant " in line]
        # the smaller-deadline packet goes first; the other waits one slot
        assert grants[0].endswith(" 1") and grants[1].endswith(" 0")
        assert m.delivered == 2
        assert sorted(m.delays) == [pytest.approx(0.4), pytest.approx(0.8)]

    def test_delivery_exactly_at_deadline_counts(self):
        topo, routes = chain_network(2)
        wl = mk_workload([mk_packet(0, 0, at=0.0, deadline=0.4)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.delivered == 1 and m.missed == 0

    def test_miss_and_first_miss_capacity(self):
        # relay chain 0 -> 1 -> 2(sink); packet from the relay is lowest
        # priority, the origin's packet expires mid-second-hop with one hop
        # already traversed
        topo, routes = chain_network(3)
        wl = mk_workload([
            mk_packet(0, 0, at=0.0, deadline=0.45),
            mk_packet(1, 1, at=0.0, deadline=5.0),
        ])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.missed == 1 and m.delivered == 1
        assert m.first_miss_time == pytest.approx(0.45)
        # at t=0.45 the expiring packet has traversed 1 hop (1000 bits / 0.45 s)
        # and the relay packet none
        assert m.capacity_consumption_at_first_miss == pytest.approx(1000 / 0.45)

    def test_first_miss_snapshot_counts_delivered_and_mid_route(self):
        # chain 0 -> 1 -> 2 -> 3(sink). Packet 0 is delivered at 0.4 but
        # claims its full route until its deadline at 5.0. Packet 1 is on
        # its second hop, 1 -> 2, from 0.9 to 1.3. Packet 2 waits at the
        # busy node 2 and expires at 1.2.
        topo, routes = chain_network(4)
        wl = mk_workload([
            mk_packet(0, 2, at=0.0, deadline=5.0),
            mk_packet(1, 0, at=0.5, deadline=4.0),
            mk_packet(2, 2, at=1.0, deadline=0.2),
        ])
        log = []
        m = sc.run_simulation(topo, routes, wl, self.CFG, event_log=log)
        assert [line.split(" ", 1)[1] for line in log if " miss " in line] == [
            "miss 2 2 dropped"]
        assert m.first_miss_time == pytest.approx(1.2)
        assert m.missed == 1 and m.delivered == 2
        # one hop over 5.0 s for packet 0, one hop over 4.0 s for packet 1,
        # none for packet 2
        assert m.capacity_consumption_at_first_miss == \
            pytest.approx(1000 / 5.0 + 1000 / 4.0)

    def test_reversed_workload_runs_as_sorted(self):
        topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=3,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=6.0, duration=8.0,
                           seed=3)
        packets = sc.generate_workload(topo, routes, cfg).packets
        runs = []
        for order in (packets, tuple(packets)[::-1]):
            log = []
            m = sc.run_simulation(topo, routes, mk_workload(order), cfg,
                                  event_log=log)
            runs.append((log, m))
        assert runs[0][1].missed > 0
        assert runs[1] == runs[0]

    def test_no_miss_leaves_capacity_none(self):
        topo, routes = chain_network(2)
        wl = mk_workload([mk_packet(0, 0, at=0.0, deadline=1.0)])
        m = sc.run_simulation(topo, routes, wl, self.CFG)
        assert m.capacity_consumption_at_first_miss is None
        assert m.first_miss_time is None

    def test_offered_demand(self):
        topo, routes = chain_network(3)
        wl = mk_workload([
            mk_packet(0, 0, at=0.0, deadline=1.0),
            mk_packet(1, 1, at=3.0, deadline=1.0),
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

class TestRunProperties:
    def test_determinism(self):
        _, _, _, a = contended_run(seed=11)
        _, _, _, b = contended_run(seed=11)
        assert a == b

    @pytest.mark.parametrize("drop", [True, False])
    def test_conservation(self, drop):
        _, _, _, m = contended_run(seed=7, drop_on_miss=drop)
        assert m.packets_generated > 0
        assert m.delivered + m.missed + m.in_flight_at_end == m.packets_generated
        assert m.in_flight_at_end == 0  # run drains completely
        assert m.miss_ratio == pytest.approx(m.missed / m.packets_generated)

    @pytest.mark.parametrize("drop", [True, False])
    def test_in_flight_matches_a_log_replay(self, drop):
        # a stopped run ends with arrivals unread and packets queued, in the
        # air and, when kept, missed; its log says which arrived and left
        topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=7,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=8.0, duration=8.0,
                           seed=7, drop_on_miss=drop, stop_at_first_miss=True)
        log = []
        m = sc.run_simulation(topo, routes, sc.generate_workload(topo, routes, cfg),
                              cfg, event_log=log)
        arrived, held, events = 0, set(), {"deliver": 0, "miss": 0}
        for line in log:
            _, kind, *fields = line.split()
            if kind == "arrival":
                arrived += 1
                held.add(int(fields[1]))
            elif kind in events:
                events[kind] += 1
                held.remove(int(fields[1]))
        assert m.first_miss_time is not None and held
        assert 0 < arrived < m.packets_generated
        assert (m.delivered, m.missed) == (events["deliver"], events["miss"])
        assert m.in_flight_at_end == m.packets_generated - arrived + len(held)
        assert m.delivered + m.missed + m.in_flight_at_end == m.packets_generated

    @pytest.mark.parametrize("drop", [True, False])
    def test_workload_not_written(self, drop):
        topo, routes = tp.make_network(3, 3, spacing=10.0, jitter=0.2, seed=7,
                                       radio_range=15.0, sink_count=1)
        cfg = sc.SimConfig(packet_size=12_500.0, arrival_rate=8.0, duration=8.0,
                           seed=7, drop_on_miss=drop)
        wl = sc.generate_workload(topo, routes, cfg)
        before = copy.deepcopy(wl)
        m = sc.run_simulation(topo, routes, wl, cfg)
        assert m.missed > 0
        assert wl == before

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
def relabelled_workloads(draw):
    """A small network and a hand-built workload on it with shuffled,
    non-contiguous distinct ids and distinct tie keys, so ids never break a
    priority tie."""
    topo, routes = draw(small_networks())
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n,
                        unique=True))
    origins = draw(st.lists(st.sampled_from(sorted(routes.next_hop)),
                            min_size=n, max_size=n))
    # arrivals on a 0.1 s grid and 0.4 s hops give same-instant events
    slots = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    deadlines = draw(st.lists(st.sampled_from([0.3, 0.8, 1.2, 2.0, 5.0]),
                              min_size=n, max_size=n))
    ties = draw(st.permutations(range(n)))
    packets = [mk_packet(pid, origin, 0.1 * slot, deadline, tie / n)
               for pid, origin, slot, deadline, tie
               in zip(ids, origins, slots, deadlines, ties)]
    return topo, routes, mk_workload(packets)


class TestPositionIndexedRun:
    """The run keeps per-packet state by workload position and computes
    each packet's priority key once, at its arrival."""

    @settings(max_examples=60, deadline=None)
    @given(relabelled_workloads(), st.booleans(), st.booleans())
    def test_ids_are_only_labels(self, case, drop, stop):
        topo, routes, wl = case
        cfg = sc.SimConfig(bandwidth=2500.0, duration=10.0, drop_on_miss=drop,
                           stop_at_first_miss=stop)
        positional = mk_workload([p._replace(id=i)
                                  for i, p in enumerate(wl.packets)])
        position_of = {p.id: i for i, p in enumerate(wl.packets)}
        logs = [], []
        runs = [sc.run_simulation(topo, routes, w, cfg, event_log=log)
                for w, log in zip((wl, positional), logs)]
        assert runs[0] == runs[1]

        def relabel(line):
            fields = line.split(" ")
            fields[3] = str(position_of[int(fields[3])])
            return " ".join(fields)

        assert [relabel(line) for line in logs[0]] == logs[1]

    def test_priority_key_once_per_arrival(self, monkeypatch):
        keyed = []
        key = sc.priority_key

        def counting(packet):
            keyed.append(packet.id)
            return key(packet)

        monkeypatch.setattr(sc, "priority_key", counting)
        log = []
        _, _, _, m = contended_run(seed=3, event_log=log)
        arrived = [int(line.split()[3]) for line in log if " arrival " in line]
        assert any(" enqueue " in line for line in log)  # packets relayed
        assert len(arrived) == m.packets_generated > 0
        assert sorted(keyed) == sorted(arrived)


# ---------------------------------------------------------------------------
# Event-log audits
# ---------------------------------------------------------------------------

class TestEventLogAudits:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_exclusion_holds_everywhere(self, seed):
        log = []
        topo, _, _, m = contended_run(seed=seed, rate=8.0, event_log=log)
        assert m.packets_generated > 0
        replay_active_sets(log, topo.adjacency)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("drop", [True, False])
    def test_no_priority_leapfrogging(self, seed, drop):
        log = []
        topo, routes, _, _ = contended_run(seed=seed, rate=8.0,
                                           drop_on_miss=drop, event_log=log)
        violations = audit_priority_order(log, topo.adjacency, routes.next_hop)
        assert violations == []


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
