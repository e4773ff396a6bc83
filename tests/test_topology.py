"""Tests for grid generation, disk adjacency, sink placement, and routing."""

import dataclasses
import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtcap import topology as tp


def bfs_distance(adjacency, sources):
    """Independent breadth-first distances used as the routing oracle."""
    dist = {s: 0 for s in sources}
    q = deque(sources)
    while q:
        v = q.popleft()
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def pair_scan(nodes, radio_range):
    """Disk adjacency by testing every ordered pair in pure Python, boundary
    inclusive, each node's neighbours ascending: the oracle for
    `compute_adjacency`."""
    reach = radio_range * radio_range
    points = np.asarray(nodes, dtype=float).reshape(-1, 2).tolist()
    return {v: tuple(w for w, (bx, by) in enumerate(points) if w != v and
                     (ax - bx) * (ax - bx) + (ay - by) * (ay - by) <= reach)
            for v, (ax, ay) in enumerate(points)}


def line_topology(n, spacing=10.0, radio_range=10.0):
    return tp.generate_perturbed_grid(1, n, spacing, jitter=0.0, seed=0,
                                      radio_range=radio_range)


class TestPerturbedGrid:
    def test_zero_jitter_exact_positions(self):
        topo = tp.generate_perturbed_grid(2, 2, 10.0, 0.0, seed=1, radio_range=10.0)
        got = {(x, y) for x, y in topo.nodes.tolist()}
        assert got == {(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)}

    def test_same_seed_identical(self):
        a = tp.generate_perturbed_grid(4, 5, 7.5, 0.3, seed=42, radio_range=10.0)
        b = tp.generate_perturbed_grid(4, 5, 7.5, 0.3, seed=42, radio_range=10.0)
        assert a.nodes.tolist() == b.nodes.tolist()

    def test_different_seed_differs(self):
        a = tp.generate_perturbed_grid(4, 5, 7.5, 0.3, seed=1, radio_range=10.0)
        b = tp.generate_perturbed_grid(4, 5, 7.5, 0.3, seed=2, radio_range=10.0)
        assert a.nodes.tolist() != b.nodes.tolist()

    def test_single_node_at_origin(self):
        topo = tp.generate_perturbed_grid(1, 1, 10.0, 0.0, seed=0, radio_range=10.0)
        assert topo.node_count == 1
        assert tuple(topo.nodes[0]) == (0.0, 0.0)

    def test_jitter_bounded(self):
        topo = tp.generate_perturbed_grid(10, 10, 10.0, 0.25, seed=3, radio_range=10.0)
        for v, (x, y) in enumerate(topo.nodes):
            r, c = divmod(v, 10)
            assert abs(x - c * 10.0) <= 2.5
            assert abs(y - r * 10.0) <= 2.5

    def test_excessive_jitter_rejected(self):
        with pytest.raises(ValueError):
            tp.generate_perturbed_grid(2, 2, 10.0, 0.5, seed=0, radio_range=10.0)

    @pytest.mark.parametrize("spacing,jitter", [
        (math.inf, 0.25), (1e308, 0.0), (math.nan, 0.0)],
        ids=["inf", "extent-overflows", "nan"])
    def test_non_finite_spacing_refused(self, spacing, jitter, monkeypatch):
        # inf failed inside numpy with OverflowError, and 1e308 overflowed
        # the positions and was refused as a non-finite node; the refusal
        # now names the spacing and comes before any numpy call
        monkeypatch.setattr(tp, "np", None)
        with pytest.raises(ValueError, match="spacing"):
            tp.generate_perturbed_grid(2, 3, spacing, jitter, radio_range=10.0)

    @pytest.mark.parametrize("rows,cols,field", [
        (2.5, 3, "rows"), (2, 3.0, "cols"), ("2", 3, "rows")])
    def test_non_integer_size_refused(self, rows, cols, field):
        # a float size failed inside numpy with a bare TypeError, which no
        # sweep flags; the refusal names the field
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tp.generate_perturbed_grid(rows, cols, 10.0, 0.0, radio_range=15.0)
        assert tp.generate_perturbed_grid(
            np.int64(2), 3, 10.0, 0.0, radio_range=15.0).node_count == 6


class TestAdjacency:
    def test_boundary_distance_counts(self):
        adj = line_topology(2).adjacency
        assert adj[0] == (1,) and adj[1] == (0,)

    def test_just_out_of_range(self):
        adj = line_topology(2, radio_range=9.9).adjacency
        assert adj[0] == () and adj[1] == ()

    def test_square_excludes_diagonal(self):
        adj = tp.generate_perturbed_grid(2, 2, 10.0, 0.0, seed=0,
                                         radio_range=10.0).adjacency
        # diagonal distance is 14.14; each corner sees only its two edge
        # neighbors
        for node_id, nbrs in adj.items():
            assert len(nbrs) == 2
            assert (3 - node_id) not in nbrs

    def test_symmetry(self):
        adj = tp.generate_perturbed_grid(8, 9, 10.0, 0.25, seed=5,
                                         radio_range=14.0).adjacency
        for a, nbrs in adj.items():
            assert a not in nbrs
            for b in nbrs:
                assert a in adj[b]

    @pytest.mark.parametrize("jitter,radio_range", [
        (0.0, 10.0), (0.25, 9.0), (0.25, 14.5), (0.4, 20.5), (0.1, 31.0)],
        ids=["grid-at-range", "sparse", "eight", "criterion6", "wide"])
    def test_matches_pair_scan(self, jitter, radio_range):
        # every ordered pair tested in pure Python, boundary inclusive; at
        # jitter 0 and range = spacing the grid neighbours sit exactly on it
        topo = tp.generate_perturbed_grid(7, 9, 10.0, jitter, seed=3,
                                          radio_range=radio_range)
        assert list(topo.adjacency) == list(range(topo.node_count))
        assert topo.adjacency == pair_scan(topo.nodes, radio_range)
        if jitter == 0.0:
            assert topo.adjacency[10] == (1, 9, 11, 19)

    def test_empty_topology(self):
        topo = tp.Topology((), 10.0)
        assert topo.positions().shape == (0, 2)
        assert topo.adjacency == {}

    def test_single_node(self):
        assert tp.Topology([(-3.0, 7.5)], 10.0).adjacency == {0: ()}

    @pytest.mark.parametrize("nodes,shape", [
        ([(0.0, 0.0, 0.0)], r"\(1, 3\)"), ([1.0, 2.0], r"\(2,\)"),
        ([[(0.0, 0.0)]], r"\(1, 1, 2\)")], ids=["three-columns", "flat", "nested"])
    def test_positions_not_n_by_2_refused(self, nodes, shape):
        with pytest.raises(ValueError, match=shape):
            tp.Topology(nodes, 10.0)

    def test_far_pair_does_not_overflow(self):
        # the pair sits in adjacent cells, and its squared distance, about
        # 7e308, overflows to inf, which the suite's filter makes an error
        topo = tp.Topology([(0.0, 0.0), (1.9e154, 1.9e154)], 1e154)
        assert topo.adjacency == {0: (), 1: ()}

    def test_sparse_cloud_spanning_1e12_ranges(self):
        # cell indices reach about 5e11 on each axis, so a key of column
        # times row count would pass int64; every node has a partner 0.7
        # ranges away, so an empty or shuffled answer cannot pass
        rng = np.random.default_rng(12)
        centres = rng.uniform(-5e11, 5e11, size=(100, 2))
        angles = rng.uniform(0.0, 2 * np.pi, size=100)
        partners = centres + 0.7 * np.column_stack((np.cos(angles), np.sin(angles)))
        nodes = np.vstack((centres, partners))
        adjacency = tp.Topology(nodes, 1.0).adjacency
        assert adjacency == pair_scan(nodes, 1.0)
        assert all(v + 100 in adjacency[v] for v in range(100))

    def test_scale_matches_kd_tree(self):
        from scipy.spatial import cKDTree
        topo = tp.generate_perturbed_grid(100, 200, 10.0, 0.25, seed=0,
                                          radio_range=20.5)
        adjacency = topo.adjacency
        edges = {(v, w) for v, nbrs in adjacency.items() for w in nbrs if v < w}
        assert edges == cKDTree(topo.positions()).query_pairs(20.5)
        assert all(v in adjacency[w] for v, nbrs in adjacency.items() for w in nbrs)

    @pytest.mark.parametrize("nodes,radio_range,message", [
        ([(0.0, 0.0), (5.0, 0.0), (math.nan, 1.0)], 10.0, "node 2"),
        ([(0.0, 0.0), (5.0, math.inf)], 10.0, "node 1"),
        ([(-math.inf, 0.0), (5.0, math.nan)], 10.0, "node 0"),
        ([(0.0, 0.0), (1e300, 0.0)], math.inf, "radio_range"),
        ([(0.0, 0.0), (1e300, 0.0)], 1e200, "radio_range"),
        ([(0.0, 0.0)], math.nan, "radio_range")],
        ids=["nan-x", "inf-y", "first-bad-node", "inf-range", "range-square-overflows",
             "nan-range"])
    def test_non_finite_geometry_refused(self, nodes, radio_range, message):
        # a non-finite node used to come out isolated, and an infinite
        # range made nodes 1e300 apart neighbours
        with pytest.raises(ValueError, match=message):
            tp.Topology(nodes, radio_range)

    def test_load_passes_non_finite_node_on(self, tmp_path):
        topo = line_topology(3)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, [2])
        path.write_text(path.read_text().replace("\n1 10.0 0.0 0", "\n1 nan 0.0 0"))
        with pytest.raises(ValueError, match="node 1"):
            tp.load_topology(path)

    def test_one_int_object_per_node(self):
        # adjacency sets and route entries share the adjacency's keys, so
        # the simulator's dict and set lookups hit by identity
        topo, routes = tp.make_network(20, 20, radio_range=15.0, sink_count=4)
        ids = list(topo.adjacency)
        assert all(w is ids[w] for nbrs in topo.adjacency.values() for w in nbrs)
        assert all(v is ids[v] and w is ids[w] for v, w in routes.next_hop.items())

    def test_contention_sets_add_self(self):
        topo = tp.generate_perturbed_grid(2, 2, 10.0, 0.0, seed=0, radio_range=10.0)
        cont = tp.contention_sets(topo)
        for node_id, members in cont.items():
            assert node_id in members
            assert len(members) == 3

    def test_compute_adjacency_writes_nothing(self):
        topo, _ = tp.make_network(4, 4, radio_range=15.0)
        before = dict(topo.adjacency)
        assert tp.compute_adjacency(topo) == before
        narrower = tp.Topology(topo.nodes, 9.0).adjacency
        assert narrower != topo.adjacency
        assert topo.radio_range == 15.0
        assert topo.adjacency == before
        with pytest.raises(TypeError):
            narrower[0] = ()


@st.composite
def point_clouds(draw):
    """A radio range and up to 45 points around an origin, which may be
    negative: points on multiples of the range (cell edges, and pairs
    exactly one range apart across an edge), points spread from a
    thousandth of a range (the range dwarfs the cloud) to fifty ranges
    either side, points huddled inside one range, and repeats of earlier
    points."""
    radio_range = draw(st.sampled_from([1.0, 0.5, 2.5, 20.5]) | st.floats(1e-3, 1e3))
    origin = draw(st.sampled_from([0.0, -7.0, 1e6]) | st.floats(-1e4, 1e4)) * radio_range
    spread = draw(st.sampled_from([1e-3, 0.4, 3.0, 50.0])) * radio_range

    def coordinate(strategy):
        return strategy.map(lambda c: origin + c)

    on_edges = st.integers(-6, 6).map(lambda k: k * radio_range)
    spread_out = st.floats(-spread, spread)
    huddled = st.floats(0.0, 0.9 * radio_range)
    point = (st.tuples(coordinate(on_edges), coordinate(on_edges))
             | st.tuples(coordinate(spread_out), coordinate(spread_out))
             | st.tuples(coordinate(huddled), coordinate(huddled))
             | st.tuples(coordinate(on_edges), coordinate(spread_out)))
    points = draw(st.lists(point, max_size=40))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=5))
    return radio_range, points


class TestAdjacencyProperties:
    @settings(max_examples=300, deadline=None)
    @given(point_clouds())
    @example((1.0, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (-1.0, -1.0),
                    (-1.0, 0.0), (1.0, 0.0)]))                 # one range across edges
    @example((10.0, [(0.5, 0.5), (9.0, 9.0), (3.0, 7.0), (3.0, 7.0)]))  # one cell
    @example((1e3, [(-0.5, 0.25), (0.75, -1.0), (0.0, 0.0)]))  # range dwarfs the cloud
    @example((2.5, [(-5.0, -2.5), (-2.5, -2.5), (-7.5, 0.0), (-5.0, 0.0)]))  # negatives
    def test_matches_pair_scan(self, cloud):
        radio_range, points = cloud
        adjacency = tp.Topology(points, radio_range).adjacency
        assert list(adjacency) == list(range(len(points)))
        assert adjacency == pair_scan(points, radio_range)
        assert all(v in adjacency[w] for v, nbrs in adjacency.items() for w in nbrs)

    @settings(max_examples=100, deadline=None)
    @given(point_clouds())
    def test_tuples_ascending_and_symmetric(self, cloud):
        radio_range, points = cloud
        adjacency = tp.Topology(points, radio_range).adjacency
        for v, nbrs in adjacency.items():
            assert type(nbrs) is tuple
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
            assert all(v in adjacency[w] for w in nbrs)


class TestSinkPlacement:
    def test_all_nodes(self):
        assert tp.place_sinks(3, 3, 9) == list(range(9))

    def test_center_of_odd_square(self):
        assert tp.place_sinks(5, 5, 1) == [12]

    def test_quadrant_centers(self):
        sinks = tp.place_sinks(20, 20, 4)
        assert sinks == [5 * 20 + 5, 5 * 20 + 15, 15 * 20 + 5, 15 * 20 + 15]

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            tp.place_sinks(2, 2, 5)

    @pytest.mark.parametrize("count", [0, 2.0, 1.5],
                             ids=["none", "float", "fraction"])
    def test_count_refused_by_name(self, count):
        with pytest.raises(ValueError, match=rf"sink_count must be an integer "
                                             rf"in \[1, 4\], got {count!r}"):
            tp.place_sinks(2, 2, count)

    @pytest.mark.parametrize("rows,cols,field", [
        (0, 3, "rows"), (2, -1, "cols"), (2.5, 3, "rows"), (2, "3", "cols")])
    def test_shape_refused_like_the_grid(self, rows, cols, field):
        # one shape check serves both: the grid and its sinks refuse the
        # same shapes with the same message
        message = f"{field} must be an integer >= 1"
        with pytest.raises(ValueError, match=message):
            tp.place_sinks(rows, cols, 1)
        with pytest.raises(ValueError, match=message):
            tp.generate_perturbed_grid(rows, cols, 10.0, 0.0, radio_range=15.0)

    def test_writes_nothing(self):
        topo, routes = tp.make_network(5, 5, spacing=10.0, jitter=0.25, seed=1,
                                       radio_range=12.0, sink_count=1)
        nodes = topo.nodes.copy()
        tp.place_sinks(5, 5, 4)
        assert np.array_equal(topo.nodes, nodes)
        assert routes.sinks == (12,)

    def test_prime_count_falls_back_to_even_spacing(self):
        sinks = tp.place_sinks(3, 3, 7)
        assert len(sinks) == 7 and sinks == sorted(set(sinks))

    def test_make_network_places_by_the_shape(self):
        # the grid's seed moves the nodes, never the sinks
        for seed in (0, 5):
            _, routes = tp.make_network(6, 9, seed=seed, radio_range=20.5,
                                        sink_count=6)
            assert list(routes.sinks) == tp.place_sinks(6, 9, 6)


class TestRoutes:
    def test_line_routes(self):
        topo = line_topology(3)
        routes = tp.build_routes(topo, [2])
        assert routes.hop_count == {0: 2, 1: 1, 2: 0}
        assert routes.next_hop == {0: 1, 1: 2}
        assert routes.assigned_sink == {0: 2, 1: 2, 2: 2}
        assert routes.route(0) == [0, 1, 2]

    def test_tie_breaks_to_smaller_sink(self):
        # node 1 sits between sinks 0 and 2
        topo = line_topology(3)
        routes = tp.build_routes(topo, [0, 2])
        assert routes.next_hop[1] == 0
        assert routes.assigned_sink[1] == 0

    def test_sink_has_no_next_hop(self):
        topo = line_topology(2)
        routes = tp.build_routes(topo, [1])
        assert 1 not in routes.next_hop
        assert routes.hop_count[1] == 0

    def test_disconnected_raises_with_ids(self):
        line = line_topology(4)
        # a copy of the line with node 3 moved away, so it is isolated
        nodes = line.nodes.copy()
        nodes[3, 0] = 1000.0
        topo = tp.Topology(nodes=nodes, radio_range=10.0)
        with pytest.raises(tp.RoutingError) as exc:
            tp.build_routes(topo, [0])
        assert exc.value.unreachable == [3]

    def test_sinks_checked(self):
        topo = line_topology(3)
        with pytest.raises(ValueError):
            tp.build_routes(topo, [])
        with pytest.raises(ValueError):
            tp.build_routes(topo, [3])
        assert tp.build_routes(topo, [2, 0, 2]).sinks == (0, 2)

    def test_hop_counts_match_bfs_oracle(self):
        topo, routes = tp.make_network(7, 9, spacing=10.0, jitter=0.2, seed=21,
                                       radio_range=15.0, sink_count=3)
        oracle = bfs_distance(topo.adjacency, routes.sinks)
        assert routes.hop_count == oracle

    def test_route_progress(self):
        topo, routes = tp.make_network(6, 6, spacing=10.0, jitter=0.25, seed=2,
                                       radio_range=14.0, sink_count=2)
        hop_count = routes.hop_count
        for v, nxt in routes.next_hop.items():
            assert hop_count[nxt] == hop_count[v] - 1
            assert nxt in topo.adjacency[v]
            # the smallest-id neighbour one hop closer
            assert nxt == min(w for w in topo.adjacency[v]
                              if hop_count[w] == hop_count[v] - 1)

    def test_following_next_hop_reaches_assigned_sink(self):
        topo, routes = tp.make_network(5, 8, spacing=10.0, jitter=0.2, seed=4,
                                       radio_range=12.0, sink_count=2)
        for v in range(topo.node_count):
            path = routes.route(v)
            assert len(path) - 1 == routes.hop_count[v]
            assert path[-1] == routes.assigned_sink[v]
            assert path[-1] in routes.sinks


class TestFrozen:
    def test_node(self):
        node = tp.generate_perturbed_grid(1, 2, 10.0, 0.0, seed=0,
                                          radio_range=10.0).nodes[1]
        with pytest.raises(ValueError, match="read-only"):
            node[0] = 0.0

    def test_route_table(self):
        _, routes = tp.make_network(3, 3, radio_range=15.0, sink_count=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            routes.sinks = [0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            routes.next_hop = {}

    def test_route_table_contents(self):
        # runs sharing a route table cannot change it under each other
        _, routes = tp.make_network(3, 3, radio_range=15.0, sink_count=1)
        v, w = next(iter(routes.next_hop.items()))
        for mapping in (routes.next_hop, routes.hop_count, routes.assigned_sink):
            with pytest.raises(TypeError):
                mapping[v] = w
        with pytest.raises(AttributeError):
            routes.sinks.append(v)
        assert routes.next_hop[v] == w

    def test_topology(self):
        topo, _ = tp.make_network(3, 3, radio_range=15.0, sink_count=1)
        for name, value in (("adjacency", {}), ("radio_range", 50.0),
                            ("nodes", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(topo, name, value)
        # the adjacency comes from the nodes and the range, never from outside
        with pytest.raises(TypeError):
            tp.Topology(topo.nodes, radio_range=50.0, adjacency={0: ()})

    def test_topology_adjacency_contents(self):
        topo, _ = tp.make_network(3, 3, radio_range=15.0, sink_count=1)
        with pytest.raises(TypeError):
            topo.adjacency[5] = ()
        with pytest.raises(TypeError):
            del topo.adjacency[5]
        assert topo.adjacency == tp.Topology(topo.nodes, 15.0).adjacency

    def test_topology_nodes(self):
        topo = tp.generate_perturbed_grid(1, 3, 10.0, 0.0, seed=0, radio_range=10.0)
        with pytest.raises(ValueError, match="read-only"):
            topo.nodes[0] = topo.nodes[1]
        assert topo.positions() is topo.nodes
        # the topology keeps its own copy: the caller's array stays writable,
        # and writing to it changes neither the positions nor the adjacency
        mine = np.array([[0, 0], [10, 0]])
        built = tp.Topology(mine, 10.0)
        mine[1, 0] = 50
        assert built.nodes.dtype == np.float64 and not built.nodes.flags.writeable
        assert built.nodes.tolist() == [[0.0, 0.0], [10.0, 0.0]]
        assert built.adjacency == {0: (1,), 1: (0,)}


class TestStats:
    def test_single_node(self):
        topo = tp.generate_perturbed_grid(1, 1, 10.0, 0.0, seed=0, radio_range=10.0)
        routes = tp.build_routes(topo, [0])
        stats = tp.topology_stats(topo, routes)
        assert stats == (1, 0, 1)

    def test_square(self):
        topo = tp.generate_perturbed_grid(2, 2, 10.0, 0.0, seed=0, radio_range=10.0)
        routes = tp.build_routes(topo, [0])
        stats = tp.topology_stats(topo, routes)
        assert stats.neighborhood_bound == 3
        assert stats.nodes_per_disk == 3

    def test_chain_max_hops(self):
        topo = line_topology(5)
        routes = tp.build_routes(topo, [4])
        assert tp.topology_stats(topo, routes).max_hops == 4


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        topo, routes = tp.make_network(4, 6, spacing=10.0, jitter=0.25, seed=11,
                                       radio_range=15.0, sink_count=2)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, routes.sinks)
        loaded, sinks = tp.load_topology(path)
        assert [(v, x, y, v in sinks) for v, (x, y) in enumerate(loaded.nodes.tolist())] == \
               [(v, x, y, v in routes.sinks) for v, (x, y) in enumerate(topo.nodes.tolist())]
        assert loaded.radio_range == topo.radio_range
        assert loaded.adjacency == topo.adjacency

    def test_load_returns_saved_sinks(self, tmp_path):
        topo = tp.generate_perturbed_grid(5, 5, 10.0, 0.25, seed=3,
                                          radio_range=20.5)
        routes = tp.build_routes(topo, [3, 11, 19])
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, routes.sinks)
        loaded, sinks = tp.load_topology(path)
        assert sinks == routes.sinks
        assert tp.build_routes(loaded, sinks) == routes

    @pytest.mark.parametrize("sinks", [[7], [-1], [1.5]],
                             ids=["past-end", "negative", "non-integer"])
    def test_sink_that_is_not_a_node_refused(self, tmp_path, sinks):
        # such ids were dropped, so the file loaded with no sinks at all
        topo = tp.generate_perturbed_grid(2, 2, 10.0, 0.0, radio_range=15.0)
        path = tmp_path / "topo.txt"
        with pytest.raises(ValueError, match="are not nodes of the topology"):
            tp.save_topology(topo, path, [1, *sinks])
        assert not path.exists()

    def test_header_records_parameters(self, tmp_path):
        # the radio range is the one parameter a loaded topology reads
        topo, routes = tp.make_network(3, 3, spacing=5.0, jitter=0.1, seed=7,
                                       radio_range=6.0, sink_count=1)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, routes.sinks)
        head = path.read_text().splitlines()[:4]
        assert head[:3] == ["# rtcap topology v1", "# radio_range=6.0",
                            "# columns: id x y is_sink"]
        assert head[3].startswith("0 ")

    def test_file_without_radio_range_rejected(self, tmp_path):
        topo, routes = tp.make_network(3, 3, radio_range=15.0, sink_count=1)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, routes.sinks)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines
                                if not line.startswith("# radio_range=")))
        with pytest.raises(ValueError, match="topo.txt"):
            tp.load_topology(path)

    @pytest.mark.parametrize("renumber", [
        lambda ids: [v + 100 for v in ids],
        lambda ids: [ids[1], ids[0]] + ids[2:]], ids=["shifted", "swapped"])
    def test_ids_out_of_order_rejected(self, tmp_path, renumber):
        # ids are positions: a file that numbers its nodes any other way
        # is refused, not loaded under ids no other code reads
        topo, routes = tp.make_network(5, 5, radio_range=15.0, sink_count=1)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, routes.sinks)
        lines = path.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        rows = [line.split(" ", 1) for line in lines if not line.startswith("#")]
        ids = renumber([int(ident) for ident, _ in rows])
        path.write_text("\n".join(header + [f"{v} {rest}" for v, (_, rest)
                                             in zip(ids, rows)]) + "\n")
        with pytest.raises(ValueError, match="topo.txt"):
            tp.load_topology(path)

    @pytest.mark.parametrize("bad", ["1 0.0", "1 0.0 0.0 0 7", "1 abc 0.0 0"],
                             ids=["2_fields", "5_fields", "not_a_number"])
    def test_malformed_line_named_by_file_and_line(self, tmp_path, bad):
        topo, routes = tp.make_network(3, 3, radio_range=15.0, sink_count=1)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, routes.sinks)
        lines = path.read_text().splitlines()
        number = next(i for i, line in enumerate(lines, 1)
                      if line.startswith("1 "))
        lines[number - 1] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as refused:
            tp.load_topology(path)
        assert str(refused.value) == \
            f"{path}:{number}: expected 'id x y is_sink', got {bad!r}"

    @pytest.mark.parametrize("bad,expected", [
        ("# radio_range=abc", "radio_range")],
        ids=["radio_range_not_a_number"])
    def test_malformed_header_named_by_file_and_line(self, tmp_path, bad,
                                                     expected):
        # it escaped as a bare ValueError naming no file
        topo, routes = tp.make_network(3, 3, radio_range=15.0, sink_count=1)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, routes.sinks)
        lines = path.read_text().splitlines()
        number = next(i for i, line in enumerate(lines, 1)
                      if line.startswith("# " + expected))
        lines[number - 1] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as refused:
            tp.load_topology(path)
        assert str(refused.value).startswith(f"{path}:{number}: expected '# {expected}")
        assert str(refused.value).endswith(f", got {bad!r}")

    @pytest.mark.parametrize("rows,cols,count,from_grid", [
        (5, 5, 1, True), (4, 7, 4, True), (3, 8, 2, False), (3, 8, 13, True)],
        ids=["center", "subgrid", "no-grid", "fallback"])
    def test_loaded_topology_routes_placed_sinks(self, tmp_path, rows, cols,
                                                 count, from_grid):
        # place_sinks chooses ids from the grid's shape and build_routes
        # takes ids: on a loaded topology, or one built from bare positions,
        # they must name the same nodes
        topo = tp.generate_perturbed_grid(rows, cols, 10.0, 0.25, seed=5,
                                          radio_range=20.5)
        if not from_grid:
            topo = tp.Topology(topo.nodes, topo.radio_range)
        path = tmp_path / "topo.txt"
        tp.save_topology(topo, path, ())
        loaded, _ = tp.load_topology(path)
        sinks = tp.place_sinks(rows, cols, count)
        assert tp.build_routes(loaded, sinks) == tp.build_routes(topo, sinks)

    @pytest.mark.parametrize("grid_line", [
        "# grid rows=4 cols=6 spacing=10.0 jitter=0.25 seed=11",
        "# grid rows=1",
        "# grid rows=1 cols=2",
        "# grid rows=1 cols=x spacing=10.0 jitter=0.25 seed=0",
        "# grid rows"],
        ids=["well-formed", "no_cols", "no_spacing", "cols_not_a_number",
             "no_equals"])
    def test_file_with_a_grid_line_loads_alike(self, tmp_path, grid_line):
        # files written before the grid record was retired carry a
        # `# grid` line after the version line; it is a comment now, read
        # by nothing, so even a malformed one loads
        topo, routes = tp.make_network(4, 6, spacing=10.0, jitter=0.25, seed=11,
                                       radio_range=15.0, sink_count=2)
        lines = ["# rtcap topology v1", grid_line,
                 f"# radio_range={topo.radio_range!r}",
                 "# columns: id x y is_sink",
                 *(f"{v} {x!r} {y!r} {int(v in routes.sinks)}"
                   for v, (x, y) in enumerate(topo.nodes.tolist()))]
        old, new = tmp_path / "old.txt", tmp_path / "new.txt"
        old.write_text("\n".join(lines) + "\n")
        tp.save_topology(topo, new, routes.sinks)
        assert new.read_text().splitlines() == lines[:1] + lines[2:]
        (a, a_sinks), (b, b_sinks) = tp.load_topology(old), tp.load_topology(new)
        assert a.nodes.tobytes() == b.nodes.tobytes() == topo.nodes.tobytes()
        assert a.radio_range == b.radio_range == topo.radio_range
        assert a_sinks == b_sinks == routes.sinks

    def test_full_determinism(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            topo, routes = tp.make_network(5, 5, spacing=10.0, jitter=0.25, seed=33,
                                           radio_range=12.0, sink_count=2)
            tp.save_topology(topo, path, routes.sinks)
        assert a.read_bytes() == b.read_bytes()


class TestNetworkDigests:
    """sha256 of the edge list, the route table and the topology file of
    fixed-seed networks; any change to placement, adjacency, sink choice,
    routing or the file format shows here."""

    @staticmethod
    def digests(topo, routes, path):
        edges = sorted((v, w) for v, nbrs in topo.adjacency.items()
                       for w in nbrs if v < w)
        table = (sorted(routes.next_hop.items()), sorted(routes.hop_count.items()),
                 sorted(routes.assigned_sink.items()), tuple(routes.sinks))
        tp.save_topology(topo, path, routes.sinks)
        return tuple(hashlib.sha256(data).hexdigest()
                     for data in (repr(edges).encode(), repr(table).encode(),
                                  path.read_bytes()))

    @pytest.mark.parametrize("network,sinks,expected", [
        # the criterion-6 network
        (dict(rows=20, cols=40, spacing=10.0, jitter=0.25, seed=0,
              radio_range=20.5, sink_count=12), None,
         ("c5faaf03e23d7bb90979ccf71902104a0700ef5c338f61e104abc1a48fed96d0",
          "6ce368ed76119f4da77e29a0214712d16bead2e46ed7fe533d7be26787c2b8ef",
          "d7a1f909344d28ab4e53eb6c2aed7d11b728da858d1a9ecb913b69dfdcc54c32")),
        # five sinks at ids drawn uniformly at random
        (dict(rows=12, cols=12, spacing=10.0, jitter=0.25, seed=7,
              radio_range=15.0),
         sorted(np.random.default_rng(7).choice(144, size=5, replace=False).tolist()),
         ("4ae3287b419b98643500a29aeefc84811d2af61aeb7d8a8b767f88356cbc6769",
          "fe76336f9865882a3b516f19d0512c45ba01642d8c1441aded037a62abd2f75f",
          "7975e4a6c98f4f3d6b426ab96ab9d06f047e6cde1d33374c701a281b559ba862")),
    ], ids=["criterion6", "random-sinks"])
    def test_digests(self, tmp_path, network, sinks, expected):
        if sinks is None:
            topo, routes = tp.make_network(**network)
        else:
            topo = tp.generate_perturbed_grid(**network)
            routes = tp.build_routes(topo, sinks)
        assert self.digests(topo, routes, tmp_path / "topo.txt") == expected
