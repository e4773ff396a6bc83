"""Evaluation-network construction: perturbed grid placement, disk-model
adjacency, uniform sink placement, and shortest-hop routing to the nearest
sink.

A node is its index: node v sits at `topology.nodes[v]`, a row of one
read-only (n, 2) float64 array of positions, and a topology file's ids must
read 0..n-1 in file order. Construction is deterministic for a fixed seed.
A `Topology` is built whole: its adjacency, each node's neighbours as an
ascending tuple, is computed once, from its own positions and radio range,
when it is constructed, by a cell list that tests each node only against
the nodes of the 9 cells, each about one range wide, around it; a node
whose position is not finite, or a range that is not, is refused there.
The sinks live only in the route table: `place_sinks` chooses ids from the
grid's shape alone, `build_routes` takes them as an argument, and the
topology file stores them next to the nodes and the radio range.
Topologies and route tables are frozen and hold read-only arrays, tuples
and read-only mappings (which do not pickle), so they may be shared freely
across concurrent simulation runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np


class RoutingError(RuntimeError):
    """Some nodes cannot reach any sink; carries the unreachable ids."""

    def __init__(self, unreachable):
        self.unreachable = sorted(unreachable)
        super().__init__(
            f"{len(self.unreachable)} node(s) cannot reach a sink: "
            f"{self.unreachable[:20]}{'...' if len(self.unreachable) > 20 else ''}")


@dataclass(frozen=True, eq=False)
class Topology:
    """Node positions, a read-only float64 (n, 2) copy of the caller's, the
    radio range, and the disk-model adjacency they imply, computed at
    construction. Equality is identity."""

    nodes: np.ndarray
    radio_range: float
    adjacency: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64)
        if nodes.shape == (0,):
            nodes = nodes.reshape(0, 2)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must have shape (n, 2), got {nodes.shape}")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "radio_range", float(self.radio_range))
        object.__setattr__(self, "adjacency", compute_adjacency(self))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def positions(self) -> np.ndarray:
        return self.nodes


@dataclass(frozen=True)
class RouteTable:
    """Next hop, hop count to the assigned sink, and that sink, per node, as
    read-only mappings, plus the sink ids, an ascending tuple.

    Sinks themselves appear in hop_count (0) and assigned_sink (self) but
    have no next_hop entry. So hop count 0 marks the sinks as `sinks` does:
    the run, `probe_rate` and `sink_ceiling` read hop count 0, and the
    workload draw reads `sinks`.
    """
    next_hop: Mapping
    hop_count: Mapping
    assigned_sink: Mapping
    sinks: tuple

    def route(self, node: int) -> list:
        """Full node sequence from `node` to its sink, inclusive."""
        path = [node]
        while path[-1] in self.next_hop:
            path.append(self.next_hop[path[-1]])
        return path


class TopologyStats(NamedTuple):
    neighborhood_bound: int   # largest contention set (node + radio peers)
    max_hops: int             # largest hop distance to a sink
    nodes_per_disk: int       # mean contention-set size, rounded


def _check_shape(rows, cols) -> None:
    """Refuse a grid side that is not an integer >= 1, by its field name. A
    float side fails deep inside numpy with a bare TypeError; an int or a
    numpy integer is a numbers.Integral."""
    for name, size in (("rows", rows), ("cols", cols)):
        if not (isinstance(size, numbers.Integral) and size >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {size!r}")


def generate_perturbed_grid(rows: int, cols: int, spacing: float,
                            jitter: float, seed: int = 0, *,
                            radio_range: float) -> Topology:
    """Lay out rows*cols nodes on a grid, each displaced uniformly by up to
    jitter*spacing in x and y, with disk adjacency at radio_range.

    jitter must stay below 0.5 so neighboring cells cannot swap order.
    The grid's extent, max(rows, cols) * spacing, must be finite.
    """
    _check_shape(rows, cols)
    if not (spacing > 0 and math.isfinite(max(rows, cols) * float(spacing))):
        raise ValueError(f"spacing must be > 0 with a finite grid extent "
                         f"max(rows, cols) * spacing, got {spacing!r}")
    if not (0 <= jitter < 0.5):
        raise ValueError(f"jitter must lie in [0, 0.5), got {jitter}")

    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-jitter * spacing, jitter * spacing, size=(rows * cols, 2))
    r, c = np.divmod(np.arange(rows * cols), cols)
    positions = np.column_stack((c, r)) * spacing + offsets
    return Topology(positions, radio_range)


def compute_adjacency(topology: Topology) -> Mapping:
    """Disk-model adjacency of the topology's nodes at its radio_range, as
    a read-only mapping: nodes are neighbors iff their Euclidean distance is
    <= radio_range (boundary inclusive), decided by the exact test
    `((pos[w] - pos[v]) ** 2).sum() <= radio_range * radio_range`.
    Symmetric by construction; a node is not its own neighbor. Reads only
    the nodes and writes nothing. A non-positive radio range, one whose
    square is not finite, or a node whose position is not finite is a
    ValueError.

    A cell list, with no loop over nodes and no n-wide distance row: the
    nodes are binned into square cells of side a hair wider than the range
    and every node is tested only against the nodes of the 9 cells around
    and including its own. No pair is missed: floor(x / side) is monotone
    in x, and the side exceeds the range by more than the rounding of
    x / side (2**-40 of the range, plus 2**-50 of the largest coordinate),
    so two coordinates within range land in the same or adjacent cells on
    each axis. A wider cell only adds candidates, which the exact test then
    drops. The pairs in range are sorted by (v, w), so each node's neighbours
    come out as an ascending tuple, mapped to the keys' own `int` objects
    (one per node).
    """
    radio_range = topology.radio_range
    if not (radio_range > 0 and math.isfinite(radio_range * radio_range)):
        raise ValueError(f"radio_range must be > 0 with a finite square, "
                         f"got {radio_range!r}")
    pos = topology.nodes
    finite = np.isfinite(pos).all(axis=1)
    if not finite.all():
        v = int(np.argmin(finite))
        raise ValueError(f"node {v} has a non-finite position {tuple(pos[v].tolist())}")
    n = len(pos)
    pairs = _pairs_in_range(pos, radio_range)
    bounds = np.searchsorted(pairs, np.arange(n + 1) * n).tolist()
    ids = list(range(n))
    # an object array of the ids hands out those very ints, and makes none
    shared = np.empty(n, dtype=object)
    shared[:] = ids
    nbrs = shared[pairs % n].tolist()
    return MappingProxyType({v: tuple(nbrs[bounds[v]:bounds[v + 1]]) for v in ids})


def _pairs_in_range(pos: np.ndarray, radio_range: float) -> np.ndarray:
    """Every ordered pair (v, w), v != w, of the finite positions `pos`
    within radio_range by the exact test, as the ascending keys v * n + w:
    the cell list of `compute_adjacency`."""
    n = len(pos)
    reach = radio_range * radio_range
    side = radio_range * (1 + 2.0 ** -40) + np.abs(pos).max(initial=0.0) * 2.0 ** -50
    cells = np.floor(pos / side).astype(np.int64)
    _, col_steps = _occupied_steps(cells[:, 0])
    rows, row_steps = _occupied_steps(cells[:, 1])
    key = col_steps[1] * rows + row_steps[1]
    order = np.argsort(key)
    by_cell = key[order]
    found = []
    for col in col_steps:
        for row in row_steps:
            v = np.flatnonzero((col >= 0) & (row >= 0))
            near = col[v] * rows + row[v]
            lo = np.searchsorted(by_cell, near, "left")
            count = np.searchsorted(by_cell, near, "right") - lo
            # node v's candidates are order[lo:lo + count], laid end to end
            first = np.cumsum(count) - count
            v = np.repeat(v, count)
            w = order[np.arange(len(v)) + np.repeat(lo - first, count)]
            # a far pair's square may overflow to inf, which is not <= reach
            with np.errstate(over="ignore"):
                within = (((pos[w] - pos[v]) ** 2).sum(axis=1) <= reach) & (w != v)
            found.append(v[within] * n + w[within])
    pairs = np.concatenate(found)
    pairs.sort()
    return pairs


def _occupied_steps(cells: np.ndarray):
    """Cells along one axis, renumbered by rank among the occupied ones:
    their count, and for each step d in (-1, 0, 1) the rank of the cell d
    away from each node's own, -1 where that cell holds no node. Ranks keep
    the 2-D cell keys below n * n however far apart the cells lie."""
    occupied, rank = np.unique(cells, return_inverse=True)
    steps = []
    for d in (-1, 0, 1):
        near = rank + d
        held = (near >= 0) & (near < len(occupied))
        held[held] = occupied[near[held]] == cells[held] + d
        steps.append(np.where(held, near, -1))
    return len(occupied), steps


def _subgrid_factors(sink_count: int, rows: int, cols: int):
    """Factor pair (a, b), a*b == sink_count, with aspect closest to the grid's."""
    target = math.log(rows / cols)
    best = None
    for a in range(1, sink_count + 1):
        if sink_count % a:
            continue
        b = sink_count // a
        if a > rows or b > cols:
            continue
        score = abs(math.log(a / b) - target)
        if best is None or score < best[0] - 1e-12:
            best = (score, a, b)
    return (best[1], best[2]) if best else None


def place_sinks(rows: int, cols: int, sink_count: int) -> list:
    """Choose sink_count sink ids, ascending, on a rows x cols grid whose
    node ids run row-major, as `generate_perturbed_grid` numbers them.

    The sinks form an evenly spaced sub-grid whose aspect is closest to the
    grid's: one sink on an odd square grid lands on the center node, four
    on a square grid land on the quadrant centers. A count that no sub-grid
    fits (e.g. a large prime) is spaced evenly along the row-major order.
    """
    _check_shape(rows, cols)
    n = rows * cols
    if not (isinstance(sink_count, numbers.Integral) and 1 <= sink_count <= n):
        raise ValueError(f"sink_count must be an integer in [1, {n}], "
                         f"got {sink_count!r}")
    pair = _subgrid_factors(sink_count, rows, cols)
    if pair is None:
        return sorted(int((i + 0.5) * n / sink_count) for i in range(sink_count))
    a, b = pair
    sel_rows = [int((i + 0.5) * rows / a) for i in range(a)]
    sel_cols = [int((j + 0.5) * cols / b) for j in range(b)]
    return sorted(r * cols + c for r in sel_rows for c in sel_cols)


def build_routes(topology: Topology, sinks: Iterable) -> RouteTable:
    """Shortest-hop routes from every node to its nearest sink in `sinks`.

    Hop counts come from a breadth-first search seeded with all sinks at
    distance 0. The next hop is the neighbor one hop closer, ties broken by
    smallest node id so routes stay fixed across replications. Raises
    RoutingError when any node has no path to a sink.
    """
    adjacency = topology.adjacency
    requested = set(sinks)
    if not requested:
        raise ValueError("no sinks given")
    unknown = sorted(s for s in requested if s not in adjacency)
    if unknown:
        raise ValueError(f"sinks {unknown} are not nodes of the topology")
    # the adjacency's own int objects; every frontier is scanned in
    # ascending order, so the first node to discover w is w's smallest-id
    # neighbour one hop closer
    sink_ids = tuple(v for v in adjacency if v in requested)
    hop_count = dict.fromkeys(sink_ids, 0)
    next_hop = {}
    assigned_sink = {s: s for s in sink_ids}
    frontier = sink_ids
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in hop_count:
                    hop_count[w] = hop_count[v] + 1
                    next_hop[w] = v
                    assigned_sink[w] = assigned_sink[v]
                    nxt.append(w)
        frontier = sorted(nxt)

    unreachable = [v for v in adjacency if v not in hop_count]
    if unreachable:
        raise RoutingError(unreachable)

    readonly = MappingProxyType
    return RouteTable(readonly(next_hop), readonly(hop_count), readonly(assigned_sink),
                      sink_ids)


def topology_stats(topology: Topology, routes: RouteTable) -> TopologyStats:
    """Extract the analytic parameters a concrete instance exhibits.

    neighborhood_bound is the largest contention set, nodes_per_disk the mean
    contention set rounded to the nearest integer, max_hops the longest route.
    """
    sizes = [len(nbrs) + 1 for nbrs in topology.adjacency.values()]
    u = max(sizes)
    m = int(math.floor(sum(sizes) / len(sizes) + 0.5))
    max_hops = max(routes.hop_count.values())
    return TopologyStats(neighborhood_bound=u, max_hops=max_hops, nodes_per_disk=m)


def save_topology(topology: Topology, path, sinks: Iterable) -> None:
    """Write the node list as plain text: one `id x y is_sink` line per node
    in node order, so the ids read 0..n-1, is_sink 1 for the ids in `sinks`,
    preceded by a header recording the radio range. Floats are written with
    repr so a round trip is bit-exact. A sink id that is not a node is a
    ValueError, raised before the file is opened."""
    sinks = set(sinks)
    unknown = sorted(s for s in sinks if s not in range(topology.node_count))
    if unknown:
        raise ValueError(f"sinks {unknown} are not nodes of the topology")
    lines = ["# rtcap topology v1", f"# radio_range={topology.radio_range!r}",
             "# columns: id x y is_sink"]
    for v, (x, y) in enumerate(topology.nodes.tolist()):
        lines.append(f"{v} {x!r} {y!r} {int(v in sinks)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_topology(path) -> tuple:
    """Read a file written by save_topology and return (topology, sinks),
    sinks a tuple in node order. The adjacency is recomputed from the radio
    range in the header; every other `#` line is a comment. A file without
    a radio range, a malformed `radio_range` line, a data line that is not
    `id x y is_sink`, or ids that do not read 0..n-1 in file order, is a
    ValueError naming the file (and the line, for a malformed one)."""
    radio_range = None
    nodes = []
    sinks = []
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            header = line.startswith("#")
            if not line or header and not line.lstrip("# ").startswith("radio_range="):
                continue
            try:
                if header:
                    expected = "'# radio_range=R'"
                    radio_range = float(line.split("=", 1)[1])
                    continue
                expected = "'id x y is_sink'"
                ident, x, y, sink = line.split()
                ident, point, sink = int(ident), (float(x), float(y)), int(sink)
            except ValueError:
                raise ValueError(f"{path}:{number}: expected {expected}, "
                                 f"got {line!r}") from None
            if ident != len(nodes):
                raise ValueError(f"{path}: node ids must read 0..n-1 in file "
                                 f"order, found id {ident} at {len(nodes)}")
            if sink:
                sinks.append(len(nodes))
            nodes.append(point)
    if radio_range is None:
        raise ValueError(f"{path}: no radio_range in the header")
    return Topology(nodes, radio_range), tuple(sinks)


def make_network(rows: int, cols: int, spacing: float = 10.0, jitter: float = 0.25,
                 seed: int = 0, radio_range: float = 20.0, sink_count: int = 1):
    """One-call pipeline: perturbed grid and its adjacency, sinks chosen by
    `place_sinks` from the grid's shape, routes. Only the grid's jitter
    draws from `seed`.

    Returns (topology, routes).
    """
    topo = generate_perturbed_grid(rows, cols, spacing, jitter, seed,
                                   radio_range=radio_range)
    return topo, build_routes(topo, place_sinks(rows, cols, sink_count))
