"""Constructing the evaluation network step by step.

Perturbed-grid placement, disk-model adjacency, evenly spaced sinks,
shortest-hop routes, and the measured statistics that feed the analytic
bounds. Ends with a text-file round trip of the topology.
"""

import os
import tempfile

from rtcap import (
    build_routes,
    generate_perturbed_grid,
    load_topology,
    place_sinks,
    save_topology,
    topology_stats,
)

topo = generate_perturbed_grid(rows=10, cols=10, spacing=10.0, jitter=0.25,
                               seed=42, radio_range=20.5)
x, y = topo.nodes[0]
print(f"generated {topo.node_count} nodes; node 0 sits at ({x:.2f}, {y:.2f})")

# the adjacency is part of the topology, computed once at construction
degrees = sorted(len(nbrs) for nbrs in topo.adjacency.values())
print(f"disk adjacency at R=20.5: degree min={degrees[0]} "
      f"median={degrees[len(degrees) // 2]} max={degrees[-1]}")

sinks = place_sinks(10, 10, sink_count=4)
print(f"sinks on the quadrant centers: {sinks}")

# the route table is the one record of the sinks; the nodes stay unmarked
routes = build_routes(topo, sinks)
far = max(routes.hop_count, key=routes.hop_count.get)
print(f"farthest node {far} reaches sink {routes.assigned_sink[far]} in "
      f"{routes.hop_count[far]} hops via {routes.route(far)}")

stats = topology_stats(topo, routes)
print(f"measured parameters: u={stats.neighborhood_bound} "
      f"m={stats.nodes_per_disk} K_d={stats.max_hops}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "network.txt")
    save_topology(topo, path, routes.sinks)
    again, again_sinks = load_topology(path)
    same = (again.nodes == topo.nodes).all() and again_sinks == routes.sinks
    print(f"text round trip of {path.split('/')[-1]}: "
          f"{'bit-exact' if same else 'MISMATCH'}")
