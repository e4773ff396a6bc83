"""One seeded simulation run, inside out.

Generates a Poisson workload with random deadlines, runs the
priority-arbitrated packet simulation with an event log attached, and walks
through the metrics and the first few logged events.
"""

from rtcap import (
    SimConfig,
    critical_capacity,
    generate_workload,
    make_network,
    run_simulation,
    topology_stats,
)

topo, routes = make_network(rows=8, cols=8, spacing=10.0, jitter=0.25, seed=7,
                            radio_range=20.5, sink_count=2)
stats = topology_stats(topo, routes)
print(f"8x8 grid, 2 sinks: u={stats.neighborhood_bound} "
      f"m={stats.nodes_per_disk} K_d={stats.max_hops}")

config = SimConfig(bandwidth=250_000.0, packet_size=5_000.0,
                   deadline_set=(0.5, 1.0, 2.0), arrival_rate=4.0,
                   duration=15.0, seed=7)
workload = generate_workload(topo, routes, config)
print(f"workload: {len(workload.packets)} packets "
      f"(overloaded={config.overloaded})")

log = []
metrics = run_simulation(topo, routes, workload, config, event_log=log)
print(f"delivered={metrics.delivered} missed={metrics.missed} "
      f"miss_ratio={metrics.miss_ratio:.4f}")
print(f"offered demand: {metrics.offered_demand:.0f} bits/s")
if metrics.capacity_consumption_at_first_miss is not None:
    print(f"first miss at t={metrics.first_miss_time:.3f}s while the live "
          f"traffic consumed {metrics.capacity_consumption_at_first_miss:.0f} bits/s")
else:
    print("no deadline was missed at this load")
if metrics.delays:
    mean_delay = sum(metrics.delays) / len(metrics.delays)
    print(f"mean end-to-end delay: {mean_delay * 1000:.1f} ms over "
          f"{len(metrics.delays)} deliveries")

print("\nfirst 8 events of the log:")
for line in log[:8]:
    print("  " + line)

# replications only differ in the workload seed; the minimum first-miss
# consumption across them is the critical capacity estimate
more = [run_simulation(topo, routes,
                       generate_workload(topo, routes, config, seed=s), config)
        for s in range(5)]
cc = critical_capacity(more)
if cc.miss_observed:
    print(f"\ncritical capacity over {cc.replications} replications: "
          f"{cc.value:.0f} bits/s")
else:
    print(f"\nno miss observed in {cc.replications} replications")
