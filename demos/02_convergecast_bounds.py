"""Convergecast capacity: numeric DM root vs the EDF closed form.

All traffic drains toward data-aggregation sinks, so the sink neighborhoods
are the bottleneck. The DM bound needs a one-dimensional root solve; EDF has
a closed form through the odd harmonic sum. This script compares the two
across hop radii and shows how much a balanced traffic pattern would gain.
"""

from rtcap import (
    APPROXIMATE,
    EXACT,
    AnalyticParams,
    DM,
    EDF,
    balanced_vs_convergecast_ratio,
    convergecast_dm_sink_utilization,
    convergecast_edf_sink_utilization,
    harmonic_odd_sum,
    rtcc_convergecast,
)

M = 10          # nodes per radio disk
SINKS = 4
B = 250_000.0

print(f"Sink-neighborhood utilization budget (m = {M} nodes per disk)")
print(f"{'K':>4} {'DM root':>10} {'EDF exact':>10} {'EDF approx':>11} "
      f"{'harmonic S':>11}")
for k in (1, 2, 4, 8, 16, 32, 64):
    d_dm = convergecast_dm_sink_utilization(M, k)
    d_edf = convergecast_edf_sink_utilization(M, k, EXACT)
    d_apx = convergecast_edf_sink_utilization(M, k, APPROXIMATE)
    note = " (saturated)" if d_edf > 1 else ""
    print(f"{k:>4} {d_dm:>10.4f} {d_edf:>10.4f} {d_apx:>11.4f} "
          f"{harmonic_odd_sum(k):>11.4f}{note}")

print()
print(f"Network capacity with {SINKS} sinks at B = {B:.0f} bits/s (bits/s)")
print(f"{'K':>4} {'DM':>14} {'EDF':>14} {'gap':>7}")
for k in (1, 4, 16, 64):
    p = AnalyticParams(node_count=800, bandwidth=B, nodes_per_disk=M,
                       max_hops=k, sink_count=SINKS)
    dm = rtcc_convergecast(DM, p, mode=EXACT).value
    edf = rtcc_convergecast(EDF, p, mode=EXACT).value
    print(f"{k:>4} {dm:>14.1f} {edf:>14.1f} {(edf - dm) / edf:>7.2%}")

print()
print("Cost of funneling everything to sinks, vs spreading the load:")
for k in (1, 4, 16, 64):
    print(f"  K={k:>3}: balanced traffic carries "
          f"{balanced_vs_convergecast_ratio(k):.2f}x more")
