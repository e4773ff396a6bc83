"""The deadline-miss knee: what happens when demand crosses the bound.

Sweeps offered load multiplicatively from a quarter of the analytic DM bound
to four times it. Below the bound nothing misses; past it the miss ratio
climbs steeply. Each point averages ten seeded replications. Writes the CSV
artifact into the working directory.
"""

from rtcap import (
    SimConfig,
    SweepSpec,
    csv_filename,
    emit_csv,
    load_multiplier_series,
    run_sweep,
)

spec = SweepSpec(
    kind="missratio_sweep",
    values=load_multiplier_series(),          # 0.25, 0.31, ..., 4.0
    sim=SimConfig(packet_size=5_000.0, duration=10.0, seed=0,
                  replication_count=10),
    rows=12, cols=12, spacing=10.0, jitter=0.25, radio_range=20.5,
    sink_count=4)

rows = run_sweep(spec)
bound = rows[0].analytic_dm
print(f"analytic DM bound from measured stats: {bound:.0f} bits/s")
print(f"{'load':>6} {'demand':>10} {'miss ratio':>11}  ")
for r in rows:
    bar = "#" * int(round(50 * r.miss_ratio))
    marker = " <= bound" if r.offered_demand <= bound else ""
    print(f"{r.swept_value:>6.2f} {r.offered_demand:>10.0f} "
          f"{r.miss_ratio:>11.4f}  {bar}{marker}")

dest = csv_filename(spec)
emit_csv(rows, dest, spec)
print(f"\nwrote {dest}")
