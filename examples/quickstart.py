#!/usr/bin/env python
"""Quickstart: declare writes, let TAPIOCA aggregate them, verify the file.

This mirrors the paper's Algorithm 2 on a small simulated BG/Q machine:
every rank declares three variables (x, y, z) up front, TAPIOCA elects
topology-aware aggregators, aggregates the data through double-buffered RMA
rounds, and flushes it with non-blocking writes.  Because the simulation
moves real bytes, the script ends by checking the file contents against the
expected image.

Run with:  python examples/quickstart.py
"""

from repro.core import Tapioca, TapiocaConfig
from repro.machine import MiraMachine
from repro.utils.units import format_bandwidth

# A small Mira-like allocation: 16 BG/Q nodes forming two 8-node Psets,
# 2 MPI ranks per node -> 32 ranks.
machine = MiraMachine(16, pset_size=8)
config = TapiocaConfig(num_aggregators=4, buffer_size=64 * 1024)
tapioca = Tapioca(machine, config, ranks_per_node=2)

# --- TAPIOCA_Init: declare the upcoming writes -------------------------------
# Each rank writes three arrays of 1,000 doubles (x, y, z) at consecutive
# offsets, exactly like the paper's example code.
ELEMENTS = 1_000
TYPE_SIZE = 8
declarations = []
for rank in range(32):
    base = rank * 3 * ELEMENTS * TYPE_SIZE
    declarations.append(
        [
            (ELEMENTS, TYPE_SIZE, base),
            (ELEMENTS, TYPE_SIZE, base + ELEMENTS * TYPE_SIZE),
            (ELEMENTS, TYPE_SIZE, base + 2 * ELEMENTS * TYPE_SIZE),
        ]
    )
tapioca.init(declarations)

# --- Inspect the topology-aware placement ------------------------------------
placement = tapioca.placement_report()
print("Aggregator placement (topology-aware objective, C1 + C2):")
partitions = tapioca.partitions()
for index, aggregator in enumerate(placement.aggregators):
    breakdown = placement.breakdowns[index]
    ranks = partitions.ranks_of(index)
    print(
        f"  partition {index}: ranks {ranks[0]}..."
        f"{ranks[-1]} -> aggregator rank {aggregator} "
        f"(C1={breakdown.aggregation * 1e6:.1f} us, C2={breakdown.io * 1e6:.1f} us)"
    )

# --- TAPIOCA_Write: run the full protocol on the simulated MPI ---------------
outcome = tapioca.simulate_write(path="/out/quickstart.dat")
print(f"\nSimulated write of {outcome.total_bytes / 1e6:.2f} MB "
      f"in {outcome.elapsed * 1e3:.2f} ms "
      f"-> {format_bandwidth(outcome.bandwidth)}")

# --- Verify the file is byte-exact -------------------------------------------
stored = outcome.world_result.files.open("/out/quickstart.dat", create=False)
expected = tapioca.workload.expected_file_image()
assert stored.as_bytes() == expected, "file contents do not match the declaration!"
print(f"File verified: {stored.size} bytes, byte-for-byte as declared.")

# --- Compare with the analytic estimate --------------------------------------
estimate = tapioca.estimate_write()
print(f"Analytic estimate for the same configuration: "
      f"{format_bandwidth(estimate.bandwidth)} "
      f"({estimate.num_rounds} aggregation round(s), "
      f"{estimate.num_aggregators} aggregators)")
