#!/usr/bin/env python
"""HACC-IO on Theta: TAPIOCA vs MPI I/O at the paper's scale (Fig. 13).

The HACC cosmology code checkpoints nine variables per particle (38 bytes per
particle).  This example models the paper's 1,024-node Theta experiment —
Lustre with 48 OSTs and 16 MB stripes, 192 aggregators, 16 MB aggregation
buffers — sweeping the number of particles per rank, and prints the four
series of Fig. 13 (TAPIOCA/MPI I/O x AoS/SoA) plus the speedup factors.

Run with:  python examples/hacc_io_theta.py [num_nodes]
"""

import sys

from repro.core import TapiocaConfig
from repro.iolib import MPIIOHints
from repro.machine import ThetaMachine
from repro.perfmodel import model_mpiio, model_tapioca
from repro.storage.lustre import LustreStripeConfig
from repro.utils.tables import Table
from repro.utils.units import MIB
from repro.workloads import HACC_PARTICLE_SIZE, HACCIOWorkload

NUM_NODES = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
RANKS_PER_NODE = 16
PARTICLE_COUNTS = [5_000, 10_000, 25_000, 50_000, 100_000]

machine = ThetaMachine(NUM_NODES)
stripe = LustreStripeConfig(stripe_count=48, stripe_size=16 * MIB)
aggregators = 4 * 48  # four aggregators per OST, as in the paper
hints = MPIIOHints(
    cb_buffer_size=16 * MIB,
    striping_factor=48,
    striping_unit=16 * MIB,
    aggregators_per_ost=4,
    shared_locks=True,
)
config = TapiocaConfig(num_aggregators=aggregators, buffer_size=16 * MIB)

table = Table(
    headers=[
        "MB/rank",
        "TAPIOCA AoS",
        "MPI I/O AoS",
        "speedup AoS",
        "TAPIOCA SoA",
        "MPI I/O SoA",
        "speedup SoA",
    ],
    title=(
        f"HACC-IO on {machine.name}, {NUM_NODES} nodes x {RANKS_PER_NODE} ranks "
        f"(48 OSTs, 16 MB stripes, {aggregators} aggregators) — GBps"
    ),
)

for particles in PARTICLE_COUNTS:
    num_ranks = NUM_NODES * RANKS_PER_NODE
    row = [round(particles * HACC_PARTICLE_SIZE / 1e6, 2)]
    for layout in ("aos", "soa"):
        workload = HACCIOWorkload(num_ranks, particles, layout=layout)
        tapioca = model_tapioca(machine, workload, config, stripe=stripe)
        mpiio = model_mpiio(machine, workload, hints)
        row.extend(
            [
                round(tapioca.bandwidth_gbps(), 2),
                round(mpiio.bandwidth_gbps(), 2),
                f"{tapioca.bandwidth / mpiio.bandwidth:.1f}x",
            ]
        )
    table.add_row(*row)

print(table.render())
print(
    "\nPaper reference (Fig. 13): TAPIOCA greatly surpasses MPI I/O for both "
    "layouts — about 7x around 1 MB/rank, shrinking as the data size grows."
)
