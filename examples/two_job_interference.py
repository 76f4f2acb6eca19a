"""Two concurrent jobs on Theta: shared vs disjoint Lustre OSTs.

Runs the worked multi-job example from the README: two I/O-bound TAPIOCA
jobs on one Theta allocation, first with their files striped over the *same*
two OSTs, then over disjoint OST sets, printing each job's slowdown versus
its isolated run.

Usage::

    python examples/two_job_interference.py [nodes_per_job]
"""

from __future__ import annotations

import sys

from repro.core.config import TapiocaConfig
from repro.machine.theta import ThetaMachine
from repro.multijob import JobSpec, MultiJobRuntime
from repro.storage.lustre import LustreStripeConfig
from repro.utils.units import MB, MIB
from repro.workloads.ior import IORWorkload

STRIPE_COUNT = 2


def job(name: str, num_nodes: int, ost_start: int) -> JobSpec:
    ranks = num_nodes * 16
    return JobSpec(
        name=name,
        num_nodes=num_nodes,
        workload=IORWorkload(ranks, 4 * MB),
        config=TapiocaConfig(num_aggregators=min(32, ranks), buffer_size=8 * MIB),
        stripe=LustreStripeConfig(STRIPE_COUNT, 8 * MIB, ost_start=ost_start),
    )


def main() -> None:
    nodes_per_job = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    machine = ThetaMachine(2 * nodes_per_job)
    print(
        f"Two {nodes_per_job}-node jobs on a {machine.num_nodes}-node Theta "
        f"allocation, {STRIPE_COUNT} OSTs per file"
    )
    for label, starts in [("shared OSTs", (0, 0)), ("disjoint OSTs", (0, STRIPE_COUNT))]:
        runtime = MultiJobRuntime(
            machine,
            [
                job("A", nodes_per_job, starts[0]),
                job("B", nodes_per_job, starts[1]),
            ],
        )
        report = runtime.run()
        slowdowns = ", ".join(
            f"{outcome.name}: {outcome.slowdown:.2f}x" for outcome in report.outcomes
        )
        print(
            f"  {label:<13} -> {slowdowns}  "
            f"(bandwidth conserved: {report.conserves_bandwidth()})"
        )


if __name__ == "__main__":
    main()
