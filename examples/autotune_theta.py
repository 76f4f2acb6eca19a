"""Certify the paper's optimized Theta MPI-IO settings against the whole space.

Starts from Theta's untuned defaults (1 OST, 1 MiB stripes, one aggregator
per OST, no lock sharing — the Fig. 8 baseline) and evaluates every point
of the Section V-B parameter space.  The proven optimum should sit in the
regime of the paper's hand-tuned preset — 48 OSTs, matched stripe/buffer
sizes, shared locks — and the script prints the preset's gap to it.

Usage::

    python examples/autotune_theta.py [scale]

``scale`` is the usual node-count divisor (default 8: 64 of the paper's
512 nodes, fast enough for a laptop).
"""

from __future__ import annotations

import sys

from repro.autotune import theta_mpiio_space, tune
from repro.experiments.autotuning import tuning_theta_scenario
from repro.scenario.simulation import Simulation
from repro.utils.units import MIB


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 8.0

    base = tuning_theta_scenario(scale)
    nodes = base.machine.num_nodes
    space = theta_mpiio_space()
    print(f"Tuning IOR on {nodes} Theta nodes: all {space.size()} points of the space")
    trace = tune(base, space, "bandwidth", name="autotune_theta")
    print(trace.to_table().render())

    best = trace.best_point()
    baseline = Simulation(base).estimate().bandwidth_gbps()
    print()
    print(
        f"Proven optimum: {best.value:.3f} GBps "
        f"({best.value / baseline:.0f}x the untuned {baseline:.3f} GBps) at "
        f"{best.overrides['storage.stripe_count']} OSTs, "
        f"{best.overrides['storage.stripe_size'] // MIB} MiB stripes, "
        f"{best.overrides['io.aggregators_per_ost']} aggregators/OST, "
        f"shared locks: {best.overrides['io.shared_locks']}"
    )
    per_ost = max(1, 2 * nodes // 512)
    preset = next(
        point
        for point in trace.points
        if point.overrides
        == {
            "storage.stripe_count": 48,
            "storage.stripe_size": 8 * MIB,
            "io.buffer_size": 8 * MIB,
            "io.aggregators_per_ost": per_ost,
            "io.shared_locks": True,
        }
    )
    print(
        f"Paper preset (Section V-B: 48 OSTs, 8 MiB stripes, 2 aggregators/OST "
        f"per 512 nodes = {per_ost} here, shared locks): {preset.value:.3f} GBps, "
        f"{preset.gap:.1%} below the proven optimum"
    )


if __name__ == "__main__":
    main()
