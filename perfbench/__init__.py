"""The repository's benchmark: four seeded workloads and a per-layer trace.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/README.md``.
"""
