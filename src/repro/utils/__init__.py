"""Shared utilities for the TAPIOCA reproduction.

The utilities are intentionally dependency-light: unit conversions used
throughout the performance models, deterministic random-number helpers so
simulations are reproducible, and small formatting helpers used by the
experiment harness to print paper-style tables.
"""

from repro.utils.units import (
    KIB,
    MIB,
    GIB,
    KB,
    MB,
    GB,
    bytes_to_mb,
    format_bandwidth,
    gbps,
)
from repro.utils.rng import seeded_rng, derive_seed
from repro.utils.tables import Table
from repro.utils.validation import (
    require,
    require_positive,
    require_non_negative,
)

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "KB",
    "MB",
    "GB",
    "bytes_to_mb",
    "format_bandwidth",
    "gbps",
    "seeded_rng",
    "derive_seed",
    "Table",
    "require",
    "require_positive",
    "require_non_negative",
]
