"""Unit conversion helpers.

The paper mixes decimal units (GBps link speeds, "1 MB per rank") and binary
units (16 MB aggregation buffers, Lustre stripe sizes).  To avoid the classic
factor-of-1.048 confusion we standardise:

* **Data sizes** inside the library are always plain byte counts (``int``).
* Named constants are provided for both decimal (``KB``/``MB``/``GB``) and
  binary (``KIB``/``MIB``/``GIB``) multiples.  Buffer and stripe sizes follow
  the binary convention (a "16 MB" aggregation buffer is ``16 * MIB``), link
  and storage bandwidths follow the decimal convention (``1.8 * GB`` per
  second), matching vendor documentation for both Mira and Theta.
* **Bandwidths** are expressed in bytes per second (``float``) and
  **latencies** in seconds.
"""

from __future__ import annotations

# Binary multiples (used for memory buffers, stripe sizes, file blocks).
KIB: int = 1024
MIB: int = 1024 * 1024
GIB: int = 1024 * 1024 * 1024

# Decimal multiples (used for link / storage bandwidths).
KB: int = 1000
MB: int = 1000 * 1000
GB: int = 1000 * 1000 * 1000


def gbps(value: float) -> float:
    """Convert a bandwidth expressed in gigabytes per second to bytes/s."""
    return float(value) * GB


def bytes_to_mb(nbytes: float) -> float:
    """Express a byte count in decimal megabytes (as used on figure axes)."""
    return float(nbytes) / MB


def format_bandwidth(bytes_per_second: float) -> str:
    """Human readable bandwidth, e.g. ``'1.80 GBps'``."""
    bps = float(bytes_per_second)
    for unit, factor in (("GBps", GB), ("MBps", MB), ("KBps", KB)):
        if abs(bps) >= factor:
            return f"{bps / factor:.2f} {unit}"
    return f"{bps:.1f} Bps"
