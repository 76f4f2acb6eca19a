"""MPI-like datatypes.

Only the small subset needed by the I/O workloads is modelled: elementary
types with a size in bytes and a NumPy dtype for materialising buffers.  The
HACC-IO kernel also uses a 2-byte mask variable, hence ``SHORT``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Datatype:
    """An elementary MPI datatype.

    Attributes:
        name: MPI-style name (``"MPI_FLOAT"``...).
        size: extent in bytes.
        numpy_dtype: equivalent NumPy dtype string.
    """

    name: str
    size: int
    numpy_dtype: str

    def to_numpy(self) -> np.dtype:
        """The equivalent NumPy dtype object."""
        return np.dtype(self.numpy_dtype)

    def nbytes(self, count: int) -> int:
        """Total bytes of ``count`` elements of this type."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return count * self.size


BYTE = Datatype("MPI_BYTE", 1, "uint8")
CHAR = Datatype("MPI_CHAR", 1, "int8")
SHORT = Datatype("MPI_SHORT", 2, "int16")
INT = Datatype("MPI_INT", 4, "int32")
LONG = Datatype("MPI_LONG", 8, "int64")
UNSIGNED_LONG = Datatype("MPI_UNSIGNED_LONG", 8, "uint64")
FLOAT = Datatype("MPI_FLOAT", 4, "float32")
DOUBLE = Datatype("MPI_DOUBLE", 8, "float64")

#: All predefined datatypes, by name.
PREDEFINED: dict[str, Datatype] = {
    dt.name: dt
    for dt in (BYTE, CHAR, SHORT, INT, LONG, UNSIGNED_LONG, FLOAT, DOUBLE)
}
