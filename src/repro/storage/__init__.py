"""Storage system models.

The paper evaluates TAPIOCA against two parallel file systems:

* **GPFS** on Mira (IBM BG/Q) — compute nodes reach the storage backend
  through their Pset's I/O node (two bridge nodes per Pset), and lock
  contention on shared blocks is the main write-side penalty.
* **Lustre** on Theta (Cray XC40) — files are striped over OSTs (object
  storage targets) served by OSSes behind LNET router nodes; stripe count,
  stripe size and extent-lock contention dominate the achievable bandwidth.

Both are modelled analytically (time to complete an I/O phase given its
profile) and operationally (per-operation costs used by the discrete-event
MPI).  :class:`~repro.storage.file.SimFile` stores real bytes so the
simulated MPI-IO layer and TAPIOCA can be verified end-to-end for
correctness, independent of the timing model.
"""

from repro.storage.base import FileSystemModel, IOPhaseProfile
from repro.storage.file import SimFile, SimFileRegistry
from repro.storage.gpfs import GPFSModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.storage.burst_buffer import BurstBufferModel

__all__ = [
    "FileSystemModel",
    "IOPhaseProfile",
    "SimFile",
    "SimFileRegistry",
    "GPFSModel",
    "LustreModel",
    "LustreStripeConfig",
    "BurstBufferModel",
]
