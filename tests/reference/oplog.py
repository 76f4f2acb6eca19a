"""The operation log: every RMA and file operation of a DES run, in issue order.

Times and bytes alone rarely move when two events of the same timestamp
swap; the log does.  It hashes one line per RMA ``put``/``get`` and per
file operation, with the simulated time (``float.hex()``), the window's
communicator or the file's name, and the call's arguments (payloads by
size), so a digest of it pins the event order of a run exactly.

:func:`des_order_digests` replays perfbench's ``des_roundtrip`` cells
through the log; ``tests/reference/des_order.json`` holds the digests the
engine must reproduce (CI's "DES operation-order gate" checks every cell of
seeds 1 and 7, ``tests/test_simmpi_golden.py`` the first few).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.simmpi.file import SimMPIFile
from repro.simmpi.rma import Window

#: The committed per-cell and whole-deck digests, by seed.
DES_ORDER_PATH = Path(__file__).with_name("des_order.json")
#: The repository root, where the ``perfbench`` package lives.
ROOT = Path(__file__).resolve().parents[2]


class OperationLog:
    """Records every RMA and file operation, in issue order, with its time."""

    METHODS = (
        (Window, ("put", "get")),
        (SimMPIFile, ("write_at", "read_at", "iwrite_at", "iread_at")),
    )

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self._saved: list[tuple[type, str, object]] = []

    @staticmethod
    def _describe(value) -> str:
        if isinstance(value, np.ndarray):
            return f"<{value.nbytes} B>"
        if isinstance(value, (bytes, bytearray, memoryview)):
            return f"<{len(value)} B>"
        return repr(value)

    def _logged(self, name: str, method):
        def wrapper(obj, *args):
            where = obj.comm.name if isinstance(obj, Window) else obj.simfile.name
            line = " ".join(
                [obj.world.env.now.hex(), where, name, *map(self._describe, args)]
            )
            self.digest.update(line.encode() + b"\n")
            return method(obj, *args)

        return wrapper

    def __enter__(self) -> "OperationLog":
        for cls, names in self.METHODS:
            for name in names:
                method = getattr(cls, name)
                self._saved.append((cls, name, method))
                setattr(cls, name, self._logged(name, method))
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, name, method in self._saved:
            setattr(cls, name, method)


def des_order_digests(seed: int, count: int) -> list[str]:
    """The operation-log digest of each of perfbench's first ``count`` DES cells.

    Each cell's write and read run as ``des_roundtrip`` runs them (fresh
    worlds, the write's files handed to the read) under one log.
    """
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.workloads import des_cells, des_read, des_write

    digests = []
    for cell in des_cells(seed, count):
        state: dict = {}
        with OperationLog() as log:
            des_write(cell, state)
            des_read(cell, state)
        digests.append(log.digest.hexdigest())
    return digests


def deck_digest(cell_digests: list[str]) -> str:
    """One digest over a deck's per-cell digests, in cell order."""
    return hashlib.sha256("\n".join(cell_digests).encode()).hexdigest()


def committed_des_order() -> dict[str, dict]:
    """``{seed: {"count", "digest", "cells"}}`` as committed."""
    return json.loads(DES_ORDER_PATH.read_text(encoding="utf-8"))
