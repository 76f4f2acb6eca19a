"""In-memory simulated files.

The discrete-event MPI layer writes real bytes into :class:`SimFile` objects
so that every end-to-end test can check, byte for byte, that TAPIOCA and the
ROMIO-style baseline place the application's data at exactly the offsets the
MPI-IO semantics require — regardless of which ranks acted as aggregators or
how rounds were scheduled.

Files are sparse: untouched regions read back as zeros, like a POSIX sparse
file, and only written extents consume memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require_non_negative


class SimFile:
    """A sparse, growable, in-memory byte store.

    The implementation keeps written extents in a dict of fixed-size chunks,
    so writing a few megabytes at a huge offset does not allocate the whole
    preceding range.
    """

    #: Size of the internal chunks used for sparse storage.
    CHUNK_SIZE = 1 << 20

    def __init__(self, name: str = "<simfile>") -> None:
        self.name = name
        self._chunks: dict[int, np.ndarray] = {}
        self._size = 0
        #: Number of write calls applied to the file (diagnostics).
        self.write_count = 0
        #: Number of read calls served by the file (diagnostics).
        self.read_count = 0
        #: Total bytes written (including overwrites).
        self.bytes_written = 0
        #: Total bytes read.
        self.bytes_read = 0

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Current file size (highest written offset + 1, or 0)."""
        return self._size

    # ------------------------------------------------------------------ #
    # I/O
    # ------------------------------------------------------------------ #

    def write(self, offset: int, data: bytes | bytearray | np.ndarray) -> int:
        """Write ``data`` at ``offset``; returns the number of bytes written."""
        require_non_negative(offset, "offset")
        buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(
            data, np.ndarray
        ) else np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        nbytes = buf.size
        if nbytes == 0:
            self.write_count += 1
            return 0
        position = offset
        cursor = 0
        while cursor < nbytes:
            chunk_index, chunk_offset = divmod(position, self.CHUNK_SIZE)
            chunk = self._chunks.get(chunk_index)
            if chunk is None:
                chunk = np.zeros(self.CHUNK_SIZE, dtype=np.uint8)
                self._chunks[chunk_index] = chunk
            take = min(self.CHUNK_SIZE - chunk_offset, nbytes - cursor)
            chunk[chunk_offset : chunk_offset + take] = buf[cursor : cursor + take]
            cursor += take
            position += take
        self._size = max(self._size, offset + nbytes)
        self.write_count += 1
        self.bytes_written += nbytes
        return nbytes

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``offset`` (zero-filled past EOF holes)."""
        require_non_negative(offset, "offset")
        require_non_negative(nbytes, "nbytes")
        out = np.zeros(nbytes, dtype=np.uint8)
        position = offset
        cursor = 0
        while cursor < nbytes:
            chunk_index, chunk_offset = divmod(position, self.CHUNK_SIZE)
            take = min(self.CHUNK_SIZE - chunk_offset, nbytes - cursor)
            chunk = self._chunks.get(chunk_index)
            if chunk is not None:
                out[cursor : cursor + take] = chunk[chunk_offset : chunk_offset + take]
            cursor += take
            position += take
        self.read_count += 1
        self.bytes_read += nbytes
        return out.tobytes()

    def as_bytes(self) -> bytes:
        """The whole file contents as a bytes object (zero-filled holes)."""
        return self.read(0, self._size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimFile {self.name!r} size={self._size}>"


@dataclass
class SimFileRegistry:
    """A namespace of simulated files, standing in for a mounted file system.

    The MPI-IO layer opens files by path through a registry, so several
    communicators (or a subfiling setup writing one file per Pset) can share
    the same "file system" and tests can inspect everything that was written.
    """

    files: dict[str, SimFile] = field(default_factory=dict)

    def open(self, path: str, *, create: bool = True) -> SimFile:
        """Return the file at ``path``, creating it if allowed."""
        if path not in self.files:
            if not create:
                raise FileNotFoundError(path)
            self.files[path] = SimFile(path)
        return self.files[path]

    def total_bytes(self) -> int:
        """Sum of the sizes of all files."""
        return sum(f.size for f in self.files.values())
