"""Pluggable storage backends behind the :class:`ArtifactStore`.

The artifact store historically *was* its on-disk layout: one flat directory
of JSON files.  Serving many clients (and many tuner processes) from one
warm cache needs storage that several processes can write concurrently, so
the layout is now behind a small key-value abstraction:

* keys are the store's **logical relative paths** (``"fig07.json"``,
  ``"manifest.json"``, ``"tuning-points/<digest>.json"``,
  ``"scenario-results/<hash>.json"``) — the store decides *what* to call a
  blob, the backend decides *where* and *how* it physically lives;
* values are the exact JSON texts the store serialises — backends never
  re-encode, so the default backend's files stay byte-identical to the
  pre-backend layout.

Two implementations ship:

:class:`DirectoryBackend`
    The historical flat directory, unchanged byte for byte.  Single-writer
    (the store's own atomic-rename writes keep readers safe, but concurrent
    manifest refreshes may interleave).  This is the default everywhere.

:class:`SQLiteBackend`
    One ``sqlite3`` database file in WAL mode; concurrency is delegated to
    SQLite's own locking, and read-modify-write sections take a sibling
    ``fcntl`` lock file.  Many processes can write — even the same key —
    without corrupting anything, and a single file is the easiest thing to
    ship between hosts.

Backends are selected by an ``--out`` spec string (see :func:`open_backend`):
``DIR`` or ``dir:DIR`` (directory) and ``sqlite:FILE.db``.
"""

from __future__ import annotations

import hashlib
import os
import re
import sqlite3
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:  # pragma: no cover - platform dependent
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback exercised via flag
    fcntl = None  # type: ignore[assignment]


class StoreBackend(ABC):
    """Key-value storage of JSON texts, keyed by logical relative path."""

    #: Registry name of the backend (``"dir"``, ``"sqlite"``).
    name: str = ""

    @abstractmethod
    def get(self, key: str) -> str | None:
        """The stored text for ``key``, or ``None`` when absent/unreadable."""

    @abstractmethod
    def put(self, key: str, text: str) -> None:
        """Store ``text`` under ``key``, atomically: a reader concurrent with
        the write sees either the previous value or the new one, never a
        torn mixture — even if the writer dies mid-write."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""

    @abstractmethod
    def keys(self, prefix: str = "") -> list[str]:
        """All stored keys starting with ``prefix``, sorted."""

    @abstractmethod
    def path_hint(self, key: str) -> Path:
        """Where ``key`` (would) physically live — for log/CLI messages only."""

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Cross-process mutual exclusion for read-modify-write sequences.

        The base implementation is a no-op: plain :meth:`put` is atomic on
        every backend, and the default directory backend keeps its
        historical single-writer contract.  Concurrent-safe backends
        override this with a real lock.
        """
        yield

    def describe(self) -> str:
        """One-line human-readable description for CLI banners."""
        return f"{self.name} backend"


def _check_key(key: str) -> str:
    """Reject keys that could escape the store's namespace."""
    if not key or key.startswith(("/", ".")) or ".." in key.split("/"):
        raise ValueError(f"invalid store key {key!r}")
    return key


# --------------------------------------------------------------------------- #
# Directory backend (the historical layout)
# --------------------------------------------------------------------------- #


class DirectoryBackend(StoreBackend):
    """The historical flat artifact directory, byte-identical.

    Writes go through a temp file + ``os.replace`` so readers never observe
    a torn file; there is no cross-process locking (single-writer, exactly
    the pre-backend behaviour — the store's own tests rely on being able to
    poke files directly).
    """

    name = "dir"

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path_hint(self, key: str) -> Path:
        return self.root / _check_key(key)

    def get(self, key: str) -> str | None:
        try:
            return self.path_hint(key).read_text(encoding="utf-8")
        except OSError:
            return None

    def put(self, key: str, text: str) -> None:
        path = self.path_hint(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)

    def delete(self, key: str) -> bool:
        try:
            self.path_hint(key).unlink()
            return True
        except OSError:
            return False

    def keys(self, prefix: str = "") -> list[str]:
        if not self.root.is_dir():
            return []
        found = []
        for path in self.root.rglob("*.json"):
            if not path.is_file():
                continue
            key = path.relative_to(self.root).as_posix()
            if key.startswith(prefix):
                found.append(key)
        return sorted(found)

    def describe(self) -> str:
        return f"directory store at {self.root}"


# --------------------------------------------------------------------------- #
# Cross-process file locks
# --------------------------------------------------------------------------- #


#: Locks currently held by this process: path -> (fd, pid, tid, depth).
#: ``flock`` on a *new* file descriptor blocks even against the same process,
#: so a nested ``lock()`` of the same key must re-enter the held lock
#: instead of re-acquiring it.
#: Re-entry is per *thread*, not per process: a second thread must block on
#: the flock like any other writer, or two threads would share the critical
#: section.  The pid guards against entries inherited across ``fork``.
_HELD_LOCKS: dict[str, tuple[int, int, int, int]] = {}
_HELD_GUARD = threading.Lock()


class _FileLock:
    """An exclusive cross-process lock bound to one lock file.

    Uses ``fcntl.flock`` where available (locks die with their holder, so a
    crashed writer never wedges the store); elsewhere falls back to an
    ``O_CREAT | O_EXCL`` spin with a staleness timeout.  Re-entrant within a
    process: nested acquisitions of the same path share the held lock.
    """

    def __init__(self, path: Path, *, timeout_s: float = 30.0):
        self.path = path
        self.timeout_s = timeout_s
        self._fd: int | None = None

    def __enter__(self) -> "_FileLock":
        key = str(self.path)
        me = (os.getpid(), threading.get_ident())
        with _HELD_GUARD:
            held = _HELD_LOCKS.get(key)
            if held is not None and held[1:3] == me:
                _HELD_LOCKS[key] = (held[0], held[1], held[2], held[3] + 1)
                return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        else:
            deadline = time.monotonic() + self.timeout_s
            while self._fd is None:
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR
                    )
                except FileExistsError:
                    if time.monotonic() > deadline:
                        # The holder most likely died: break the stale lock
                        # rather than dead-locking every future writer.
                        try:
                            self.path.unlink()
                        except OSError:
                            pass
                    time.sleep(0.01)
        with _HELD_GUARD:
            _HELD_LOCKS[key] = (self._fd, me[0], me[1], 1)
        return self

    def __exit__(self, *exc_info) -> None:
        key = str(self.path)
        me = (os.getpid(), threading.get_ident())
        with _HELD_GUARD:
            held = _HELD_LOCKS.get(key)
            if held is None or held[1:3] != me:
                return
            fd, pid, tid, depth = held
            if depth > 1:
                _HELD_LOCKS[key] = (fd, pid, tid, depth - 1)
                return
            del _HELD_LOCKS[key]
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
        self._fd = None
        if fcntl is None:
            try:
                self.path.unlink()
            except OSError:
                pass


# --------------------------------------------------------------------------- #
# SQLite backend
# --------------------------------------------------------------------------- #


class SQLiteBackend(StoreBackend):
    """All blobs in one ``sqlite3`` database file.

    A fresh connection per operation keeps the backend safe to share across
    forked worker processes (SQLite connections must not cross ``fork``);
    WAL mode lets readers proceed while a writer commits.  ``lock`` uses a
    sibling lock *file* rather than a long transaction: a transaction held
    across the ``yield`` would block the backend's own :meth:`put` calls
    made inside the locked section (they open their own connections).
    """

    name = "sqlite"

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS blobs ("
        " key TEXT PRIMARY KEY,"
        " value TEXT NOT NULL,"
        " updated_utc TEXT NOT NULL)"
    )

    def __init__(self, path: Path | str, *, timeout_s: float = 30.0):
        self.path = Path(path)
        self.timeout_s = timeout_s
        self._initialised = False

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=self.timeout_s)
        if not self._initialised:
            with conn:
                conn.execute(self._SCHEMA)
            conn.execute("PRAGMA journal_mode=WAL")
            self._initialised = True
        return conn

    def get(self, key: str) -> str | None:
        _check_key(key)
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT value FROM blobs WHERE key = ?", (key,)
            ).fetchone()
            return None if row is None else row[0]
        except sqlite3.Error:
            return None
        finally:
            conn.close()

    def put(self, key: str, text: str) -> None:
        _check_key(key)
        conn = self._connect()
        try:
            with conn:
                conn.execute(
                    "INSERT INTO blobs (key, value, updated_utc) VALUES (?, ?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET value = excluded.value, "
                    "updated_utc = excluded.updated_utc",
                    (key, text, time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
                )
        finally:
            conn.close()

    def delete(self, key: str) -> bool:
        _check_key(key)
        conn = self._connect()
        try:
            with conn:
                cursor = conn.execute("DELETE FROM blobs WHERE key = ?", (key,))
                return cursor.rowcount > 0
        finally:
            conn.close()

    def keys(self, prefix: str = "") -> list[str]:
        if not self.path.is_file():
            return []
        conn = self._connect()
        try:
            rows = conn.execute(
                "SELECT key FROM blobs WHERE key GLOB ? ORDER BY key",
                (prefix.replace("[", "[[]") + "*",),
            ).fetchall()
            return [row[0] for row in rows]
        except sqlite3.Error:
            return []
        finally:
            conn.close()

    def path_hint(self, key: str) -> Path:
        _check_key(key)
        return self.path

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
        with _FileLock(self.path.with_name(f"{self.path.name}.{digest}.lock")):
            yield

    def describe(self) -> str:
        return f"SQLite store at {self.path} (WAL)"


# --------------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------------- #

#: Registered backend names, for CLI help and validation.
BACKENDS = ("dir", "sqlite")

#: A ``word:`` spec prefix.  Two letters at least, so a Windows drive letter
#: (``C:\artifacts``) still reads as a plain path.
_PREFIX = re.compile(r"([A-Za-z][A-Za-z0-9_-]+):")


def open_backend(spec: str | Path) -> StoreBackend:
    """The backend an ``--out`` spec string describes.

    Accepted forms (identical on every subcommand that takes ``--out``)::

        artifacts/              # plain path: the default directory backend
        dir:artifacts/          # explicit directory backend
        sqlite:artifacts.db     # one SQLite database file

    A plain path to an existing SQLite file reopens with its own backend,
    so follow-up commands need not repeat the prefix.  Any other ``word:``
    prefix is rejected rather than read as a directory name, so a typo such
    as ``sqllite:cache.db`` cannot silently create a directory; a directory
    whose name contains a colon stays reachable as ``dir:NAME``.

    Raises:
        ValueError: for a ``word:`` prefix that names no backend.
    """
    text = str(spec)
    if text.startswith("dir:"):
        return DirectoryBackend(text[len("dir:"):])
    if text.startswith("sqlite:"):
        return SQLiteBackend(text[len("sqlite:"):])
    prefix = _PREFIX.match(text)
    if prefix is not None:
        valid = ", ".join(f"{name}:" for name in BACKENDS)
        raise ValueError(
            f"unknown store backend {prefix.group(1)!r} in {text!r} "
            f"(valid prefixes: {valid}; use dir:{text} for a directory "
            f"whose name contains a colon)"
        )
    path = Path(text)
    if path.is_file():
        with path.open("rb") as handle:
            if handle.read(16).startswith(b"SQLite format 3"):
                return SQLiteBackend(path)
    return DirectoryBackend(path)


__all__ = [
    "BACKENDS",
    "DirectoryBackend",
    "SQLiteBackend",
    "StoreBackend",
    "open_backend",
]
