"""Tests for the pluggable store backends (dir, sqlite).

The concurrency tests fork real processes: the whole point of the SQLite
backend is that several writers — a daemon, a tuner, a shell ``repro run``
— can share one cache without corrupting it.
"""

import json
import multiprocessing
import os
import shutil
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.backends import (
    BACKENDS,
    DirectoryBackend,
    SQLiteBackend,
    open_backend,
)
from repro.experiments.store import ArtifactStore

from test_experiment_store import make_result

#: Fork (not spawn) so worker closures and tmp paths carry over cheaply;
#: the suite only runs on POSIX hosts.
_mp = multiprocessing.get_context("fork")


def _make_backend(kind: str, tmp_path):
    if kind == "dir":
        return DirectoryBackend(tmp_path / "store")
    return SQLiteBackend(tmp_path / "store.db")


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    return _make_backend(request.param, tmp_path)


class TestBackendContract:
    def test_round_trip_and_delete(self, backend):
        assert backend.get("fig07.json") is None
        backend.put("fig07.json", '{"a": 1}')
        assert backend.get("fig07.json") == '{"a": 1}'
        backend.put("fig07.json", '{"a": 2}')
        assert backend.get("fig07.json") == '{"a": 2}'
        assert backend.delete("fig07.json") is True
        assert backend.delete("fig07.json") is False
        assert backend.get("fig07.json") is None

    def test_keys_with_prefix(self, backend):
        backend.put("fig07.json", "{}")
        backend.put("manifest.json", "{}")
        backend.put("tuning-points/abc.json", "{}")
        backend.put("scenario-results/0f.json", "{}")
        assert backend.keys() == sorted(
            ["fig07.json", "manifest.json", "tuning-points/abc.json",
             "scenario-results/0f.json"]
        )
        assert backend.keys("tuning-points/") == ["tuning-points/abc.json"]
        assert backend.keys("scenario-results/") == ["scenario-results/0f.json"]

    def test_exact_text_preserved(self, backend):
        text = '{\n  "b": 1,\n  "a": [1, 2]\n}'
        backend.put("x.json", text)
        assert backend.get("x.json") == text

    def test_keys_roundtrip_awkward_names(self, backend):
        """Keys containing ``__`` or ``%`` must list back verbatim — a naive
        ``/`` <-> ``__`` flattening would decode ``a__b.json`` as ``a/b.json``
        and lose it from manifests."""
        awkward = ["a__b.json", "scenario-results/a__b.json", "pct%2F.json"]
        for key in awkward:
            backend.put(key, "{}")
        assert backend.keys() == sorted(awkward)
        for key in awkward:
            assert backend.get(key) == "{}"

    @pytest.mark.parametrize("bad", ["", "/abs.json", "../up.json", "a/../b.json", ".hidden"])
    def test_rejects_escaping_keys(self, backend, bad):
        with pytest.raises(ValueError):
            backend.put(bad, "{}")

    def test_lock_is_reentrant_across_keys(self, backend):
        with backend.lock("manifest.json"):
            backend.put("other.json", "{}")
        assert backend.get("other.json") == "{}"

    def test_describe_mentions_location(self, backend):
        assert str(backend.root if hasattr(backend, "root") else backend.path) in (
            backend.describe()
        )


class TestRecordEncoding:
    """Cache records (scenario results, tuning points) are written as sorted
    compact JSON; experiment artifacts and the manifest stay indented."""

    def test_records_are_compact_and_artifacts_indented(self, backend):
        store = ArtifactStore("store", backend)
        store.save_scenario_result("ab" * 32, {"id": "s"}, make_result("s").to_dict(), 0.5)
        store.save_tuning_point("cd" * 32, {"value": 1.0})
        store.save(make_result("fig00"), scale=8.0, wall_time_s=0.1)
        for key in backend.keys(""):
            text = backend.get(key)
            if key.endswith("manifest.json") or "fig00" in key:
                assert text.startswith("{\n  "), key
            else:
                assert "\n" not in text and ": " not in text and ", " not in text, key
                assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    def test_an_indented_record_still_loads_as_a_hit(self, backend):
        """A record written indented (as earlier versions wrote every record)
        is served, equal to its compact twin."""
        store = ArtifactStore("store", backend)
        result = make_result("s").to_dict()
        store.save_scenario_result("ab" * 32, {"id": "s"}, result, 0.5)
        store.save_tuning_point("cd" * 32, {"value": 1.0})
        compact = (store.load_scenario_result("ab" * 32), store.load_tuning_point("cd" * 32))
        for key in backend.keys(""):
            if "ab" * 32 in key or "cd" * 32 in key:
                backend.put(key, json.dumps(json.loads(backend.get(key)), indent=2, sort_keys=True))
        indented = (store.load_scenario_result("ab" * 32), store.load_tuning_point("cd" * 32))
        assert indented == compact and None not in indented
        assert indented[0].result == result


class TestOpenBackend:
    def test_plain_path_is_directory(self, tmp_path):
        assert isinstance(open_backend(tmp_path / "a"), DirectoryBackend)

    def test_explicit_prefixes(self, tmp_path):
        assert isinstance(open_backend(f"dir:{tmp_path}/a"), DirectoryBackend)
        assert isinstance(open_backend(f"sqlite:{tmp_path}/c.db"), SQLiteBackend)

    def test_reopens_sqlite_file_without_prefix(self, tmp_path):
        SQLiteBackend(tmp_path / "c.db").put("x.json", "{}")
        reopened = open_backend(tmp_path / "c.db")
        assert isinstance(reopened, SQLiteBackend)
        assert reopened.get("x.json") == "{}"

    def test_store_from_spec(self, tmp_path):
        store = ArtifactStore.from_spec(f"sqlite:{tmp_path}/c.db")
        store.save(make_result(), scale=8.0, wall_time_s=0.1)
        assert store.load("demo") == make_result()
        assert isinstance(store.backend, SQLiteBackend)

    @pytest.mark.parametrize("spec", ["sqllite:x.db", "sharded:x", "Dir:x"])
    def test_rejects_unknown_prefix(self, tmp_path, monkeypatch, spec):
        """A mistyped prefix is an error, never a directory named after it."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="valid prefixes: dir:, sqlite:"):
            open_backend(spec)
        with pytest.raises(ValueError):
            ArtifactStore.from_spec(spec)
        assert list(tmp_path.iterdir()) == []

    def test_colon_directory_stays_reachable_with_dir_prefix(self, tmp_path):
        backend = open_backend(f"dir:{tmp_path}/odd:name")
        assert isinstance(backend, DirectoryBackend)
        backend.put("x.json", "{}")
        assert (tmp_path / "odd:name" / "x.json").is_file()
        # An absolute path is never mistaken for a prefix.
        assert open_backend(f"{tmp_path}/odd:name").get("x.json") == "{}"

    def test_drive_letter_is_a_plain_path(self):
        backend = open_backend("C:artifacts")
        assert isinstance(backend, DirectoryBackend)
        assert str(backend.root) == "C:artifacts"


# --------------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------------- #


def _hammer_same_key(kind: str, root: str, worker: int, writes: int) -> None:
    backend = open_backend(root)
    for index in range(writes):
        backend.put(
            "scenario-results/contended.json",
            json.dumps({"worker": worker, "write": index, "pad": "x" * 2048}),
        )


def _hammer_store_shard(kind: str, root: str, worker: int) -> None:
    store = ArtifactStore.from_spec(root)
    for _ in range(5):
        store.save(make_result("contended"), scale=8.0, wall_time_s=0.1)


def _crash_holding_sqlite_lock(path: str) -> None:
    with SQLiteBackend(path).lock("victim.json"):
        os._exit(1)  # die without unlocking: flock must evaporate with us


def _take_sqlite_lock(path: str) -> None:
    backend = SQLiteBackend(path)
    with backend.lock("victim.json"):
        backend.put("victim.json", '{"after": 1}')


def _crash_mid_sqlite_txn(path: str) -> None:
    import sqlite3

    conn = sqlite3.connect(path, timeout=30.0)
    conn.execute("BEGIN IMMEDIATE")
    conn.execute(
        "INSERT OR REPLACE INTO blobs (key, value, updated_utc) "
        "VALUES ('victim.json', '{\"torn\": ', '')"
    )
    os._exit(1)  # never commits: the transaction must roll back


def _run(target, *args) -> int:
    process = _mp.Process(target=target, args=args)
    process.start()
    process.join(timeout=60)
    assert process.exitcode is not None, "worker hung"
    return process.exitcode


def _check_same_key_from_processes(backend, root: str) -> None:
    workers = [
        _mp.Process(target=_hammer_same_key, args=(backend.name, root, worker, 20))
        for worker in range(4)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
        assert process.exitcode == 0
    final = backend.get("scenario-results/contended.json")
    payload = json.loads(final)  # a torn write would fail to parse
    assert payload["write"] == 19  # every worker's last write was #19
    assert "x" * 2048 == payload["pad"]


@pytest.mark.parametrize("kind", ["sqlite"])
class TestConcurrentWriters:
    def test_same_key_from_many_processes(self, kind, tmp_path):
        """N processes rewriting one key leave a complete, valid JSON value."""
        backend = _make_backend(kind, tmp_path)
        backend.put("seed.json", "{}")  # create the store up-front
        _check_same_key_from_processes(backend, f"{kind}:{backend.path}")

    def test_same_key_from_many_processes_on_a_cold_store(self, kind, tmp_path):
        """The same, with the workers the first to touch the database."""
        backend = _make_backend(kind, tmp_path)
        _check_same_key_from_processes(backend, f"{kind}:{backend.path}")

    def test_lock_excludes_sibling_threads(self, kind, tmp_path):
        """Re-entrancy is per thread: a second thread of the same process
        must block on the lock, not piggy-back on the holder's entry."""
        backend = _make_backend(kind, tmp_path)
        order = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with backend.lock("k.json"):
                entered.set()
                release.wait(timeout=30)
                order.append("holder-exit")

        def contender():
            assert entered.wait(timeout=30)
            with backend.lock("k.json"):
                order.append("contender-enter")

        threads = [
            threading.Thread(target=holder),
            threading.Thread(target=contender),
        ]
        for thread in threads:
            thread.start()
        assert entered.wait(timeout=30)
        time.sleep(0.2)  # give a buggy contender time to slip inside
        assert "contender-enter" not in order
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert order == ["holder-exit", "contender-enter"]

    def test_same_key_from_sibling_threads(self, kind, tmp_path):
        """Threads of one process rewriting one key never tear the value."""
        backend = _make_backend(kind, tmp_path)
        errors = []

        def work(worker):
            try:
                for index in range(25):
                    backend.put(
                        "scenario-results/contended.json",
                        json.dumps(
                            {"worker": worker, "write": index, "pad": "x" * 2048}
                        ),
                    )
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        payload = json.loads(backend.get("scenario-results/contended.json"))
        assert payload["write"] == 24
        assert payload["pad"] == "x" * 2048

    def test_store_level_same_shard(self, kind, tmp_path):
        """Two processes saving the same (id, scale) artifact stay consistent."""
        backend = _make_backend(kind, tmp_path)
        backend.put("seed.json", "{}")
        root = f"{kind}:{backend.path}"
        workers = [
            _mp.Process(target=_hammer_store_shard, args=(kind, root, worker))
            for worker in range(2)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
            assert process.exitcode == 0
        store = ArtifactStore.from_spec(root)
        assert store.load("contended") == make_result("contended")
        manifest = store.read_manifest()
        assert "contended" in manifest["experiments"]


    def test_repeated_cold_starts_from_sibling_threads(self, kind, tmp_path):
        """Threads that first touch a fresh database together never trip
        over each other while one of them creates the schema."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to hit the race
        try:
            for round_ in range(20):
                backend = _make_backend(kind, tmp_path / f"round{round_}")
                errors = []
                start = threading.Barrier(4)

                def work(worker):
                    try:
                        start.wait(timeout=30)
                        for index in range(10):
                            backend.put(f"w{worker}/{index}.json", "{}")
                    except Exception as error:  # surfaced after join
                        errors.append(error)

                threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive(), "writer hung"
                assert not errors, f"round {round_}: {errors!r}"
                assert len(backend.keys()) == 40
        finally:
            sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- #
# SQLite connection lifecycle
# --------------------------------------------------------------------------- #


@pytest.fixture
def connects(monkeypatch):
    """Every ``sqlite3.connect`` call, as a ``(pid, thread id)`` counter."""
    seen: Counter = Counter()
    real = sqlite3.connect

    def counting(*args, **kwargs):
        seen[(os.getpid(), threading.get_ident())] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting)
    return seen


def _write_child_keys(backend: SQLiteBackend) -> None:
    for index in range(10):
        backend.put(f"child/{index}.json", json.dumps({"index": index}))
    assert backend.get("parent.json") == '{"from": "parent"}'


def _put_one(path: str, key: str, text: str) -> None:
    SQLiteBackend(path).put(key, text)


def _write_rows(path: str, count: int) -> None:
    backend = SQLiteBackend(path)
    for index in range(count):
        backend.put(f"rows/{index:03d}.json", json.dumps({"index": index}))


class TestSQLiteConnections:
    def test_one_connect_per_process_and_thread(self, tmp_path, connects):
        backend = SQLiteBackend(tmp_path / "c.db")
        for index in range(25):
            backend.put(f"k{index}.json", "{}")
            assert backend.get(f"k{index}.json") == "{}"
            assert f"k{index}.json" in backend.keys("k")
            assert backend.delete(f"k{index}.json") is True
        assert list(connects.values()) == [1]

    def test_one_connect_per_sibling_thread(self, tmp_path, connects):
        backend = SQLiteBackend(tmp_path / "c.db")
        errors = []

        def work(worker):
            try:
                for index in range(25):
                    backend.put(f"w{worker}/{index}.json", "{}")
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "writer hung"
        assert not errors
        assert len(connects) == 4
        assert set(connects.values()) == {1}
        assert len(backend.keys()) == 100

    def test_forked_child_opens_its_own_connection(self, tmp_path):
        """A child forked while the parent holds a warm connection writes
        through the same backend object; the parent carries on after it."""
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.put("parent.json", '{"from": "parent"}')
        assert _run(_write_child_keys, backend) == 0
        assert backend.keys("child/") == sorted(f"child/{i}.json" for i in range(10))
        assert backend.get("child/9.json") == '{"index": 9}'
        backend.put("parent.json", '{"again": true}')
        assert backend.get("parent.json") == '{"again": true}'

    def test_warm_connection_sees_other_process_commits(self, tmp_path):
        """An idle connection holds no read snapshot: the next read sees
        what another process committed since."""
        backend = SQLiteBackend(tmp_path / "c.db")
        for name in ("a", "b", "k"):
            backend.put(f"{name}.json", '{"v": 1}')
        assert backend.keys() == ["a.json", "b.json", "k.json"]
        assert backend.get("k.json") == '{"v": 1}'
        assert _run(_put_one, str(backend.path), "k.json", '{"v": 2}') == 0
        assert backend.get("k.json") == '{"v": 2}'
        assert _run(_put_one, str(backend.path), "new.json", "{}") == 0
        assert backend.keys() == ["a.json", "b.json", "k.json", "new.json"]

    @pytest.mark.parametrize("how", ["fork", "interpreter"])
    def test_database_file_alone_holds_every_row_after_exit(self, tmp_path, how):
        """Once the writer exits normally, the ``.db`` file can be shipped
        without its ``-wal`` and ``-shm`` companions."""
        path = tmp_path / "c.db"
        if how == "fork":
            assert _run(_write_rows, str(path), 50) == 0
        else:
            src = Path(__file__).resolve().parents[1] / "src"
            script = (
                "import sys\n"
                "from repro.experiments.backends import SQLiteBackend\n"
                "backend = SQLiteBackend(sys.argv[1])\n"
                "for index in range(50):\n"
                "    backend.put(f'rows/{index:03d}.json', '{}')\n"
            )
            env = {**os.environ, "PYTHONPATH": str(src)}
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
        shipped = tmp_path / "shipped" / "c.db"
        shipped.parent.mkdir()
        shutil.copyfile(path, shipped)
        conn = sqlite3.connect(shipped)
        try:
            (count,) = conn.execute("SELECT COUNT(*) FROM blobs").fetchone()
        finally:
            conn.close()
        assert count == 50


class TestCrashSafety:
    def test_sqlite_lock_dies_with_its_holder(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        assert _run(_crash_holding_sqlite_lock, str(backend.path)) == 1
        # A crashed holder must not wedge later writers (flock semantics):
        # the next process takes the same sibling .lock file within the
        # join timeout instead of hanging.
        assert _run(_take_sqlite_lock, str(backend.path)) == 0
        assert backend.get("victim.json") == '{"after": 1}'

    def test_sqlite_crash_mid_transaction_rolls_back(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.put("victim.json", '{"ok": true}')
        assert _run(_crash_mid_sqlite_txn, str(backend.path)) == 1
        assert backend.get("victim.json") == '{"ok": true}'
        backend.put("victim.json", '{"ok": 2}')
        assert backend.get("victim.json") == '{"ok": 2}'


class TestDefaultLayoutUnchanged:
    def test_directory_backend_writes_flat_files(self, tmp_path):
        """The default store keeps the historical one-file-per-artifact layout."""
        store = ArtifactStore(tmp_path)
        store.save(make_result(), scale=8.0, wall_time_s=0.1)
        assert (tmp_path / "demo.json").is_file()
        assert (tmp_path / "manifest.json").is_file()
        assert isinstance(store.backend, DirectoryBackend)

    def test_all_backends_serve_the_same_store_api(self, tmp_path):
        specs = {
            "dir": f"dir:{tmp_path}/d",
            "sqlite": f"sqlite:{tmp_path}/c.db",
        }
        texts = {}
        for kind, spec in specs.items():
            store = ArtifactStore.from_spec(spec)
            store.save(make_result(), scale=8.0, wall_time_s=0.1)
            texts[kind] = store.backend.get("demo.json")
        # The stored JSON text is identical across backends: the store
        # serialises, backends only place blobs.
        assert texts["dir"] == texts["sqlite"]
