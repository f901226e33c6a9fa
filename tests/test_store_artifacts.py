"""Tests for the content-addressed artifact store and atomic writes."""

import json
import os
import pickle

import pytest

from repro.errors import ConfigError
from repro.store import (ArtifactStore, atomic_open, atomic_write_text,
                         default_root, fingerprint)


def key_of(value) -> str:
    return fingerprint(value, kind="test")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestAtomicWrites:
    def test_write_text(self, tmp_path):
        path = tmp_path / "deep" / "a.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_failure_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "original")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as f:
                f.write("half-writ")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "original"

    def test_failure_leaves_no_tmp_files(self, tmp_path):
        path = tmp_path / "a.txt"
        with pytest.raises(RuntimeError):
            with atomic_open(path) as f:
                f.write("x")
                raise RuntimeError
        assert list(tmp_path.iterdir()) == []


class TestDefaultRoot:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere"))
        assert default_root() == tmp_path / "elsewhere"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_root().name == "repro"


class TestStoreRoundTrip:
    def test_get_put_contains(self, store):
        key = key_of("a")
        assert key not in store
        assert store.get(key) is None
        store.put(key, {"x": [1, 2]}, kind="test", label="a")
        assert key in store
        assert store.get(key) == {"x": [1, 2]}

    def test_put_idempotent(self, store):
        key = key_of("b")
        store.put(key, 1)
        store.put(key, 1)
        assert store.stat()["entries"] == 1

    def test_delete(self, store):
        key = key_of("c")
        store.put(key, 3)
        assert store.delete(key)
        assert not store.delete(key)
        assert store.get(key) is None

    def test_bad_key_rejected(self, store):
        with pytest.raises(ConfigError):
            store.get("not-a-digest")

    def test_hit_miss_accounting(self, store):
        key = key_of("d")
        store.get(key)                      # miss
        store.put(key, "payload")
        store.get(key)                      # hit
        store.get(key)                      # hit
        stat = store.stat()
        assert stat["hits"] == 2
        assert stat["misses"] == 1
        assert store.entries()[key]["hits"] == 2

    def test_stat_by_kind(self, store):
        store.put(key_of("e"), 1, kind="path")
        store.put(key_of("f"), 2, kind="path")
        store.put(key_of("g"), 3, kind="sweep")
        by_kind = store.stat()["by_kind"]
        assert by_kind["path"]["entries"] == 2
        assert by_kind["sweep"]["entries"] == 1


class TestCorruptionRecovery:
    def test_truncated_object_counts_as_miss_and_is_dropped(self, store):
        key = key_of("h")
        path = store.put(key, {"big": list(range(100))})
        path.write_bytes(path.read_bytes()[:10])  # simulate torn write
        assert store.get(key) is None
        assert key not in store

    def test_index_rebuilt_after_deletion(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = key_of("i")
        store.put(key, "v", kind="path")
        (tmp_path / "s" / "index.json").unlink()
        fresh = ArtifactStore(tmp_path / "s")
        assert fresh.get(key) == "v"
        assert fresh.stat()["entries"] == 1

    def test_corrupt_index_rebuilt(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = key_of("j")
        store.put(key, "v")
        (tmp_path / "s" / "index.json").write_text("{not json")
        fresh = ArtifactStore(tmp_path / "s")
        assert fresh.get(key) == "v"

    @staticmethod
    def _corrupt_entry(root, mutate):
        """Rewrite index.json through ``mutate(entries_dict)``."""
        index_path = root / "index.json"
        index = json.loads(index_path.read_text())
        mutate(index["entries"])
        index_path.write_text(json.dumps(index))

    def test_gc_survives_torn_entry(self, tmp_path):
        """A mid-write crash can leave an entry as a bare string; gc
        must repair it from the object file, not abort."""
        store = ArtifactStore(tmp_path / "s")
        keep, torn = key_of("k1"), key_of("k2")
        store.put(keep, "v1")
        store.put(torn, "v2")
        self._corrupt_entry(store.root,
                            lambda e: e.update({torn: "garbage"}))
        fresh = ArtifactStore(tmp_path / "s")
        evicted, freed = fresh.prune(max_bytes=10**9)
        assert (evicted, freed) == (0, 0)
        assert fresh.get(keep) == "v1"
        assert fresh.get(torn) == "v2"  # entry rebuilt from the object
        assert fresh.entries()[torn]["size"] > 0

    def test_gc_survives_entry_missing_fields(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = key_of("k3")
        store.put(key, "v")
        self._corrupt_entry(store.root,
                            lambda e: e[key].pop("last_access"))
        fresh = ArtifactStore(tmp_path / "s")
        evicted, _ = fresh.prune(max_age_s=10**9)
        assert evicted == 0
        assert fresh.get(key) == "v"

    def test_gc_drops_entry_for_missing_object(self, tmp_path):
        """A torn entry whose object is also gone has nothing to
        account: it is dropped, and gc proceeds over the rest."""
        store = ArtifactStore(tmp_path / "s")
        keep, ghost = key_of("k4"), key_of("k5")
        store.put(keep, "v")
        store.put(ghost, "v")
        store._object_path(ghost).unlink()
        self._corrupt_entry(store.root,
                            lambda e: e.update({ghost: None}))
        fresh = ArtifactStore(tmp_path / "s")
        fresh.prune(max_bytes=10**9)
        assert ghost not in fresh.entries()
        assert fresh.get(keep) == "v"

    def test_gc_survives_non_hex_key(self, tmp_path):
        """A non-hex key cannot map to an object path; it must be
        dropped from the index rather than crash prune."""
        store = ArtifactStore(tmp_path / "s")
        keep = key_of("k6")
        store.put(keep, "v")
        self._corrupt_entry(
            store.root,
            lambda e: e.update({"not-a-digest!": {"size": 1}}))
        fresh = ArtifactStore(tmp_path / "s")
        evicted, _ = fresh.prune(max_age_s=0.0, max_bytes=0)
        assert evicted == 1  # only the real entry was evictable
        assert "not-a-digest!" not in fresh.entries()

    def test_stat_survives_torn_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = key_of("k7")
        store.put(key, "v")
        self._corrupt_entry(store.root,
                            lambda e: e.update({key: 123}))
        fresh = ArtifactStore(tmp_path / "s")
        stats = fresh.stat()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0


class TestPrune:
    def test_prune_by_age(self, store):
        old, new = key_of("old"), key_of("new")
        store.put(old, "x")
        store.put(new, "y")
        index = store._load_index()
        index["entries"][old]["last_access"] -= 7 * 86400
        evicted, freed = store.prune(max_age_s=86400.0)
        assert evicted == 1
        assert freed > 0
        assert old not in store
        assert new in store

    def test_prune_lru_to_byte_budget(self, store):
        keys = [key_of(f"k{i}") for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, "v" * 100)
            store._load_index()["entries"][key]["last_access"] = 1000.0 + i
        size = store.entries()[keys[0]]["size"]
        evicted, _ = store.prune(max_bytes=2 * size)
        assert evicted == 2
        assert keys[0] not in store and keys[1] not in store  # oldest
        assert keys[2] in store and keys[3] in store

    def test_prune_nothing_when_within_budget(self, store):
        store.put(key_of("l"), "v")
        assert store.prune(max_bytes=10**9) == (0, 0)

    def test_bad_arguments_rejected(self, store):
        with pytest.raises(ConfigError):
            store.prune(max_age_s=-1)
        with pytest.raises(ConfigError):
            store.prune(max_bytes=-1)


class TestOnDiskLayout:
    def test_objects_sharded_by_prefix(self, store):
        key = key_of("m")
        path = store.put(key, 1)
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.pkl"

    def test_index_is_json(self, store):
        store.put(key_of("n"), 1)
        index = json.loads((store.root / "index.json").read_text())
        assert index["version"] == 1
        assert len(index["entries"]) == 1


class TestAccessLog:
    """``get`` appends to ``access.log``; the index counts it later."""

    @staticmethod
    def _count_index_io(monkeypatch):
        """Count index.json parses, index.json writes and lock takes."""
        from repro.store import atomic
        counts = {"reads": 0, "writes": 0, "locks": 0}
        real_loads, real_open = json.loads, atomic.atomic_open
        real_lock = ArtifactStore._index_lock

        def loads(*args, **kwargs):
            counts["reads"] += 1
            return real_loads(*args, **kwargs)

        def atomic_open(path, *args, **kwargs):
            if os.path.basename(path) == "index.json":
                counts["writes"] += 1
            return real_open(path, *args, **kwargs)

        def index_lock(self):
            counts["locks"] += 1
            return real_lock(self)

        monkeypatch.setattr(json, "loads", loads)
        monkeypatch.setattr(atomic, "atomic_open", atomic_open)
        monkeypatch.setattr(ArtifactStore, "_index_lock", index_lock)
        return counts

    def test_get_does_no_index_io(self, store, monkeypatch):
        """Hit or miss, on a 2,000-entry store: no index.json read or
        write and no lock -- the per-get cost cannot depend on how
        much the store holds."""
        keys = [key_of(i) for i in range(2000)]
        for key in keys:  # objects written directly, indexed below
            path = store._object_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps(key))
        store.put(key_of("one more"), 0)  # rebuilds + saves the index
        index_path = store.root / "index.json"
        before = (index_path.stat().st_ino, index_path.stat().st_mtime_ns,
                  index_path.read_bytes())
        assert len(json.loads(before[2])["entries"]) == 2001

        counts = self._count_index_io(monkeypatch)
        for i in range(50):
            assert store.get(keys[i * 40]) == keys[i * 40]
            assert store.get(key_of(("absent", i))) is None
        assert counts == {"reads": 0, "writes": 0, "locks": 0}
        assert before == (index_path.stat().st_ino,
                          index_path.stat().st_mtime_ns,
                          index_path.read_bytes())
        monkeypatch.undo()
        stat = store.stat()
        assert (stat["hits"], stat["misses"]) == (50, 50)

    def test_put_writes_index_once(self, store, monkeypatch):
        store.put(key_of("p0"), 0)
        counts = self._count_index_io(monkeypatch)
        store.put(key_of("p1"), 1)
        assert (counts["writes"], counts["locks"]) == (1, 1)
        # nobody else saved in between: the handle's copy is reused
        assert counts["reads"] == 0

    def test_prune_from_fresh_handle_honours_logged_access(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        a, b, c = key_of("a"), key_of("b"), key_of("c")
        for key in (a, b, c):
            store.put(key, "v" * 100)
        assert store.get(a) == "v" * 100  # a is now the most recent
        size = store.entries()[a]["size"]
        fresh = ArtifactStore(tmp_path / "s")
        assert fresh.prune(max_bytes=2 * size) == (1, size)
        assert b not in fresh and a in fresh and c in fresh

    def test_fold_skips_torn_and_stale_lines(self, store):
        kept, gone = key_of("kept"), key_of("gone")
        store.put(kept, 1)
        store.put(gone, 2)
        store.get(kept)
        store.get(gone)
        store._object_path(gone).unlink()  # behind the index's back
        store.delete(gone)
        with open(store.root / "access.log", "ab") as log:
            log.write(f"{gone} 1700000000.0 h\n".encode())
            log.write(b"garbage\n\xff\xfe\n" + kept.encode() + b" nan\n")
            log.write(kept.encode() + b" 17000")  # torn: no newline
        stat = store.stat()
        assert (stat["hits"], stat["misses"]) == (3, 0)
        assert gone not in store.entries()
        assert store.entries()[kept]["hits"] == 1
        store.get(kept)  # lands right behind the torn line
        assert store.entries()[kept]["hits"] == 2

    def test_fold_waits_for_a_half_written_line(self, store):
        """A fold that reads an append still being copied in leaves the
        torn tail for the next fold instead of counting neither half."""
        key = key_of("half")
        store.put(key, "v")
        line = f"{key} 1700000000.5 h\n".encode()
        log_path = store.root / "access.log"
        with open(log_path, "ab") as log:
            log.write(line[:len(line) // 2])
        assert store.stat()["hits"] == 0
        with open(log_path, "ab") as log:
            log.write(line[len(line) // 2:])
        assert store.stat()["hits"] == 1
        assert store.entries()[key]["hits"] == 1

    def test_stat_sees_other_handles_hits(self, tmp_path):
        a = ArtifactStore(tmp_path / "s")
        key = key_of("shared")
        a.put(key, "v")
        assert a.stat()["hits"] == 0
        b = ArtifactStore(tmp_path / "s")
        for _ in range(3):
            b.get(key)
        assert a.stat()["hits"] == 3  # from the log
        b.get(key)
        assert b.entries()[key]["hits"] == 4  # b folds and saves ...
        assert a.stat()["hits"] == 4  # ... and a re-reads the index
        assert a.entries()[key]["hits"] == 4

    def test_stat_leaves_nothing_to_fold(self, store):
        key = key_of("q")
        store.put(key, "v")
        store.get(key)
        store.get(key_of("absent"))
        assert store.stat()["hits"] == 1
        index_path = store.root / "index.json"
        index = json.loads(index_path.read_text())
        assert index["log_offset"] == \
            (store.root / "access.log").stat().st_size
        inode = index_path.stat().st_ino
        assert store.stat()["misses"] == 1
        assert index_path.stat().st_ino == inode  # nothing new: no save

    def test_log_is_cut_past_fold_bytes(self, store, monkeypatch):
        """The get that grows the log past LOG_FOLD_BYTES folds it, and
        a fold that has counted that much empties it."""
        from repro.store import artifacts
        monkeypatch.setattr(artifacts, "LOG_FOLD_BYTES", 1000)
        key = key_of("r")
        store.put(key, "v")
        log_path = store.root / "access.log"
        sizes = []
        for _ in range(40):
            store.get(key)
            sizes.append(log_path.stat().st_size)
        assert max(sizes) < 1200 and sizes.count(0) >= 2
        assert store.stat()["hits"] == 40
        assert store.entries()[key]["hits"] == 40
