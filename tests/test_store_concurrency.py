"""Concurrent multi-process and multi-thread ArtifactStore access.

The store's writes are atomic (tmp file + ``os.replace``), which is
what lets several server workers -- or a server plus a batch run --
share one store root.  These tests hammer the same fingerprint from
multiple processes and assert no torn objects or corrupt index ever
become visible, and that hit accounting through the shared access log
is exact.
"""

import json
import os
import pickle
import subprocess
import sys
import threading

from repro.store import ArtifactStore

#: Worker body: N racing puts of the SAME key + payload, then a get.
_WORKER = """
import os, sys
sys.path.insert(0, {src!r})
from repro.store import ArtifactStore

store = ArtifactStore({root!r})
payload = {{"rows": list(range(500)), "tag": "shared"}}
for _ in range(20):
    store.put("{key}", payload, kind="race-test", label="concurrent")
    got = store.get("{key}")
    assert got == payload, f"torn read: {{got!r}}"
print("ok")
"""


def _spawn_writers(tmp_path, n, key="cafe" * 16):
    import os

    import repro
    src = os.path.dirname(next(iter(repro.__path__)))
    root = str(tmp_path / "shared-store")
    script = _WORKER.format(src=src, root=root, key=key)
    procs = [subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
             for _ in range(n)]
    outs = [p.communicate(timeout=120) for p in procs]
    return root, procs, outs


def test_concurrent_put_same_fingerprint(tmp_path):
    key = "ab" * 32
    root, procs, outs = _spawn_writers(tmp_path, n=4, key=key)
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
        assert out.decode().strip() == "ok"

    store = ArtifactStore(root)
    # exactly one object file for the key, and it is a valid pickle
    payload = store.get(key)
    assert payload == {"rows": list(range(500)), "tag": "shared"}
    with open(store._object_path(key), "rb") as f:
        assert pickle.load(f) == payload
    # the index survived the races: loadable, entry present, stat sane
    entry = store.entries()[key]
    assert entry["kind"] == "race-test"
    stat = store.stat()
    assert stat["entries"] >= 1
    assert stat["bytes"] > 0


def test_concurrent_put_is_idempotent_with_reader(tmp_path):
    """A reader process polling mid-race never sees a partial object."""
    key = "cd" * 32
    root, procs, outs = _spawn_writers(tmp_path, n=2, key=key)
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
    # every racing process also read its own writes back (asserted in
    # the worker); the final state is a single coherent entry
    store = ArtifactStore(root)
    assert key in store
    assert len([k for k in store.entries() if k == key]) == 1


#: Worker body: wait for the starting gun, then either 50 gets over
#: the 10 shared keys or 25 puts of keys of its own.
_ACCOUNTING_WORKER = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.store import ArtifactStore

store = ArtifactStore({root!r})
role, n = sys.argv[1], int(sys.argv[2])
while not os.path.exists(os.path.join({root!r}, "go")):
    time.sleep(0.001)
if role == "get":
    for i in range(50):
        assert store.get(f"{{i % 10:02x}}" * 32) == i % 10
else:
    for i in range(25):
        store.put(f"{{n:x}}{{i:03x}}" * 16, i, kind="race-test")
print("ok")
"""


def test_multiprocess_hit_accounting(tmp_path):
    """4 processes x 50 gets on 10 shared keys, racing 2 processes
    putting other keys: every hit is counted exactly once.

    What makes this exact rather than approximate: each ``get``
    appends its line with one ``O_APPEND`` write, so lines from any
    number of processes land whole and none overwrites another, and
    each ``put``'s fold records the log offset it has counted in the
    same atomic index write as the counts, so no line is counted
    twice or skipped whichever process folds it.
    """
    import repro
    src = os.path.dirname(next(iter(repro.__path__)))
    root = tmp_path / "shared-store"
    shared = [f"{i:02x}" * 32 for i in range(10)]
    seed = ArtifactStore(root)
    for i, key in enumerate(shared):
        seed.put(key, i)
    script = _ACCOUNTING_WORKER.format(src=src, root=str(root))
    roles = [("get", 0)] * 4 + [("put", 0xa), ("put", 0xb)]
    procs = [subprocess.Popen([sys.executable, "-c", script, role, str(n)],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
             for role, n in roles]
    (root / "go").touch()
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert out.decode().strip() == "ok"

    fresh = ArtifactStore(root)
    assert fresh.stat()["hits"] == 200
    entries = fresh.entries()
    assert sum(entries[key]["hits"] for key in shared) == 200
    put_keys = [f"{n:x}{i:03x}" * 16 for n in (0xa, 0xb) for i in range(25)]
    assert all(entries[key]["kind"] == "race-test" for key in put_keys)
    with open(root / "index.json") as f:
        assert len(json.load(f)["entries"]) == 60


def test_shared_handle_threads(tmp_path):
    """One handle shared by a getter, a putter and a ``stat`` thread --
    ``repro serve``'s arrangement: ``JobManager.submit`` reads the
    store on the loop thread while job bodies write through the same
    handle on executor threads."""
    store = ArtifactStore(tmp_path / "store")
    hot = [f"{i:02x}" * 32 for i in range(8)]
    for i, key in enumerate(hot):
        store.put(key, i)
    put_keys = [f"{i:04x}" * 16 for i in range(0x1000, 0x1000 + 300)]
    errors = []
    done = threading.Event()

    def guarded(body):
        def run():
            try:
                body()
            except Exception as exc:  # surface in the main thread
                errors.append(exc)
        return threading.Thread(target=run)

    def getter():
        for i in range(300):
            assert store.get(hot[i % 8]) == i % 8

    def putter():
        for i, key in enumerate(put_keys):
            store.put(key, i, kind="thread-test")

    def statter():
        while not done.is_set():
            assert store.stat()["entries"] >= 8
            store.entries()

    workers = [guarded(getter), guarded(putter)]
    watcher = guarded(statter)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in workers + [watcher]:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
        done.set()
        watcher.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers + [watcher])
    assert not errors, errors
    assert store.stat()["hits"] == 300
    entries = store.entries()
    assert sum(entries[key]["hits"] for key in hot) == 300
    assert all(key in entries for key in put_keys)
