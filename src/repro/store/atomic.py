"""Crash-safe file writes: tmp file in the target directory + ``os.replace``.

Every artifact this package persists -- store objects, the JSON index,
checkpoint manifests, experiment reports -- goes through these helpers,
so a run killed mid-write (Ctrl-C, OOM, power loss) leaves either the
complete previous file or the complete new file, never a truncated mix.
The tmp file lives next to the target because ``os.replace`` is atomic
only within one filesystem.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a temp file next to ``path``; atomically replace on success.

    Yields a file object.  If the body completes, the temp file is
    fsynced and renamed over ``path``; on any exception the temp file
    is removed and ``path`` is untouched.  Parent directories are
    created as needed.

    >>> import tempfile, pathlib
    >>> target = pathlib.Path(tempfile.mkdtemp()) / "x.txt"
    >>> with atomic_open(target) as f:
    ...     _ = f.write("done")
    >>> target.read_text()
    'done'
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **open_kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically write ``text`` to ``path``; returns the path."""
    with atomic_open(path, "w") as f:
        f.write(text)
    return Path(path)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically write ``data`` to ``path``; returns the path."""
    with atomic_open(path, "wb") as f:
        f.write(data)
    return Path(path)


def atomic_write_json(path: str | Path, payload, *, indent: int | None = 2
                      ) -> Path:
    """Atomically dump ``payload`` as JSON to ``path``; returns the path."""
    with atomic_open(path, "w") as f:
        json.dump(payload, f, indent=indent, sort_keys=False)
        f.write("\n")
    return Path(path)
