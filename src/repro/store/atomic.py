"""Atomic file writes that honor the process umask.

Every durable artifact in this repository — store entries (the
engine's per-configuration results among them), the store's version
marker, the daemon's ready file — is written the same way: to a
temporary file in the destination directory, flushed, then moved over
the target with :func:`os.replace`, so readers only ever observe a
missing file or a complete one.

``tempfile.mkstemp`` deliberately creates files ``0600`` regardless of
the umask (its security contract).  That is wrong for a *published*
artifact: a sweep written by one user could not be resumed by a
teammate sharing the directory, because the shared result store would
be readable only by whoever happened to write each entry first.  The
helpers here re-apply the conventional ``0666 & ~umask`` mode to the
temporary file before the rename, so the final file carries the same
permissions a plain ``open(path, "w")`` would have produced.
"""

from __future__ import annotations

import os
import tempfile


def current_umask() -> int:
    """The process umask (read via the set-and-restore idiom).

    Momentarily sets the umask to 0 to read it; not atomic with
    respect to other threads calling ``os.umask`` concurrently, which
    no code in this repository does.
    """
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically with umask-honoring mode.

    The temporary file lives in ``path``'s directory so the final
    :func:`os.replace` stays on one filesystem.  On any failure the
    temporary file is removed and the previous contents of ``path``
    (if any) are untouched.
    """
    path = os.path.abspath(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        os.fchmod(fd, 0o666 & ~current_umask())
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


__all__ = ["atomic_write_bytes", "atomic_write_text", "current_umask"]
