"""Crash-safe artifact writes: tmp file + fsync + atomic rename.

A bare ``open(path, "w")`` truncates its target the moment it opens, so
a process killed mid-write (or mid-flush) leaves a half-written file
behind — a silently poisoned run history, trace or benchmark baseline.
:func:`atomic_write` closes that window: content goes to a temporary
file in the same directory, is fsynced to stable storage, and only then
renamed over the target with ``os.replace``.  Readers therefore observe
either the complete old content or the complete new content, never a
mix; a crash at any point leaves the target untouched.

This module is the single place in the library allowed to open files
for writing directly (``tests/test_source_scans.py`` checks it);
everything else routes one-shot artifact writes through here.
Streaming writers (``repro.obs.sinks.JsonlSink``) are the exception —
they append line-oriented events to their final path and use
:func:`fsync_file` at flush points instead.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "fsync_file",
]

PathLike = Union[str, Path]

_ALLOWED_MODES = ("w", "wb")


def fsync_file(fh: IO) -> None:
    """Flush Python and OS buffers of an open file to stable storage."""
    fh.flush()
    os.fsync(fh.fileno())


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: PathLike, mode: str = "w") -> Iterator[IO]:
    """Context manager yielding a handle whose content replaces ``path``.

    The handle writes to a temporary file next to the target; on clean
    exit it is fsynced and atomically renamed over ``path`` (and the
    directory entry fsynced).  On any exception the temporary file is
    removed and the target is left exactly as it was.  ``mode`` must be
    ``"w"`` (text, UTF-8) or ``"wb"``.
    """
    if mode not in _ALLOWED_MODES:
        raise ValueError(
            f"mode must be one of {_ALLOWED_MODES} (whole-file replacement "
            f"only), got {mode!r}"
        )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            yield fh
            fsync_file(fh)
        os.replace(tmp, target)
        _fsync_dir(target.parent)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    with atomic_write(path, "w") as fh:
        fh.write(text)
