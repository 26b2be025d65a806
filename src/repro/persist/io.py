"""The patchable IO seam every persistence write goes through.

All mutating filesystem operations of the persistence layer (build DB,
compiler state, history store, report outputs) are dispatched
through one swappable :class:`IOBackend` instead of calling ``os``
directly.  In production the default backend is a thin passthrough; the
fault-injection harness (:mod:`repro.testing.faults`) installs a
wrapping backend that can kill, error, or tear any individual call —
which is what makes crash-consistency testable deterministically.

The seam covers exactly the *mutating* operations (open for write,
write, fsync, close, replace, unlink) plus ``sleep`` so retry/backoff
loops are instant under test.  Reads stay direct: a crash can only tear
what it was writing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

#: The mutating operations a backend mediates, in no particular order.
#: The fault harness uses this as the universe of injectable ops.
MUTATING_OPS = ("open", "write", "fsync", "close", "replace", "unlink")


class IOBackend:
    """Real OS calls.  Subclass and swap via :func:`use_backend` to test."""

    def open(self, path: str, flags: int, mode: int = 0o644) -> int:
        return os.open(path, flags, mode)

    def write(self, fd: int, data) -> int:
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        # fdatasync is enough for the atomic-replace protocol: it
        # flushes the data and the file size, and the subsequent
        # directory fsync makes the rename itself durable.  It skips
        # the mtime/atime flush, which halves the cost of persisting a
        # build DB on journaling filesystems.
        if hasattr(os, "fdatasync"):
            os.fdatasync(fd)
        else:  # pragma: no cover - macOS/Windows fallback
            os.fsync(fd)

    def close(self, fd: int) -> None:
        os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


_DEFAULT = IOBackend()
_backend: IOBackend = _DEFAULT


def backend() -> IOBackend:
    """The currently installed backend (the passthrough by default)."""
    return _backend


@contextmanager
def use_backend(replacement: IOBackend) -> Iterator[IOBackend]:
    """Install ``replacement`` for the duration of the ``with`` block.

    Not reentrancy-safe across threads by design: fault-injection tests
    own the whole process while they run, exactly like the crash they
    simulate would.
    """
    global _backend
    previous = _backend
    _backend = replacement
    try:
        yield replacement
    finally:
        _backend = previous
