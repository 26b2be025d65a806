"""Append-only logs of checksummed entries, one entry per line.

The compiler state's delta log (``<db>.state.log``) persists each build's
changes as one more entry instead of rewriting the whole state, so a
build writes bytes in proportion to what it touched.  The crash story
mirrors :func:`~repro.persist.atomic.atomic_write`'s:

- an entry is written as ``\\n<digest> <payload>\\n`` with one
  ``O_APPEND`` write, then fsynced; ``<digest>`` is a truncated SHA-256
  of the payload;
- :func:`read_entries` returns the payloads whose digest verifies and
  skips every other line, so a torn tail (a build killed mid-append) is
  dropped instead of being parsed as garbage;
- the leading newline means an entry appended after a torn tail starts
  on a line of its own: the damage never spreads to the next entry.

Writes go through the :mod:`repro.persist.io` seam, so the
fault-injection harness can kill or tear any of them.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.persist import io
from repro.persist.atomic import with_retry

#: Hex characters of SHA-256 kept per entry: enough to catch any torn
#: or damaged line, short enough not to bloat small entries.
DIGEST_CHARS = 16


def _digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).hexdigest()[:DIGEST_CHARS].encode("ascii")


def encode_entry(payload: bytes) -> bytes:
    """The exact bytes :func:`append_entry` writes for ``payload``."""
    if b"\n" in payload:
        raise ValueError("log entry payloads must be single-line")
    return b"\n" + _digest(payload) + b" " + payload + b"\n"


def entry_size(payload_bytes: int) -> int:
    """The bytes :func:`append_entry` writes for a payload of this size."""
    return payload_bytes + DIGEST_CHARS + 3


def append_entry(path: str | Path, payload: bytes, *, durable: bool = True) -> int:
    """Append one checksummed entry; returns the bytes appended.

    Transient errors are retried with :func:`atomic_write`'s default
    policy.  A retry after a partial write leaves a torn line followed
    by the complete entry, which :func:`read_entries` reads as just the
    entry.
    """
    data = encode_entry(payload)
    with_retry(lambda: _append_once(Path(path), data, durable=durable))
    return len(data)


def _append_once(path: Path, data: bytes, *, durable: bool) -> None:
    backend = io.backend()
    fd = backend.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[backend.write(fd, view):]
        if durable:
            backend.fsync(fd)
    finally:
        backend.close(fd)


def read_entries(path: str | Path) -> tuple[list[bytes], int, int]:
    """``(intact payloads in order, file size, damaged lines)``; a
    missing log is empty.

    Lines whose digest does not verify — a torn tail — are skipped and
    counted; the empty lines between entries are not.
    """
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0, 0
    payloads, damaged = [], 0
    for line in blob.split(b"\n"):
        digest, sep, payload = line.partition(b" ")
        if sep and _digest(payload) == digest:
            payloads.append(payload)
        elif line:
            damaged += 1
    return payloads, len(blob), damaged
