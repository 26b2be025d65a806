"""Crash-consistent artifact writes: checksum, temp+fsync+rename, retry.

The write protocol (:func:`atomic_write`) guarantees that after a crash
at *any* instant, a reader finds either the complete previous version
of the file or the complete new one — never a mixture:

1. the payload is framed with a one-line checksummed header
   (:func:`frame`), so torn writes that somehow survive (a non-atomic
   rename on an exotic filesystem, bit rot) are *detected* at read
   time instead of being parsed as garbage;
2. the framed bytes go to a per-PID temp file which is flushed with
   ``fsync`` before being ``rename``\\ d over the destination — the
   POSIX atomic-replace idiom — and the containing directory is fsynced
   so the rename itself survives power loss;
3. transient filesystem errors (``EINTR``/``EAGAIN``/``EBUSY``/``EIO``)
   are retried a bounded number of times with exponential backoff;
   persistent ones (``ENOSPC``, permissions) surface immediately.

Readers use :func:`read_artifact`, which verifies the frame and raises
:class:`~repro.persist.errors.CorruptArtifactError` on any mismatch.
Unframed files (written by older versions) are returned as-is, so the
format upgrade is backward compatible.
"""

from __future__ import annotations

import errno
import hashlib
import os
from contextlib import suppress
from pathlib import Path

from repro._struct import FrozenStruct
from repro.persist import io
from repro.persist.errors import CorruptArtifactError

#: Frame magic.  No legacy artifact (JSON or JSONL) can
#: begin with these bytes, which is what makes unframed reads safe.
MAGIC = b"%repro-artifact"
FRAME_VERSION = 1

#: Errno values worth retrying: interruptions and flaky-media blips.
#: ``ENOSPC`` is deliberately absent — retrying a full disk just burns
#: time before the caller's error path runs anyway.
TRANSIENT_ERRNOS = frozenset(
    {errno.EINTR, errno.EAGAIN, errno.EBUSY, errno.EIO, errno.ETIMEDOUT}
)


class RetryPolicy(FrozenStruct):
    """Bounded retry with exponential backoff for transient IO errors."""

    _fields = ("attempts", "base_delay", "factor")

    def __init__(
        self,
        attempts: int = 4,
        base_delay: float = 0.002,
        factor: float = 4.0,
    ) -> None:
        object.__setattr__(self, "attempts", attempts)
        object.__setattr__(self, "base_delay", base_delay)
        object.__setattr__(self, "factor", factor)

    def delay(self, attempt: int) -> float:
        return self.base_delay * (self.factor ** attempt)


DEFAULT_RETRY = RetryPolicy()


# -- framing ----------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with the checksummed header line."""
    digest = hashlib.sha256(payload).hexdigest()
    header = b"%s v%d sha256=%s len=%d\n" % (
        MAGIC, FRAME_VERSION, digest.encode("ascii"), len(payload),
    )
    return header + payload


def unframe(blob: bytes, *, source: str = "artifact") -> bytes:
    """Verify and strip the frame; pass unframed (legacy) blobs through."""
    if not blob.startswith(MAGIC):
        return blob
    newline = blob.find(b"\n")
    if newline < 0:
        raise CorruptArtifactError(source, "framed artifact has no header line")
    header, payload = blob[:newline], blob[newline + 1:]
    try:
        fields = dict(
            part.split(b"=", 1) for part in header.split(b" ")[2:] if b"=" in part
        )
        expected_digest = fields[b"sha256"].decode("ascii")
        expected_len = int(fields[b"len"])
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise CorruptArtifactError(source, f"malformed frame header: {exc}") from exc
    if len(payload) != expected_len:
        raise CorruptArtifactError(
            source,
            f"truncated payload: {len(payload)} bytes, header says {expected_len}",
        )
    actual = hashlib.sha256(payload).hexdigest()
    if actual != expected_digest:
        raise CorruptArtifactError(
            source, f"checksum mismatch: {actual[:12]}… != {expected_digest[:12]}…"
        )
    return payload


# -- writing ----------------------------------------------------------------


def atomic_write(
    path: str | Path,
    payload: bytes,
    *,
    checksum: bool = True,
    durable: bool = True,
    retry: RetryPolicy | None = None,
) -> int:
    """Write ``payload`` to ``path`` crash-consistently; returns on-disk size.

    ``checksum=False`` skips the frame (for outputs external tools read
    verbatim, e.g. ``--report-json``); the temp+fsync+rename protocol
    still applies.  ``durable=False`` skips the fsyncs (for callers
    that can lose the write, such as benchmarks timing everything else).
    """
    path = Path(path)
    blob = frame(payload) if checksum else payload
    policy = retry or DEFAULT_RETRY
    for attempt in range(policy.attempts):
        try:
            _write_once(path, blob, durable=durable)
            return len(blob)
        except OSError as exc:
            if exc.errno not in TRANSIENT_ERRNOS or attempt == policy.attempts - 1:
                raise
            io.backend().sleep(policy.delay(attempt))


def _write_once(path: Path, blob: bytes, *, durable: bool) -> None:
    backend = io.backend()
    # Per-PID temp name: two racing writers (should be prevented by the
    # build lock, but belt and braces) never scribble on each other's
    # temp file; the loser's rename simply lands second.
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        fd = backend.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            view = memoryview(blob)
            while view:
                view = view[backend.write(fd, view):]
            if durable:
                backend.fsync(fd)
        finally:
            backend.close(fd)
        backend.replace(str(tmp), str(path))
    except OSError:
        with suppress(OSError):
            backend.unlink(str(tmp))
        raise
    if durable:
        _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    backend = io.backend()
    try:
        fd = backend.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        with suppress(OSError):
            backend.fsync(fd)
    finally:
        with suppress(OSError):
            backend.close(fd)


# -- reading ----------------------------------------------------------------


def read_artifact(path: str | Path) -> bytes:
    """Read and verify one artifact; legacy unframed files pass through.

    Raises :class:`CorruptArtifactError` on frame damage and the usual
    ``OSError`` family when the file cannot be read at all.
    """
    path = Path(path)
    return unframe(path.read_bytes(), source=str(path))
