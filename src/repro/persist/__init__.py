"""Crash-consistent persistence primitives shared by every artifact.

The build database, compiler state, history store, and report
outputs all persist through this package so the crash story is uniform:

- :func:`~repro.persist.atomic.atomic_write` /
  :func:`~repro.persist.atomic.read_artifact` — checksummed, atomic,
  durable file replacement with bounded retry on transient errors;
- :class:`~repro.persist.lock.BuildLock` — ``flock``-based advisory
  lock serializing concurrent builds on one directory;
- :mod:`~repro.persist.io` — the patchable backend the fault-injection
  harness (:mod:`repro.testing`) swaps in to prove all of the above.
"""

from repro.persist.atomic import (
    DEFAULT_RETRY,
    TRANSIENT_ERRNOS,
    RetryPolicy,
    atomic_write,
    frame,
    read_artifact,
    unframe,
)
from repro.persist.errors import CorruptArtifactError, LockTimeoutError, PersistError
from repro.persist.lock import BuildLock, NullLock, default_lock_path

__all__ = [
    "DEFAULT_RETRY",
    "TRANSIENT_ERRNOS",
    "RetryPolicy",
    "atomic_write",
    "frame",
    "read_artifact",
    "unframe",
    "CorruptArtifactError",
    "LockTimeoutError",
    "PersistError",
    "BuildLock",
    "NullLock",
    "default_lock_path",
]
