"""The build database: content digests, cached objects, compiler state.

One JSON file per build tree, playing the role of ninja's ``.ninja_log``
+ ``.ninja_deps`` + the object directory.  The stateful compiler's
:class:`~repro.core.state.CompilerState` lives in two files beside it:

- ``<db>`` — per unit: source digest, the digest of every transitively
  included header (``None`` for headers that were missing when the unit
  was built), the options that shape its object, the object's JSON and,
  after a memo-policy compile, each function's memo key.
  Also the key of the last successful link and a summary of the state
  (records, bytes, GC counters), so a no-op build can report the state
  without reading it.
- ``<db>.state`` — the compacted base: a generation token, then
  :meth:`CompilerState.to_json`, as one checksummed atomic artifact.
- ``<db>.state.log`` — an append-only log of checksummed entries
  (:mod:`repro.persist.log`), one per build that compiled something.
  Each holds that build's :class:`~repro.core.state.StateDelta` (the
  records it created or refreshed), the GC counters after it, and the
  base generation it extends.

A unit is up to date when its current :class:`DependencySnapshot`
matches the record exactly and it was compiled with the same object
options (``-O`` level); anything else — edited source, edited header, a
header added/removed from the closure, a previously missing header
appearing, another ``-O`` — forces a recompile.

**Persistence in proportion to the edit.**  The state is read only when
a build compiles a unit, and written only by such builds (see
:class:`StateStore`): the build appends its delta to the log, unless GC
reclaimed records or the log would grow past half the base's size — then
it *compacts*, rewriting the base under a fresh generation and deleting
the log.  The DB file is rewritten only when something in it changed.

**The link-skip invariant.**  :attr:`BuildDatabase.linked` holds
:meth:`BuildDatabase.link_key` of the last link that *succeeded*: a
digest of the unit list, each unit's object options and each object's
digest.  It is cleared before linking any other inputs, so a failed
link — or a build that stopped before linking — can never vouch for
inputs that did not link.  A build whose link key equals ``linked`` may skip
decoding the objects and linking: the result would be the image that
already linked.

**Crashes between the files.**  :meth:`BuildDatabase.save_changes`
writes the state files before the DB file, each with its own
crash-consistent protocol, so a crash leaves each file old or new, and
the pair can mix: a new state beside the old DB.  That mix — and any
other, such as state files lost or damaged while the DB survives — is
harmless, because a dormancy record is a *content-keyed fact*: "the pass
at this position left IR with fingerprint F unchanged (or turned it into
F')" is true whichever build recorded it and whichever objects the DB
holds.  A record no unit produces again is never hit; a missing record
only costs a bypass.  What can lag is the GC clock and the DB's state
summary, which decide when records are reclaimed and what the report
says, never what a build outputs.  A log entry tagged with a stale
generation (a crash between a compaction's base write and its log
delete) is ignored.

Like the compiler state, the DB is disposable: a missing or
schema-incompatible file loads as an empty database and the next build
is simply a clean build.  A *corrupt* file (zero bytes, torn JSON, a
failed checksum) raises the typed :class:`CorruptDatabaseError` so the
caller can log what happened before falling back to the same full
rebuild — cache loss is a performance event, never a correctness one,
but silent cache loss is a diagnosis event someone deserves to see.
Damaged state files load as an empty state, silently.

Writes go through :func:`repro.persist.atomic_write` (checksummed frame,
temp file + fsync + rename, bounded retry on transient errors) and
:func:`repro.persist.append_entry`.  A ``reprobuild`` killed at any
instant leaves every file either previous or new, never a torn hybrid
that is read as valid.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro._struct import Struct
from repro.buildsys.deps import DependencySnapshot, content_digest
from repro.core.state import CompilerState, decode_records, encode_records
from repro.persist import (
    CorruptArtifactError,
    PersistError,
    append_entry,
    atomic_write,
    frame,
    read_artifact,
    read_entries,
)
from repro.persist import io as io_seam
from repro.persist.log import encode_entry

#: v2 added per-unit observability (pass statistics, wall time, worker)
#: so ``reprobuild explain`` can report where a unit's compile time
#: went; v3 moved the compiler state into ``<db>.state*`` and added
#: per-unit object options and digests plus the last link's key; v4
#: added each object's link interface (:attr:`UnitRecord.symbols`); v5
#: added each unit's memo keys (:attr:`UnitRecord.memo`).
#: v1/v2 files still load; their units carry no options, so they
#: rebuild.  A v3 unit gets its interface from its object when a link
#: is first checked.  A v3/v4 unit has no memo keys, so its next
#: compile under the memo policy compiles every function.
DB_SCHEMA_VERSION = 5
_READABLE_SCHEMAS = (1, 2, 3, 4, 5)


class CorruptDatabaseError(PersistError):
    """The build DB file exists but its contents are unusable.

    Distinct from a *schema-incompatible* DB (a valid file written by a
    different version — silently treated as empty): corruption means
    the bytes themselves are damaged (zero-byte file, torn write,
    checksum mismatch).  The CLI catches this, reports it, and rebuilds
    from scratch; it must never escape as a traceback.
    """

    def __init__(self, path: str | Path, reason: str):
        super().__init__(f"corrupt build database {path}: {reason}")
        self.path = str(path)
        self.reason = reason


class UnitRecord(Struct):
    """What the last successful build of one translation unit saw."""

    _fields = (
        "path", "source_digest", "dep_digests", "object_json", "stats", "wall_time",
        "worker", "options", "object_digest", "symbols", "memo", "functions_reused",
    )

    def __init__(
        self,
        path: str,
        source_digest: str,
        dep_digests: dict[str, str | None],
        object_json: str,
        stats: dict | None = None,
        wall_time: float = 0.0,
        worker: str = "main",
        options: str = "",
        object_digest: str = "",
        symbols: dict | None = None,
        memo: dict[str, str] | None = None,
        functions_reused: int = 0,
    ) -> None:
        self.path = path
        self.source_digest = source_digest
        #: Include-closure digests at build time (``None`` = header missing).
        self.dep_digests = dep_digests
        #: The compiled object, cached verbatim for up-to-date reuse.
        self.object_json = object_json
        #: Bypass statistics of the recording compile
        #: (:meth:`~repro.core.statistics.BypassStatistics.to_dict` payload;
        #: empty for records loaded from v1 databases).
        self.stats = {} if stats is None else stats
        #: Wall-clock seconds of the recording compile (0.0 = unknown).
        self.wall_time = wall_time
        #: Who compiled it: "main" (in-process) or "pid-<n>" (a pool worker).
        self.worker = worker
        #: :attr:`~repro.driver.CompilerOptions.object_options` of the
        #: recording compile ("" = not recorded, as in v1/v2 databases).
        self.options = options
        #: Content digest of :attr:`object_json` (a link input's identity).
        self.object_digest = object_digest or content_digest(object_json)
        #: The object's :meth:`~repro.backend.objfile.ObjectFile.link_symbols`
        #: (``None`` = not yet known, as in v1-v3 databases).
        self.symbols = symbols
        #: ``{function: memo key}`` of the compile that made the object
        #: (empty unless it ran under the memo policy).
        self.memo = {} if memo is None else memo
        #: How many of those functions reused an earlier object's code.
        self.functions_reused = functions_reused


class StateStore:
    """The only reader and writer of compiler-state files.

    A state is a base file (``base_path``: a generation token, then
    :meth:`CompilerState.to_json`, as one checksummed artifact) plus a
    delta log beside it (``<base_path>.log``).  The build DB keeps its
    state at ``<db>.state``; ``reproc --state-file X`` keeps it at ``X``.

    :meth:`stage` encodes the write that brings the files up to a given
    state and updates the byte counts to what they will be; :meth:`flush`
    performs it.  An in-memory store (``base_path=None``) stages the same
    way but keeps nothing to flush, so a DB that never touches the disk
    still accounts its state exactly as an on-disk one would.
    """

    def __init__(self, base_path: str | Path | None = None):
        self.base_path = None if base_path is None else Path(base_path)
        self.log_path = None if base_path is None else Path(f"{base_path}.log")
        #: The state the files hold once staged writes are flushed.
        self.state: CompilerState | None = None
        self.generation = ""
        self.base_bytes = 0
        self.log_bytes = 0
        #: ``state.gc_reclaimed_total`` as of the last load or stage.
        self._reclaimed_total = 0
        self._pending_base: bytes | None = None
        self._pending_log: list[bytes] = []

    def load(self) -> CompilerState | None:
        """The persisted state, or ``None`` when there is none usable.

        The base's records, then every log entry of the base's
        generation in order; damaged, torn or stale entries are skipped.
        """
        if self.base_path is None:
            return None
        try:
            blob = read_artifact(self.base_path)
            generation, _, body = blob.partition(b"\n")
            state = CompilerState.from_json(body.decode("utf-8"))
            base_bytes = self.base_path.stat().st_size
            entries, log_bytes = read_entries(self.log_path)
        except (
            OSError, CorruptArtifactError, ValueError, KeyError, TypeError,
            UnicodeDecodeError,
        ):
            return None
        gen = generation.decode("ascii", "replace")
        for payload in entries:
            try:
                entry = json.loads(payload)
                if entry["gen"] != gen:
                    continue
                records = decode_records(entry["records"])
                counters = (entry["build_counter"], entry["gc_runs"], entry["gc_reclaimed"])
            except (ValueError, KeyError, TypeError):
                continue
            state.records.update(records)
            state.build_counter, state.gc_runs, state.gc_reclaimed_total = counters
        self.state, self.generation = state, gen
        self.base_bytes, self.log_bytes = base_bytes, log_bytes
        self._track(state)
        return state

    def stage(self, state: CompilerState) -> None:
        """Encode ``state``'s changes since the last load or stage.

        Appends a delta entry, or compacts when the files hold another
        state, GC reclaimed records, or the log would pass half the
        base's size.
        """
        compact = (
            state is not self.state or state.gc_reclaimed_total != self._reclaimed_total
        )
        if not compact:
            delta = state.extract_delta()
            payload = json.dumps(
                {
                    "gen": self.generation,
                    "build_counter": state.build_counter,
                    "gc_runs": state.gc_runs,
                    "gc_reclaimed": state.gc_reclaimed_total,
                    "records": encode_records(delta.records),
                },
                separators=(",", ":"),
            ).encode("utf-8")
            entry_bytes = len(encode_entry(payload))
            compact = self.log_bytes + entry_bytes > self.base_bytes // 2
        if compact:
            self.generation = os.urandom(8).hex()
            blob = frame(f"{self.generation}\n{state.to_json()}".encode("utf-8"))
            self.base_bytes, self.log_bytes = len(blob), 0
            self._pending_log.clear()
            if self.base_path is not None:
                self._pending_base = blob
        else:
            self.log_bytes += entry_bytes
            if self.log_path is not None:
                self._pending_log.append(payload)
        self.state = state
        self._track(state)

    def flush(self, *, durable: bool = True) -> None:
        """Write what :meth:`stage` encoded: base (then drop the log), entries."""
        if self._pending_base is not None:
            # Framed at stage time, where its size was needed.
            atomic_write(self.base_path, self._pending_base, checksum=False, durable=durable)
            self._pending_base = None
            if self.log_path.is_file():
                io_seam.backend().unlink(str(self.log_path))
        while self._pending_log:
            append_entry(self.log_path, self._pending_log[0], durable=durable)
            self._pending_log.pop(0)

    def _track(self, state: CompilerState) -> None:
        self._reclaimed_total = state.gc_reclaimed_total
        state.stored_bytes = self.base_bytes + self.log_bytes
        state.begin_delta_tracking()


class BuildDatabase:
    """All build products and metadata for one project tree.

    A DB read by :meth:`load` (or written by :meth:`save`) is bound to
    that path: its compiler state loads lazily from ``<path>.state*``
    the first time :attr:`live_state` is read, and :meth:`save_changes`
    writes back only what changed.
    """

    def __init__(
        self,
        units: dict[str, UnitRecord] | None = None,
        live_state: CompilerState | None = None,
    ):
        self.units: dict[str, UnitRecord] = dict(units or {})
        #: :meth:`link_key` of the last successful link (``None`` = none).
        self.linked: str | None = None
        #: :meth:`CompilerState.size_summary` as of the state's last
        #: stage or save; what a build that does not load the state reports.
        self.state_summary: dict | None = None
        #: Where the DB was loaded from or last saved to.
        self.path: Path | None = None
        #: Size of the DB file at :attr:`path` as last read or written.
        self.disk_bytes = 0
        self._store = StateStore()
        self._live_state = live_state
        self._state_loaded = True
        #: Does the DB file need rewriting?
        self._dirty = True

    # -- compiler state -----------------------------------------------------

    @property
    def live_state(self) -> CompilerState | None:
        """The stateful compiler's dormancy records, carried between builds.

        ``None`` until a stateful build runs (stateless builds never
        create state).  Loaded from the state files on first access.
        """
        if not self._state_loaded:
            self._state_loaded = True
            self._live_state = self._store.load()
        return self._live_state

    @live_state.setter
    def live_state(self, state: CompilerState | None) -> None:
        self._live_state = state
        self._state_loaded = True

    def stage_state(self) -> None:
        """Encode the live state's changes for the next save and refresh
        :attr:`state_summary`."""
        state = self._live_state
        if state is None:
            raise ValueError("stage_state() without a live state")
        self._store.stage(state)
        self.state_summary = state.size_summary()
        self._dirty = True

    # -- up-to-date checks --------------------------------------------------

    def up_to_date(self, snapshot: DependencySnapshot, options: str) -> bool:
        """Is the recorded build of this unit still valid for a build with
        object ``options``?"""
        record = self.units.get(snapshot.path)
        return (
            record is not None
            and snapshot.source_digest is not None
            and record.source_digest == snapshot.source_digest
            and record.dep_digests == snapshot.dep_digests
            and record.options == options
        )

    def record_unit(
        self,
        snapshot: DependencySnapshot,
        object_json: str,
        *,
        options: str = "",
        stats: dict | None = None,
        wall_time: float = 0.0,
        worker: str = "main",
        symbols: dict | None = None,
        memo: dict[str, str] | None = None,
        functions_reused: int = 0,
    ) -> None:
        """Store a fresh compilation result for one unit and, when the
        compiler computed them, its object's link interface and memo keys."""
        assert snapshot.source_digest is not None
        self.units[snapshot.path] = UnitRecord(
            path=snapshot.path,
            source_digest=snapshot.source_digest,
            dep_digests=dict(snapshot.dep_digests),
            object_json=object_json,
            stats=dict(stats) if stats else {},
            wall_time=wall_time,
            worker=worker,
            options=options,
            symbols=symbols,
            memo=memo,
            functions_reused=functions_reused,
        )
        self._dirty = True

    def prune(self, keep: list[str]) -> list[str]:
        """Drop records for units no longer in the project; returns them."""
        stale = sorted(set(self.units) - set(keep))
        for path in stale:
            del self.units[path]
        self._dirty = self._dirty or bool(stale)
        return stale

    # -- linking ------------------------------------------------------------

    def link_key(self, unit_paths: list[str]) -> str:
        """Identity of linking these units' recorded objects, in this order."""
        digest = hashlib.sha256()
        for path in unit_paths:
            record = self.units[path]
            digest.update(f"{path}\0{record.options}\0{record.object_digest}\n".encode())
        return digest.hexdigest()

    def link_symbols(self, path: str) -> dict:
        """The link interface of ``path``'s recorded object.

        A record without one (read from a v1-v3 DB) gets it from its
        object, once: the DB is marked changed, so the next save keeps it.
        """
        record = self.units[path]
        if record.symbols is None:
            from repro.backend.objfile import ObjectFile

            record.symbols = ObjectFile.from_json(record.object_json).link_symbols()
            self._dirty = True
        return record.symbols

    def mark_linked(self, key: str | None) -> None:
        """Record which link inputs last linked successfully."""
        if key != self.linked:
            self.linked = key
            self._dirty = True

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema": DB_SCHEMA_VERSION,
            "units": [
                {
                    "path": r.path,
                    "source": r.source_digest,
                    "deps": [[p, d] for p, d in sorted(r.dep_digests.items())],
                    "options": r.options,
                    "object": r.object_json,
                    "object_digest": r.object_digest,
                    "stats": r.stats,
                    "wall": r.wall_time,
                    "worker": r.worker,
                    "symbols": r.symbols,
                    "memo": r.memo,
                    "reused": r.functions_reused,
                }
                for r in sorted(self.units.values(), key=lambda r: r.path)
            ],
            "linked": self.linked,
            # The records themselves live in <db>.state*; this summary
            # lets a build that never loads them still report them.
            "state": self.state_summary,
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "BuildDatabase":
        payload = json.loads(text)
        if payload.get("schema") not in _READABLE_SCHEMAS:
            raise ValueError(
                f"build DB schema {payload.get('schema')} not in {_READABLE_SCHEMAS}"
            )
        return cls._from_payload(payload)

    @classmethod
    def _from_payload(cls, payload: dict) -> "BuildDatabase":
        db = cls()
        for entry in payload["units"]:
            db.units[entry["path"]] = UnitRecord(
                path=entry["path"],
                source_digest=entry["source"],
                dep_digests={p: d for p, d in entry["deps"]},
                object_json=entry["object"],
                stats=entry.get("stats") or {},
                wall_time=float(entry.get("wall", 0.0)),
                worker=entry.get("worker", "main"),
                options=entry.get("options", ""),
                object_digest=entry.get("object_digest", ""),
                symbols=entry.get("symbols"),
                memo=entry.get("memo") or {},
                functions_reused=int(entry.get("reused", 0)),
            )
        db.linked = payload.get("linked")
        # v1/v2 embedded the whole state here as a JSON string; those
        # records are dropped (their units rebuild anyway).
        summary = payload.get("state")
        db.state_summary = summary if isinstance(summary, dict) else None
        return db

    # -- file I/O -----------------------------------------------------------

    def save(self, path: str | Path, *, durable: bool = True) -> int:
        """Write the whole DB and its state to ``path``; returns the DB
        file's on-disk size, and binds the DB to ``path``.

        The state goes first, as a freshly compacted ``<path>.state``;
        then the DB, with the checksummed frame + temp file + fsync +
        atomic rename of :func:`repro.persist.atomic_write`.
        ``durable=False`` skips the fsyncs (benchmarks measuring the
        protocol's cost use it).
        """
        path = Path(path)
        state = self.live_state
        store = StateStore(f"{path}.state")
        if state is not None:
            store.stage(state)
            store.flush(durable=durable)
            self.state_summary = state.size_summary()
        self._store, self.path = store, path
        return self._write(durable)

    def save_changes(self) -> int:
        """Write what changed since the DB was loaded or last saved, durably.

        Staged state writes go to ``<path>.state*``; the DB file is
        rewritten only when something in it changed.  Returns the DB
        file's on-disk size.
        """
        if self.path is None:
            raise ValueError("save_changes() needs a DB loaded from or saved to a path")
        self._store.flush()
        if self._dirty:
            return self._write(durable=True)
        return self.disk_bytes

    def _write(self, durable: bool) -> int:
        self.disk_bytes = atomic_write(
            self.path, self.to_json().encode("utf-8"), durable=durable
        )
        self._dirty = False
        return self.disk_bytes

    def _bind(self, path: Path) -> "BuildDatabase":
        """Attach to ``path``: its state files load lazily, saves go there."""
        self.path = path
        self._store = StateStore(f"{path}.state")
        self._state_loaded = False
        return self

    @classmethod
    def load(cls, path: str | Path) -> "BuildDatabase":
        """Load a DB; missing or version-skewed files load empty.

        Raises :class:`CorruptDatabaseError` when the file exists but
        its bytes are damaged (zero-byte, torn JSON, failed checksum) —
        callers that just want the disposable-cache behaviour use
        :meth:`load_or_empty`.
        """
        path = Path(path)
        if not path.is_file():
            return cls()._bind(path)
        try:
            blob = read_artifact(path)
            disk_bytes = path.stat().st_size
        except CorruptArtifactError as exc:
            raise CorruptDatabaseError(path, exc.reason) from exc
        except OSError as exc:
            raise CorruptDatabaseError(path, f"unreadable: {exc}") from exc
        if not blob.strip():
            raise CorruptDatabaseError(path, "file is empty")
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CorruptDatabaseError(path, f"not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CorruptDatabaseError(path, "top-level JSON is not an object")
        if payload.get("schema") not in _READABLE_SCHEMAS:
            # A valid file from an incompatible version is the normal
            # disposable-cache case, not corruption: clean rebuild.
            return cls()._bind(path)
        try:
            db = cls._from_payload(payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptDatabaseError(path, f"malformed payload: {exc}") from exc
        db._bind(path)
        db.disk_bytes, db._dirty = disk_bytes, False
        return db

    @classmethod
    def load_or_empty(
        cls, path: str | Path
    ) -> tuple["BuildDatabase", "CorruptDatabaseError | None"]:
        """Like :meth:`load`, but corruption yields ``(empty DB, error)``.

        The returned error (or ``None``) lets callers log the recovery
        without string-matching; the build itself proceeds as a clean
        full rebuild either way.  The empty DB is still bound to
        ``path``, so its state files (checksummed separately) are kept.
        """
        try:
            return cls.load(path), None
        except CorruptDatabaseError as exc:
            return cls()._bind(Path(path)), exc
