"""The build database: content digests, cached objects, compiler state.

One file per build tree, playing the role of ninja's ``.ninja_log``
+ ``.ninja_deps`` + the object directory.  Under the fine and coarse
policies the stateful compiler's :class:`~repro.core.state.CompilerState`
lives in a second file beside it; a memo-policy build keeps its memo
keys in the DB and never reads or writes that file:

- ``<db>`` — one JSON header line, then each unit's object JSON
  deflated with :mod:`zlib`, in the header's unit order.  The header
  holds per unit: source digest, the digest of every transitively
  included header (``None`` for headers that were missing when the unit
  was built), the options that shape its object, the object's digest
  and deflated length, its link interface and, after a memo-policy
  compile, each function's memo key.
  Also the key of the last successful link and a summary of the state
  (records, bytes, GC counters), so a no-op build can report the state
  without reading it.
- ``<db>.state`` — :meth:`CompilerState.to_json` (a JSON header line
  and the sorted table of fixed-width record rows) as one checksummed
  atomic artifact.

A unit is up to date when its current :class:`DependencySnapshot`
matches the record exactly and it was compiled with the same object
options (``-O`` level); anything else — edited source, edited header, a
header added/removed from the closure, a previously missing header
appearing, another ``-O`` — forces a recompile.

**Persistence only where a build compiles.**  The state is read only
when a build compiles a unit, and written only by such builds (see
:class:`StateStore`): the build splices the records it created or
refreshed into the table and rewrites the file, so encoding costs what
the build touched.  Loading the state decodes no record (see
:mod:`repro.core.state`).  The DB file is rewritten only when something
in it changed, and then an unchanged unit's object is written back as
the deflated bytes it was loaded as: a build deflates only the objects
it compiled (on the process that compiled them) and inflates an object
only when something reads its JSON (:attr:`UnitRecord.object_json`).

**The link-skip invariant.**  :attr:`BuildDatabase.linked` holds
:meth:`BuildDatabase.link_key` of the last link that *succeeded*: a
digest of the unit list, each unit's object options and each object's
digest.  It is cleared before linking any other inputs, so a failed
link — or a build that stopped before linking — can never vouch for
inputs that did not link.  A build whose link key equals ``linked`` may skip
decoding the objects and linking: the result would be the image that
already linked.

**Crashes between the files** (fine and coarse builds; a memo build
writes only the DB file).  :meth:`BuildDatabase.save_changes`
writes the state file before the DB file, each with its own
crash-consistent protocol, so a crash leaves each file old or new, and
the pair can mix: a new state beside the old DB.  That mix — and any
other, such as a state file lost or damaged while the DB survives — is
harmless, because a dormancy record is a *content-keyed fact*: "the pass
at this position left IR with fingerprint F unchanged (or turned it into
F')" is true whichever build recorded it and whichever objects the DB
holds.  A record no unit produces again is never hit; a missing record
only costs a bypass.  What can lag is the GC clock and the DB's state
summary, which decide when records are reclaimed and what the report
says, never what a build outputs.

Like the compiler state, the DB is disposable: a missing or
schema-incompatible file loads as an empty database and the next build
is simply a clean build.  A *corrupt* file (zero bytes, torn JSON, a
failed checksum, object lengths that do not add up to the body) raises
the typed :class:`CorruptDatabaseError` so the
caller can log what happened before falling back to the same full
rebuild — cache loss is a performance event, never a correctness one,
but silent cache loss is a diagnosis event someone deserves to see.
A stored object that does not inflate raises the same error when it is
read (``reprobuild`` then rebuilds from scratch).
A damaged state file loads as no state, silently.

Writes go through :func:`repro.persist.atomic_write` (checksummed frame,
temp file + fsync + rename, bounded retry on transient errors).  A
``reprobuild`` killed at any instant leaves every file either previous
or new, never a torn hybrid that is read as valid.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

from repro._struct import Struct
from repro.buildsys.deps import DependencySnapshot, content_digest
from repro.core.state import CompilerState
from repro.persist import (
    CorruptArtifactError,
    PersistError,
    atomic_write,
    frame,
    read_artifact,
)

#: v2 added per-unit observability (pass statistics, wall time, worker)
#: so ``reprobuild explain`` can report where a unit's compile time
#: went; v3 moved the compiler state into ``<db>.state*`` and added
#: per-unit object options and digests plus the last link's key; v4
#: added each object's link interface (:attr:`UnitRecord.symbols`); v5
#: added each unit's memo keys (:attr:`UnitRecord.memo`); v6 moved each
#: object out of the JSON, deflated, behind the header line.
#: A v5 file still loads, its objects inline, and its next save writes
#: v6.  v1-v4 files load as an empty DB: a clean build.
DB_SCHEMA_VERSION = 6
_READABLE_SCHEMAS = (5, 6)


def deflate(object_json: str) -> bytes:
    """An object's JSON as the DB file stores it."""
    return zlib.compress(object_json.encode("utf-8"))


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
        "path", "source_digest", "dep_digests", "object_blob", "object_digest", "stats",
        "wall_time", "worker", "options", "symbols", "memo", "functions_reused",
    )

    def __init__(
        self,
        path: str,
        source_digest: str,
        dep_digests: dict[str, str | None],
        object_blob: bytes,
        object_digest: str,
        stats: dict | None = None,
        wall_time: float = 0.0,
        worker: str = "main",
        options: str = "",
        symbols: dict | None = None,
        memo: dict[str, str] | None = None,
        functions_reused: int = 0,
    ) -> None:
        self.path = path
        self.source_digest = source_digest
        #: Include-closure digests at build time (``None`` = header missing).
        self.dep_digests = dep_digests
        #: The compiled object's JSON, deflated (:func:`deflate`), cached
        #: for up-to-date reuse and written back as it was loaded.
        self.object_blob = object_blob
        #: Content digest of :attr:`object_json` (a link input's identity).
        self.object_digest = object_digest
        #: Bypass statistics of the recording compile
        #: (:meth:`~repro.core.statistics.BypassStatistics.to_dict` payload).
        self.stats = {} if stats is None else stats
        #: Wall-clock seconds of the recording compile.
        self.wall_time = wall_time
        #: Who compiled it: "main" (in-process) or "pid-<n>" (a pool worker).
        self.worker = worker
        #: :attr:`~repro.driver.CompilerOptions.object_options` of the
        #: recording compile.
        self.options = options
        #: The object's :meth:`~repro.backend.objfile.ObjectFile.link_symbols`.
        self.symbols = symbols
        #: ``{function: memo key}`` of the compile that made the object
        #: (empty unless it ran under the memo policy).
        self.memo = {} if memo is None else memo
        #: How many of those functions reused an earlier object's code.
        self.functions_reused = functions_reused
        self._object_json: str | None = None

    @property
    def object_json(self) -> str:
        """The compiled object's JSON, inflated on first read.

        Raises :class:`CorruptDatabaseError` when the stored bytes do
        not inflate.
        """
        if self._object_json is None:
            try:
                self._object_json = zlib.decompress(self.object_blob).decode("utf-8")
            except (zlib.error, UnicodeDecodeError) as exc:
                raise CorruptDatabaseError(
                    self.path, f"its stored object does not inflate ({exc})"
                ) from exc
        return self._object_json

    @object_json.setter
    def object_json(self, text: str) -> None:
        self.object_blob, self._object_json = deflate(text), text


class StateStore:
    """The only reader and writer of compiler-state files.

    A state is one file (``base_path``): :meth:`CompilerState.to_json` —
    a JSON header line and the sorted record table — as one checksummed
    artifact.  The build DB keeps its state at ``<db>.state``;
    ``reproc --state-file X`` keeps it at ``X``.

    :meth:`stage` folds the state, encodes and frames it, and sets its
    :attr:`~CompilerState.stored_bytes` to the file's size; :meth:`flush`
    writes it.  An in-memory store (``base_path=None``) stages the same
    way but keeps nothing to flush, so a DB that never touches the disk
    still accounts its state exactly as an on-disk one would.
    """

    def __init__(self, base_path: str | Path | None = None):
        self.base_path = None if base_path is None else Path(base_path)
        self._pending: bytes | None = None

    def load(self) -> CompilerState | None:
        """The persisted state, or ``None`` when there is none usable.

        Decodes the header and no record.  A missing or damaged file, or
        a base of another schema (such as v6's, which starts with a
        generation line), is no state.
        """
        if self.base_path is None:
            return None
        try:
            state = CompilerState.from_json(read_artifact(self.base_path))
            state.stored_bytes = self.base_path.stat().st_size
        except (
            OSError, CorruptArtifactError, ValueError, KeyError, TypeError,
            UnicodeDecodeError,
        ):
            return None
        return state

    def stage(self, state: CompilerState) -> None:
        """Fold ``state``, encode and frame it for :meth:`flush`."""
        blob = frame(state.to_json())
        state.stored_bytes = len(blob)
        if self.base_path is not None:
            self._pending = blob

    def flush(self) -> None:
        """Write what :meth:`stage` encoded, with one atomic write."""
        if self._pending is not None:
            # Framed at stage time, where its size was needed.
            atomic_write(self.base_path, self._pending, checksum=False)
            self._pending = None


class BuildDatabase:
    """All build products and metadata for one project tree.

    A DB read by :meth:`load` (or written by :meth:`save`) is bound to
    that path: its compiler state loads lazily from ``<path>.state``
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

        ``None`` until a fine or coarse build runs (stateless and memo
        builds never create state).  Loaded from the state file on
        first access.
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
        """Encode the live state for the next save and refresh
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
        object_json: str | None = None,
        *,
        object_blob: bytes | None = None,
        object_digest: str = "",
        options: str = "",
        stats: dict | None = None,
        wall_time: float = 0.0,
        worker: str = "main",
        symbols: dict | None = None,
        memo: dict[str, str] | None = None,
        functions_reused: int = 0,
    ) -> None:
        """Store a fresh compilation result for one unit and, when the
        compiler computed them, its object's link interface and memo keys.

        The object comes as its JSON, or already deflated with the
        JSON's digest (``object_blob``, ``object_digest``).
        """
        assert snapshot.source_digest is not None
        if object_blob is None:
            object_blob, object_digest = deflate(object_json), content_digest(object_json)
        self.units[snapshot.path] = UnitRecord(
            path=snapshot.path,
            source_digest=snapshot.source_digest,
            dep_digests=dict(snapshot.dep_digests),
            object_blob=object_blob,
            object_digest=object_digest,
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

    def mark_linked(self, key: str | None) -> None:
        """Record which link inputs last linked successfully."""
        if key != self.linked:
            self.linked = key
            self._dirty = True

    # -- serialization ------------------------------------------------------

    def to_json(self) -> bytes:
        """The DB file's payload: a JSON header line, then every unit's
        deflated object in the header's unit order."""
        records = sorted(self.units.values(), key=lambda r: r.path)
        header = {
            "schema": DB_SCHEMA_VERSION,
            "units": [
                {
                    "path": r.path,
                    "source": r.source_digest,
                    "deps": [[p, d] for p, d in sorted(r.dep_digests.items())],
                    "options": r.options,
                    "object_digest": r.object_digest,
                    "object_bytes": len(r.object_blob),
                    "stats": r.stats,
                    "wall": r.wall_time,
                    "worker": r.worker,
                    "symbols": r.symbols,
                    "memo": r.memo,
                    "reused": r.functions_reused,
                }
                for r in records
            ],
            "linked": self.linked,
            # The records themselves live in <db>.state; this summary
            # lets a build that never loads them still report them.
            "state": self.state_summary,
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
        return b"\n".join([head, b"".join([r.object_blob for r in records])])

    @classmethod
    def _from_payload(cls, header: dict, body: bytes) -> "BuildDatabase":
        """Decode a v5 or v6 payload: its header, and the body of
        deflated objects behind it (empty in v5, whose objects are inline)."""
        db, offset = cls(), 0
        v5 = header["schema"] == 5
        for entry in header["units"]:
            if v5:
                if entry["symbols"] is None:
                    continue  # a v3 record that never got its link interface: rebuild it
                blob = deflate(entry["object"])
            else:
                size = entry["object_bytes"]
                blob = body[offset:offset + size]
                if len(blob) != size:
                    raise ValueError(f"the object of {entry['path']} overruns the body")
                offset += size
            db.units[entry["path"]] = UnitRecord(
                path=entry["path"],
                source_digest=entry["source"],
                dep_digests={p: d for p, d in entry["deps"]},
                object_blob=blob,
                object_digest=entry["object_digest"],
                stats=entry["stats"],
                wall_time=float(entry["wall"]),
                worker=entry["worker"],
                options=entry["options"],
                symbols=entry["symbols"],
                memo=entry["memo"],
                functions_reused=int(entry["reused"]),
            )
        if offset != len(body):
            raise ValueError(
                f"object lengths add up to {offset} bytes, the body has {len(body)}"
            )
        db.linked = header["linked"]
        db.state_summary = header["state"]
        return db

    # -- file I/O -----------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Write the whole DB and its state to ``path``; returns the DB
        file's on-disk size, and binds the DB to ``path``.

        The state goes first, as ``<path>.state``;
        then the DB, with the checksummed frame + temp file + fsync +
        atomic rename of :func:`repro.persist.atomic_write`.
        """
        path = Path(path)
        state = self.live_state
        store = StateStore(f"{path}.state")
        if state is not None:
            store.stage(state)
            store.flush()
            self.state_summary = state.size_summary()
        self._store, self.path = store, path
        return self._write()

    def save_changes(self) -> int:
        """Write what changed since the DB was loaded or last saved, durably.

        A staged state goes to ``<path>.state``; the DB file is
        rewritten only when something in it changed.  Returns the DB
        file's on-disk size.
        """
        if self.path is None:
            raise ValueError("save_changes() needs a DB loaded from or saved to a path")
        self._store.flush()
        if self._dirty:
            return self._write()
        return self.disk_bytes

    def _write(self) -> int:
        self.disk_bytes = atomic_write(self.path, self.to_json())
        self._dirty = False
        return self.disk_bytes

    def _bind(self, path: Path) -> "BuildDatabase":
        """Attach to ``path``: its state file loads lazily, saves go there."""
        self.path = path
        self._store = StateStore(f"{path}.state")
        self._state_loaded = False
        return self

    @classmethod
    def load(cls, path: str | Path) -> "BuildDatabase":
        """Load a DB; missing or version-skewed files load empty.

        Raises :class:`CorruptDatabaseError` when the file exists but
        its bytes are damaged (zero-byte, torn JSON, failed checksum,
        object lengths that do not add up to the body) —
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
        head, _, body = blob.partition(b"\n")
        try:
            header = json.loads(head)
        except ValueError as exc:  # UnicodeDecodeError included
            raise CorruptDatabaseError(path, f"not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise CorruptDatabaseError(path, "top-level JSON is not an object")
        if header.get("schema") not in _READABLE_SCHEMAS:
            # A valid file from an incompatible version is the normal
            # disposable-cache case, not corruption: clean rebuild.
            return cls()._bind(path)
        try:
            db = cls._from_payload(header, body)
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptDatabaseError(path, f"malformed payload: {exc}") from exc
        db._bind(path)
        db.disk_bytes = disk_bytes
        # A v5 file is rewritten as v6 by the next save.
        db._dirty = header["schema"] != DB_SCHEMA_VERSION
        return db

    @classmethod
    def load_or_empty(
        cls, path: str | Path
    ) -> tuple["BuildDatabase", "CorruptDatabaseError | None"]:
        """Like :meth:`load`, but corruption yields ``(empty DB, error)``.

        The returned error (or ``None``) lets callers log the recovery
        without string-matching; the build itself proceeds as a clean
        full rebuild either way.  The empty DB is still bound to
        ``path``, so its state file (checksummed separately) is kept.
        """
        try:
            return cls.load(path), None
        except CorruptDatabaseError as exc:
            return cls()._bind(Path(path)), exc
