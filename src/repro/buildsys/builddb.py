"""The build database: content digests, cached objects, compiler state.

One file per build tree, playing the role of ninja's ``.ninja_log``
+ ``.ninja_deps`` + the object directory.  Under the fine and coarse
policies it also holds the stateful compiler's
:class:`~repro.core.state.CompilerState`; a memo-policy build keeps its
memo keys in the unit records and no compiler state.

The file is a one-line JSON prefix ``{"schema":8,"header":N,"state":M}``
and three sections:

- the header, N bytes deflated with :mod:`zlib`: JSON lines, the key of
  the last successful link, then one line per unit: source digest, the
  headers its last compile read with the digests of the texts the front
  end parsed (its *observed* dependencies, see
  :mod:`repro.buildsys.deps`), the options that shape its object, the
  object's digest and deflated length, its link interface, the
  ``[executed, dormant, bypassed, work]`` counters of each pass of that
  compile, its wall time and worker and, after a memo-policy compile,
  each function's memo key;
- the compiler state, M bytes: exactly :meth:`CompilerState.to_json`
  (its JSON header line and the sorted table of fixed-width record
  rows), not deflated.  ``M = 0`` is no state: what memo and stateless
  builds keep;
- each unit's object JSON deflated, in the header's unit order.

A unit is up to date when its current :class:`DependencySnapshot` — the
digests of its source and of the headers its last compile read —
matches the record exactly and it was compiled with the same object
options (``-O`` level); anything else — edited source, an edited or
deleted header, another ``-O`` — forces a recompile.

**Work only where a build uses it.**  The state section is decoded when
:attr:`BuildDatabase.live_state` is first read, which only a build that
compiles under the fine or coarse policy does; decoding reads its header
line and no record (see :mod:`repro.core.state`).  A build that does not
read it writes the loaded bytes back as they are, and a no-op build
reports the state's summary from the section's header line
(:meth:`BuildDatabase.state_size_summary`).  The file is rewritten only
when something in it changed, and then an unchanged unit's object is
written back as the deflated bytes it was loaded as, and its header line
as the text it was loaded as: a build encodes the header lines of the
units it compiled, deflates the header and only the objects it compiled
(on the process that compiled them), splices the records it created or
refreshed into the state's table, and inflates an object only when
something reads its JSON (:attr:`UnitRecord.object_json`).

**The link-skip invariant.**  :attr:`BuildDatabase.linked` holds
:meth:`BuildDatabase.link_key` of the last link that *succeeded*: a
digest of the unit list, each unit's object options and each object's
digest.  It is cleared before linking any other inputs, so a failed
link — or a build that stopped before linking — can never vouch for
inputs that did not link.  A build whose link key equals ``linked`` may skip
decoding the objects and linking: the result would be the image that
already linked.

Like the compiler state, the DB is disposable: a missing or
schema-incompatible file loads as an empty database with no state and
the next build is simply a clean build.  A *corrupt* file (zero bytes,
torn JSON, a failed checksum, a header that overruns the body or does
not inflate, a state section with no header line, section and object
lengths that do not add up to the body) raises the typed
:class:`CorruptDatabaseError` so the caller can log what happened before
falling back to the same full rebuild, without the state — cache loss
is a performance event, never a correctness one, but silent cache loss
is a diagnosis event someone deserves to see.  A stored object that
does not inflate raises the same error when it is read (``reprobuild``
then rebuilds from scratch).  A state section of another state schema
decodes as no state.

Writes go through :func:`repro.persist.atomic_write` (checksummed frame,
temp file + fsync + rename, bounded retry on transient errors), one per
build that changed something.  A ``reprobuild`` killed at any instant
leaves the file either previous or new — units, objects and state
together — never a torn hybrid that is read as valid.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

from repro._struct import Struct
from repro.buildsys.deps import DependencySnapshot, content_digest
from repro.core.state import CompilerState, base_summary
from repro.persist import CorruptArtifactError, PersistError, atomic_write, read_artifact

#: v2 added per-unit observability (pass statistics, wall time, worker)
#: so ``reprobuild explain`` can report where a unit's compile time
#: went; v3 moved the compiler state into files beside the DB and added
#: per-unit object options and digests plus the last link's key; v4
#: added each object's link interface (:attr:`UnitRecord.symbols`); v5
#: added each unit's memo keys (:attr:`UnitRecord.memo`); v6 moved each
#: object out of the JSON, deflated, behind the header line; v7 deflates
#: the header, keeps four counters per pass and records the headers each
#: compile read instead of a scanned include closure; v8 moved the
#: compiler state back into the file, as a section.  Older files load as
#: an empty DB: a clean build.  (A v6 record's scanned closure could miss
#: a header, so it is not migrated; a state file left beside the DB is
#: never read.)
DB_SCHEMA_VERSION = 8


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
        dep_digests: dict[str, str],
        object_blob: bytes,
        object_digest: str,
        stats: dict[str, list[int]] | None = None,
        wall_time: float = 0.0,
        worker: str = "main",
        options: str = "",
        symbols: dict | None = None,
        memo: dict[str, str] | None = None,
        functions_reused: int = 0,
    ) -> None:
        self.path = path
        self.source_digest = source_digest
        #: The headers the recording compile read: path -> digest of the
        #: text the front end parsed.
        self.dep_digests = dep_digests
        #: The compiled object's JSON, deflated (:func:`deflate`), cached
        #: for up-to-date reuse and written back as it was loaded.
        self.object_blob = object_blob
        #: Content digest of :attr:`object_json` (a link input's identity).
        self.object_digest = object_digest
        #: Each pass's [executed, dormant, bypassed, work] in the recording
        #: compile (:meth:`~repro.core.statistics.BypassStatistics.counts`).
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
        #: The record's line of the DB header as it was loaded: written
        #: back as is, since a build replaces a unit's record, never edits it.
        self._header_line: str | None = None

    def header_line(self) -> str:
        """This record's line of the DB header (one JSON object)."""
        if self._header_line is not None:
            return self._header_line
        return json.dumps(
            {
                "path": self.path,
                "source": self.source_digest,
                "deps": [[p, d] for p, d in sorted(self.dep_digests.items())],
                "options": self.options,
                "object_digest": self.object_digest,
                "object_bytes": len(self.object_blob),
                "stats": self.stats,
                "wall": round(self.wall_time, 6),
                "worker": self.worker,
                "symbols": self.symbols,
                "memo": self.memo,
                "reused": self.functions_reused,
            },
            separators=(",", ":"),
        )

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
        self._header_line = None


class BuildDatabase:
    """All build products and metadata for one project tree.

    A DB read by :meth:`load` (or written by :meth:`save`) is bound to
    that path, and :meth:`save_changes` writes back only what changed.
    """

    def __init__(
        self,
        units: dict[str, UnitRecord] | None = None,
        live_state: CompilerState | None = None,
    ):
        self.units: dict[str, UnitRecord] = dict(units or {})
        #: :meth:`link_key` of the last successful link (``None`` = none).
        self.linked: str | None = None
        #: Where the DB was loaded from or last saved to.
        self.path: Path | None = None
        #: Size of the DB file at :attr:`path` as last read or written.
        self.disk_bytes = 0
        self._live_state = live_state
        #: The state section as loaded, until :attr:`live_state` decodes
        #: it (``None`` then, and when there is no section), and its
        #: header line.
        self._state_section: memoryview | None = None
        self._state_head = b""
        #: Does the DB file need rewriting?
        self._dirty = True

    # -- compiler state -----------------------------------------------------

    @property
    def live_state(self) -> CompilerState | None:
        """The stateful compiler's dormancy records, carried between builds.

        ``None`` until a fine or coarse build runs (stateless and memo
        builds never create state).  Decoded from the state section on
        first access; a section of another state schema is no state.
        The state handed out may be changed in place, so once it is
        decoded the next :meth:`save_changes` rewrites the file.
        """
        section = self._state_section
        if section is not None:
            self._state_section, self._dirty = None, True
            try:
                self._live_state = CompilerState.from_json(section.tobytes())
            except (ValueError, KeyError, TypeError):
                self._live_state = None
        return self._live_state

    @live_state.setter
    def live_state(self, state: CompilerState | None) -> None:
        self._live_state, self._state_section = state, None
        self._dirty = True

    def state_size_summary(self) -> dict | None:
        """The state's :meth:`~CompilerState.size_summary` (``None``
        without a state), from the section's header line while the state
        is not decoded."""
        if self._state_section is None:
            state = self._live_state
            return None if state is None else state.size_summary()
        try:
            return base_summary(self._state_head, len(self._state_section))
        except (ValueError, KeyError, TypeError):
            return None

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
        stats: dict[str, list[int]] | None = None,
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
        """The DB file's payload: the JSON prefix line, the deflated
        header, the state section, then every unit's deflated object in
        the header's unit order."""
        records = sorted(self.units.values(), key=lambda r: r.path)
        meta = json.dumps({"linked": self.linked}, separators=(",", ":"))
        header = "\n".join([meta, *[r.header_line() for r in records]])
        head = zlib.compress(header.encode("utf-8"), 1)
        state = self._state_section
        if state is None:
            state = b"" if self._live_state is None else self._live_state.to_json()
        prefix = b'{"schema":%d,"header":%d,"state":%d}\n' % (
            DB_SCHEMA_VERSION, len(head), len(state)
        )
        return b"".join([prefix, head, state, *[r.object_blob for r in records]])

    @classmethod
    def _from_payload(cls, prefix: dict, body: bytes) -> "BuildDatabase":
        """Decode what follows a v8 prefix line: the deflated header, the
        state section, then the deflated objects."""
        size, state_size = prefix["header"], prefix["state"]
        head = body[:size]
        if len(head) != size:
            raise ValueError(f"the header ({size} bytes) overruns the body")
        try:
            meta, *lines = zlib.decompress(head).decode("utf-8").split("\n")
        except zlib.error as exc:
            raise ValueError(f"the header does not inflate ({exc})") from exc
        db, offset = cls(), size + state_size
        if state_size:
            # Kept as a view of the body: a build that never reads the
            # state neither copies nor decodes it.
            line_end = body.find(b"\n", size, offset)
            if line_end < 0 or offset > len(body):
                raise ValueError(
                    f"the state section ({state_size} bytes) has no header line"
                )
            db._state_section = memoryview(body)[size:offset]
            db._state_head = body[size:line_end]
        for line in lines:
            entry = json.loads(line)
            size = entry["object_bytes"]
            blob = body[offset:offset + size]
            if len(blob) != size:
                raise ValueError(f"the object of {entry['path']} overruns the body")
            offset += size
            record = db.units[entry["path"]] = UnitRecord(
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
            record._header_line = line
        if offset != len(body):
            raise ValueError(
                f"header and object lengths add up to {offset} bytes, "
                f"the body has {len(body)}"
            )
        db.linked = json.loads(meta)["linked"]
        return db

    # -- file I/O -----------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Write the whole DB to ``path``; returns the file's on-disk
        size, and binds the DB to ``path``.

        One write, with the checksummed frame + temp file + fsync +
        atomic rename of :func:`repro.persist.atomic_write`.
        """
        self.path = Path(path)
        return self._write()

    def save_changes(self) -> int:
        """Write what changed since the DB was loaded or last saved, durably.

        The file is rewritten only when something in it changed.
        Returns its on-disk size.
        """
        if self.path is None:
            raise ValueError("save_changes() needs a DB loaded from or saved to a path")
        if self._dirty:
            return self._write()
        return self.disk_bytes

    def _write(self) -> int:
        self.disk_bytes = atomic_write(self.path, self.to_json())
        self._dirty = False
        return self.disk_bytes

    def _bind(self, path: Path) -> "BuildDatabase":
        """Attach to ``path``: saves go there."""
        self.path = path
        return self

    @classmethod
    def load(cls, path: str | Path) -> "BuildDatabase":
        """Load a DB; missing or version-skewed files load empty.

        Raises :class:`CorruptDatabaseError` when the file exists but
        its bytes are damaged (zero-byte, torn JSON, failed checksum, a
        header that overruns the body or does not inflate, a state
        section with no header line, section and object lengths that do
        not add up to the body) —
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
            prefix = json.loads(head)
        except ValueError as exc:  # UnicodeDecodeError included
            raise CorruptDatabaseError(path, f"not valid JSON: {exc}") from exc
        if not isinstance(prefix, dict):
            raise CorruptDatabaseError(path, "top-level JSON is not an object")
        if prefix.get("schema") != DB_SCHEMA_VERSION:
            # A valid file from an incompatible version is the normal
            # disposable-cache case, not corruption: clean rebuild.
            return cls()._bind(path)
        try:
            db = cls._from_payload(prefix, body)
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptDatabaseError(path, f"malformed payload: {exc}") from exc
        db._bind(path)
        db.disk_bytes = disk_bytes
        db._dirty = False
        return db

    @classmethod
    def load_or_empty(
        cls, path: str | Path
    ) -> tuple["BuildDatabase", "CorruptDatabaseError | None"]:
        """Like :meth:`load`, but corruption yields ``(empty DB, error)``.

        The returned error (or ``None``) lets callers log the recovery
        without string-matching; the build itself proceeds as a clean
        full rebuild either way, with no compiler state.  The empty DB
        is still bound to ``path``, so the next save replaces the
        corrupt file.
        """
        try:
            return cls.load(path), None
        except CorruptDatabaseError as exc:
            return cls()._bind(Path(path)), exc
