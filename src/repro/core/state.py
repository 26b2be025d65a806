"""Persistent compiler state: dormancy records across builds.

The state is a map

    (pipeline position, IR fingerprint entering that position)
        -> DormancyRecord(dormant, fingerprint_out, last_used_build)

Keying by fingerprint rather than function name has two consequences
the paper's design cares about:

1. **Safety** — a record can only be applied to IR that hashes to the
   recorded fingerprint; renames, edits, and pipeline divergence all
   change the fingerprint and naturally miss.
2. **Sharing** — two identical functions (or the same function in two
   builds) share records for free.

The serialized state additionally stores the pipeline signature (pass
names by position) and fingerprint mode; a mismatch invalidates the
whole state, as does a schema version bump.

**The GC clock.**  ``build_counter`` counts builds that compiled at
least one unit: the build driver calls :meth:`CompilerState.begin_build`
and :meth:`CompilerState.collect_garbage` only on those.  Entries unused
for ``gc_max_age`` ticks of that clock are garbage-collected so the
state does not grow without bound as code churns.  A no-op build does
not tick it, so any number of no-op builds reclaims nothing.

**Records are immutable.**  A :class:`DormancyRecord` is a content-keyed
fact, so it is a named tuple: a lookup hit stores a copy with a fresh
GC timestamp instead of changing the record.  A snapshot therefore
shares the table and copies no record, and deltas share records with
the state they came from.

**Persistence.**  The state's one on-disk form is its base
(:meth:`CompilerState.to_json`): a JSON header line and a
:class:`RecordTable`, every record as a fixed-width binary row, sorted by
(position, input fingerprint).  The build DB keeps the base as one
section of its file (:mod:`repro.buildsys.builddb`); ``reproc
--state-file`` keeps it as a file of its own.  Loading decodes no
record: a lookup bisects the rows and builds a record only on a hit.
Writing splices the records written since the load into the table
(:meth:`CompilerState._fold`), so its cost grows with what the build
touched, not with the state.  The header line carries every count of
:meth:`CompilerState.size_summary`, so :func:`base_summary` reports a
stored state without decoding it, and ``size_summary`` counts the
base's bytes without encoding it.

**Garbage collection without a scan.**  The state keeps a lower bound
on every record's last use: exact after a scan, stored in the base,
lowered by any write.  A build in which no record can be ``gc_max_age``
builds old does no per-record work; otherwise GC scans the rows once,
dropping exactly the records a scan of a plain dict would drop.

**Snapshots and deltas.**  Every unit of a build compiles against a
:meth:`CompilerState.snapshot` of the state as the build started, at
any ``-j``: a copy that shares the table and starts with an empty
overlay.  What the unit wrote is then exactly the snapshot's overlay,
its :meth:`CompilerState.delta`; the build driver folds the deltas into
the live state in translation-unit order
(:meth:`CompilerState.merge_delta`).  Because records are keyed by
content fingerprints and passes are deterministic, two units that write
the same key necessarily write the same dormancy verdict, so
last-writer-wins merging is safe, and the merged state is independent
of how the units were scheduled.
"""

from __future__ import annotations

import json
import struct
from collections.abc import ItemsView, Mapping
from typing import Iterable, Iterator, NamedTuple

from repro._struct import Struct

#: v5 stored the base as one JSON document of ``[position, fingerprint,
#: last_used_build, dormant, fingerprint_out]`` rows, its fingerprints
#: encoding each call's callee purity.  v6 has the same keys, but the
#: base is a JSON header line and a sorted binary table
#: (:class:`RecordTable`), after a generation line that tied it to a
#: delta log.  v7 is v6 without the generation line and the log.  v8
#: adds the record count and the last GC's reclaim count to the header
#: line, so a summary reads the header alone.  Older bases load as no
#: state.
STATE_SCHEMA_VERSION = 8

#: One table row: the sort key — position (a signed byte) and the raw
#: 16-byte input fingerprint — then the dormant flag, the last-use
#: build and the raw 16-byte output fingerprint.  38 bytes, unpadded.
_ROW = struct.Struct("<b16s?I16s")
_KEY = struct.Struct("<b16s")
#: Each row's last use, for GC's scan.
_USE = struct.Struct("<18xI16x")
ROW_BYTES = _ROW.size
_KEY_BYTES = _KEY.size
#: Above one overlay row per DENSE_SPLICE_RATIO table rows, a fold merges
#: the whole table at once instead of galloping to each row.  Measured on
#: the 5,008-row ``large`` fine-policy state: galloping costs about 1 µs
#: a row, the merge about 0.3 µs a table row plus 0.5 µs a spliced row;
#: they meet between 1,000 and 2,000 spliced rows.
DENSE_SPLICE_RATIO = 4
#: A row as (key, the rest), for :meth:`RecordTable._merge`.
_KEY_AND_REST = struct.Struct(f"{_KEY_BYTES}s{ROW_BYTES - _KEY_BYTES}s")
#: Above any last use a row can hold: the GC bound of a state with no
#: records, and the "no cutoff" of :meth:`CompilerState._fold`.
_NEVER = 1 << 32


class DormancyRecord(NamedTuple):
    """What happened when a pass ran on IR with a given fingerprint.

    Immutable: a lookup hit stores a refreshed copy
    (:meth:`CompilerState.lookup`), so any number of states, snapshots
    and deltas can share one record.
    """

    dormant: bool
    #: Fingerprint after the pass ran (== the incoming one when dormant).
    fingerprint_out: str
    #: Build counter when this record was last consulted or refreshed.
    last_used_build: int = 0


# -- binary rows ---------------------------------------------------------------


def _raw(fingerprint: str) -> bytes:
    """The 16 bytes a fingerprint's 32 lowercase hex digits spell.

    Every fingerprint a compile makes is such a digest
    (:mod:`repro.ir.fingerprint`); any other string raises
    ``ValueError``, because its row would read back as another string.
    """
    raw = bytes.fromhex(fingerprint)
    if len(raw) != 16 or raw.hex() != fingerprint:
        raise ValueError(f"not a 128-bit lowercase hex digest: {fingerprint!r}")
    return raw


def _probe(key: tuple[int, str]) -> bytes:
    """The row key of ``key``: its position byte and raw input fingerprint."""
    try:
        return _KEY.pack(key[0], _raw(key[1]))
    except struct.error:
        raise ValueError(f"no row can hold position {key[0]}") from None


def pack_rows(items: Iterable[tuple[tuple[int, str], DormancyRecord]]) -> list[bytes]:
    """One row per record, unsorted.

    Raises ``ValueError`` for a record no row can hold: a fingerprint
    that is not a digest (see :func:`_raw`, inlined here: this is the
    clean build's hot path) or a position beyond a byte.
    """
    fromhex, pack, rows = bytes.fromhex, _ROW.pack, []
    append = rows.append
    for (position, fingerprint), record in items:
        out = record.fingerprint_out
        raw_in = fromhex(fingerprint)
        raw_out = raw_in if out == fingerprint else fromhex(out)
        if not (
            len(raw_in) == 16 == len(raw_out)
            and raw_in.hex() == fingerprint
            and (raw_out is raw_in or raw_out.hex() == out)
        ):
            raise ValueError(f"not 128-bit lowercase hex digests: {fingerprint!r}, {out!r}")
        try:
            append(pack(position, raw_in, record.dormant, record.last_used_build, raw_out))
        except struct.error as exc:
            raise ValueError(f"no row can hold position {position}: {exc}") from None
    return rows


def _iter_rows(data: bytes) -> Iterator[tuple[tuple[int, str], DormancyRecord]]:
    """Decode concatenated rows into ``(key, record)`` pairs.

    Records are built with ``tuple.__new__``: the named-tuple
    constructor costs about a third more.
    """
    if len(data) % ROW_BYTES:
        raise ValueError(f"{len(data)} bytes of rows are not whole rows")
    new = tuple.__new__
    for position, raw_in, dormant, last, raw_out in _ROW.iter_unpack(data):
        fingerprint = raw_in.hex()
        out = fingerprint if raw_out == raw_in else raw_out.hex()
        yield (position, fingerprint), new(DormancyRecord, (dormant, out, last))


def _record(row: bytes, fingerprint: str) -> DormancyRecord:
    """The record in ``row``, whose key spells ``fingerprint``."""
    _, raw_in, dormant, last, raw_out = _ROW.unpack(row)
    out = fingerprint if raw_out == raw_in else raw_out.hex()
    return tuple.__new__(DormancyRecord, (dormant, out, last))


class RecordTable:
    """Records as sorted fixed-width rows, probed without decoding.

    Immutable, so states and their snapshots share one.  :meth:`find`
    bisects the rows' 17-byte keys and builds a record only on a hit.
    """

    __slots__ = ("data", "count")

    def __init__(self, data: bytes = b"") -> None:
        if len(data) % ROW_BYTES:
            raise ValueError(f"a record table of {len(data)} bytes is not whole rows")
        self.data = data
        self.count = len(data) // ROW_BYTES

    def find(self, probe: bytes, fingerprint: str) -> DormancyRecord | None:
        """The record under row key ``probe`` (see :func:`_probe`)."""
        at = self._bisect(probe, 0, self.count) * ROW_BYTES
        if self.data[at:at + _KEY_BYTES] != probe:
            return None
        return _record(self.data[at:at + ROW_BYTES], fingerprint)

    def _bisect(self, key: bytes, lo: int, hi: int) -> int:
        """The first row in ``[lo, hi)`` whose key is not below ``key``."""
        data = self.data
        while lo < hi:
            mid = (lo + hi) >> 1
            at = mid * ROW_BYTES
            if data[at:at + _KEY_BYTES] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def splice(self, rows: list[bytes]) -> "RecordTable":
        """A new table: this one with the sorted ``rows`` spliced in, each
        replacing the row with its key or going in before the next one.

        Each row is found by galloping from the last one, then bisecting,
        so the cost grows with the rows spliced in, not with the table.
        """
        data, count = self.data, self.count
        if not count:
            return RecordTable(b"".join(rows))
        if len(rows) * DENSE_SPLICE_RATIO > count:
            return self._merge(rows)
        # ``at`` is the first row not yet copied; the runs of unchanged
        # rows are joined from views, so each byte is copied once.
        view, parts, at = memoryview(data), [], 0
        for row in rows:
            key = row[:_KEY_BYTES]
            lo, hi, step = at, at, 1
            while hi < count and data[hi * ROW_BYTES:hi * ROW_BYTES + _KEY_BYTES] < key:
                lo, hi, step = hi + 1, hi + step, step * 2
            end = self._bisect(key, lo, min(hi, count))
            parts += (view[at * ROW_BYTES:end * ROW_BYTES], row)
            at = end + (data[end * ROW_BYTES:end * ROW_BYTES + _KEY_BYTES] == key)
        parts.append(view[at * ROW_BYTES:])
        return RecordTable(b"".join(parts))

    def _merge(self, rows: list[bytes]) -> "RecordTable":
        """:meth:`splice` for a dense overlay: key every row of the table,
        let ``rows`` replace theirs, and sort once, at C speed."""
        merged = dict(_KEY_AND_REST.iter_unpack(self.data))
        merged.update([(row[:_KEY_BYTES], row[_KEY_BYTES:]) for row in rows])
        return RecordTable(b"".join([key + rest for key, rest in sorted(merged.items())]))


_EMPTY_TABLE = RecordTable()


class RecordMap(Mapping):
    """A state's records, every layer, as a read-only mapping.

    Reading a key probes like a lookup but refreshes nothing;
    :meth:`items` decodes the table once.  Comparing two maps (or a map
    and a dict) compares every record.
    """

    __slots__ = ("_state",)

    def __init__(self, state: "CompilerState") -> None:
        self._state = state

    def __getitem__(self, key: tuple[int, str]) -> DormancyRecord:
        record = self._state._get(key)
        if record is None:
            raise KeyError(key)
        return record

    def __len__(self) -> int:
        return self._state.num_records

    def __iter__(self) -> Iterator[tuple[int, str]]:
        return (key for key, _ in self._state._items())

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return f"RecordMap({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self):
        return self._mapping._state._items()


class StateDelta(Struct):
    """Records created or refreshed while compiling against a snapshot.

    The payload of the build's merge protocol: a unit's snapshot holds
    every record it wrote (new dormancy verdicts and GC-timestamp
    refreshes alike) in its overlay, and ships just those back to the
    build driver.  All ``last_used_build`` values in a delta equal
    ``build_counter`` — a unit only writes records during its own build
    tick — which is what makes merged garbage collection keep every
    record any unit consulted.
    """

    _fields = ("build_counter", "records")

    def __init__(
        self,
        build_counter: int,
        records: dict[tuple[int, str], DormancyRecord] | None = None,
    ) -> None:
        self.build_counter = build_counter
        self.records = {} if records is None else records

    @property
    def num_records(self) -> int:
        return len(self.records)


class CompilerState(Struct):
    """In-memory compiler state; :meth:`to_json` is its serialized form.

    The records live in two layers:

    - an overlay dict of the records written since the table was loaded,
      snapshotted or last folded;
    - the table (:class:`RecordTable`), which the overlay shadows.

    The table is never changed in place, so snapshots share it.  A
    table record is built only when a lookup hits its row.
    :attr:`records` shows both layers as one mapping.

    Keys and fingerprints must be what compiles make (a small position,
    128-bit lowercase hex digests): folding the overlay into a table
    raises ``ValueError`` on anything else (:func:`pack_rows`).
    """

    _fields = (
        "pipeline_signature", "fingerprint_mode", "build_counter", "gc_max_age",
        "gc_runs", "gc_reclaimed_total", "records",
    )

    def __init__(
        self,
        pipeline_signature: str = "",
        fingerprint_mode: str = "canonical",
        build_counter: int = 0,
        gc_max_age: int = 50,
        gc_runs: int = 0,
        gc_reclaimed_total: int = 0,
        records: dict[tuple[int, str], DormancyRecord] | None = None,
    ) -> None:
        self.pipeline_signature = pipeline_signature
        self.fingerprint_mode = fingerprint_mode
        self.build_counter = build_counter
        self.gc_max_age = gc_max_age
        #: Lifetime garbage-collection accounting, persisted with the state
        #: so cross-build analytics can tell "GC never ran" from "GC ran and
        #: found nothing" (the drift detector's state-growth check needs
        #: exactly that distinction).
        self.gc_runs = gc_runs
        self.gc_reclaimed_total = gc_reclaimed_total
        self._overlay = {} if records is None else records
        self._table = _EMPTY_TABLE
        #: ``len(records)``, kept as records are written or folded.
        self._count = len(self._overlay)
        #: No record was last used before this build: a lower bound,
        #: exact after GC's scan, which lets :meth:`collect_garbage` skip
        #: the scan when nothing can be old enough.
        self._oldest = min(
            (r.last_used_build for r in self._overlay.values()), default=_NEVER
        )
        #: Records reclaimed by the most recent :meth:`collect_garbage`
        #: (0 until GC runs).
        self.last_gc_reclaimed: int = 0

    # -- record access ------------------------------------------------------

    @property
    def records(self) -> RecordMap:
        """Every record, both layers, as a read-only mapping."""
        return RecordMap(self)

    def _get(self, key: tuple[int, str]) -> DormancyRecord | None:
        return self._overlay.get(key) or self._stored(key)

    def _stored(self, key: tuple[int, str]) -> DormancyRecord | None:
        """The record the table holds for ``key``."""
        if not self._table.count:  # a clean build's state
            return None
        return self._table.find(_probe(key), key[1])

    def _store(self, key: tuple[int, str], record: DormancyRecord, new: bool) -> None:
        """The one writer of records: ``new`` = no layer had the key."""
        self._overlay[key] = record
        if new:
            self._count += 1
        if record.last_used_build < self._oldest:
            self._oldest = record.last_used_build

    def _items(self) -> Iterator[tuple[tuple[int, str], DormancyRecord]]:
        # A copy of the overlay: callers may write records while iterating.
        overlay = dict(self._overlay)
        for item in _iter_rows(self._table.data):
            if item[0] not in overlay:
                yield item
        yield from overlay.items()

    def lookup(self, position: int, fingerprint: str) -> DormancyRecord | None:
        """Fetch a record; a hit stores it back with a fresh GC timestamp."""
        key = (position, fingerprint)
        record = self._overlay.get(key) or self._stored(key)
        if record is None:
            return None
        if record.last_used_build != self.build_counter:
            record = record._replace(last_used_build=self.build_counter)
            self._store(key, record, False)
        return record

    def remember(
        self, position: int, fingerprint_in: str, dormant: bool, fingerprint_out: str
    ) -> None:
        key = (position, fingerprint_in)
        new = key not in self._overlay and self._stored(key) is None
        self._store(key, DormancyRecord(dormant, fingerprint_out, self.build_counter), new)

    def begin_build(self) -> None:
        """Tick the GC clock (the driver calls it once per compiling build)."""
        self.build_counter += 1

    def collect_garbage(self) -> int:
        """Drop records unused for more than ``gc_max_age`` builds.

        The GC bound answers in O(1) whether any record can be that old;
        only then does the fold scan the rows.
        """
        cutoff = self.build_counter - self.gc_max_age
        reclaimed = self._fold(cutoff) if self._oldest < cutoff else 0
        self.gc_runs += 1
        self.gc_reclaimed_total += reclaimed
        self.last_gc_reclaimed = reclaimed
        return reclaimed

    def _fold(self, cutoff: int = -_NEVER) -> int:
        """Splice the overlay into a new table, dropping each record last
        used before ``cutoff``; returns how many were dropped.

        The rows are scanned only when the GC bound says a record can be
        that old; the scan makes the bound exact.  The record count is
        exact either way.
        """
        rows = pack_rows(self._overlay.items())
        rows.sort()
        data = self._table.splice(rows).data
        total, oldest = len(data) // ROW_BYTES, self._oldest
        if oldest < cutoff:
            kept, oldest, at = [], _NEVER, 0
            for (last,) in _USE.iter_unpack(data):
                if last >= cutoff:
                    kept.append(data[at:at + ROW_BYTES])
                    if last < oldest:
                        oldest = last
                at += ROW_BYTES
            data = b"".join(kept)
        self._table, self._overlay = RecordTable(data), {}
        self._count, self._oldest = self._table.count, oldest
        return total - self._count

    @property
    def num_records(self) -> int:
        return self._count

    def size_summary(self) -> dict:
        """Size and GC counters for observability (history/dashboard).

        ``bytes`` is the length of :meth:`to_json` — the state's on-disk
        footprint, which is what "monotone state growth" analytics
        should watch rather than the record count alone.  It is counted,
        not encoded: the header line plus one row per record.
        """
        head = self._header()
        return base_summary(head, len(head) + 1 + ROW_BYTES * self._count)

    # -- snapshot/delta protocol -------------------------------------------

    def snapshot(self) -> "CompilerState":
        """An independent copy for one unit to compile against.

        It shares the table, which nothing changes in place, and starts
        with an empty overlay, so everything the unit writes (new
        verdict or refreshed timestamp) lands in the copy's overlay and
        nothing reaches this state.  A loaded state has an empty overlay
        and a saved one has folded it; any other state folds its overlay
        first.
        """
        if self._overlay:
            self._fold()
        snap = CompilerState(
            pipeline_signature=self.pipeline_signature,
            fingerprint_mode=self.fingerprint_mode,
            build_counter=self.build_counter,
            gc_max_age=self.gc_max_age,
        )
        snap._table, snap._count, snap._oldest = self._table, self._count, self._oldest
        return snap

    def delta(self) -> StateDelta:
        """The records written since the snapshot or load: the overlay.

        They include GC-timestamp refreshes from lookup hits, not just
        new verdicts: a record a unit merely *consulted* must survive
        garbage collection.
        """
        return StateDelta(self.build_counter, dict(self._overlay))

    def merge_delta(self, delta: StateDelta) -> int:
        """Fold one unit's delta into this state; returns records merged.

        Last-writer-wins on conflicting keys: the merge order (the build
        driver uses translation-unit order, independent of completion
        order) picks the surviving verdict.  Conflicting writers saw the
        same (position, fingerprint) and passes are deterministic, so
        the verdicts are identical anyway — the policy only matters for
        the GC timestamp, which is kept at the maximum so a record used
        by *any* unit stays as fresh as the freshest use.

        One probe per record counts the new keys and finds the fresher
        timestamps; the overlay then takes the records in one update.
        """
        overlay, table, records = self._overlay, self._table, delta.records
        fresher, new, oldest = {}, 0, self._oldest
        for key, record in records.items():
            existing = overlay.get(key)
            if existing is None and table.count:
                existing = table.find(_probe(key), key[1])
            last = record.last_used_build
            if existing is None:
                new += 1
            elif existing.last_used_build > last:
                fresher[key] = record._replace(last_used_build=existing.last_used_build)
            if last < oldest:
                oldest = last
        overlay.update(records)
        overlay.update(fresher)
        self._count += new
        self._oldest = oldest
        self.build_counter = max(self.build_counter, delta.build_counter)
        return len(records)

    # -- compatibility ---------------------------------------------------------

    def compatible_with(self, pipeline_signature: str, fingerprint_mode: str) -> bool:
        return (
            self.pipeline_signature == pipeline_signature
            and self.fingerprint_mode == fingerprint_mode
        )

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> bytes:
        """The base: a JSON header line, then the sorted record table.

        Splices the overlay into the table first (:meth:`_fold`), so the
        table is the state's only copy of every record.
        """
        if self._overlay:
            self._fold()
        return self._header() + b"\n" + self._table.data

    def _header(self) -> bytes:
        """The base's header line, without its newline.

        A fold without GC changes none of it, so it is the same before
        and after :meth:`to_json` folds the overlay.
        """
        header = {
            "schema": STATE_SCHEMA_VERSION,
            "pipeline": self.pipeline_signature,
            "fingerprint_mode": self.fingerprint_mode,
            "records": self._count,
            "build_counter": self.build_counter,
            "gc_max_age": self.gc_max_age,
            "gc_runs": self.gc_runs,
            "gc_reclaimed_total": self.gc_reclaimed_total,
            "gc_reclaimed_last": self.last_gc_reclaimed,
            "oldest": self._oldest,
        }
        return json.dumps(header, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "CompilerState":
        """Inverse of :meth:`to_json`; decodes the header only."""
        head, _, table = data.partition(b"\n")
        payload = _read_header(head)
        state = cls(
            pipeline_signature=payload["pipeline"],
            fingerprint_mode=payload["fingerprint_mode"],
            build_counter=payload["build_counter"],
            gc_max_age=payload["gc_max_age"],
            gc_runs=payload["gc_runs"],
            gc_reclaimed_total=payload["gc_reclaimed_total"],
        )
        state.last_gc_reclaimed = payload["gc_reclaimed_last"]
        state._table = RecordTable(table)
        if state._table.count != payload["records"]:
            raise ValueError(
                f"the header counts {payload['records']} records, the table has "
                f"{state._table.count}"
            )
        state._count, state._oldest = state._table.count, payload["oldest"]
        return state


def _read_header(head: bytes) -> dict:
    """A base's header line, decoded; ``ValueError`` if it is not this schema's."""
    payload = json.loads(head)
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != STATE_SCHEMA_VERSION:
        raise ValueError(f"state schema {schema} != {STATE_SCHEMA_VERSION}")
    return payload


def base_summary(head: bytes, size: int) -> dict:
    """:meth:`CompilerState.size_summary` of a ``size``-byte base whose
    header line is ``head``, decoding no record.

    Raises ``ValueError`` (or ``KeyError``) for a header of another schema.
    """
    header = _read_header(head)
    return {
        "records": header["records"],
        "bytes": size,
        "build_counter": header["build_counter"],
        "gc_max_age": header["gc_max_age"],
        "gc_runs": header["gc_runs"],
        "gc_reclaimed_total": header["gc_reclaimed_total"],
        "gc_reclaimed_last": header["gc_reclaimed_last"],
    }


def pipeline_signature_of(pipeline) -> str:
    """Stable signature of everything in a pipeline that decides its output.

    Every pass's name, ``VERSION`` and parameters, module prelude and
    function passes alike (:func:`~repro.passes.base.pass_signature`),
    function passes by position.  Changing a pass parameter or bumping a
    pass's version changes it, and a state recorded under another
    signature is discarded whole.
    """
    from repro.passes.base import pass_signature

    return "|".join(
        [f"{i}:{pass_signature(p)}" for i, p in enumerate(pipeline.function_passes)]
        + [f"prelude:{pass_signature(p)}" for p in pipeline.module_prelude]
    )
