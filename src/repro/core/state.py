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
GC timestamp instead of changing the record.  A snapshot is therefore
a shallow copy of the record map, and deltas share records with the
state they came from.

**Persistence.**  The state's one on-disk form is the base file plus
delta log that :class:`~repro.buildsys.builddb.StateStore` reads and
writes, for the build DB (``<db>.state``) and ``reproc --state-file``
alike.  :attr:`CompilerState.stored_bytes` is the size of those files,
set by the store on every load and stage;
:meth:`CompilerState.size_summary` reports that number and never
re-serializes the state to measure it.

For parallel builds the state additionally supports a snapshot/delta
protocol (:meth:`CompilerState.snapshot`, :meth:`CompilerState.extract_delta`,
:meth:`CompilerState.merge_delta`): each unit compiles against a
snapshot of the records as they were at build start and hands back
only the records it created or refreshed; the build driver folds those
:class:`StateDelta` objects into the live state in a deterministic
order.  Because records are keyed by content fingerprints and passes
are deterministic, two workers that write the same key necessarily
write the same dormancy verdict, so last-writer-wins merging is safe —
and the merged state is record-for-record what a serial build of the
same units would have produced.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

from repro._struct import Struct
from repro.obs.metrics import MetricsRegistry

#: v4 orders each row ``[position, fingerprint, last_used_build,
#: dormant, fingerprint_out]`` and stores ``fingerprint_out`` as "" when
#: it equals the incoming fingerprint (as it does for every dormant
#: record).  v5 has the same rows, but its fingerprints encode each
#: call's callee purity, so no v4 record is valid under a v5 key.
STATE_SCHEMA_VERSION = 5


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


def encode_records(records: dict[tuple[int, str], DormancyRecord]) -> list[list]:
    """Records as sorted JSON rows (the base file's and the delta log's format)."""
    return [
        [pos, fp, r.last_used_build, int(r.dormant),
         "" if r.fingerprint_out == fp else r.fingerprint_out]
        for (pos, fp), r in sorted(records.items())
    ]


def decode_records(rows: list[list]) -> dict[tuple[int, str], DormancyRecord]:
    """Inverse of :func:`encode_records`.

    Rows are built with ``tuple.__new__``: the named-tuple constructor
    costs about a third more, on every load of the state.
    """
    new = tuple.__new__
    return {
        (pos, fp): new(DormancyRecord, (bool(dormant), fp_out or fp, last_used))
        for pos, fp, last_used, dormant, fp_out in rows
    }


class StateDelta(Struct):
    """Records created or refreshed while compiling against a snapshot.

    The payload of the parallel-build merge protocol: a worker tracks
    every record it touched (new dormancy verdicts and GC-timestamp
    refreshes alike) and ships just those back to the build driver.
    All ``last_used_build`` values in a delta equal ``build_counter`` —
    by construction a worker only touches records during its own build
    tick — which is what makes merged garbage collection behave exactly
    like a serial build's.

    It is also the unit of persistence:
    :class:`~repro.buildsys.builddb.StateStore` appends the delta of
    every build that touched the state to the state log instead of
    rewriting every record.
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
    """In-memory compiler state; :meth:`to_json` is its serialized form."""

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
        self.records = {} if records is None else records
        #: Records reclaimed by the most recent :meth:`collect_garbage` of
        #: this process (not persisted; 0 until GC runs).
        self.last_gc_reclaimed: int = 0
        #: On-disk bytes of the state as last written or read (0 = never
        #: persisted); what :meth:`size_summary` reports.
        self.stored_bytes: int = 0
        #: Keys touched since :meth:`begin_delta_tracking`; ``None`` = not tracking.
        self._touched: set[tuple[int, str]] | None = None
        #: Observability sink (``None`` = don't report); never serialized,
        #: never copied into snapshots.
        self._metrics: MetricsRegistry | None = None

    # -- observability -------------------------------------------------------

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report the cost of :meth:`merge_delta` into ``metrics``.

        Per-record traffic (lookups, hits, writes) is counted by the
        pass manager's ledger instead, so it is counted on pool
        workers too, whose snapshots carry no sink.
        """
        self._metrics = metrics

    # -- record access ------------------------------------------------------

    def lookup(self, position: int, fingerprint: str) -> DormancyRecord | None:
        """Fetch a record; a hit stores it back with a fresh GC timestamp."""
        key = (position, fingerprint)
        record = self.records.get(key)
        if record is not None:
            if record.last_used_build != self.build_counter:
                record = record._replace(last_used_build=self.build_counter)
                self.records[key] = record
            if self._touched is not None:
                self._touched.add(key)
        return record

    def remember(
        self, position: int, fingerprint_in: str, dormant: bool, fingerprint_out: str
    ) -> None:
        self.records[(position, fingerprint_in)] = DormancyRecord(
            dormant, fingerprint_out, self.build_counter
        )
        if self._touched is not None:
            self._touched.add((position, fingerprint_in))

    def begin_build(self) -> None:
        """Tick the GC clock (the driver calls it once per compiling build)."""
        self.build_counter += 1

    def collect_garbage(self) -> int:
        """Drop records unused for more than ``gc_max_age`` builds."""
        cutoff = self.build_counter - self.gc_max_age
        stale = [k for k, r in self.records.items() if r.last_used_build < cutoff]
        for key in stale:
            del self.records[key]
        self.gc_runs += 1
        self.gc_reclaimed_total += len(stale)
        self.last_gc_reclaimed = len(stale)
        return len(stale)

    @property
    def num_records(self) -> int:
        return len(self.records)

    def size_summary(self) -> dict:
        """Size and GC counters for observability (history/dashboard).

        ``bytes`` is :attr:`stored_bytes` — the state's actual on-disk
        footprint as last written or read, which is what "monotone state
        growth" analytics should watch rather than the record count
        alone.  It is never measured by re-serializing the state.
        """
        return {
            "records": self.num_records,
            "bytes": self.stored_bytes,
            "build_counter": self.build_counter,
            "gc_max_age": self.gc_max_age,
            "gc_runs": self.gc_runs,
            "gc_reclaimed_total": self.gc_reclaimed_total,
            "gc_reclaimed_last": self.last_gc_reclaimed,
        }

    # -- parallel-build snapshot/delta protocol -----------------------------

    def snapshot(self) -> "CompilerState":
        """An independent copy for one unit to compile against.

        A shallow copy of the record map: records are immutable, and
        every write (new verdict or refreshed timestamp) replaces a map
        entry, so nothing written to the copy reaches this state.  The
        copy carries no metrics sink and tracks no delta.
        """
        return CompilerState(
            pipeline_signature=self.pipeline_signature,
            fingerprint_mode=self.fingerprint_mode,
            build_counter=self.build_counter,
            gc_max_age=self.gc_max_age,
            records=dict(self.records),
        )

    def begin_delta_tracking(self) -> None:
        """Start recording which keys :meth:`lookup`/:meth:`remember` touch."""
        self._touched = set()

    def extract_delta(self) -> StateDelta:
        """The records touched since :meth:`begin_delta_tracking`.

        Touched keys include GC-timestamp refreshes from lookup hits,
        not just new verdicts: a record a worker merely *consulted* must
        survive garbage collection exactly as it would in a serial build.
        """
        if self._touched is None:
            raise RuntimeError("extract_delta() without begin_delta_tracking()")
        records = self.records
        return StateDelta(
            build_counter=self.build_counter,
            records={key: records[key] for key in self._touched if key in records},
        )

    def merge_delta(self, delta: StateDelta) -> int:
        """Fold one worker's delta into this state; returns records merged.

        Last-writer-wins on conflicting keys: the merge order (the build
        driver uses translation-unit order, independent of completion
        order) picks the surviving verdict.  Conflicting writers saw the
        same (position, fingerprint) and passes are deterministic, so
        the verdicts are identical anyway — the policy only matters for
        the GC timestamp, which is kept at the maximum so a record used
        by *any* worker stays as fresh as the freshest use.
        """
        start = time.perf_counter()
        records = self.records
        for key, incoming in delta.records.items():
            existing = records.get(key)
            if existing is not None and existing.last_used_build > incoming.last_used_build:
                incoming = incoming._replace(last_used_build=existing.last_used_build)
            records[key] = incoming
        if self._touched is not None:
            self._touched.update(delta.records)
        self.build_counter = max(self.build_counter, delta.build_counter)
        if self._metrics is not None:
            self._metrics.observe("state.merge_time", time.perf_counter() - start)
            self._metrics.inc("state.records_merged", len(delta.records))
        return len(delta.records)

    # -- compatibility ---------------------------------------------------------

    def compatible_with(self, pipeline_signature: str, fingerprint_mode: str) -> bool:
        return (
            self.pipeline_signature == pipeline_signature
            and self.fingerprint_mode == fingerprint_mode
        )

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema": STATE_SCHEMA_VERSION,
            "pipeline": self.pipeline_signature,
            "fingerprint_mode": self.fingerprint_mode,
            "build_counter": self.build_counter,
            "gc_max_age": self.gc_max_age,
            "gc_runs": self.gc_runs,
            "gc_reclaimed": self.gc_reclaimed_total,
            "records": encode_records(self.records),
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CompilerState":
        payload = json.loads(text)
        if payload.get("schema") != STATE_SCHEMA_VERSION:
            raise ValueError(
                f"state schema {payload.get('schema')} != {STATE_SCHEMA_VERSION}"
            )
        state = cls(
            pipeline_signature=payload["pipeline"],
            fingerprint_mode=payload["fingerprint_mode"],
            build_counter=payload["build_counter"],
            gc_max_age=payload.get("gc_max_age", 50),
            gc_runs=payload.get("gc_runs", 0),
            gc_reclaimed_total=payload.get("gc_reclaimed", 0),
            records=decode_records(payload["records"]),
        )
        return state


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
