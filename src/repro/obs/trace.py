"""Hierarchical build tracing with a Chrome ``trace_event`` exporter.

One :class:`Tracer` lives for one build (or one ``reproc`` invocation)
and collects :class:`SpanRecord` entries — build → phase → unit →
pass-pipeline → pass.  The records are plain picklable data so they can
cross the process-pool boundary of a ``-j N`` build: each worker runs
its own tracer whose spans travel back inside the per-unit outcome, and
the driver re-bases them onto the main timeline (wall-clock epochs are
shared across processes on one machine) with worker attribution.

When tracing is off the driver passes :data:`NULL_TRACER`, whose
methods are all no-ops — the hot paths pay one attribute load and one
no-op call per *executed* pass, which the overhead bench guard keeps
under 2% of a clean build.

Export is the Chrome ``trace_event`` JSON object format: load the file
in ``chrome://tracing`` or https://ui.perfetto.dev.  Every distinct
``track`` (the serial driver, each worker process) becomes one
named thread row; spans that nest in time nest visually.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

TRACE_SCHEMA_VERSION = 1

#: Track name used for spans emitted by the build driver itself.
DRIVER_TRACK = "driver"


@dataclass
class SpanRecord:
    """One completed span, picklable and process-boundary safe.

    ``start`` is in seconds relative to the owning tracer's epoch (not
    an absolute clock), which is what makes re-basing a worker's spans
    onto the driver's timeline a single addition.
    """

    name: str
    category: str
    start: float
    duration: float
    track: str = DRIVER_TRACK
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def encloses(self, other: "SpanRecord", *, slack: float = 1e-6) -> bool:
        """Does this span's interval contain ``other``'s (same track)?"""
        return (
            self.track == other.track
            and self.start - slack <= other.start
            and other.end <= self.end + slack
        )


class _NullSpan:
    """Reusable no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    The base class of :class:`Tracer` so call sites never branch —
    they unconditionally call ``tracer.add(...)`` / ``with
    tracer.span(...)`` and the dispatch does the rest.  Sites that
    would do *extra* work purely for tracing (an additional
    ``perf_counter`` pair, building an args dict) should still guard on
    :attr:`enabled`.
    """

    enabled = False

    def span(self, name: str, category: str = "build", **args):
        return _NULL_SPAN

    def add(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        *,
        track: str | None = None,
        **args,
    ) -> None:
        return None

    def absorb(self, spans, epoch_wall: float, *, track: str) -> None:
        return None

    @property
    def spans(self) -> list[SpanRecord]:
        return []


NULL_TRACER = NullTracer()


class _Span:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "name", "category", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.add(
            self.name,
            self.category,
            self._start,
            time.perf_counter() - self._start,
            **self.args,
        )


class Tracer(NullTracer):
    """Collects spans for one build on one timeline.

    The tracer remembers both a ``perf_counter`` epoch (spans are
    stored relative to it) and the wall-clock time of that epoch;
    the wall clock is what lets spans from *other processes* be
    re-based onto this timeline in :meth:`absorb`.
    """

    enabled = True

    def __init__(self, *, track: str = DRIVER_TRACK):
        self.track = track
        self._epoch = time.perf_counter()
        self.epoch_wall = time.time()
        self._spans: list[SpanRecord] = []

    @property
    def spans(self) -> list[SpanRecord]:
        return self._spans

    def span(self, name: str, category: str = "build", **args) -> _Span:
        """Context manager measuring and recording one span."""
        return _Span(self, name, category, args)

    def add(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        *,
        track: str | None = None,
        **args,
    ) -> None:
        """Record an already-measured span; ``start`` is a raw
        ``perf_counter`` value from this process."""
        self._spans.append(
            SpanRecord(
                name=name,
                category=category,
                start=start - self._epoch,
                duration=duration,
                track=track if track is not None else self.track,
                args=args,
            )
        )

    def absorb(
        self, spans: list[SpanRecord], epoch_wall: float, *, track: str
    ) -> None:
        """Re-base another tracer's spans onto this timeline.

        ``epoch_wall`` is the foreign tracer's wall-clock epoch; the
        offset between the two wall clocks re-bases every span, and
        ``track`` (a worker's ``pid-<n>`` name) attributes them to their
        own visual row.
        """
        offset = epoch_wall - self.epoch_wall
        for span in spans:
            self._spans.append(
                SpanRecord(
                    name=span.name,
                    category=span.category,
                    start=span.start + offset,
                    duration=span.duration,
                    track=track,
                    args=dict(span.args),
                )
            )

    # -- export --------------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        return chrome_trace_events(self._spans)

    def write(self, path: str | Path) -> int:
        """Write the Chrome trace JSON; returns bytes written."""
        data = json.dumps(
            {
                "traceEvents": self.chrome_events(),
                "displayTimeUnit": "ms",
                "otherData": {"schema": TRACE_SCHEMA_VERSION},
            },
            separators=(",", ":"),
        ).encode("utf-8")
        Path(path).write_bytes(data)
        return len(data)


def chrome_trace_events(spans: list[SpanRecord]) -> list[dict]:
    """Spans → Chrome ``trace_event`` "complete" events plus metadata.

    Tracks map to tids in first-seen order, with ``thread_name``
    metadata events so the viewer shows "driver", "pid-1234", etc.
    Timestamps are microseconds as the format requires; negative starts
    (a worker's clock slightly ahead of the driver's epoch) are clamped
    to zero so the viewer's origin stays at the build start.
    """
    tids: dict[str, int] = {}
    events: list[dict] = []
    for span in spans:
        if span.track not in tids:
            tids[span.track] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tids[span.track],
                    "args": {"name": span.track},
                }
            )
    for span in spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "pid": 1,
                "tid": tids[span.track],
                "ts": round(max(span.start, 0.0) * 1e6, 3),
                "dur": round(max(span.duration, 0.0) * 1e6, 3),
                "args": dict(span.args),
            }
        )
    return events
