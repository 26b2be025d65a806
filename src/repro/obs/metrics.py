"""The metrics registry: counters, gauges, and timing summaries.

One :class:`MetricsRegistry` collects a build's counters, gauges and
timings: the compiler driver publishes each unit's ``passes.*`` and
``state.*`` totals from the pass ledger
(:mod:`repro.passmanager.ledger`) once per unit, and the compiler
state, the dependency scanner and the build driver report their own
per-build figures.  Per-pass breakdowns are not kept here; they live in
the build report's bypass table.  Registries are plain picklable data,
so a worker process can fill one per unit and ship it back for
:meth:`MetricsRegistry.merge` on the driver side.

Naming convention: dotted ``family.metric`` strings.  Timings are for
durations no other record keeps; the build and unit phase durations
live in the build report and the trace.
"""

from __future__ import annotations

from repro._struct import Struct


class Counter(Struct):
    """A monotonically increasing integer."""

    _fields = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge(Struct):
    """A point-in-time value (last write wins)."""

    _fields = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


class Timing(Struct):
    """A summary of observed durations (seconds)."""

    _fields = ("count", "total", "min", "max")

    def __init__(
        self,
        count: int = 0,
        total: float = 0.0,
        min: float = 0.0,
        max: float = 0.0,
    ) -> None:
        self.count = count
        self.total = total
        self.min = min
        self.max = max

    def observe(self, seconds: float) -> None:
        if self.count == 0 or seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        self.count += 1
        self.total += seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Timing") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.min = other.min
            self.max = other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total


class MetricsRegistry(Struct):
    """Get-or-create families of named counters, gauges, and timings."""

    _fields = ("counters", "gauges", "timings")

    def __init__(
        self,
        counters: dict[str, Counter] | None = None,
        gauges: dict[str, Gauge] | None = None,
        timings: dict[str, Timing] | None = None,
    ) -> None:
        self.counters = {} if counters is None else counters
        self.gauges = {} if gauges is None else gauges
        self.timings = {} if timings is None else timings

    # -- get-or-create -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def timing(self, name: str) -> Timing:
        timing = self.timings.get(name)
        if timing is None:
            timing = self.timings[name] = Timing()
        return timing

    # -- conveniences --------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, seconds: float) -> None:
        self.timing(name).observe(seconds)

    def count(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else 0

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters/timings add, gauges LWW."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, timing in other.timings.items():
            self.timing(name).merge(timing)

    def to_dict(self) -> dict:
        """A stable, JSON-ready snapshot (keys sorted)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "timings": {
                n: {
                    "count": t.count,
                    "total": t.total,
                    "min": t.min,
                    "max": t.max,
                    "mean": t.mean,
                }
                for n, t in sorted(self.timings.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry.counter(name).value = int(value)
        for name, value in payload.get("gauges", {}).items():
            registry.gauge(name).value = float(value)
        for name, entry in payload.get("timings", {}).items():
            timing = registry.timing(name)
            timing.count = int(entry["count"])
            timing.total = float(entry["total"])
            timing.min = float(entry["min"])
            timing.max = float(entry["max"])
        return registry
