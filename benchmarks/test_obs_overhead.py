"""Observability overhead guard — disabled tracing plus metrics must stay <2%.

Two kinds of bookkeeping sit on the compiler's paths.  Tracer hooks
(unit and phase spans; per-pass spans only when tracing is on) hit
:data:`~repro.obs.trace.NULL_TRACER` no-ops when tracing is off.  The
:class:`~repro.obs.metrics.MetricsRegistry` is always on.  This guard
counts both kinds of call in a clean demo build, prices each at its
measured per-call cost, and holds the sum to 2% of the build's wall
time.  It also reports the cost of tracing *enabled* for context (that
one is informational — users opted in with ``--trace-out``).
"""

import time

from bench_util import DEFAULT_SEED, publish, run_once

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.driver import CompilerOptions
from repro.obs.history import BuildHistory, HistoryRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.workload.edits import apply_edit, random_edit_sequence
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset

#: Acceptance bound: tracer no-op calls plus metrics calls cost less
#: than this fraction of a clean build.
NOOP_BUDGET = 0.02

#: Acceptance bound: appending one history record costs less than this
#: fraction of the incremental build it records.
HISTORY_BUDGET = 0.02

_METRICS_METHODS = ("inc", "observe", "set_gauge")


def _clean_build(project, tracer):
    builder = IncrementalBuilder(
        project.provider(),
        project.unit_paths,
        CompilerOptions(stateful=True),
        BuildDatabase(),
        tracer=tracer,
    )
    start = time.perf_counter()
    report = builder.build()
    return report, time.perf_counter() - start


def _noop_call_cost(calls: int = 200_000) -> float:
    """Measured seconds per NULL_TRACER.add call (amortized)."""
    start = time.perf_counter()
    for _ in range(calls):
        NULL_TRACER.add("pass", "pass", 0.0, 0.0, function="f", changed=False)
    return (time.perf_counter() - start) / calls


def _metrics_call_cost(calls: int = 200_000) -> float:
    """Measured seconds per MetricsRegistry.inc call (amortized)."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    for _ in range(calls):
        registry.inc("passes.executed", 3)
    return (time.perf_counter() - start) / calls


class _CountingNullTracer(NullTracer):
    """A disabled tracer that counts the no-op calls it receives."""

    def __init__(self):
        self.calls = 0

    def add(self, *args, **kwargs) -> None:
        self.calls += 1

    def span(self, *args, **kwargs):
        self.calls += 1
        return super().span(*args, **kwargs)


def _count_calls(project) -> tuple[int, int]:
    """(tracer no-op calls, metrics calls) of one clean build.

    Counted in a build of its own, so the counting wrappers never slow
    the timed builds; a clean build of one project makes the same calls
    every time.
    """
    counted = {"calls": 0}
    originals = {name: getattr(MetricsRegistry, name) for name in _METRICS_METHODS}

    def counting(original):
        def wrapper(self, *args, **kwargs):
            counted["calls"] += 1
            return original(self, *args, **kwargs)

        return wrapper

    tracer = _CountingNullTracer()
    try:
        for name, original in originals.items():
            setattr(MetricsRegistry, name, counting(original))
        _clean_build(project, tracer)
    finally:
        for name, original in originals.items():
            setattr(MetricsRegistry, name, original)
    return tracer.calls, counted["calls"]


def test_noop_tracer_overhead_under_budget(benchmark):
    def experiment():
        project = generate_project(make_preset("small", seed=DEFAULT_SEED))
        # Median of 3 to keep single-run scheduler noise out of the guard.
        samples = [_clean_build(project, NULL_TRACER) for _ in range(3)]
        report, build_time = sorted(samples, key=lambda s: s[1])[1]
        _, traced_time = _clean_build(project, Tracer())

        tracer_calls, metrics_calls = _count_calls(project)
        tracer_cost = tracer_calls * _noop_call_cost() / build_time
        metrics_cost = metrics_calls * _metrics_call_cost() / build_time
        return (
            report, build_time, traced_time,
            tracer_calls, metrics_calls, tracer_cost, metrics_cost,
        )

    (
        report, build_time, traced_time,
        tracer_calls, metrics_calls, tracer_cost, metrics_cost,
    ) = run_once(benchmark, experiment)
    overhead = tracer_cost + metrics_cost

    publish(
        "obs_overhead",
        "\n".join(
            [
                "Observability overhead (clean 'small' stateful build)",
                f"  build wall time          : {build_time:.3f} s",
                f"  tracer no-op calls       : {tracer_calls} ({tracer_cost:.3%})",
                f"  metrics registry calls   : {metrics_calls} ({metrics_cost:.3%})",
                f"  always-on overhead       : {overhead:.3%} (budget {NOOP_BUDGET:.0%})",
                f"  enabled-tracing build    : {traced_time:.3f} s "
                f"({traced_time / build_time - 1:+.1%}, informational)",
            ]
        ),
    )

    assert overhead < NOOP_BUDGET, (
        f"disabled tracing and metrics cost {overhead:.2%} of a clean build"
        f" ({tracer_calls} tracer calls, {metrics_calls} metrics calls)"
    )


def _incremental_build(spec, db):
    project = generate_project(spec)
    builder = IncrementalBuilder(
        project.provider(), project.unit_paths, CompilerOptions(stateful=True), db
    )
    start = time.perf_counter()
    report = builder.build()
    return report, time.perf_counter() - start


def test_history_persistence_overhead_under_budget(benchmark, tmp_path):
    """Every build appends one history record; that must stay noise."""

    def experiment():
        # "medium" keeps the denominator representative: a "small"
        # incremental build is so quick the ~1 ms append dominates it.
        spec = make_preset("medium", seed=DEFAULT_SEED)
        db = BuildDatabase()
        _incremental_build(spec, db)
        # Median of 3 single-edit rebuilds, a fresh edit per sample so
        # every one is a genuine incremental build (not a no-op).
        samples = []
        for edit in random_edit_sequence(spec, 3, seed=DEFAULT_SEED):
            spec = apply_edit(spec, edit)
            samples.append(_incremental_build(spec, db))
        report, build_time = sorted(samples, key=lambda s: s[1])[1]

        history = BuildHistory(tmp_path / "bench.history.jsonl")
        payload = report.to_dict()
        appends = []
        for _ in range(3):
            start = time.perf_counter()
            record = HistoryRecord.from_report_payload(
                history.next_seq(), time.time(), payload, label="bench"
            )
            history.append(record)
            appends.append(time.perf_counter() - start)
        append_time = sorted(appends)[1]
        return build_time, append_time, append_time / build_time

    build_time, append_time, overhead = run_once(benchmark, experiment)

    publish(
        "history_overhead",
        "\n".join(
            [
                "Build-history persistence overhead (incremental 'medium' build)",
                f"  incremental build wall : {build_time:.3f} s",
                f"  record build + append  : {append_time * 1e3:.2f} ms",
                f"  history overhead       : {overhead:.3%} (budget {HISTORY_BUDGET:.0%})",
            ]
        ),
    )

    assert overhead < HISTORY_BUDGET, (
        f"history persistence costs {overhead:.2%} of an incremental build"
        f" ({append_time * 1e3:.2f} ms on {build_time:.3f} s)"
    )
