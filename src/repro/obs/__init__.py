"""``repro.obs`` — observability for the compiler and build system.

Pillars, each usable on its own:

- :mod:`repro.obs.trace` — hierarchical build spans with a Chrome
  ``trace_event`` exporter (``reprobuild --trace-out``);
- :mod:`repro.obs.metrics` — the build-wide registry of counters,
  gauges, and timing summaries every layer reports into;
- :mod:`repro.obs.logging` — ``repro.*`` logger-namespace setup
  (``REPRO_LOG`` / ``--verbose``);
- :mod:`repro.obs.history` — the append-only cross-build history store
  every ``reprobuild`` run persists its report into;
- :mod:`repro.obs.drift` — dormancy-drift analytics over the history
  (``reprobuild regress``);
- :mod:`repro.obs.dashboard` — the self-contained static HTML
  build-health page (``reprobuild dashboard``).

Each duration has one home: the build report (and so the history)
holds the build's phase and per-unit wall times, and the trace holds
the spans.

The package sits *below* the build system in the layering: nothing
here imports compiler or buildsys modules, so any layer can depend on
it without cycles.  (The history store therefore holds build reports as
their schema-versioned dict payloads, not as ``BuildReport`` objects.)
"""

from repro._lazy import lazy_exports

__all__ = [
    "BuildHistory",
    "Counter",
    "DRIVER_TRACK",
    "DriftConfig",
    "DriftFinding",
    "DriftReport",
    "Gauge",
    "HISTORY_SCHEMA_VERSION",
    "HistoryRecord",
    "LOG_ENV_VAR",
    "LoadStats",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Timing",
    "Tracer",
    "chrome_trace_events",
    "default_history_path",
    "detect_drift",
    "get_logger",
    "render_dashboard",
    "setup_logging",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.dashboard": ("render_dashboard",),
    "repro.obs.drift": ("DriftConfig", "DriftFinding", "DriftReport", "detect_drift"),
    "repro.obs.history": (
        "HISTORY_SCHEMA_VERSION",
        "BuildHistory",
        "HistoryRecord",
        "LoadStats",
        "default_history_path",
    ),
    "repro.obs.logging": ("LOG_ENV_VAR", "get_logger", "setup_logging"),
    "repro.obs.metrics": ("Counter", "Gauge", "MetricsRegistry", "Timing"),
    "repro.obs.trace": (
        "DRIVER_TRACK",
        "NULL_TRACER",
        "NullTracer",
        "SpanRecord",
        "Tracer",
        "chrome_trace_events",
    ),
})
