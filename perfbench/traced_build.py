"""Run one ``reprobuild`` with each layer's public entry points timed.

Usage::

    python3 perfbench/traced_build.py OUT.json [reprobuild arguments...]

The benchmark's traced run starts this script where the timed runs start
the plain ``reprobuild`` entry point.  It times ``import repro.cli``,
replaces the attribute each caller looks up (``repro.driver.lower_program``,
``repro.buildsys.incremental.link``, ``BuildLock.acquire``, ...) with a
timing wrapper, runs ``reprobuild_main`` and writes what the wrappers
saw to OUT.json.  Nothing under ``src/`` changes.

Each wrapper records calls, inclusive time and self time (inclusive time
minus the time of wrapped calls made inside it), so the self times of
all layers plus interpreter start, import and exit add up to the
process's wall time except for code no wrapper covers.

Pool workers of a ``-j N`` build are forked from this process and so
inherit the wrappers.  A fork hook clears the inherited totals, and each
worker writes its own totals to ``OUT.json.w<pid>`` when it exits; this
process folds those files into OUT.json before it exits.
"""

import sys
import time

_T_MAIN = time.perf_counter()


class Recorder:
    """Per-layer call counts, inclusive and self seconds for one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        #: One child-time accumulator per wrapped call in progress.
        self.stack: list[float] = []
        #: The ``BuildReport`` of the build, once it has returned.
        self.report = None

    def clear(self) -> None:
        # In place: the wrappers hold references to these containers.
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.stack.clear()
        self.report = None

    def totals(self) -> dict:
        return {"calls": self.calls, "total": self.total, "self": self.self_time}


def _timed(rec: Recorder, layer, fn):
    """Wrap ``fn`` so its calls are charged to ``layer``.

    ``layer`` is a name, or a callable that derives the name from the
    call's first argument (the pass object, for per-pass layers).
    """
    import functools

    perf = time.perf_counter
    stack, calls, total, self_time = rec.stack, rec.calls, rec.total, rec.self_time
    name_of = layer if callable(layer) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = name_of(args[0]) if name_of is not None else layer
        stack.append(0.0)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf() - start
            child = stack.pop()
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + elapsed
            self_time[name] = self_time.get(name, 0.0) + elapsed - child
            if stack:
                stack[-1] += elapsed

    return wrapper


def _counted(rec: Recorder, layer: str, fn):
    """Wrap ``fn`` to count calls only (for calls too frequent to time)."""
    import functools

    calls = rec.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[layer] = calls.get(layer, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _patch(owner, attr: str, make_wrapper) -> None:
    """Replace ``owner.attr``, keeping classmethods classmethods."""
    import inspect

    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make_wrapper(raw.__func__)))
    else:
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))


def install(rec: Recorder) -> None:
    """Put the timing wrappers in place; see README.md for the layer map."""
    from repro import driver
    from repro.backend import objfile
    from repro.buildsys import builddb, deps, incremental, parallel
    from repro.core import state, stateful
    from repro.frontend import includes, parser
    from repro.obs import history, metrics
    from repro.passmanager import manager, pipeline
    from repro.persist import lock
    from repro.workload import project

    timed = [
        (lock.BuildLock, "acquire", "persist.lock_ms"),
        (lock.BuildLock, "release", "persist.lock_ms"),
        (builddb, "atomic_write", "persist.write_ms"),
        (history, "atomic_write", "persist.write_ms"),
        (project.Project, "read_from", "project.read_ms"),
        (builddb.BuildDatabase, "load_or_empty", "builddb.load_ms"),
        (builddb.BuildDatabase, "to_json", "builddb.encode_ms"),
        (state.CompilerState, "from_json", "state.decode_ms"),
        (state.CompilerState, "to_json", "state.encode_ms"),
        (state.CompilerState, "size_summary", "state.size_summary_ms"),
        (state.CompilerState, "collect_garbage", "state.gc_ms"),
        (state.CompilerState, "snapshot", "state.snapshot_ms"),
        (state.CompilerState, "merge_delta", "state.merge_ms"),
        (deps.DependencyScanner, "snapshot", "deps.scan_ms"),
        (includes.IncludeResolver, "resolve", "frontend.resolve_ms"),
        (parser.Parser, "parse_program", "frontend.parse_ms"),
        (driver, "analyze", "frontend.sema_ms"),
        (driver, "lower_program", "lowering.ms"),
        (driver, "verify_module", "verify.ms"),
        (manager.PassManager, "run", "passes.ms"),
        (stateful, "fingerprint_function", "fingerprint.ms"),
        (driver, "compile_module_to_object", "backend.codegen_ms"),
        (objfile.ObjectFile, "from_json", "backend.decode_ms"),
        (incremental, "link", "backend.link_ms"),
        (incremental, "compile_units", "parallel.compile_units_ms"),
        (parallel, "compile_unit", "parallel.worker_busy_ms"),
        (history.BuildHistory, "next_seq", "history.append_ms"),
        (history.BuildHistory, "append", "history.append_ms"),
    ]
    for owner, attr, layer in timed:
        _patch(owner, attr, lambda fn, layer=layer: _timed(rec, layer, fn))

    # The build itself: its self time is the incremental builder's own
    # bookkeeping, and its report carries the program's own counters.
    def keep_report(fn):
        inner = _timed(rec, "build.self_ms", fn)

        def build(*args, **kwargs):
            rec.report = inner(*args, **kwargs)
            return rec.report

        return build

    _patch(incremental.IncrementalBuilder, "build", keep_report)

    o2 = pipeline.build_pipeline("O2")
    patched: set = set()
    for attr, passes in (
        ("run_on_module", o2.module_prelude),
        ("run_on_function", o2.function_passes),
    ):
        for pass_ in passes:
            cls = type(pass_)
            if (cls, attr) in patched:
                continue
            patched.add((cls, attr))
            _patch(
                cls, attr,
                lambda fn: _timed(rec, lambda self: f"pass.{self.name}.ms", fn),
            )

    for attr in ("inc", "observe", "set_gauge"):
        _patch(
            metrics.MetricsRegistry, attr,
            lambda fn: _counted(rec, "obs.metrics_calls", fn),
        )


def _report_counters(report) -> dict:
    """The build report's own counters, from every process of the build."""
    m = report.metrics
    counters, gauges = m.get("counters", {}), m.get("gauges", {})
    return {
        "dirty_units": int(gauges.get("build.dirty", 0)),
        "jobs": report.jobs,
        "state_records": report.state_records,
        "lookups": counters.get("state.lookups", 0),
        "hits": counters.get("state.records_refreshed", 0),
        "remembers": counters.get("state.records_written", 0),
        "executed": counters.get("passes.executed", 0),
        "work": counters.get("passes.work", 0),
        "bypassed": counters.get("passes.bypassed", 0),
    }


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]

    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start

    import json
    import os
    from multiprocessing import util as mp_util

    rec = Recorder()
    install(rec)

    def worker_exit() -> None:
        with open(f"{out}.w{os.getpid()}", "w") as fh:
            json.dump(rec.totals(), fh)

    def in_forked_child(rec: Recorder) -> None:
        rec.clear()
        mp_util.Finalize(None, worker_exit, exitpriority=100)

    mp_util.register_after_fork(rec, in_forked_child)

    code = repro.cli.reprobuild_main(argv)

    workers = []
    for name in sorted(os.listdir(os.path.dirname(out) or ".")):
        path = os.path.join(os.path.dirname(out), name)
        if name.startswith(os.path.basename(out) + ".w"):
            with open(path) as fh:
                workers.append(json.load(fh))
            os.remove(path)
    payload = {
        "t_main": _T_MAIN,
        "import_s": import_s,
        "main": rec.totals(),
        "workers": workers,
        "report": _report_counters(rec.report) if rec.report is not None else {},
        "t_end": time.perf_counter(),
    }
    with open(out, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
