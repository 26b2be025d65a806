"""Command-line tools: ``reproc`` (compiler) and ``reprobuild`` (builder).

``reproc`` compiles one translation unit::

    reproc main.mc -O2 --stateful --state-file .reprostate -o main.mo
    reproc main.mc --emit-ir            # print optimized IR
    reproc main.mc --run                # compile, link, execute

``reprobuild`` drives incremental builds of a project directory::

    reprobuild src/ --db build.reprodb --stateful --run
    reprobuild src/ -j 4 --trace-out trace.json --report-json report.json
    reprobuild src/ --stateful --label "after refactor"
    reprobuild explain src/ main.mc --db build.reprodb
    reprobuild history --db build.reprodb          # cross-build timeline
    reprobuild regress --db build.reprodb          # dormancy-drift checks
    reprobuild regress src/ --audit --db build.reprodb   # + collision audit
    reprobuild dashboard --db build.reprodb -o dashboard.html

Observability flags shared by the tools: ``-v``/``-vv`` (or
``REPRO_LOG=info|debug``) turns on structured logging,
``--trace-out FILE`` writes a Chrome ``trace_event`` JSON timeline
(load it in ``chrome://tracing`` or Perfetto), and ``reprobuild``'s
``--report-json FILE`` writes the machine-readable build report.

Every ``reprobuild`` run also appends its report to the build-history
store beside the DB (``<db>.history.jsonl``; disable with
``--no-history``), which is what ``history``/``regress``/``dashboard``
read.

Crash safety & concurrency: builds take an advisory ``flock`` on
``<db>.lock`` so concurrent invocations on one directory serialize
(``--lock-timeout``/``--no-lock`` tune this; a timed-out wait exits 3
with a "directory is locked" diagnostic), the DB (compiler state
included) and ``reproc``'s state file are written with the
checksummed atomic protocol in :mod:`repro.persist`
(the history is one ``O_APPEND`` line per build), and a corrupt build
DB is reported and rebuilt from scratch — never a traceback.  Compile
and link failures exit 1 with a diagnostic, after persisting every unit
that compiled.

A ``reprobuild`` that finds nothing to recompile reads no compiler
state and writes no file but the history record.  Without ``--run`` no
build links an image: it checks the link from each unit's stored link
interface, decoding no object, and skips even that when the build DB
says these exact objects last linked successfully.  Run as a command
(``argv=None``), ``reprobuild`` ends its process with ``os._exit``
once everything is written; see :func:`reprobuild_main`.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

from repro.backend.linker import LinkError, link
from repro.buildsys.builddb import BuildDatabase, CorruptDatabaseError
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.core.policies import SkipPolicy
from repro.frontend.diagnostics import CompileError
from repro.frontend.includes import DiskFileProvider
from repro.obs.history import BuildHistory, HistoryRecord, default_history_path
from repro.obs.logging import setup_logging
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.options import CompilerOptions
from repro.persist import BuildLock, LockTimeoutError, NullLock, default_lock_path
from repro.workload.project import Project


def _common_compiler_flags(parser: argparse.ArgumentParser, policy: str) -> None:
    parser.add_argument(
        "-O", dest="opt_level", choices=["0", "1", "2"], default="2",
        help="optimization level (default 2)",
    )
    parser.add_argument(
        "--stateful", action="store_true",
        help="enable the stateful compiler (see --policy)",
    )
    parser.add_argument(
        "--policy", choices=[p.value for p in SkipPolicy], default=policy,
        help="what --stateful reuses (default %(default)s): fine = bypass "
             "each dormant (function, pass) pair, coarse = bypass a function's "
             "whole pipeline when every pass was dormant, both kept as "
             "compiler state (in the build DB, or reproc's --state-file); memo = "
             "reuse each unchanged function's machine code from the build DB, "
             "with no compiler state",
    )
    parser.add_argument(
        "--fingerprint-mode", choices=["canonical", "named"], default="canonical",
        help="IR fingerprint definition (default canonical)",
    )
    _observability_flags(parser)


def _observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v = info, -vv = debug; REPRO_LOG too)",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace_event JSON timeline of the run",
    )


def _make_tracer(args: argparse.Namespace) -> NullTracer:
    """A real tracer only when ``--trace-out`` asked for one."""
    return Tracer() if getattr(args, "trace_out", None) else NULL_TRACER


def _options_from_args(args: argparse.Namespace) -> CompilerOptions:
    return CompilerOptions(
        opt_level=f"O{args.opt_level}",
        stateful=args.stateful,
        policy=SkipPolicy.from_name(args.policy),
        fingerprint_mode=args.fingerprint_mode,
    )


def reproc_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="reproc", description="MiniC compiler")
    parser.add_argument("source", help="translation unit (.mc) to compile")
    # No build DB, so no previous object for the memo to reuse.
    _common_compiler_flags(parser, policy="fine")
    parser.add_argument("-o", "--output", help="object file path (default <src>.mo)")
    parser.add_argument(
        "--state-file",
        help="compiler-state file for --stateful, rewritten by every compile",
    )
    parser.add_argument("--emit-ir", action="store_true", help="print optimized IR and exit")
    parser.add_argument(
        "--disasm", action="store_true", help="print disassembled machine code and exit"
    )
    parser.add_argument("--run", action="store_true", help="link and execute after compiling")
    parser.add_argument("--stats", action="store_true", help="print pass/bypass statistics")
    parser.add_argument(
        "--inspect-state", action="store_true",
        help="after compiling, print a summary of the compiler state",
    )
    args = parser.parse_args(argv)
    setup_logging(args.verbose)

    from repro.core.state import CompilerState
    from repro.driver import Compiler
    from repro.persist import CorruptArtifactError, atomic_write, read_artifact

    source_path = Path(args.source)
    if not source_path.is_file():
        print(f"reproc: no such file: {args.source}", file=sys.stderr)
        return 2
    provider = DiskFileProvider(source_path.parent)
    options = _options_from_args(args)
    tracer = _make_tracer(args)
    # A missing, damaged or incompatible state file leaves the
    # compiler's fresh state in place: stale records are never used.
    state_file = args.state_file if options.keeps_state else None
    state = None
    if state_file:
        try:
            state = CompilerState.from_json(read_artifact(state_file))
        except (OSError, CorruptArtifactError, ValueError, KeyError, TypeError):
            pass
    compiler = Compiler(provider, options, state=state, tracer=tracer)
    if state_file:
        compiler.state.begin_build()

    try:
        result = compiler.compile_source(source_path.name, source_path.read_text())
    except CompileError as exc:
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return 1
    if args.trace_out:
        tracer.write(args.trace_out)

    if state_file:
        compiler.state.collect_garbage()
        try:
            atomic_write(state_file, compiler.state.to_json())
        except OSError as exc:
            # The state is a cache: losing it costs bypasses on the next
            # run, not correctness — never fail the compile over it.
            print(f"reproc: failed to save state file: {exc}", file=sys.stderr)
    if args.inspect_state and compiler.state is not None:
        from repro.core.inspect import describe_state

        print(describe_state(compiler.state), file=sys.stderr)

    if args.emit_ir:
        from repro.ir.printer import print_module

        print(print_module(result.module), end="")
        return 0

    if args.disasm:
        from repro.backend.disasm import disassemble_object

        print(disassemble_object(result.object_file))
        return 0

    output = Path(args.output) if args.output else source_path.with_suffix(".mo")
    output.write_text(result.object_file.to_json())

    if args.stats:
        stats, ledger = result.stats, result.ledger
        print(
            f"passes: executed={stats.executions} dormant={stats.dormant_executions} "
            f"bypassed={stats.bypassed} work={stats.work_executed}",
            file=sys.stderr,
        )
        if compiler.state is not None:
            print(
                f"state overhead: {ledger.fingerprints} fingerprints "
                f"({ledger.fingerprint_ns / 1e6:.1f} ms)",
                file=sys.stderr,
            )

    if args.run:
        from repro.vm.machine import VirtualMachine

        image = link([result.object_file])
        outcome = VirtualMachine(image).run()
        for value in outcome.output:
            print(value)
        if outcome.trapped:
            print(f"trap: {outcome.trap_message}", file=sys.stderr)
            return 70
        return outcome.exit_code & 0x7F
    return 0


def _save_db_or_warn(db: BuildDatabase) -> bool:
    """Persist the DB's changes, degrading to a warning when the disk says no.

    Used on error paths where the build's exit status already reports
    the real problem — a failed cache save must not mask it (and must
    never traceback).
    """
    try:
        db.save_changes()
        return True
    except OSError as exc:
        print(f"reprobuild: failed to save build database {db.path}: {exc}", file=sys.stderr)
        return False


def _load_db_or_warn(path: str, tool: str) -> BuildDatabase:
    """Read-only DB load for inspection tools; corruption warns, not dies."""
    db, corruption = BuildDatabase.load_or_empty(path)
    if corruption is not None:
        print(f"{tool}: {corruption}; treating as empty", file=sys.stderr)
    return db


def _int_at_least(least: int, what: str):
    """An argparse type for a count: smaller values are usage errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


#: ``-j``, ``--window``, ``--sample``: like make's ``-j``, zero and
#: negatives are errors.
_positive_int = _int_at_least(1, "a positive integer")
#: ``-n``/``--last``, where 0 means every build.
_nonnegative_int = _int_at_least(0, "a non-negative integer")


#: Allocations between gen-0 collections in a process ``reprobuild``
#: owns (CPython's default is 700).  A one-shot build allocates most of
#: what it keeps, so frequent young collections mostly rescan live
#: objects; GC stays on, so cyclic garbage is still reclaimed.
_GC_GEN0_THRESHOLD = 10_000


def reprobuild_main(argv: list[str] | None = None) -> int:
    """The ``reprobuild`` entry point; returns its exit code.

    Called with ``argv=None`` (the console script, ``python -c``), the
    process belongs to this one command: the heap imported so far is
    frozen out of the cyclic GC, young collections run less often, and
    after the command the process flushes stdout and stderr and ends
    with :func:`os._exit`, skipping interpreter teardown.  That is safe
    because everything durable is written before the command returns:
    the DB is fsynced, the history, report and trace
    files closed, the lock released and any ``-j N`` pool joined.
    In-process callers pass ``argv`` and get the code returned.
    """
    if argv is not None:
        return _reprobuild(list(argv))
    gc.freeze()
    gc.set_threshold(_GC_GEN0_THRESHOLD)
    code = _reprobuild(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _reprobuild(argv: list[str]) -> int:
    if argv and argv[0] == "explain":
        return reprobuild_explain_main(argv[1:])
    if argv and argv[0] == "history":
        return reprobuild_history_main(argv[1:])
    if argv and argv[0] == "regress":
        return reprobuild_regress_main(argv[1:])
    if argv and argv[0] == "dashboard":
        return reprobuild_dashboard_main(argv[1:])

    parser = argparse.ArgumentParser(prog="reprobuild", description="incremental builder")
    parser.add_argument("directory", help="project directory containing .mc/.mh files")
    _common_compiler_flags(parser, policy="memo")
    parser.add_argument("--db", default="build.reprodb", help="build database path")
    parser.add_argument(
        "--report-json", metavar="FILE",
        help="write the machine-readable build report as JSON",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print why each unit was rebuilt or skipped",
    )
    parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=None,
        help="concurrent compile processes (default: CPU count; -j 1 = classic serial)",
    )
    parser.add_argument("--run", action="store_true", help="execute the linked image")
    parser.add_argument("--entry", default="main", help="entry function (default main)")
    parser.add_argument(
        "--label", default="",
        help="free-form label stored with this build's history record",
    )
    parser.add_argument(
        "--history", metavar="FILE", dest="history_path",
        help="build-history file (default <db>.history.jsonl)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this build to the history store",
    )
    parser.add_argument(
        "--lock-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long to wait for another build on this directory to "
             "finish before giving up (default 10; 0 = fail immediately)",
    )
    parser.add_argument(
        "--no-lock", action="store_true",
        help="skip the inter-process build lock (concurrent builds may race)",
    )
    args = parser.parse_args(argv)
    setup_logging(args.verbose)

    root = Path(args.directory)
    if not root.is_dir():
        print(f"reprobuild: no such directory: {args.directory}", file=sys.stderr)
        return 2
    project = Project.read_from(root)
    if not project.unit_paths:
        print("reprobuild: no .mc files found", file=sys.stderr)
        return 2

    # Serialize whole builds per directory: two concurrent reprobuild
    # invocations on one DB would interleave read-modify-write cycles.
    lock = (
        NullLock()
        if args.no_lock
        else BuildLock(default_lock_path(args.db), timeout=args.lock_timeout)
    )
    try:
        lock.acquire()
    except LockTimeoutError as exc:
        print(f"reprobuild: build directory is locked: {exc}", file=sys.stderr)
        print(
            "reprobuild: another build owns this directory; rerun later, "
            "raise --lock-timeout, or pass --no-lock to override",
            file=sys.stderr,
        )
        return 3
    try:
        return _locked_build(args, project)
    finally:
        lock.release()


def _locked_build(args: argparse.Namespace, project: Project) -> int:
    """The body of ``reprobuild`` once the directory lock is held."""
    db, corruption = BuildDatabase.load_or_empty(args.db)
    if corruption is not None:
        print(
            f"reprobuild: {corruption}; falling back to a full rebuild",
            file=sys.stderr,
        )
    options = _options_from_args(args)
    build_options = BuildOptions(jobs=args.jobs)
    tracer = _make_tracer(args)
    builder = IncrementalBuilder(
        project.provider(), project.unit_paths, options, db, build_options,
        tracer=tracer,
    )

    try:
        # Without --run nobody needs the image, only the link checked.
        try:
            report = builder.build(skip_unchanged_link=not args.run)
        except CorruptDatabaseError as exc:
            # A stored object that does not inflate shows only when read.
            print(f"reprobuild: {exc}; falling back to a full rebuild", file=sys.stderr)
            db.units.clear()
            report = builder.build(skip_unchanged_link=not args.run)
    except CompileError as exc:
        # Units that compiled before the failure are already recorded;
        # persisting them keeps the post-fix rebuild incremental.
        _save_db_or_warn(db)
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return 1
    except LinkError as exc:
        # Every unit compiled and is recorded; the DB says "not linked",
        # so the next build links again even if nothing changes.
        _save_db_or_warn(db)
        print(f"reprobuild: link failed: {exc}", file=sys.stderr)
        return 1
    try:
        db_bytes = db.save_changes()
    except OSError as exc:
        print(
            f"reprobuild: failed to save build database {args.db}: {exc}",
            file=sys.stderr,
        )
        return 1

    if args.trace_out:
        tracer.write(args.trace_out)
    if args.report_json:
        report.write_json(args.report_json)
    if not args.no_history:
        history = BuildHistory(
            args.history_path or default_history_path(args.db)
        )
        history.append(
            HistoryRecord(history.next_seq(), time.time(), args.label, report.to_dict())
        )
    if args.explain:
        for path in sorted(report.reasons):
            print(report.reasons[path].describe(), file=sys.stderr)

    print(f"build: {report.describe()}", file=sys.stderr)
    if options.keeps_state:
        print(
            f"state: {report.state_records} records ({report.state_bytes} bytes "
            f"of a {db_bytes}-byte build DB); "
            f"bypassed {report.bypass.bypassed}/{report.bypass.bypassed + report.bypass.executions} "
            f"pass runs",
            file=sys.stderr,
        )
    if report.memo and report.compiled:
        reused = report.memo["functions_reused"]
        total = reused + report.memo["functions_compiled"]
        print(
            f"memo: reused the machine code of {reused}/{total} functions",
            file=sys.stderr,
        )

    if args.run and report.image is not None:
        from repro.vm.machine import VirtualMachine

        outcome = VirtualMachine(report.image).run(args.entry)
        for value in outcome.output:
            print(value)
        if outcome.trapped:
            print(f"trap: {outcome.trap_message}", file=sys.stderr)
            return 70
        return outcome.exit_code & 0x7F
    return 0


def reprobuild_explain_main(argv: list[str] | None = None) -> int:
    """``reprobuild explain``: why would these units rebuild right now?

    Compares the current tree against the build database *without*
    building: for each unit it prints the scheduling verdict (source
    changed / a header it read changed / up to date / never built) and,
    when the database has one, the last compile's cost profile.
    """
    parser = argparse.ArgumentParser(
        prog="reprobuild explain",
        description="explain why units would (not) be rebuilt",
    )
    parser.add_argument("directory", help="project directory containing .mc/.mh files")
    parser.add_argument(
        "units", nargs="*",
        help="unit paths to explain (default: every unit in the project)",
    )
    parser.add_argument("--db", default="build.reprodb", help="build database path")
    parser.add_argument(
        "--top", type=int, default=5,
        help="how many passes of the last compile to show (default 5)",
    )
    parser.add_argument(
        "-O", dest="opt_level", choices=["0", "1", "2"], default="2",
        help="optimization level of the build to explain (default 2)",
    )
    _observability_flags(parser)
    # parse_intermixed_args lets unit positionals follow options
    # ("explain proj --db b.db main.mc"), which plain parse_args rejects.
    args = parser.parse_intermixed_args(argv)
    setup_logging(args.verbose)

    root = Path(args.directory)
    if not root.is_dir():
        print(f"reprobuild: no such directory: {args.directory}", file=sys.stderr)
        return 2
    project = Project.read_from(root)

    def normalize(unit: str) -> str:
        # Accept both DB-relative names ("main.mc") and paths that
        # include the project directory ("proj/main.mc").
        try:
            return Path(unit).relative_to(root).as_posix()
        except ValueError:
            return unit

    units = [normalize(u) for u in args.units] or project.unit_paths
    unknown = [u for u in units if u not in project.unit_paths]
    if unknown:
        print(
            f"reprobuild explain: not a unit in {args.directory}: "
            f"{', '.join(unknown)}",
            file=sys.stderr,
        )
        return 2

    from repro.buildsys.deps import DependencyScanner
    from repro.buildsys.explain import explain_unit

    db = _load_db_or_warn(args.db, "reprobuild explain")
    scanner = DependencyScanner(project.provider())
    options = CompilerOptions(opt_level=f"O{args.opt_level}").object_options
    for path in units:
        print(explain_unit(db, scanner, path, options, top=args.top))
    return 0


def _history_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default="build.reprodb", help="build database path")
    parser.add_argument(
        "--history", metavar="FILE", dest="history_path",
        help="build-history file (default <db>.history.jsonl)",
    )


def _load_history(args: argparse.Namespace):
    """(records, stats) for the history the flags point at."""
    path = Path(args.history_path) if args.history_path else default_history_path(args.db)
    return BuildHistory(path).read(), path


def reprobuild_history_main(argv: list[str] | None = None) -> int:
    """``reprobuild history``: the cross-build timeline, tabulated."""
    parser = argparse.ArgumentParser(
        prog="reprobuild history",
        description="tabulate the cross-build history store",
    )
    _history_flags(parser)
    parser.add_argument(
        "-n", "--last", type=_nonnegative_int, default=20,
        help="show at most the last N builds (default 20; 0 = all)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the records as JSON lines instead of the table",
    )
    args = parser.parse_args(argv)

    (records, stats), path = _load_history(args)
    if not records:
        print(f"reprobuild history: no builds recorded in {path}", file=sys.stderr)
        return 1
    if args.last > 0:
        records = records[-args.last:]

    if args.json:
        import json as _json

        for record in records:
            print(_json.dumps(record.to_dict(), sort_keys=True))
        return 0

    header = (
        f"{'seq':>5}  {'when':19}  {'label':16}  {'recomp':>6}  {'cached':>6}  "
        f"{'wall(s)':>8}  {'skip%':>7}  {'state':>7}  {'st-KB':>7}  {'gc':>4}"
    )
    print(header)
    print("-" * len(header))
    for record in records:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(record.timestamp))
        label = record.label[:16]
        print(
            f"{record.seq:>5}  {when:19}  {label:16}  {record.recompiled:>6}  "
            f"{record.up_to_date:>6}  {record.total_wall_time:>8.3f}  "
            f"{record.skip_rate * 100:>6.1f}%  {record.state_records:>7}  "
            f"{record.state_bytes / 1024:>7.1f}  {record.gc_reclaimed:>4}"
        )
    parts = [f"{stats.loaded} build(s) loaded from {path}"]
    if stats.truncated:
        parts.append("1 torn final line dropped")
    if stats.corrupt:
        parts.append(f"{stats.corrupt} corrupt line(s) skipped")
    if stats.newer_schema:
        parts.append(f"{stats.newer_schema} newer-schema record(s) skipped")
    print("; ".join(parts), file=sys.stderr)
    return 0


def reprobuild_regress_main(argv: list[str] | None = None) -> int:
    """``reprobuild regress``: dormancy-drift checks (+ collision audit).

    Exit status: 0 when every check is quiet, 1 when drift was detected
    or the audit found a mismatch — CI gates on it directly.
    """
    parser = argparse.ArgumentParser(
        prog="reprobuild regress",
        description="detect bypass-rate drops, pass-wall regressions, and "
                    "unbounded state growth across the build history",
    )
    parser.add_argument(
        "directory", nargs="?",
        help="project directory (required for --audit)",
    )
    _history_flags(parser)
    parser.add_argument(
        "--window", type=_positive_int, default=8,
        help="baseline window: median of the previous N builds (default 8)",
    )
    parser.add_argument(
        "--bypass-drop", type=float, default=0.15,
        help="flag a bypass-rate drop bigger than this (default 0.15)",
    )
    parser.add_argument(
        "--wall-factor", type=float, default=2.0,
        help="flag a per-pass wall regression beyond baseline x this "
             "(default 2.0; paired with a 2ms absolute floor)",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="re-execute a sample of bypassed (fingerprint, pass) pairs "
             "against the DB's compiler state, if it has one, and verify zero "
             "collisions; recompile the functions whose machine code the memo "
             "reuses and verify it is unchanged",
    )
    parser.add_argument(
        "--sample", type=_positive_int, default=20,
        help="bypassed pairs to re-execute with --audit (default 20)",
    )
    parser.add_argument("--seed", type=int, default=0, help="audit sampling seed")
    parser.add_argument(
        "-O", dest="opt_level", choices=["0", "1", "2"], default="2",
        help="opt level the audited builds used (default 2)",
    )
    parser.add_argument(
        "--fingerprint-mode", choices=["canonical", "named"], default="canonical",
        help="fingerprint mode the audited builds used (default canonical)",
    )
    args = parser.parse_args(argv)

    from repro.obs.drift import DriftConfig, detect_drift

    (records, stats), path = _load_history(args)
    failed = False
    if not records:
        print(f"regress: no history at {path}; nothing to analyze", file=sys.stderr)
    else:
        config = DriftConfig(
            window=args.window,
            bypass_drop=args.bypass_drop,
            pass_wall_factor=args.wall_factor,
        )
        drift = detect_drift(records, config)
        print(drift.describe())
        failed = not drift.clean

    if args.audit:
        if not args.directory:
            print("regress: --audit needs the project directory", file=sys.stderr)
            return 2
        root = Path(args.directory)
        if not root.is_dir():
            print(f"regress: no such directory: {args.directory}", file=sys.stderr)
            return 2
        db = _load_db_or_warn(args.db, "regress")
        if db.live_state is None and not any(r.memo for r in db.units.values()):
            print(
                "regress: nothing to audit: the build DB has no compiler state "
                "and no memo keys (audit needs a --stateful build first)",
                file=sys.stderr,
            )
            return 2
        from repro.buildsys.audit import audit_fingerprint_collisions

        project = Project.read_from(root)
        options = CompilerOptions(
            opt_level=f"O{args.opt_level}",
            stateful=True,
            fingerprint_mode=args.fingerprint_mode,
        )
        try:
            audit = audit_fingerprint_collisions(
                project.provider(),
                project.unit_paths,
                options,
                db.live_state,
                sample=args.sample,
                seed=args.seed,
                units=db.units,
            )
        except ValueError as exc:
            print(f"regress: {exc}", file=sys.stderr)
            return 2
        print(audit.describe())
        for mismatch in audit.mismatches:
            print(
                f"  MISMATCH [{mismatch['kind']}] {mismatch['unit']} "
                f"{mismatch['function']} pass={mismatch['pass']}: "
                f"{mismatch['detail']}"
            )
        failed = failed or not audit.ok

    return 1 if failed else 0


def reprobuild_dashboard_main(argv: list[str] | None = None) -> int:
    """``reprobuild dashboard``: render the static build-health page."""
    parser = argparse.ArgumentParser(
        prog="reprobuild dashboard",
        description="render the build history as a self-contained HTML page "
                    "(inline CSS/SVG, no network access needed to view)",
    )
    _history_flags(parser)
    parser.add_argument(
        "-o", "--output", default="dashboard.html",
        help="output HTML path (default dashboard.html)",
    )
    parser.add_argument(
        "-n", "--last", type=_nonnegative_int, default=0,
        help="render at most the last N builds (default 0 = all)",
    )
    parser.add_argument("--title", default="reprobuild health", help="page title")
    args = parser.parse_args(argv)

    from repro.obs.dashboard import render_dashboard
    from repro.obs.drift import detect_drift

    (records, stats), path = _load_history(args)
    if not records:
        print(f"dashboard: no builds recorded in {path}", file=sys.stderr)
        return 1
    if args.last > 0:
        records = records[-args.last:]
    html = render_dashboard(records, title=args.title, drift=detect_drift(records))
    output = Path(args.output)
    output.write_text(html)
    print(
        f"dashboard: {len(records)} build(s) -> {output} ({len(html)} bytes)",
        file=sys.stderr,
    )
    return 0


def _dispatch_main() -> int:
    """Pick the entry point by invocation name.

    The module hosts two tools; ``python -m repro.cli`` and direct
    execution both land here, so dispatch on how we were invoked rather
    than unconditionally running ``reproc``.
    """
    name = Path(sys.argv[0]).name
    if "reprobuild" in name:
        return reprobuild_main()
    return reproc_main()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_dispatch_main())
