"""Overheads of statefulness (Table 3).

The mechanism is not free: the first (clean) build must fingerprint
every function at every pipeline change point and write records; the
state occupies disk; loading/saving takes time.  This experiment
quantifies all three per project preset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import BuildOptions, IncrementalBuilder
from repro.core.state import CompilerState
from repro.driver import CompilerOptions
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset


@dataclass
class OverheadRow:
    preset: str
    source_lines: int
    stateless_clean_time: float
    stateful_clean_time: float
    state_bytes: int
    state_records: int
    fingerprint_time: float
    fingerprint_count: int
    state_load_time: float
    state_save_time: float

    @property
    def clean_build_overhead(self) -> float:
        """Relative first-build slowdown from recording state."""
        if self.stateless_clean_time == 0:
            return 0.0
        return self.stateful_clean_time / self.stateless_clean_time - 1.0


def _clean_build(project, options: CompilerOptions, build_options: BuildOptions):
    db = BuildDatabase()
    report = IncrementalBuilder(
        project.provider(), project.unit_paths, options, db, build_options
    ).build(link_output=False)
    return report, db


def overhead_report(
    presets: list[str] | None = None,
    *,
    opt_level: str = "O2",
    seed: int = 1,
    repeats: int = 5,
    jobs: int = 1,
) -> list[OverheadRow]:
    presets = presets or ["tiny", "small", "medium", "large"]
    build_options = BuildOptions(jobs=jobs)
    rows = []
    for preset in presets:
        project = generate_project(make_preset(preset, seed=seed))

        # Clean-build both variants back-to-back ``repeats`` times
        # (fresh database every time).  Each back-to-back pair sees the
        # same background load, so its stateful/stateless time ratio is
        # a fair overhead sample even on a noisy machine; taking the
        # median pair discards repeats where a load spike landed inside
        # one half of a pair.
        pairs = []
        for _ in range(repeats):
            sl, _unused = _clean_build(
                project, CompilerOptions(opt_level=opt_level, stateful=False),
                build_options,
            )
            sf, sf_db = _clean_build(
                project, CompilerOptions(opt_level=opt_level, stateful=True),
                build_options,
            )
            pairs.append((sf.total_wall_time / sl.total_wall_time, sl, sf, sf_db))
        pairs.sort(key=lambda pair: pair[0])
        _ratio, stateless, stateful, db = pairs[len(pairs) // 2]

        # Round-trip the live state to measure pure (de)serialization
        # cost and on-disk size.  The build's save already folded its
        # records into the base table, so encode a copy that has not.
        live = db.live_state
        assert isinstance(live, CompilerState)
        unfolded = CompilerState(
            live.pipeline_signature, live.fingerprint_mode, live.build_counter,
            records=dict(live.records.items()),
        )
        start = time.perf_counter()
        state_base = unfolded.to_json()
        save_time = time.perf_counter() - start
        start = time.perf_counter()
        CompilerState.from_json(state_base)
        load_time = time.perf_counter() - start
        state_bytes = len(state_base)
        state_records = live.num_records

        rows.append(
            OverheadRow(
                preset=preset,
                source_lines=project.total_lines,
                stateless_clean_time=stateless.total_wall_time,
                stateful_clean_time=stateful.total_wall_time,
                state_bytes=state_bytes,
                state_records=state_records,
                fingerprint_time=sum(u.fingerprint_time for u in stateful.compiled),
                fingerprint_count=sum(u.fingerprint_count for u in stateful.compiled),
                state_load_time=load_time,
                state_save_time=save_time,
            )
        )
    return rows
