"""Dashboard rendering: structure, self-containment, content."""

import json
from html.parser import HTMLParser

from repro.obs.dashboard import render_dashboard
from repro.obs.drift import DriftFinding, DriftReport
from repro.obs.history import HistoryRecord

from tests.obs.test_history import LEGACY_LINE

VOID_TAGS = {"meta", "br", "hr", "img", "input", "link", "circle", "line"}


class StructureChecker(HTMLParser):
    """Balanced-tag + external-reference audit of the rendered page."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []
        self.external: list[str] = []
        self.tags_seen: set[str] = set()

    def handle_starttag(self, tag, attrs):
        self.tags_seen.add(tag)
        for name, value in attrs:
            if name in ("src", "href") and value and "://" in value:
                self.external.append(f"{tag} {name}={value}")
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.tags_seen.add(tag)

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack:
            self.errors.append(f"unopened </{tag}>")
        elif self.stack[-1] != tag:
            self.errors.append(f"expected </{self.stack[-1]}>, got </{tag}>")
        else:
            self.stack.pop()


def check_structure(html_text: str) -> StructureChecker:
    checker = StructureChecker()
    checker.feed(html_text)
    checker.close()
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"
    return checker


def make_record(seq: int, *, by_pass=None, compiled=None) -> HistoryRecord:
    return HistoryRecord(
        seq=seq,
        timestamp=1_700_000_000.0 + seq * 60,
        label="clean" if seq == 1 else f"edit-{seq - 1}",
        report={
            "schema": 4,
            "summary": {
                "recompiled": 5 if seq == 1 else 2,
                "up_to_date": 0 if seq == 1 else 3,
                "total_wall_time": 0.8 - seq * 0.05,
                "jobs": 2,
            },
            "bypass": {
                "executions": 40,
                "bypassed": 0 if seq == 1 else 60,
                "by_pass": by_pass
                or {"dce": {"executed": 4, "bypassed": 6, "ns": 4_000_000 * seq},
                    "mem2reg": {"executed": 2, "bypassed": 8, "ns": 2_000_000}},
            },
            "state": {"records": 100 + seq * 5, "bytes": 40_000 + seq * 500},
            "compiled": compiled or [],
        },
    )


def trace(n: int = 6) -> list[HistoryRecord]:
    return [make_record(seq) for seq in range(1, n + 1)]


class TestStructure:
    def test_balanced_tags_and_expected_sections(self):
        page = render_dashboard(trace())
        checker = check_structure(page)
        assert {"svg", "table", "polyline", "polygon"} <= checker.tags_seen

    def test_self_contained_no_external_references(self):
        page = render_dashboard(trace())
        checker = check_structure(page)
        assert checker.external == []
        assert "http://" not in page and "https://" not in page
        assert "@import" not in page
        assert "<script" not in page

    def test_empty_history_renders_a_valid_stub(self):
        page = render_dashboard([])
        check_structure(page)
        assert "history is empty" in page


class TestContent:
    def test_title_and_labels_are_escaped(self):
        page = render_dashboard(trace(2), title="<b>evil & co</b>")
        assert "<b>evil" not in page
        assert "&lt;b&gt;evil &amp; co&lt;/b&gt;" in page

    def test_heat_table_lists_every_pass(self):
        page = render_dashboard(trace())
        assert "dce" in page and "mem2reg" in page
        assert "#cde2fb" in page or "#104281" in page  # ramp actually applied

    def test_records_sorted_by_seq_not_input_order(self):
        page = render_dashboard(list(reversed(trace(4))))
        assert "builds, #1 to #4" in page

    def test_worker_breakdown_from_compiled_units(self):
        records = trace(3)
        records[-1] = make_record(
            3,
            compiled=[
                {"path": "a.mc", "wall_time": 0.2, "worker": "pid-1"},
                {"path": "b.mc", "wall_time": 0.3, "worker": "pid-1"},
                {"path": "c.mc", "wall_time": 0.125, "worker": "pid-2"},
            ],
        )
        page = render_dashboard(records)
        assert "Compile wall by worker (build #3)" in page
        assert "pid-1: 500.0ms" in page and "pid-2: 125.0ms" in page

    def test_no_worker_section_when_nothing_compiled(self):
        assert "Compile wall by worker" not in render_dashboard(trace())

    def test_legacy_record_renders_workers_from_compiled(self):
        # Profile tables and source.* timings of earlier writers are
        # ignored; serial units appear under their own worker, "main".
        legacy = HistoryRecord.from_dict(json.loads(LEGACY_LINE))
        page = render_dashboard(trace(3) + [legacy])
        check_structure(page)
        assert "Compile wall by worker (build #7)" in page
        assert "main: 400.0ms" in page
        assert "driver" not in page
        assert "Profile hotspots" not in page and "manager.py" not in page


class TestDrift:
    def test_clean_drift_badge(self):
        page = render_dashboard(
            trace(), drift=DriftReport(findings=[], builds_analyzed=6)
        )
        check_structure(page)
        assert "no drift across 6 builds" in page

    def test_findings_render_with_badge_and_message(self):
        finding = DriftFinding(
            kind="bypass-rate", metric="bypass_rate", baseline=0.6,
            current=0.2, message="bypass rate fell to 20.0%", seq=6,
        )
        page = render_dashboard(
            trace(), drift=DriftReport(findings=[finding], builds_analyzed=6)
        )
        check_structure(page)
        assert "bypass-rate" in page
        assert "bypass rate fell to 20.0%" in page

    def test_no_drift_section_when_not_supplied(self):
        assert "<h2>Drift</h2>" not in render_dashboard(trace())
