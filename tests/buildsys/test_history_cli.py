"""End-to-end: reprobuild history / regress / dashboard over real builds."""

import json
import shutil
import time
from types import SimpleNamespace

import pytest

from repro.cli import (
    reprobuild_dashboard_main,
    reprobuild_history_main,
    reprobuild_main,
    reprobuild_regress_main,
)
from repro.buildsys.report import REPORT_SCHEMA_VERSION
from repro.obs.history import default_history_path
from repro.passes.mem2reg import Mem2RegPass

FILES = {
    "util.mh": (
        "const int SCALE = 3;\n"
        "int util_scale(int x);\n"
        "int util_clamp(int x, int lo, int hi);\n"
    ),
    "util.mc": (
        'include "util.mh";\n'
        "int util_scale(int x) { return x * SCALE; }\n"
        "int util_clamp(int x, int lo, int hi) {\n"
        "  if (x < lo) return lo;\n"
        "  if (x > hi) return hi;\n"
        "  return x;\n"
        "}\n"
    ),
    "extra.mc": "int unused_helper(int x) { return x - 1; }\n",
    "main.mc": (
        'include "util.mh";\n'
        "int checksum(int a, int b) { return a * 31 + b; }\n"
        "int main() { print(util_scale(14)); return 0; }\n"
    ),
}


def write_project(root, revision: int = 0) -> None:
    root.mkdir(exist_ok=True)
    files = dict(
        FILES, **{"main.mc": FILES["main.mc"].replace("14", str(14 + 7 * revision))}
    )
    for name, text in files.items():
        (root / name).write_text(text)


def run_build(proj, db, revision: int, *extra: str) -> None:
    """One stateful serial build of the given project revision."""
    write_project(proj, revision)
    rc = reprobuild_main(
        [str(proj), "--stateful", "--db", str(db), "-j", "1",
         "--label", f"rev-{revision}", *extra]
    )
    assert rc == 0


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A clean build plus four incremental edit rebuilds."""
    root = tmp_path_factory.mktemp("trace")
    proj, db = root / "proj", root / "build.reprodb"
    for revision in range(5):
        run_build(proj, db, revision)
    return SimpleNamespace(
        root=root, proj=proj, db=db, history=default_history_path(db)
    )


class TestHistoryCommand:
    def test_table_lists_every_build(self, trace, capsys):
        assert reprobuild_history_main(["--db", str(trace.db)]) == 0
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert "seq" in lines[0] and "bypass%" in lines[0]
        assert len(lines) == 2 + 5  # header + rule + five builds
        assert "rev-0" in out and "rev-4" in out
        assert "5 build(s) loaded" in err

    def test_json_mode_emits_full_records(self, trace, capsys):
        assert reprobuild_history_main(["--db", str(trace.db), "--json"]) == 0
        out, _ = capsys.readouterr()
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert records[0]["label"] == "rev-0"
        assert records[0]["report"]["schema"] == REPORT_SCHEMA_VERSION

    def test_last_n_limits_the_table(self, trace, capsys):
        assert reprobuild_history_main(["--db", str(trace.db), "-n", "2"]) == 0
        out, _ = capsys.readouterr()
        assert "rev-3" in out and "rev-4" in out and "rev-0" not in out

    def test_empty_history_is_an_error(self, tmp_path, capsys):
        rc = reprobuild_history_main(["--db", str(tmp_path / "none.reprodb")])
        assert rc == 1
        assert "no builds recorded" in capsys.readouterr().err

    def test_no_history_flag_skips_the_append(self, tmp_path):
        proj, db = tmp_path / "proj", tmp_path / "build.reprodb"
        write_project(proj)
        rc = reprobuild_main(
            [str(proj), "--stateful", "--db", str(db), "-j", "1", "--no-history"]
        )
        assert rc == 0
        assert not default_history_path(db).exists()

    def test_custom_history_path(self, tmp_path):
        proj, db = tmp_path / "proj", tmp_path / "build.reprodb"
        custom = tmp_path / "elsewhere.jsonl"
        write_project(proj)
        rc = reprobuild_main(
            [str(proj), "--stateful", "--db", str(db), "-j", "1",
             "--history", str(custom)]
        )
        assert rc == 0
        assert custom.exists() and not default_history_path(db).exists()


class TestRegressCommand:
    def test_quiet_on_a_clean_trace(self, trace, capsys):
        assert reprobuild_regress_main(["--db", str(trace.db)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_flags_injected_pass_slowdown(self, trace, tmp_path, monkeypatch, capsys):
        """The acceptance check: an artificial slowdown in one pass must
        trip the per-pass wall detector on the very next build."""
        proj, db = tmp_path / "proj", tmp_path / "build.reprodb"
        shutil.copy(trace.db, db)
        shutil.copy(trace.history, default_history_path(db))

        original = Mem2RegPass.run_on_function

        def slow(self, fn, module):
            time.sleep(0.01)
            return original(self, fn, module)

        monkeypatch.setattr(Mem2RegPass, "run_on_function", slow)
        run_build(proj, db, 5)  # -j 1: the patch applies in-process
        monkeypatch.undo()

        assert reprobuild_regress_main(["--db", str(db)]) == 1
        out = capsys.readouterr().out
        assert "pass-wall" in out
        assert "mem2reg" in out

    def test_audit_confirms_zero_collisions(self, trace, capsys):
        rc = reprobuild_regress_main(
            [str(trace.proj), "--db", str(trace.db), "--audit", "--sample", "20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "zero collisions" in out
        audited = int(out.split("collision audit: ")[1].split()[0])
        assert audited > 0

    def test_audit_without_directory_is_a_usage_error(self, trace, capsys):
        rc = reprobuild_regress_main(["--db", str(trace.db), "--audit"])
        assert rc == 2
        assert "needs the project directory" in capsys.readouterr().err


class TestDashboardCommand:
    def test_renders_selfcontained_page(self, trace, tmp_path, capsys):
        out_html = tmp_path / "dashboard.html"
        rc = reprobuild_dashboard_main(["--db", str(trace.db), "-o", str(out_html)])
        assert rc == 0
        page = out_html.read_text()
        assert "<svg" in page and "</html>" in page
        assert "rev-4" in page
        assert "no drift across" in page  # detect_drift ran and was clean
        assert "http://" not in page and "https://" not in page
        assert "<script" not in page

    def test_empty_history_is_an_error(self, tmp_path, capsys):
        rc = reprobuild_dashboard_main(
            ["--db", str(tmp_path / "none.reprodb"), "-o", str(tmp_path / "x.html")]
        )
        assert rc == 1
        assert not (tmp_path / "x.html").exists()


class TestCountArguments:
    """Counts that would disable or crash a check are usage errors."""

    @pytest.mark.parametrize(
        "main, argv, expected",
        [
            (reprobuild_regress_main, ["--window", "0"], "must be a positive integer, got 0"),
            (reprobuild_regress_main, ["--window", "-3"], "must be a positive integer, got -3"),
            (reprobuild_regress_main, ["--audit", "--sample", "0"],
             "must be a positive integer, got 0"),
            (reprobuild_history_main, ["-n", "-1"], "must be a non-negative integer, got -1"),
            (reprobuild_dashboard_main, ["-n", "-1"], "must be a non-negative integer, got -1"),
        ],
    )
    def test_rejected_at_parse_time(self, trace, monkeypatch, capsys, main, argv, expected):
        monkeypatch.chdir(trace.root)  # where a dashboard would land
        argv = [str(trace.proj), *argv] if main is reprobuild_regress_main else argv
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--db", str(trace.db)])
        assert exit_info.value.code == 2
        assert expected in capsys.readouterr().err

    def test_zero_last_still_means_every_build(self, trace, capsys):
        assert reprobuild_history_main(["--db", str(trace.db), "-n", "0"]) == 0
        assert "rev-0" in capsys.readouterr().out

    def test_window_of_one_compares_with_the_previous_build(self, trace, capsys):
        assert reprobuild_regress_main(["--db", str(trace.db), "--window", "1"]) == 0
        assert "no drift" in capsys.readouterr().out
