"""Compiler driver and CLI tests."""

import pytest

from repro.cli import reproc_main, reprobuild_main
from repro.driver import Compiler, CompilerOptions
from repro.frontend.diagnostics import CompileError
from repro.frontend.includes import MemoryFileProvider
from repro.workload.project import Project


SRC = "int main() { print(6 * 7); return 1; }\n"


class TestDriver:
    def test_compile_source(self):
        compiler = Compiler(MemoryFileProvider({}), CompilerOptions())
        result = compiler.compile_source("t.mc", SRC)
        assert result.object_file.functions["main"]
        assert result.pass_work > 0

    def test_compile_error_propagates(self):
        compiler = Compiler(MemoryFileProvider({}), CompilerOptions())
        with pytest.raises(CompileError):
            compiler.compile_source("t.mc", "int main( {")

    def test_headers_reported(self):
        provider = MemoryFileProvider({"h.mh": "const int N = 1;"})
        compiler = Compiler(provider, CompilerOptions())
        result = compiler.compile_source("t.mc", 'include "h.mh";\nint main() { return N; }')
        assert result.headers == ["h.mh"]

    def test_stateless_has_no_overhead_record(self):
        compiler = Compiler(MemoryFileProvider({}), CompilerOptions(stateful=False))
        ledger = compiler.compile_source("t.mc", SRC).ledger
        assert ledger.fingerprints == ledger.lookups == ledger.records_written == 0

    def test_stateful_reports_overhead(self):
        compiler = Compiler(MemoryFileProvider({}), CompilerOptions(stateful=True))
        result = compiler.compile_source("t.mc", SRC)
        assert result.ledger.fingerprints > 0
        assert result.ledger.fingerprint_ns > 0

    def test_opt_levels_produce_different_sizes(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 4; ++i) s += i * 1 + 0;
          print(s);
          return 0;
        }
        """
        sizes = {}
        for level in ("O0", "O1", "O2"):
            compiler = Compiler(MemoryFileProvider({}), CompilerOptions(opt_level=level))
            sizes[level] = compiler.compile_source("t.mc", src).module.num_instructions
        assert sizes["O1"] <= sizes["O0"]
        assert sizes["O2"] <= sizes["O1"]


class TestReprocCLI:
    def test_compile_and_run(self, tmp_path, capsys):
        (tmp_path / "p.mc").write_text(SRC)
        code = reproc_main([str(tmp_path / "p.mc"), "--run"])
        captured = capsys.readouterr()
        assert captured.out.strip() == "42"
        assert code == 1  # main returns 1

    def test_emit_ir(self, tmp_path, capsys):
        (tmp_path / "p.mc").write_text(SRC)
        assert reproc_main([str(tmp_path / "p.mc"), "--emit-ir"]) == 0
        out = capsys.readouterr().out
        assert "define @main" in out

    def test_object_written(self, tmp_path):
        (tmp_path / "p.mc").write_text(SRC)
        out = tmp_path / "p.mo"
        assert reproc_main([str(tmp_path / "p.mc"), "-o", str(out)]) == 0
        assert out.exists() and "repro-object-v1" in out.read_text()

    def test_missing_file(self, capsys):
        assert reproc_main(["/nonexistent.mc"]) == 2

    def test_compile_error_rendered(self, tmp_path, capsys):
        (tmp_path / "bad.mc").write_text("int main( {")
        assert reproc_main([str(tmp_path / "bad.mc")]) == 1
        assert "error" in capsys.readouterr().err

    def test_stateful_with_state_file(self, tmp_path, capsys):
        (tmp_path / "p.mc").write_text(SRC)
        state_file = tmp_path / "state.json"
        args = [str(tmp_path / "p.mc"), "--stateful", "--state-file", str(state_file), "--stats"]
        assert reproc_main(args) == 0
        assert state_file.exists()
        first_err = capsys.readouterr().err
        assert "bypassed=0" in first_err
        assert reproc_main(args) == 0
        second_err = capsys.readouterr().err
        assert "bypassed=0" not in second_err  # second run bypasses

    def test_memo_policy_writes_no_state_file(self, tmp_path, capsys):
        # No build DB, so nothing to reuse and no state to keep.
        (tmp_path / "p.mc").write_text(SRC)
        state_file = tmp_path / "state"
        args = [str(tmp_path / "p.mc"), "--stateful", "--policy", "memo",
                "--state-file", str(state_file), "--stats"]
        assert reproc_main(args) == 0
        assert not state_file.exists()
        assert (tmp_path / "p.mo").exists()

    def test_trap_exit_code(self, tmp_path):
        (tmp_path / "t.mc").write_text("int main() { int z = 0; return 1 / z; }")
        assert reproc_main([str(tmp_path / "t.mc"), "--run"]) == 70


class TestReprobuildCLI:
    def project(self, tmp_path):
        Project(
            "p",
            {
                "lib.mh": "int lib(int x);\n",
                "lib.mc": 'include "lib.mh";\nint lib(int x) { return x + 1; }\n',
                "main.mc": 'include "lib.mh";\nint main() { print(lib(41)); return 0; }\n',
            },
        ).write_to(tmp_path / "src")
        return tmp_path / "src"

    def test_build_and_run(self, tmp_path, capsys):
        src = self.project(tmp_path)
        db = tmp_path / "build.db"
        code = reprobuild_main([str(src), "--db", str(db), "--run"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "42"
        assert "3 recompiled" in captured.err or "2 recompiled" in captured.err
        assert db.exists()

    def test_incremental_second_build(self, tmp_path, capsys):
        src = self.project(tmp_path)
        db = tmp_path / "build.db"
        reprobuild_main([str(src), "--db", str(db)])
        capsys.readouterr()
        reprobuild_main([str(src), "--db", str(db)])
        assert "0 recompiled" in capsys.readouterr().err

    def test_stateful_flag(self, tmp_path, capsys):
        src = self.project(tmp_path)
        db = tmp_path / "build.db"
        argv = [str(src), "--db", str(db), "--stateful", "--policy", "fine"]
        assert reprobuild_main(argv) == 0
        assert "state:" in capsys.readouterr().err

    def test_missing_directory(self, capsys):
        assert reprobuild_main(["/no/such/dir"]) == 2

    def test_empty_directory(self, tmp_path, capsys):
        assert reprobuild_main([str(tmp_path)]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_rejects_bad_job_count(self, tmp_path, capsys, jobs):
        # Like make: no silent fallback to a serial build.
        src = self.project(tmp_path)
        db = tmp_path / "build.db"
        with pytest.raises(SystemExit) as exc:
            reprobuild_main([str(src), "--db", str(db), f"--jobs={jobs}"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not db.exists()


class TestProjectIO:
    def test_write_and_read_round_trip(self, tmp_path):
        project = Project("p", {"a.mc": "int main() { return 0; }\n", "h.mh": "const int X = 1;\n"})
        project.write_to(tmp_path / "proj")
        loaded = Project.read_from(tmp_path / "proj")
        assert loaded.files == project.files
