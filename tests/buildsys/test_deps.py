"""Observed dependencies: a unit's record lists the headers its compile
read, and the up-to-date check digests exactly those.

The ``TestDirectIncludes`` and ``TestClosure`` cases once exercised a
regex include scanner; the same inputs now go through a build, and the
headers recorded must be the ones the front end resolved.
"""

import pytest

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.deps import DependencyScanner, content_digest
from repro.buildsys.incremental import IncrementalBuilder
from repro.frontend.includes import IncludeError, MemoryFileProvider
from repro.options import CompilerOptions


def scanner(files):
    return DependencyScanner(MemoryFileProvider(files))


def recorded(files, unit="main.mc"):
    """The headers and digests a build of ``unit`` records."""
    db = BuildDatabase()
    IncrementalBuilder(MemoryFileProvider(files), [unit], CompilerOptions(), db).build(
        link_output=False
    )
    return db.units[unit].dep_digests


class TestDirectIncludes:
    def test_simple_scan(self):
        files = {
            "main.mc": 'include "x.mh";\ninclude "y.mh";\nint main() { return X + Y; }\n',
            "x.mh": "const int X = 1;\n",
            "y.mh": "const int Y = 2;\n",
        }
        assert recorded(files) == {
            "x.mh": content_digest(files["x.mh"]),
            "y.mh": content_digest(files["y.mh"]),
        }

    def test_commented_include_ignored(self):
        files = {
            "main.mc": '// include "x.mh";\ninclude "y.mh";\nint main() { return Y; }\n',
            "y.mh": "const int Y = 2;\n",
        }
        assert list(recorded(files)) == ["y.mh"]

    def test_missing_file_has_no_includes(self):
        snapshot = scanner({}).snapshot("ghost.mc")
        assert snapshot.source_digest is None and snapshot.dep_digests == {}

    @pytest.mark.parametrize("before", ["/* x */ ", "int g; "])
    def test_include_after_a_comment_or_a_declaration(self, before):
        files = {
            "main.mc": f'{before}include "a.mh";\nint main() {{ return A; }}\n',
            "a.mh": "const int A = 1;\n",
        }
        assert list(recorded(files)) == ["a.mh"]


class TestClosure:
    def test_transitive_first_seen_order(self):
        files = {
            "main.mc": 'include "a.mh";\nint main() { return C; }\n',
            "a.mh": 'include "b.mh";\nint fa(int x);\n',
            "b.mh": 'include "c.mh";\nint fb(int x);\n',
            "c.mh": "const int C = 1;\n",
        }
        # The resolver's topological order: a header after what it includes.
        assert list(recorded(files)) == ["c.mh", "b.mh", "a.mh"]

    def test_diamond_deduplicated(self):
        files = {
            "main.mc": 'include "a.mh";\ninclude "b.mh";\nint main() { return B; }\n',
            "a.mh": 'include "base.mh";\n',
            "b.mh": 'include "base.mh";\n',
            "base.mh": "const int B = 2;\n",
        }
        assert list(recorded(files)) == ["base.mh", "a.mh", "b.mh"]

    def test_include_cycle_terminates(self):
        files = {
            "main.mc": 'include "a.mh";\nint main() { return 0; }\n',
            "a.mh": 'include "b.mh";\n',
            "b.mh": 'include "a.mh";\n',
        }
        with pytest.raises(IncludeError, match="cycle"):
            recorded(files)

    def test_missing_header_appears_with_none_digest(self):
        # A header the last compile read that is gone now digests as None.
        s = scanner({"main.mc": 'include "ghost.mh";\n'})
        snapshot = s.snapshot("main.mc", ["ghost.mh"])
        assert snapshot.dep_digests == {"ghost.mh": None}
        assert snapshot.source_digest == content_digest('include "ghost.mh";\n')


class TestSnapshots:
    FILES = {
        "main.mc": 'include "a.mh";\nint main() { return A; }\n',
        "a.mh": "const int A = 7;\n",
    }

    def test_identical_tree_identical_snapshot(self):
        a = scanner(dict(self.FILES)).snapshot("main.mc", ["a.mh"])
        b = scanner(dict(self.FILES)).snapshot("main.mc", ["a.mh"])
        assert (a.source_digest, a.dep_digests) == (b.source_digest, b.dep_digests)

    def test_header_edit_changes_snapshot(self):
        edited = dict(self.FILES, **{"a.mh": "const int A = 8;\n"})
        a = scanner(dict(self.FILES)).snapshot("main.mc", ["a.mh"])
        b = scanner(edited).snapshot("main.mc", ["a.mh"])
        assert a.source_digest == b.source_digest
        assert a.dep_digests != b.dep_digests

    def test_header_appearing_changes_snapshot(self):
        missing = {"main.mc": self.FILES["main.mc"]}
        a = scanner(missing).snapshot("main.mc", ["a.mh"])
        b = scanner(dict(self.FILES)).snapshot("main.mc", ["a.mh"])
        assert a.dep_digests["a.mh"] is None
        assert b.dep_digests["a.mh"] is not None

    def test_recorded_digest_is_of_the_text_the_front_end_parsed(self):
        assert recorded(self.FILES) == {"a.mh": content_digest(self.FILES["a.mh"])}
