"""Include resolution tests."""

import pytest

from repro.frontend.diagnostics import CompileError
from repro.frontend.includes import (
    IncludeError,
    IncludeResolver,
    MemoryFileProvider,
    content_digest,
)


def resolver(files: dict[str, str]) -> IncludeResolver:
    return IncludeResolver(MemoryFileProvider(files))


class TestResolution:
    def test_no_includes(self):
        unit = resolver({}).resolve("a.mc", "int main() { return 0; }")
        assert unit.headers == []
        assert len(unit.merged.items) == 1

    def test_single_header(self):
        unit = resolver({"h.mh": "int f(int x);"}).resolve(
            "a.mc", 'include "h.mh";\nint main() { return f(1); }'
        )
        assert unit.headers == ["h.mh"]
        names = [getattr(i, "name", None) for i in unit.merged.items]
        assert names == ["f", "main"]

    def test_transitive_includes_in_topological_order(self):
        files = {
            "a.mh": 'include "b.mh";\nint fa();',
            "b.mh": "int fb();",
        }
        unit = resolver(files).resolve("m.mc", 'include "a.mh";\nint main() { return 0; }')
        assert unit.headers == ["b.mh", "a.mh"]

    def test_diamond_included_once(self):
        files = {
            "top.mh": 'include "base.mh";\nint ft();',
            "mid.mh": 'include "base.mh";\nint fm();',
            "base.mh": "const int B = 1;",
        }
        unit = resolver(files).resolve(
            "m.mc", 'include "top.mh";\ninclude "mid.mh";\nint main() { return B; }'
        )
        assert unit.headers.count("base.mh") == 1

    def test_missing_header(self):
        with pytest.raises(IncludeError, match="not found"):
            resolver({}).resolve("m.mc", 'include "nope.mh";')

    def test_include_cycle_detected(self):
        files = {"a.mh": 'include "b.mh";', "b.mh": 'include "a.mh";'}
        with pytest.raises(IncludeError, match="cycle"):
            resolver(files).resolve("m.mc", 'include "a.mh";')

    def test_header_with_function_body_rejected(self):
        files = {"bad.mh": "int f() { return 1; }"}
        with pytest.raises(CompileError, match="must not define"):
            resolver(files).resolve("m.mc", 'include "bad.mh";')

    def test_header_plain_global_rejected(self):
        files = {"bad.mh": "int g = 1;"}
        with pytest.raises(CompileError, match="extern.*or.*const|'extern' or 'const'"):
            resolver(files).resolve("m.mc", 'include "bad.mh";')

    def test_header_const_and_extern_ok(self):
        files = {"ok.mh": "const int N = 4;\nextern int g;\nint f();"}
        unit = resolver(files).resolve("m.mc", 'include "ok.mh";\nint main() { return N; }')
        assert len(unit.merged.items) == 4

    def test_syntax_error_in_header(self):
        files = {"bad.mh": "int f(;"}
        with pytest.raises(CompileError):
            resolver(files).resolve("m.mc", 'include "bad.mh";')

    def test_header_cache_reused_and_invalidated(self):
        files = {"h.mh": "int f();"}
        r = resolver(files)
        unit1 = r.resolve("a.mc", 'include "h.mh";')
        cached = r._header_cache["h.mh"]
        unit2 = r.resolve("b.mc", 'include "h.mh";')
        assert r._header_cache["h.mh"] is cached
        r.invalidate("h.mh")
        assert "h.mh" not in r._header_cache


class TestScanIncludes:
    """The includes the parser finds in a unit's text: the only include
    detection the build has (its DB records exactly these headers)."""

    HEADERS = {name: "const int X = 1;\n" for name in ("a.mh", "b.mh", "x.mh")}

    def includes_of(self, text):
        return resolver(self.HEADERS).resolve("u.mc", text).headers

    def test_basic(self):
        assert self.includes_of('include "a.mh";\ninclude "b.mh";\nint main() {}') == [
            "a.mh",
            "b.mh",
        ]

    def test_no_includes(self):
        assert self.includes_of("int main() { return 0; }") == []

    def test_indented_include(self):
        assert self.includes_of('  include "x.mh";') == ["x.mh"]

    def test_not_confused_by_strings_inside_functions(self):
        # `include` in a comment is not a directive.
        assert self.includes_of('int f() { return 0; } // include "x.mh";') == []

    @pytest.mark.parametrize("before", ["/* x */ ", "int g; ", "int g = 1; /* y */\n  "])
    def test_include_anywhere_at_top_level(self, before):
        assert self.includes_of(f'{before}include "a.mh";') == ["a.mh"]

    def test_digests_are_of_the_parsed_text(self):
        r = resolver(dict(self.HEADERS))
        r.resolve("u.mc", 'include "a.mh";')
        assert r.digests == {"a.mh": content_digest(self.HEADERS["a.mh"])}
        r.invalidate("a.mh")
        assert r.digests == {}
