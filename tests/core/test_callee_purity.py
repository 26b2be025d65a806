"""Callee purity is part of every dormancy and memo key.

DCE, CSE and ADCE read the module's pure-function set, which the
``funcattrs`` prelude computes.  A function whose own IR is unchanged
but whose callee turned pure (or impure) must not reuse records or
machine code made under the old fact.
"""

import pytest

from repro.core.policies import SkipPolicy
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.ir.fingerprint import fingerprint_function


def unit_text(g_prints: bool) -> str:
    """``f`` calls ``g`` and ignores the result; ``g`` has 20 arithmetic
    statements, so the inliner leaves it alone.  ``g`` is pure unless it
    prints."""
    body = "\n".join(f"  v = v * {k + 3} + (v ^ {k + 1});" for k in range(20))
    output = "  print(v);\n" if g_prints else ""
    return (
        f"int g(int p) {{\n  int v = p * 3 + 1;\n{body}\n{output}  return v;\n}}\n"
        "int f(int x) {\n  g(x);\n  return x + 1;\n}\n"
    )


def compile_unit(text, options, compiler=None, previous=None):
    compiler = compiler or Compiler(MemoryFileProvider({}), options)
    return compiler, compiler.compile_source("u.mc", text, previous=previous)


@pytest.mark.parametrize("policy", [SkipPolicy.FINE_GRAINED, SkipPolicy.MEMO])
@pytest.mark.parametrize("first_prints", [True, False])
def test_stateful_object_follows_the_callee_purity_flip(policy, first_prints):
    options = CompilerOptions(stateful=True, policy=policy)
    compiler, first = compile_unit(unit_text(first_prints), options)
    previous = (first.object_file.to_json(), first.memo_keys)
    if compiler.state is not None:  # the memo policy keeps no state
        compiler.state.begin_build()
    _, second = compile_unit(unit_text(not first_prints), options, compiler, previous)
    _, stateless = compile_unit(unit_text(not first_prints), CompilerOptions())
    assert second.object_file.to_json() == stateless.object_file.to_json()
    assert "f" not in second.reused


def test_the_call_is_dropped_only_while_the_callee_is_pure():
    # The reproduction above is a real one: stateless f differs by g's purity.
    _, impure = compile_unit(unit_text(True), CompilerOptions())
    _, pure = compile_unit(unit_text(False), CompilerOptions())
    calls = [
        sum(1 for i in result.object_file.functions["f"].code if i.op.value == "call")
        for result in (impure, pure)
    ]
    assert calls == [1, 0]


@pytest.mark.parametrize("mode", ["canonical", "named"])
def test_fingerprint_encodes_callee_purity(mode):
    _, result = compile_unit(unit_text(False), CompilerOptions(opt_level="O0"))
    f = result.module.functions["f"]
    assert fingerprint_function(f, mode=mode) != fingerprint_function(
        f, mode=mode, pure=frozenset({"g"})
    )
    # A callee f does not call does not count.
    assert fingerprint_function(f, mode=mode) == fingerprint_function(
        f, mode=mode, pure=frozenset({"h"})
    )
