"""Backend tests: isel, regalloc, peephole, object files, linker."""

import json

import pytest

from repro.backend.isel import select_function, select_module
from repro.backend.linker import LinkError, check_link, link
from repro.backend.mir import MInst, MOp, MachineFunction, NUM_PHYS_REGS
from repro.backend.objfile import ObjectFile, compile_module_to_object
from repro.backend.peephole import peephole_function
from repro.backend.regalloc import NUM_ALLOCATABLE, allocate_function, compute_intervals
from repro.vm.interp import run_module
from repro.vm.machine import VirtualMachine
from tests.conftest import lower


def link_error(objects: list[ObjectFile]) -> str:
    """The message of the :class:`LinkError` linking ``objects`` raises.

    The check from stored link interfaces (each table decoded from its
    JSON form, as a build DB holds it) must raise the same message
    without reading any code.
    """
    with pytest.raises(LinkError) as linked:
        link(objects)
    tables = [json.loads(json.dumps(obj.link_symbols())) for obj in objects]
    with pytest.raises(LinkError) as checked:
        check_link(tables)
    assert str(checked.value) == str(linked.value)
    return str(linked.value)


def hand_object(code: list[MInst]) -> ObjectFile:
    """An object whose ``main`` has exactly ``code``."""
    obj = ObjectFile("hand.mc")
    obj.functions["main"] = MachineFunction("main", 0, code=code, is_allocated=True)
    return obj


def compile_and_run(src: str, headers=None, input_values=None):
    module = lower(src, headers)
    obj = compile_module_to_object(module)
    image = link([obj])
    return VirtualMachine(image, input_values=list(input_values or [])).run()


class TestISel:
    def test_every_opcode_selectable(self):
        module = lower(
            """
            int g = 1;
            int f(int x, bool b) {
              int a[4];
              a[x & 3] = x;
              int s = b ? a[0] : g;
              s += x * 2 - (x / 3) % 5;
              s = (s << 1) >> 1;
              s = (s & 7) | (s ^ 3);
              return s;
            }
            """
        )
        mf = select_function(module.functions["f"])
        assert mf.num_instructions > 10
        assert mf.num_params == 2

    def test_declaration_rejected(self):
        module = lower("int f(int x);")
        with pytest.raises(ValueError):
            select_function(module.functions["f"])

    def test_phi_becomes_copies(self):
        from repro.passes import Mem2RegPass

        module = lower("int f(bool c) { int x = 1; if (c) x = 2; return x; }")
        Mem2RegPass().run_on_function(module.functions["f"], module)
        mf = select_function(module.functions["f"])
        # No PHI op exists in MIR; copies implement it.
        assert all(i.op is not MOp.LABEL or True for i in mf.code)
        assert any(i.op in (MOp.MV, MOp.LI) for i in mf.code)

    def test_alloca_static_frame_layout(self):
        module = lower("int f() { int a[4]; int b[8]; a[0] = 1; b[0] = 2; return 0; }")
        mf = select_function(module.functions["f"])
        frames = [i for i in mf.code if i.op is MOp.FRAME]
        offsets = sorted(i.imm for i in frames)
        assert mf.frame_size >= 12


class TestRegalloc:
    def test_allocation_bounds_registers(self):
        src = "int f(" + ", ".join(f"int p{i}" for i in range(10)) + ") { return " + \
            " + ".join(f"p{i}" for i in range(10)) + "; }"
        module = lower(src)
        mf = select_function(module.functions["f"])
        allocate_function(mf)
        for inst in mf.code:
            for reg in inst.regs:
                if inst.op is MOp.CBR and reg is inst.regs[1]:
                    continue  # CBR regs[1] only becomes a target post-link
                assert reg < NUM_PHYS_REGS or reg == -1

    def test_spilling_kicks_in_under_pressure(self):
        # Many simultaneously-live values force spills.
        n = NUM_ALLOCATABLE + 6
        decls = "\n".join(f"int v{i} = p + {i};" for i in range(n))
        uses = " + ".join(f"v{i}" for i in range(n))
        module = lower(f"int f(int p) {{ {decls} return {uses}; }}")
        from repro.passes import Mem2RegPass

        Mem2RegPass().run_on_function(module.functions["f"], module)
        mf = select_function(module.functions["f"])
        allocate_function(mf)
        assert any(i.op in (MOp.SPILL, MOp.RELOAD) for i in mf.code)
        assert mf.frame_size > 0

    def test_double_allocation_rejected(self):
        module = lower("int f() { return 1; }")
        mf = select_function(module.functions["f"])
        allocate_function(mf)
        with pytest.raises(ValueError):
            allocate_function(mf)

    def test_intervals_cover_loop_carried_values(self):
        from repro.passes import Mem2RegPass

        module = lower(
            "int f(int n) { int s = 0; for (int i = 0; i < n; ++i) s += i; return s; }"
        )
        Mem2RegPass().run_on_function(module.functions["f"], module)
        mf = select_function(module.functions["f"])
        intervals = compute_intervals(mf)
        assert intervals  # non-trivial
        # every vreg mentioned in code has an interval
        mentioned = set()
        from repro.backend.regalloc import _reg_uses_defs

        for inst in mf.code:
            uses, defs = _reg_uses_defs(inst)
            mentioned.update(uses)
            mentioned.update(defs)
        assert mentioned <= {iv.vreg for iv in intervals}


class TestPeephole:
    def test_identity_moves_removed(self):
        mf = MachineFunction("f", 0)
        mf.code = [
            MInst(MOp.LABEL, extra="f.e"),
            MInst(MOp.MV, [3, 3]),
            MInst(MOp.RET, [-1]),
        ]
        removed = peephole_function(mf)
        assert removed == 1
        assert all(i.op is not MOp.MV for i in mf.code)

    def test_branch_to_next_label_removed(self):
        mf = MachineFunction("f", 0)
        mf.code = [
            MInst(MOp.LABEL, extra="a"),
            MInst(MOp.BR, extra="b"),
            MInst(MOp.LABEL, extra="b"),
            MInst(MOp.RET, [-1]),
        ]
        peephole_function(mf)
        assert all(i.op is not MOp.BR for i in mf.code)

    def test_dead_code_after_ret_removed(self):
        mf = MachineFunction("f", 0)
        mf.code = [
            MInst(MOp.LABEL, extra="a"),
            MInst(MOp.RET, [-1]),
            MInst(MOp.LI, [0], imm=1),
            MInst(MOp.LI, [0], imm=2),
            MInst(MOp.LABEL, extra="b"),
            MInst(MOp.RET, [-1]),
        ]
        peephole_function(mf)
        assert sum(1 for i in mf.code if i.op is MOp.LI) == 0


class TestObjectFile:
    def test_json_round_trip(self):
        module = lower("int g = 7;\nint f(int x) { return x + g; }")
        obj = compile_module_to_object(module)
        restored = ObjectFile.from_json(obj.to_json())
        assert restored.to_json() == obj.to_json()
        assert restored.link_symbols() == obj.link_symbols()

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            ObjectFile.from_json('{"format": "something-else"}')

    def test_symbols(self):
        module = lower(
            "extern int e;\nint g = 1;\n"
            "int f() { return g + e; }\nint main() { print(f()); return f(); }"
        )
        table = compile_module_to_object(module).link_symbols()
        assert table["module"] == "test.mc"
        assert table["functions"] == ["f", "main"]
        assert table["globals"] == ["g"] and table["externs"] == ["e"]
        # One row per distinct target, naming the first function to use it.
        assert sorted(map(tuple, table["refs"])) == [
            ("call", "f", "main"), ("call", "print", "main"),
            ("lea", "e", "f"), ("lea", "g", "f"),
        ]
        assert table["unterminated"] == []


class TestLinker:
    # Each rejection is checked through link() and through check_link()
    # on the objects' stored link interfaces; see link_error().

    def test_duplicate_function_rejected(self):
        a = compile_module_to_object(lower("int f() { return 1; }\nint main() { return f(); }"))
        b = compile_module_to_object(lower("int f() { return 2; }"))
        assert link_error([a, b]) == "duplicate definition of function @f"

    def test_duplicate_global_rejected(self):
        a = compile_module_to_object(lower("int g = 1;\nint main() { return g; }"))
        b = compile_module_to_object(lower("int g = 2;"))
        assert link_error([a, b]) == "duplicate definition of global @g"

    def test_unresolved_function(self):
        headers = {"h.mh": "int missing(int x);"}
        a = compile_module_to_object(
            lower('include "h.mh";\nint main() { return missing(1); }', headers)
        )
        assert link_error([a]) == "unresolved function @missing called from @main"

    def test_unresolved_global(self):
        headers = {"h.mh": "extern int missing;"}
        a = compile_module_to_object(
            lower('include "h.mh";\nint main() { return missing; }', headers)
        )
        assert link_error([a]) == "unresolved external global @missing (from test.mc)"

    def test_unresolved_lea(self):
        obj = hand_object([MInst(MOp.LEA, [0], extra="nowhere"), MInst(MOp.RET, [0])])
        assert link_error([obj]) == "unresolved global @nowhere referenced from @main"

    def test_missing_terminator(self):
        obj = hand_object([MInst(MOp.LABEL, extra="entry"), MInst(MOp.LI, [0], imm=1)])
        assert link_error([obj]) == "@main does not end in a terminator"

    def test_missing_entry(self):
        a = compile_module_to_object(lower("int f() { return 1; }"))
        assert link_error([a]) == "entry point @main is not defined"

    def test_first_error_in_link_order_wins(self):
        """Errors are found in the linker's order: duplicates before
        unresolved references, and references in function-name order."""
        a = compile_module_to_object(lower("int g = 1;\nint main() { return g; }"))
        b = hand_object([MInst(MOp.LEA, [0], extra="nowhere"), MInst(MOp.RET, [0])])
        b.globals = dict(a.globals)
        assert link_error([a, b]) == "duplicate definition of global @g"
        c = hand_object([MInst(MOp.CALL, [0], extra="z"), MInst(MOp.RET, [0])])
        c.functions["a"] = MachineFunction(
            "a", 0, code=[MInst(MOp.LEA, [0], extra="y"), MInst(MOp.RET, [0])]
        )
        assert link_error([c]) == "unresolved global @y referenced from @a"

    def test_cross_module_link_and_run(self):
        headers = {"lib.mh": "int twice(int x);\nextern int base;"}
        lib = compile_module_to_object(
            lower('include "lib.mh";\nint base = 10;\nint twice(int x) { return x * 2; }', headers)
        )
        main = compile_module_to_object(
            lower('include "lib.mh";\nint main() { print(twice(base)); return 0; }', headers)
        )
        image = link([main, lib])
        result = VirtualMachine(image).run()
        assert result.output == [20] and not result.trapped


class TestMachineVM:
    def test_arith_program(self):
        res = compile_and_run("int main() { print((7 * 6) % 10); return 3; }")
        assert res.output == [2] and res.exit_code == 3

    def test_recursion(self):
        res = compile_and_run(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
            "int main() { print(fib(12)); return 0; }"
        )
        assert res.output == [144]

    def test_arrays_and_globals(self):
        res = compile_and_run(
            """
            int g = 5;
            int main() {
              int a[4];
              for (int i = 0; i < 4; ++i) a[i] = i * g;
              print(a[3]);
              g = a[2];
              print(g);
              return 0;
            }
            """
        )
        assert res.output == [15, 10]

    def test_input_builtin(self):
        res = compile_and_run("int main() { print(input() * input()); return 0; }", input_values=[6, 7])
        assert res.output == [42]

    def test_division_trap(self):
        res = compile_and_run("int main() { int z = input(); return 5 / z; }", input_values=[0])
        assert res.trapped and "zero" in res.trap_message

    def test_out_of_bounds_trap(self):
        res = compile_and_run("int main() { int a[2]; int i = input(); a[i] = 1; return 0; }", input_values=[999999])
        assert res.trapped and "bounds" in res.trap_message

    def test_call_depth_trap(self):
        res = compile_and_run("int f(int n) { return f(n + 1); }\nint main() { return f(0); }")
        assert res.trapped and "overflow" in res.trap_message

    def test_matches_interpreter_on_spills(self):
        n = 20
        decls = "\n".join(f"int v{i} = p + {i};" for i in range(n))
        uses = " + ".join(f"v{i}" for i in range(n))
        src = f"int f(int p) {{ {decls} return {uses}; }}\nint main() {{ print(f(100)); return 0; }}"
        interp = run_module(lower(src))
        machine = compile_and_run(src)
        assert machine.same_behaviour(interp)
