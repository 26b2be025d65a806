"""Use-def chain and value tests."""

import pytest

from repro.ir import (
    BinaryInst,
    ConstantInt,
    GlobalAddr,
    I1,
    I64,
    Opcode,
    UndefValue,
    const_i1,
    const_i64,
)
from repro.ir.values import Value, values_equal


class TestConstants:
    def test_const_i64(self):
        c = const_i64(42)
        assert c.value == 42 and c.ty is I64
        assert c.ref() == "42"

    def test_const_i1_normalizes(self):
        assert const_i1(5).value == 1
        assert const_i1(0).value == 0
        assert const_i1(True).ref() == "true"
        assert const_i1(False).ref() == "false"

    def test_constant_equality_by_value(self):
        assert const_i64(3) == const_i64(3)
        assert const_i64(3) != const_i64(4)
        assert const_i64(1) != const_i1(1)
        assert hash(const_i64(3)) == hash(const_i64(3))


class TestGlobalAddr:
    def test_equality_by_symbol(self):
        assert GlobalAddr("g") == GlobalAddr("g")
        assert GlobalAddr("g") != GlobalAddr("h")
        assert GlobalAddr("g").ref() == "@g"


class TestUndef:
    def test_ref_and_equality(self):
        assert UndefValue(I64).ref() == "undef.i64"
        assert UndefValue(I64) == UndefValue(I64)
        assert UndefValue(I64) != UndefValue(I1)


class TestValuesEqual:
    def test_identity(self):
        v = Value(I64, "x")
        assert values_equal(v, v)

    def test_structural_constants(self):
        assert values_equal(const_i64(1), const_i64(1))
        assert not values_equal(const_i64(1), const_i64(2))

    def test_distinct_instances(self):
        assert not values_equal(Value(I64, "a"), Value(I64, "b"))


class TestUseDef:
    def test_operands_register_uses(self):
        a, b = const_i64(1), const_i64(2)
        inst = BinaryInst(Opcode.ADD, a, b, "t")
        assert {u.index for u in a.uses if u.user is inst} == {0}
        assert {u.index for u in b.uses if u.user is inst} == {1}

    def test_set_operand_moves_use(self):
        a, b, c = const_i64(1), const_i64(2), const_i64(3)
        inst = BinaryInst(Opcode.ADD, a, b)
        inst.set_operand(0, c)
        assert not any(u.user is inst for u in a.uses)
        assert any(u.user is inst and u.index == 0 for u in c.uses)

    def test_replace_all_uses_with(self):
        a = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "a")
        user1 = BinaryInst(Opcode.MUL, a, const_i64(3), "u1")
        user2 = BinaryInst(Opcode.SUB, a, a, "u2")
        replacement = const_i64(3)
        count = a.replace_all_uses_with(replacement)
        assert count == 3
        assert user1.operands[0] is replacement
        assert user2.operands[0] is replacement and user2.operands[1] is replacement
        assert not a.uses

    def test_rauw_self_is_noop(self):
        a = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "a")
        BinaryInst(Opcode.MUL, a, a, "u")
        assert a.replace_all_uses_with(a) == 0
        assert len(a.uses) == 2

    def test_drop_all_references(self):
        a = const_i64(1)
        inst = BinaryInst(Opcode.ADD, a, a)
        inst.drop_all_references()
        assert not any(u.user is inst for u in a.uses)
        assert inst.operands == ()

    def test_erase_used_instruction_raises(self):
        a = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "a")
        BinaryInst(Opcode.MUL, a, const_i64(1), "u")
        with pytest.raises(ValueError, match="still has uses"):
            a.erase()

    def test_uses_iterate_in_insertion_order(self):
        # Passes walk a value's uses to build worklists (sccp's solver,
        # RAUW, DCE); the order must not depend on where the users sit
        # in memory, which differs between a build's processes.
        a = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "a")
        users = [BinaryInst(Opcode.MUL, a, const_i64(i), f"u{i}") for i in range(64)]
        assert [u.user for u in a.uses] == users
        # Dropping a use keeps the others in order; a moved use goes last.
        users[10].set_operand(0, const_i64(0))
        users[3].set_operand(1, a)
        expected = [(u, 0) for u in users if u is not users[10]] + [(users[3], 1)]
        assert [(u.user, u.index) for u in a.uses] == expected
