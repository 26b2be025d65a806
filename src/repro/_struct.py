"""Value classes for the build path, written out instead of generated.

``@dataclass`` makes each class's ``__init__``, ``__eq__`` and
``__repr__`` by ``exec``-ing generated source while the class statement
runs, so every fresh ``reprobuild`` process paid for it again: tens of
milliseconds over the modules an edit build loads.  A class on that
path instead writes its ``__init__`` out, so the code comes from the
``.pyc``, and subclasses :class:`Struct` for value equality and a repr
over the fields named in its ``_fields`` tuple.

Modules off the build path (benchmarks, workload specs, drift,
dashboard, audit) keep ``@dataclass``.

Hot value types, the ones made thousands of times per compile, are
``typing.NamedTuple``s instead: tokens and source spans
(:mod:`repro.frontend.lexer`, :mod:`repro.frontend.source`), operand
uses (:class:`repro.ir.values.Use`), pass runs and dormancy records.  A
tuple is built in C (``tuple.__new__(cls, fields)`` on the hottest
paths), has no per-instance ``__dict__``, and compares and hashes in C.
:class:`Struct` and :class:`FrozenStruct` remain for the cold values.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An assignment to a field of a :class:`FrozenStruct`."""


class Struct:
    """Equality and repr over the fields named in ``_fields``.

    As with ``@dataclass(eq=True)``: two instances are equal when they
    are of the same class and their ``_fields`` values are equal, and a
    mutable instance is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Field by field, as tuples compare (identity first), without
        # building the two key tuples.
        for name in self._fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and not mine == theirs:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class FrozenStruct(Struct):
    """A :class:`Struct` set once, hashable by its ``_fields``.

    ``__init__`` stores each field with ``object.__setattr__``; any later
    assignment or deletion raises :class:`FrozenInstanceError`, as on a
    ``@dataclass(frozen=True)``.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
