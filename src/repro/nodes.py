"""Node classes that compile nothing at import.

``@dataclass`` writes each class's ``__init__``, ``__eq__``,
``__repr__`` and ``__hash__`` as source text and compiles it with
``exec`` every time the module is imported: about 0.4 ms for a plain
two-field class and 0.9 ms for a frozen one, against 0.03 ms for a
class built on the bases here (CPython 3.11, 2-vCPU Xeon VM), paid
again by every fresh process.
The C parse tree, the IR, C types, prover terms and the qualifier AST
hold most of the program's classes, so they derive from the two bases
here instead.  A node class lists its fields in ``__slots__`` and
writes out its ``__init__`` (compiled once, into the ``.pyc``); the
base derives the rest from the slots when the class is created:

* ``__eq__`` is class-strict and compares the tuple of field values,
  in order (a base class's fields first, as dataclasses order them);
* ``__repr__`` is the dataclass format ``Name(field=value, ...)``;
* :class:`Node` instances are mutable and unhashable;
  :class:`Frozen` instances reject assignment with
  ``dataclasses.FrozenInstanceError`` and hash as ``hash(field
  tuple)``;
* pickling and copying rebuild a node through its constructor, so a
  kept hash (string hashes differ between processes) never crosses a
  process boundary.

Slot names that start with ``_`` hold private state, not fields.  A
frozen class whose slots include ``_hash`` keeps its hash there: its
``__init__`` sets ``_hash`` to None (computed on first use) or to the
value itself.  A class that defines ``__eq__`` or ``__hash__`` in its
body keeps its own, as with dataclasses.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter

_set = object.__setattr__


def _derive(names, keep_hash):
    """``(values, __eq__, __hash__)`` for a class with fields ``names``:
    ``values(node)`` is the tuple of field values."""
    if len(names) == 1:
        get = attrgetter(names[0])

        def values(node):
            return (get(node),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),)
            return NotImplemented

    else:
        # attrgetter of two or more names returns their tuple.
        values = attrgetter(*names) if names else _no_values

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

    if keep_hash:

        def __hash__(self):
            try:
                value = self._hash
            except AttributeError:  # an __init__ that left it unset
                value = None
            if value is None:
                value = hash(values(self))
                _set(self, "_hash", value)
            return value

    else:

        def __hash__(self):
            return hash(values(self))

    return values, __eq__, __hash__


def _no_values(node) -> tuple:
    return ()


def _rebuild(cls, values):
    """Unpickle or copy a node: call its constructor by field name."""
    return cls(**dict(zip(cls._fields, values)))


class Node:
    """A mutable node: field-wise equality, no hash."""

    __slots__ = ()
    _fields: tuple = ()
    _values = staticmethod(_no_values)
    _frozen = False
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
        ]
        cls._fields = tuple(name for name in slots if not name.startswith("_"))
        values, eq, hash_ = _derive(cls._fields, "_hash" in slots)
        cls._values = staticmethod(values)
        if "__eq__" not in cls.__dict__:
            cls.__eq__ = eq
        if cls._frozen and cls.__dict__.get("__hash__") is None:
            cls.__hash__ = hash_

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values(self))
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return _rebuild, (self.__class__, self._values(self))


class Frozen(Node):
    """An immutable node: assignment raises, and it hashes by value.

    ``__init__`` stores fields with ``object.__setattr__``."""

    __slots__ = ()
    _frozen = True

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(node, **changes):
    """A copy of ``node`` with ``changes`` applied, built through its
    constructor (``dataclasses.replace`` for node classes)."""
    values = dict(zip(node._fields, node._values(node)))
    values.update(changes)
    return node.__class__(**values)
