"""C types annotated with user-defined qualifiers.

Every type node carries a frozenset of qualifier names (``quals``).  The
paper's postfix notation ``int pos *`` parses to ``PointerType(IntType
({'pos'}))``: a qualifier qualifies the entire type written to its left.

Types are immutable (:class:`repro.nodes.Frozen`); helpers return new
nodes, or the node itself when nothing changes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.nodes import Frozen, replace

_set = object.__setattr__


class CType(Frozen):
    """Base class for C types.  ``quals`` holds user-defined qualifiers."""

    __slots__ = ("quals",)

    def __init__(self, quals: frozenset = frozenset()):
        _set(self, "quals", quals)

    def with_quals(self, names) -> "CType":
        """Return this type with ``names`` added to its qualifier set."""
        return replace(self, quals=self.quals | frozenset(names))

    def without_quals(self, names=None) -> "CType":
        """Return this type with ``names`` (default: all) removed."""
        kept = frozenset() if names is None else self.quals - frozenset(names)
        if kept == self.quals:
            return self  # types are immutable: nothing to remove
        return replace(self, quals=kept)

    def strip_quals(self) -> "CType":
        """The unqualified version of this type (top level only)."""
        return self.without_quals()

    def same_shape(self, other: "CType") -> bool:
        """Structural equality ignoring qualifiers at every level."""
        return _erase(self) == _erase(other)

    def __str__(self) -> str:  # pragma: no cover - exercised via subclasses
        return type_to_str(self)


class VoidType(CType):
    __slots__ = ()

    def _show(self) -> str:
        return "void"


VOID = VoidType()


class IntType(CType):
    """Integer types; ``kind`` distinguishes char/short/int/long/unsigned."""

    __slots__ = ("kind",)

    def __init__(self, quals: frozenset = frozenset(), kind: str = "int"):
        _set(self, "quals", quals)
        _set(self, "kind", kind)

    def _show(self) -> str:
        return self.kind


INT = IntType()


class FloatType(CType):
    __slots__ = ("kind",)

    def __init__(self, quals: frozenset = frozenset(), kind: str = "double"):
        _set(self, "quals", quals)
        _set(self, "kind", kind)

    def _show(self) -> str:
        return self.kind


class PointerType(CType):
    __slots__ = ("pointee",)

    def __init__(self, quals: frozenset = frozenset(), pointee: CType = VOID):
        _set(self, "quals", quals)
        _set(self, "pointee", pointee)

    def _show(self) -> str:
        return f"{type_to_str(self.pointee)}*"


class ArrayType(CType):
    __slots__ = ("elem", "size")

    def __init__(
        self,
        quals: frozenset = frozenset(),
        elem: CType = INT,
        size: Optional[int] = None,
    ):
        _set(self, "quals", quals)
        _set(self, "elem", elem)
        _set(self, "size", size)

    def _show(self) -> str:
        size = "" if self.size is None else str(self.size)
        return f"{type_to_str(self.elem)}[{size}]"


class StructType(CType):
    """A reference to a named struct; field layout lives in the program's
    struct table, keeping type nodes small and hashable."""

    __slots__ = ("name",)

    def __init__(self, quals: frozenset = frozenset(), name: str = ""):
        _set(self, "quals", quals)
        _set(self, "name", name)

    def _show(self) -> str:
        return f"struct {self.name}"


class FuncType(CType):
    __slots__ = ("ret", "params", "varargs")

    def __init__(
        self,
        quals: frozenset = frozenset(),
        ret: CType = VOID,
        params: Tuple[CType, ...] = (),
        varargs: bool = False,
    ):
        _set(self, "quals", quals)
        _set(self, "ret", ret)
        _set(self, "params", params)
        _set(self, "varargs", varargs)

    def _show(self) -> str:
        parts = [type_to_str(p) for p in self.params]
        if self.varargs:
            parts.append("...")
        return f"{type_to_str(self.ret)}({', '.join(parts)})"


def type_to_str(t: CType) -> str:
    """Render a type in the paper's postfix-qualifier notation."""
    base = t._show()
    if t.quals:
        return base + " " + " ".join(sorted(t.quals))
    return base


def _erase(t: CType):
    """A hashable, qualifier-free structural key for a type."""
    if isinstance(t, VoidType):
        return ("void",)
    if isinstance(t, IntType):
        return ("int", t.kind)
    if isinstance(t, FloatType):
        return ("float", t.kind)
    if isinstance(t, PointerType):
        return ("ptr", _erase(t.pointee))
    if isinstance(t, ArrayType):
        return ("arr", _erase(t.elem))
    if isinstance(t, StructType):
        return ("struct", t.name)
    if isinstance(t, FuncType):
        return (
            "func",
            _erase(t.ret),
            tuple(_erase(p) for p in t.params),
            t.varargs,
        )
    raise TypeError(f"unknown type node {t!r}")


def deep_quals_equal(a: CType, b: CType) -> bool:
    """True when the *nested* qualifier structure of ``a`` and ``b`` agree.

    Used for assignments involving pointers: the paper forbids subtyping
    under ``ref``/pointer types, so pointee types must match exactly,
    qualifiers included (section 2.1.2).  Top-level qualifiers are *not*
    compared here; the caller applies the subtype rule at the top level.
    """
    if isinstance(a, PointerType) and isinstance(b, PointerType):
        return _quals_equal_all_levels(a.pointee, b.pointee)
    if isinstance(a, ArrayType) and isinstance(b, ArrayType):
        return _quals_equal_all_levels(a.elem, b.elem)
    return True


def _quals_equal_all_levels(a: CType, b: CType) -> bool:
    if a.quals != b.quals:
        return False
    if isinstance(a, PointerType) and isinstance(b, PointerType):
        return _quals_equal_all_levels(a.pointee, b.pointee)
    if isinstance(a, ArrayType) and isinstance(b, ArrayType):
        return _quals_equal_all_levels(a.elem, b.elem)
    return True


def is_pointer_like(t: CType) -> bool:
    return isinstance(t, (PointerType, ArrayType))


def pointee_of(t: CType) -> CType:
    """The type obtained by dereferencing ``t``."""
    if isinstance(t, PointerType):
        return t.pointee
    if isinstance(t, ArrayType):
        return t.elem
    raise TypeError(f"cannot dereference non-pointer type {type_to_str(t)}")


CHAR = IntType(kind="char")
CHAR_PTR = PointerType(pointee=CHAR)
VOID_PTR = PointerType(pointee=VOID)
