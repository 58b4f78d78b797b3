"""C types annotated with user-defined qualifiers.

Every type node carries a frozenset of qualifier names (``quals``).  The
paper's postfix notation ``int pos *`` parses to ``PointerType(IntType
({'pos'}))``: a qualifier qualifies the entire type written to its left.

Types are immutable; helpers return new nodes, or the node itself when
nothing changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class CType:
    """Base class for C types.  ``quals`` holds user-defined qualifiers."""

    quals: frozenset = field(default_factory=frozenset)

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


@dataclass(frozen=True)
class VoidType(CType):
    def _show(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """Integer types; ``kind`` distinguishes char/short/int/long/unsigned."""

    kind: str = "int"

    def _show(self) -> str:
        return self.kind


@dataclass(frozen=True)
class FloatType(CType):
    kind: str = "double"

    def _show(self) -> str:
        return self.kind


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType = field(default_factory=VoidType)

    def _show(self) -> str:
        return f"{type_to_str(self.pointee)}*"


@dataclass(frozen=True)
class ArrayType(CType):
    elem: CType = field(default_factory=IntType)
    size: Optional[int] = None

    def _show(self) -> str:
        size = "" if self.size is None else str(self.size)
        return f"{type_to_str(self.elem)}[{size}]"


@dataclass(frozen=True)
class StructType(CType):
    """A reference to a named struct; field layout lives in the program's
    struct table, keeping type nodes small and hashable."""

    name: str = ""

    def _show(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class FuncType(CType):
    ret: CType = field(default_factory=VoidType)
    params: Tuple[CType, ...] = ()
    varargs: bool = False

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


INT = IntType()
CHAR = IntType(kind="char")
VOID = VoidType()
CHAR_PTR = PointerType(pointee=CHAR)
VOID_PTR = PointerType(pointee=VOID)
