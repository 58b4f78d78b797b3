"""Matching expression patterns against IR expressions (section 3.2).

A pattern such as ``E1 * E2`` is matched against a CIL expression; on
success, pattern variables are bound to program fragments, and each
binding is checked against its declared type and classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.cfront.ctypes import (
    CType,
    FloatType,
    IntType,
    PointerType,
    ArrayType,
    VoidType,
)
from repro.cil import ir
from repro.cil.typesof import TypeError_, TypingContext, type_of_expr, type_of_lvalue
from repro.core.qualifiers import ast as Q


#: A pattern variable binds either an expression or (for the LValue and
#: Var classifiers) an l-value.
Binding = Union[ir.Expr, ir.Lvalue]
MatchBinding = Dict[str, Binding]


def dtype_matches(dtype: Q.DType, ctype: CType) -> bool:
    """Does a DSL type pattern match a concrete C type?

    Type variables (``T``) match any type.  ``int`` matches any integer
    kind (char included, mirroring C's integer conversions).  Pointer
    patterns match pointers and arrays (the logical memory model treats
    them alike).
    """
    if isinstance(dtype, Q.DTypeVar):
        return True
    if isinstance(dtype, Q.DInt):
        return isinstance(ctype, (IntType, FloatType))
    if isinstance(dtype, Q.DVoid):
        return isinstance(ctype, VoidType)
    if isinstance(dtype, Q.DPtr):
        if isinstance(ctype, PointerType):
            return dtype_matches(dtype.inner, ctype.pointee)
        if isinstance(ctype, ArrayType):
            return dtype_matches(dtype.inner, ctype.elem)
        return False
    raise TypeError(f"unknown DSL type {dtype!r}")


@dataclass
class ClauseEnv:
    """Declarations in scope for one clause: the clause's own ``decl``s
    plus the qualifier's subject variable."""

    decls: Dict[str, Q.VarDecl]

    @classmethod
    def for_clause(cls, qdef: Q.QualifierDef, clause) -> "ClauseEnv":
        decls = {d.name: d for d in clause.decls}
        decls.setdefault(
            qdef.var, Q.VarDecl(qdef.var, qdef.dtype, qdef.classifier)
        )
        return cls(decls)

    def decl(self, name: str) -> Q.VarDecl:
        try:
            return self.decls[name]
        except KeyError:
            raise KeyError(
                f"pattern variable {name!r} has no declaration"
            ) from None


def _classify_ok(
    decl: Q.VarDecl, fragment: Binding, ctx: TypingContext
) -> bool:
    """Check a bound fragment against its declared classifier and type."""
    if decl.classifier is Q.Classifier.CONST:
        if not isinstance(fragment, (ir.IntConst, ir.StrConst, ir.NullConst)):
            return False
        return dtype_matches(decl.dtype, _const_type(fragment))
    if decl.classifier is Q.Classifier.VAR:
        if isinstance(fragment, ir.Lval):
            fragment = fragment.lvalue
        if not isinstance(fragment, ir.Lvalue) or not fragment.is_plain_var:
            return False
        return _lvalue_type_ok(decl, fragment, ctx)
    if decl.classifier is Q.Classifier.LVALUE:
        if isinstance(fragment, ir.Lval):
            fragment = fragment.lvalue
        if not isinstance(fragment, ir.Lvalue):
            return False
        return _lvalue_type_ok(decl, fragment, ctx)
    # Expr: any side-effect-free expression of a matching type.
    if isinstance(fragment, ir.Lvalue):
        fragment = ir.Lval(fragment)
    try:
        ctype = type_of_expr(ctx, fragment)
    except TypeError_:
        return False
    return dtype_matches(decl.dtype, ctype)


def _lvalue_type_ok(decl: Q.VarDecl, lv: ir.Lvalue, ctx: TypingContext) -> bool:
    try:
        ctype = type_of_lvalue(ctx, lv)
    except TypeError_:
        return False
    return dtype_matches(decl.dtype, ctype)


def _const_type(fragment: ir.Expr) -> CType:
    if isinstance(fragment, ir.IntConst):
        return IntType()
    if isinstance(fragment, ir.StrConst):
        return PointerType(pointee=IntType(kind="char"))
    return PointerType(pointee=VoidType())


# Binary operators considered equal for matching purposes: the logical
# memory model types p + i like p, and lowering marks such additions as
# 'ptradd'.
_OP_ALIASES = {"ptradd": "+"}


def _ops_equal(pattern_op: str, expr_op: str) -> bool:
    return pattern_op == _OP_ALIASES.get(expr_op, expr_op)


#: The dispatch key of an expression read through memory (``*e``), the
#: one node kind that is finer than the expression's class.
DEREF = ir.MemHost


def node_kind(expr: ir.Expr) -> type:
    """The dispatch key of ``expr``: its IR class, except that an
    ``Lval`` whose host is a ``MemHost`` is keyed :data:`DEREF`."""
    kind = type(expr)
    if kind is ir.Lval and isinstance(expr.lvalue.host, ir.MemHost):
        return DEREF
    return kind


#: The node kinds each pattern's root can match (None: every kind).
#: :func:`match_expr_pattern` returns None on any other kind, so a
#: checker offers a node only to the clauses whose root admits it.
ROOT_KINDS = {
    Q.PVar: None,
    Q.PNull: (ir.NullConst, ir.IntConst, ir.CastE),
    Q.PNew: (),
    Q.PDeref: (DEREF,),
    Q.PAddrOf: (ir.AddrOf,),
    Q.PUnop: (ir.UnOp,),
    Q.PBinop: (ir.BinOp,),
}


def can_match(pattern: Q.Pattern, kind: type) -> bool:
    """May ``pattern``'s root match a node of dispatch key ``kind``?"""
    kinds = ROOT_KINDS[type(pattern)]
    return kinds is None or kind in kinds


def match_expr_pattern(
    qdef: Q.QualifierDef,
    clause,
    expr: ir.Expr,
    ctx: TypingContext,
    env: Optional[ClauseEnv] = None,
) -> Optional[MatchBinding]:
    """Match one clause's pattern against ``expr``.

    Returns the variable bindings on success, or None.  Casts inserted
    by the programmer are transparent to matching when they do not
    change the expression's base shape (the paper ignores the
    ``(int*)`` cast on malloc results the same way).  ``env`` is the
    clause's :meth:`ClauseEnv.for_clause`, which callers that match one
    clause many times build once; it is built here when not given.
    """
    if env is None:
        env = ClauseEnv.for_clause(qdef, clause)
    pattern = clause.pattern

    if isinstance(pattern, Q.PVar):
        decl = env.decl(pattern.name)
        if _classify_ok(decl, expr, ctx):
            return {pattern.name: expr}
        return None

    if isinstance(pattern, Q.PNull):
        if isinstance(expr, ir.NullConst):
            return {}
        if isinstance(expr, ir.IntConst) and expr.value == 0:
            return {}
        if isinstance(expr, ir.CastE):
            return match_expr_pattern(qdef, clause, expr.operand, ctx, env)
        return None

    if isinstance(pattern, Q.PNew):
        # `new` matches allocation *instructions*, not expressions.
        return None

    if isinstance(pattern, Q.PDeref):
        target = expr
        if isinstance(target, ir.Lval) and isinstance(target.lvalue.host, ir.MemHost):
            addr = target.lvalue.host.addr
            decl = env.decl(pattern.name)
            if _classify_ok(decl, addr, ctx):
                return {pattern.name: addr}
        return None

    if isinstance(pattern, Q.PAddrOf):
        if isinstance(expr, ir.AddrOf):
            decl = env.decl(pattern.name)
            if _classify_ok(decl, expr.lvalue, ctx):
                return {pattern.name: expr.lvalue}
        return None

    if isinstance(pattern, Q.PUnop):
        if isinstance(expr, ir.UnOp) and expr.op == pattern.op:
            decl = env.decl(pattern.name)
            if _classify_ok(decl, expr.operand, ctx):
                return {pattern.name: expr.operand}
        return None

    if isinstance(pattern, Q.PBinop):
        if isinstance(expr, ir.BinOp) and _ops_equal(pattern.op, expr.op):
            left_decl = env.decl(pattern.left)
            right_decl = env.decl(pattern.right)
            if _classify_ok(left_decl, expr.left, ctx) and _classify_ok(
                right_decl, expr.right, ctx
            ):
                return {pattern.left: expr.left, pattern.right: expr.right}
        return None

    raise TypeError(f"unknown pattern {pattern!r}")


def match_assign_pattern(
    qdef: Q.QualifierDef,
    clause,
    instr: "ir.Instruction",
    ctx: TypingContext,
    env: Optional[ClauseEnv] = None,
) -> Optional[MatchBinding]:
    """Match an assign clause against the right-hand side of an
    assignment instruction (Set) or against an allocation call."""
    if isinstance(clause.pattern, Q.PNew):
        if ir.is_allocation(instr):
            return {}
        return None
    if isinstance(instr, ir.Set):
        return match_expr_pattern(qdef, clause, instr.expr, ctx, env)
    return None
