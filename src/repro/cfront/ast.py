"""Abstract syntax for the C subset (pre-lowering).

This is the surface AST produced by :mod:`repro.cfront.parser`.  It still
contains side-effecting expressions (assignments, calls, ``++``); the
lowering pass in :mod:`repro.cil.lower` converts it to the CIL-style IR
that the qualifier checker consumes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cfront.ctypes import CType
from repro.nodes import Frozen, Node

_set = object.__setattr__


class Loc(Frozen):
    """Source location, for diagnostics.

    ``file`` is the original source path (empty when parsing from a
    string); with it set, the location renders ``file:line:col`` so
    diagnostics and CFG nodes point at real source lines.
    """

    __slots__ = ("line", "col", "file")

    def __init__(self, line: int = 0, col: int = 0, file: str = ""):
        _set(self, "line", line)
        _set(self, "col", col)
        _set(self, "file", file)

    def __str__(self) -> str:
        if self.file:
            return f"{self.file}:{self.line}:{self.col}"
        return f"line {self.line}"


#: The default location of every node built without one.
NO_LOC = Loc()


# ---------------------------------------------------------------- expressions
# Every expression and statement takes its ``loc`` as a keyword-only
# argument; it is the first field in equality and ``repr``.


class Expr(Node):
    __slots__ = ("loc",)

    def __init__(self, *, loc: Loc = NO_LOC):
        self.loc = loc


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int = 0, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.value = value


class CharLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int = 0, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.value = value


class StrLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str = "", *, loc: Loc = NO_LOC):
        self.loc = loc
        self.value = value


class Name(Expr):
    __slots__ = ("ident",)

    def __init__(self, ident: str = "", *, loc: Loc = NO_LOC):
        self.loc = loc
        self.ident = ident


class Unary(Expr):
    """Prefix unary: ``-``, ``!``, ``~``, ``*`` (deref), ``&`` (addr-of)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str = "-", operand: Expr = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.op = op
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(
        self,
        op: str = "+",
        left: Expr = None,
        right: Expr = None,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.op = op
        self.left = left
        self.right = right


class Assign(Expr):
    """Assignment in expression position; ``op`` is '=' or compound."""

    __slots__ = ("op", "target", "value")

    def __init__(
        self,
        op: str = "=",
        target: Expr = None,
        value: Expr = None,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.op = op
        self.target = target
        self.value = value


class IncDec(Expr):
    """``++``/``--``; ``prefix`` distinguishes ``++x`` from ``x++``."""

    __slots__ = ("op", "target", "prefix")

    def __init__(
        self,
        op: str = "++",
        target: Expr = None,
        prefix: bool = False,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.op = op
        self.target = target
        self.prefix = prefix


class Call(Expr):
    __slots__ = ("func", "args")

    def __init__(
        self, func: str = "", args: List[Expr] = None, *, loc: Loc = NO_LOC
    ):
        self.loc = loc
        self.func = func
        self.args = [] if args is None else args


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr = None, index: Expr = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.base = base
        self.index = index


class Member(Expr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""

    __slots__ = ("base", "fieldname", "arrow")

    def __init__(
        self,
        base: Expr = None,
        fieldname: str = "",
        arrow: bool = False,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.base = base
        self.fieldname = fieldname
        self.arrow = arrow


class Cast(Expr):
    __slots__ = ("to_type", "operand")

    def __init__(
        self, to_type: CType = None, operand: Expr = None, *, loc: Loc = NO_LOC
    ):
        self.loc = loc
        self.to_type = to_type
        self.operand = operand


class SizeofType(Expr):
    __slots__ = ("of_type",)

    def __init__(self, of_type: CType = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.of_type = of_type


class Conditional(Expr):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(
        self,
        cond: Expr = None,
        then: Expr = None,
        otherwise: Expr = None,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


# ----------------------------------------------------------------- statements


class Stmt(Node):
    __slots__ = ("loc",)

    def __init__(self, *, loc: Loc = NO_LOC):
        self.loc = loc


class Decl(Stmt):
    """A (possibly initialized) variable declaration."""

    __slots__ = ("name", "ctype", "init")

    def __init__(
        self,
        name: str = "",
        ctype: CType = None,
        init: Optional[Expr] = None,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.name = name
        self.ctype = ctype
        self.init = init


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.expr = expr


class If(Stmt):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(
        self,
        cond: Expr = None,
        then: "Block" = None,
        otherwise: Optional["Block"] = None,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr = None, body: "Block" = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr = None, body: "Block" = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.cond = cond
        self.body = body


class For(Stmt):
    __slots__ = ("init", "cond", "step", "body")

    def __init__(
        self,
        init: Optional[Stmt] = None,
        cond: Optional[Expr] = None,
        step: Optional[Expr] = None,
        body: "Block" = None,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.value = value


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


class Goto(Stmt):
    """``goto label;`` — unstructured control flow."""

    __slots__ = ("label",)

    def __init__(self, label: str = "", *, loc: Loc = NO_LOC):
        self.loc = loc
        self.label = label


class Label(Stmt):
    """``name:`` — a goto target (labels have function scope)."""

    __slots__ = ("name",)

    def __init__(self, name: str = "", *, loc: Loc = NO_LOC):
        self.loc = loc
        self.name = name


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: List[Stmt] = None, *, loc: Loc = NO_LOC):
        self.loc = loc
        self.stmts = [] if stmts is None else stmts


class SwitchCase(Node):
    """One ``case C:`` (value=None for ``default:``) and its statements
    up to the next label."""

    __slots__ = ("value", "stmts")

    def __init__(self, value: Optional[int], stmts: List[Stmt] = None):
        self.value = value
        self.stmts = [] if stmts is None else stmts


class Switch(Stmt):
    __slots__ = ("scrutinee", "cases")

    def __init__(
        self,
        scrutinee: Expr = None,
        cases: List[SwitchCase] = None,
        *,
        loc: Loc = NO_LOC,
    ):
        self.loc = loc
        self.scrutinee = scrutinee
        self.cases = [] if cases is None else cases


# ------------------------------------------------------------------ top level


class StructDef(Node):
    __slots__ = ("name", "fields", "is_union", "loc")

    def __init__(
        self,
        name: str,
        fields: List[Tuple[str, CType]],
        is_union: bool = False,
        loc: Loc = NO_LOC,
    ):
        self.name = name
        self.fields = fields
        self.is_union = is_union
        self.loc = loc


class Param(Node):
    __slots__ = ("name", "ctype")

    def __init__(self, name: str, ctype: CType):
        self.name = name
        self.ctype = ctype


class FuncDef(Node):
    __slots__ = ("name", "ret", "params", "varargs", "body", "loc")

    def __init__(
        self,
        name: str,
        ret: CType,
        params: List[Param],
        varargs: bool,
        body: Optional[Block],  # None for prototypes
        loc: Loc = NO_LOC,
    ):
        self.name = name
        self.ret = ret
        self.params = params
        self.varargs = varargs
        self.body = body
        self.loc = loc

    @property
    def is_prototype(self) -> bool:
        return self.body is None


class GlobalDecl(Node):
    __slots__ = ("name", "ctype", "init", "loc")

    def __init__(
        self,
        name: str,
        ctype: CType,
        init: Optional[Expr] = None,
        loc: Loc = NO_LOC,
    ):
        self.name = name
        self.ctype = ctype
        self.init = init
        self.loc = loc


class TranslationUnit(Node):
    # ``errors``: syntax errors recovered from in panic mode
    # (parse_c(recover=True)); empty when parsing succeeded outright or
    # recovery was off.  ``_bodies`` and ``_typedefs`` are private
    # state, not fields: the parser's record of each definition's body
    # extent and of the typedefs in scope at the end of the unit
    # (repro.cfront.bodies).
    __slots__ = (
        "structs", "globals", "functions", "errors", "_bodies", "_typedefs",
    )

    def __init__(
        self,
        structs: List[StructDef] = None,
        globals: List[GlobalDecl] = None,
        functions: List[FuncDef] = None,
        errors: List[Exception] = None,
    ):
        self.structs = [] if structs is None else structs
        self.globals = [] if globals is None else globals
        self.functions = [] if functions is None else functions
        self.errors = [] if errors is None else errors
        self._bodies = []
        self._typedefs = {}

    def struct(self, name: str) -> StructDef:
        for s in self.structs:
            if s.name == name:
                return s
        raise KeyError(f"unknown struct {name!r}")

    def function(self, name: str) -> FuncDef:
        defs = [f for f in self.functions if f.name == name]
        # Prefer a definition over a prototype when both are present.
        for f in defs:
            if not f.is_prototype:
                return f
        if defs:
            return defs[0]
        raise KeyError(f"unknown function {name!r}")
