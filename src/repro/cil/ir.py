"""IR node definitions.

Expression nodes are immutable and hashable so the qualifier checker can
memoize judgments about them.  Each expression and l-value node computes
its hash once, on first use, and keeps it (:class:`repro.nodes.Frozen`):
guard facts and memo keys hash the same deep trees over and over.
Statements and instructions are plain mutable nodes (instrumentation
rewrites them in place).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cfront.ast import NO_LOC, Loc
from repro.cfront.ctypes import CType, FuncType
from repro.nodes import Frozen, Node

_set = object.__setattr__


class _Hashed(Frozen):
    """An l-value or expression node: it keeps its hash in ``_hash``."""

    __slots__ = ("_hash",)

    def __init__(self):
        _set_hash(self, None)


# The slot's own setter: cheaper than ``object.__setattr__``, which
# looks the name up, and every node's constructor calls it.
_set_hash = _Hashed._hash.__set__


# ------------------------------------------------------------------ l-values


class VarHost(_Hashed):
    """The l-value host naming a variable directly."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_hash(self, None)
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


class MemHost(_Hashed):
    """The l-value host dereferencing a pointer expression."""

    __slots__ = ("addr",)

    def __init__(self, addr: "Expr"):
        _set_hash(self, None)
        _set(self, "addr", addr)

    def __str__(self) -> str:
        return f"*({self.addr})"


class NoOffset(_Hashed):
    __slots__ = ()

    def __str__(self) -> str:
        return ""


NO_OFFSET = NoOffset()


class FieldOff(_Hashed):
    __slots__ = ("fieldname", "rest")

    def __init__(self, fieldname: str, rest: "Offset" = NO_OFFSET):
        _set_hash(self, None)
        _set(self, "fieldname", fieldname)
        _set(self, "rest", rest)

    def __str__(self) -> str:
        return f".{self.fieldname}{self.rest}"


class IndexOff(_Hashed):
    __slots__ = ("index", "rest")

    def __init__(self, index: "Expr", rest: "Offset" = NO_OFFSET):
        _set_hash(self, None)
        _set(self, "index", index)
        _set(self, "rest", rest)

    def __str__(self) -> str:
        return f"[{self.index}]{self.rest}"


Offset = NoOffset | FieldOff | IndexOff
Host = VarHost | MemHost


class Lvalue(_Hashed):
    __slots__ = ("host", "offset")

    def __init__(self, host: Host, offset: Offset = NO_OFFSET):
        _set_hash(self, None)
        _set(self, "host", host)
        _set(self, "offset", offset)

    def __str__(self) -> str:
        return f"{self.host}{self.offset}"

    @property
    def is_plain_var(self) -> bool:
        return isinstance(self.host, VarHost) and isinstance(self.offset, NoOffset)

    @property
    def var_name(self) -> Optional[str]:
        return self.host.name if self.is_plain_var else None

    def with_offset(self, extra: Offset) -> "Lvalue":
        return Lvalue(self.host, _append_offset(self.offset, extra))


def _append_offset(base: Offset, extra: Offset) -> Offset:
    if isinstance(base, NoOffset):
        return extra
    if isinstance(base, FieldOff):
        return FieldOff(base.fieldname, _append_offset(base.rest, extra))
    if isinstance(base, IndexOff):
        return IndexOff(base.index, _append_offset(base.rest, extra))
    raise TypeError(f"bad offset {base!r}")


# --------------------------------------------------------------- expressions


class Expr(_Hashed):
    __slots__ = ()


class IntConst(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set_hash(self, None)
        _set(self, "value", value)

    def __str__(self) -> str:
        return str(self.value)


class StrConst(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _set_hash(self, None)
        _set(self, "value", value)

    def __str__(self) -> str:
        return '"' + self.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


class NullConst(Expr):
    __slots__ = ()

    def __str__(self) -> str:
        return "NULL"


class Lval(Expr):
    """Reading an l-value (the l-value used in expression position)."""

    __slots__ = ("lvalue",)

    def __init__(self, lvalue: Lvalue):
        _set_hash(self, None)
        _set(self, "lvalue", lvalue)

    def __str__(self) -> str:
        return str(self.lvalue)


class AddrOf(Expr):
    __slots__ = ("lvalue",)

    def __init__(self, lvalue: Lvalue):
        _set_hash(self, None)
        _set(self, "lvalue", lvalue)

    def __str__(self) -> str:
        return f"&{self.lvalue}"


class UnOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):  # op: '-', '!', '~'
        _set_hash(self, None)
        _set(self, "op", op)
        _set(self, "operand", operand)

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        # op: arithmetic/relational/logical; 'ptradd' for pointer indexing
        _set_hash(self, None)
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        if self.op == "ptradd":
            return f"({self.left} + {self.right})"
        return f"({self.left} {self.op} {self.right})"


class CastE(Expr):
    __slots__ = ("to_type", "operand")

    def __init__(self, to_type: CType, operand: Expr):
        _set_hash(self, None)
        _set(self, "to_type", to_type)
        _set(self, "operand", operand)

    def __str__(self) -> str:
        return f"({self.to_type})({self.operand})"


class CondE(Expr):
    """A side-effect-free conditional expression ``c ? a : b``.

    Only produced when both branches lower without emitting
    instructions, so expressions remain pure.
    """

    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Expr, otherwise: Expr):
        _set_hash(self, None)
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "otherwise", otherwise)

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.otherwise})"


class SizeOfE(Expr):
    __slots__ = ("of_type",)

    def __init__(self, of_type: Optional[CType] = None):
        _set_hash(self, None)
        _set(self, "of_type", of_type)

    def __str__(self) -> str:
        return f"sizeof({self.of_type if self.of_type else '...'})"


# -------------------------------------------------------------- instructions


class Set(Node):
    """Assignment instruction ``lvalue := expr``."""

    __slots__ = ("lvalue", "expr", "loc")

    def __init__(self, lvalue: Lvalue, expr: Expr, loc: Loc = NO_LOC):
        self.lvalue = lvalue
        self.expr = expr
        self.loc = loc

    def __str__(self) -> str:
        return f"{self.lvalue} = {self.expr};"


class Call(Node):
    """Procedure call; ``result`` receives the return value if not None.

    ``result_cast`` is a cast the surface program applied to the call
    result, e.g. ``p = (int*)malloc(...)``; recorded so pattern matching
    can ignore it (footnote 1 and figure 6 of the paper)."""

    __slots__ = ("result", "func", "args", "loc", "result_cast")

    def __init__(
        self,
        result: Optional[Lvalue],
        func: str,
        args: List[Expr],
        loc: Loc = NO_LOC,
        result_cast: Optional[CType] = None,
    ):
        self.result = result
        self.func = func
        self.args = args
        self.loc = loc
        self.result_cast = result_cast

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.result} = " if self.result is not None else ""
        return f"{prefix}{self.func}({args});"


ALLOCATORS = ("malloc", "calloc", "realloc", "xmalloc", "xcalloc", "xrealloc")


def is_allocation(instr: "Instruction") -> bool:
    """Does this instruction match the pattern ``new``?"""
    return isinstance(instr, Call) and instr.func in ALLOCATORS


Instruction = Set | Call


# ---------------------------------------------------------------- statements


class Instr(Node):
    __slots__ = ("instrs", "loc")

    def __init__(self, instrs: List[Instruction] = None, loc: Loc = NO_LOC):
        self.instrs = [] if instrs is None else instrs
        self.loc = loc


class If(Node):
    __slots__ = ("cond", "then", "otherwise", "loc")

    def __init__(
        self,
        cond: Expr,
        then: List["Stmt"] = None,
        otherwise: List["Stmt"] = None,
        loc: Loc = NO_LOC,
    ):
        self.cond = cond
        self.then = [] if then is None else then
        self.otherwise = [] if otherwise is None else otherwise
        self.loc = loc


class While(Node):
    """``while`` loop; ``cond_instrs`` re-evaluate side-effecting parts of
    the condition on every iteration (lowered from e.g.
    ``while ((t = next()) != NULL)``)."""

    __slots__ = ("cond_instrs", "cond", "body", "loc")

    def __init__(
        self,
        cond_instrs: List[Instruction],
        cond: Expr,
        body: List["Stmt"] = None,
        loc: Loc = NO_LOC,
    ):
        self.cond_instrs = cond_instrs
        self.cond = cond
        self.body = [] if body is None else body
        self.loc = loc


class Return(Node):
    __slots__ = ("expr", "loc")

    def __init__(self, expr: Optional[Expr] = None, loc: Loc = NO_LOC):
        self.expr = expr
        self.loc = loc


class Break(Node):
    __slots__ = ("loc",)

    def __init__(self, loc: Loc = NO_LOC):
        self.loc = loc


class Continue(Node):
    __slots__ = ("loc",)

    def __init__(self, loc: Loc = NO_LOC):
        self.loc = loc


class Goto(Node):
    """``goto label;`` — unstructured jump, resolved against the
    function's :class:`Label` statements by the CFG builder."""

    __slots__ = ("label", "loc")

    def __init__(self, label: str = "", loc: Loc = NO_LOC):
        self.label = label
        self.loc = loc


class Label(Node):
    """``name:`` — a goto target; labels have function scope."""

    __slots__ = ("name", "loc")

    def __init__(self, name: str = "", loc: Loc = NO_LOC):
        self.name = name
        self.loc = loc


Stmt = Instr | If | While | Return | Break | Continue | Goto | Label


# ----------------------------------------------------------------- top level


class Function(Node):
    __slots__ = ("name", "ret", "formals", "locals", "body", "varargs", "loc")

    def __init__(
        self,
        name: str,
        ret: CType,
        formals: List[Tuple[str, CType]],
        locals: List[Tuple[str, CType]],
        body: List[Stmt],
        varargs: bool = False,
        loc: Loc = NO_LOC,
    ):
        self.name = name
        self.ret = ret
        self.formals = formals
        self.locals = locals
        self.body = body
        self.varargs = varargs
        self.loc = loc

    def local_type(self, name: str) -> CType:
        for n, t in self.formals + self.locals:
            if n == name:
                return t
        raise KeyError(name)


class GlobalVar(Node):
    __slots__ = ("name", "ctype", "loc")

    def __init__(self, name: str, ctype: CType, loc: Loc = NO_LOC):
        self.name = name
        self.ctype = ctype
        self.loc = loc


class Program(Node):
    """A lowered translation unit.

    ``unions`` names the entries of ``structs`` that are C unions: their
    fields overlay at offset 0 and qualifier checking of them is unsound
    (paper §3.3).  ``signatures`` holds the declared signature of every
    known function (definitions and prototypes, e.g. the annotated
    printf signature); ``formal_names`` the formal parameter names of
    defined functions (for diagnostics)."""

    __slots__ = (
        "structs", "unions", "globals", "functions", "signatures", "formal_names",
    )

    def __init__(
        self,
        structs: Dict[str, List[Tuple[str, CType]]] = None,
        unions: set = None,
        globals: List[GlobalVar] = None,
        functions: List[Function] = None,
        signatures: Dict[str, FuncType] = None,
        formal_names: Dict[str, List[str]] = None,
    ):
        self.structs = {} if structs is None else structs
        self.unions = set() if unions is None else unions
        self.globals = [] if globals is None else globals
        self.functions = [] if functions is None else functions
        self.signatures = {} if signatures is None else signatures
        self.formal_names = {} if formal_names is None else formal_names

    GLOBAL_INIT = "__global_init__"

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"unknown function {name!r}")

    def global_type(self, name: str) -> CType:
        for g in self.globals:
            if g.name == name:
                return g.ctype
        raise KeyError(f"unknown global {name!r}")

    def struct_field_type(self, struct_name: str, fieldname: str) -> CType:
        for fname, ftype in self.structs.get(struct_name, []):
            if fname == fieldname:
                return ftype
        raise KeyError(f"no field {fieldname!r} in struct {struct_name!r}")


def walk_stmts(stmts: List[Stmt]):
    """Yield every statement, recursing into control structure."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.otherwise)
        elif isinstance(stmt, While):
            yield from walk_stmts(stmt.body)


def walk_instructions(stmts: List[Stmt]):
    """Yield every instruction in a statement list, in syntactic order."""
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, Instr):
            yield from stmt.instrs
        elif isinstance(stmt, While):
            yield from stmt.cond_instrs


def subexprs(expr: Expr):
    """Yield ``expr`` and all of its sub-expressions (pre-order),
    including expressions hidden inside l-value hosts and offsets."""
    # An explicit stack, children pushed last-first: a recursive
    # generator would pass every node up through each enclosing level.
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Lval, AddrOf)):
            lv = node.lvalue
            off = lv.offset
            if not isinstance(off, NoOffset):
                indices = []
                while not isinstance(off, NoOffset):
                    if isinstance(off, IndexOff):
                        indices.append(off.index)
                    off = off.rest
                stack.extend(reversed(indices))
            if isinstance(lv.host, MemHost):
                stack.append(lv.host.addr)
        elif isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (UnOp, CastE)):
            stack.append(node.operand)
        elif isinstance(node, CondE):
            stack.append(node.otherwise)
            stack.append(node.then)
            stack.append(node.cond)


def subexprs_postorder(expr: Expr):
    """Yield ``expr`` and all of its sub-expressions in *evaluation*
    order — children before parents, left operand before right — which
    is the order :mod:`repro.semantics.csem` evaluates them.  Check
    instrumentation walks this order so inserted ``__check_*`` calls
    fire in the same sequence the interpreter's native checks would."""
    if isinstance(expr, (Lval, AddrOf)):
        for sub in _lvalue_exprs(expr.lvalue):
            yield from subexprs_postorder(sub)
    elif isinstance(expr, UnOp):
        yield from subexprs_postorder(expr.operand)
    elif isinstance(expr, BinOp):
        yield from subexprs_postorder(expr.left)
        yield from subexprs_postorder(expr.right)
    elif isinstance(expr, CastE):
        yield from subexprs_postorder(expr.operand)
    elif isinstance(expr, CondE):
        yield from subexprs_postorder(expr.cond)
        yield from subexprs_postorder(expr.then)
        yield from subexprs_postorder(expr.otherwise)
    yield expr


def _lvalue_exprs(lv: Lvalue):
    if isinstance(lv.host, MemHost):
        yield from subexprs(lv.host.addr)
    off = lv.offset
    while not isinstance(off, NoOffset):
        if isinstance(off, IndexOff):
            yield from subexprs(off.index)
        off = off.rest
