"""IR node definitions.

Expression nodes are immutable and hashable so the qualifier checker can
memoize judgments about them.  Each expression and l-value node computes
its hash once, on first use, and keeps it: guard facts and memo keys
hash the same deep trees over and over.  Statements and instructions
are plain mutable dataclasses (instrumentation rewrites them in place).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.cfront.ast import Loc
from repro.cfront.ctypes import CType, FuncType


def _hash_once(cls):
    """Cache the dataclass-generated hash of a frozen node on first use.

    String hashes differ between interpreter runs, so the cached value
    must not outlive the process: pickling and copying rebuild the node
    through its constructor, and the copy hashes afresh."""
    compute = cls.__hash__
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = compute(self)
            return value

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in names)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


# ------------------------------------------------------------------ l-values


@_hash_once
@dataclass(frozen=True)
class VarHost:
    """The l-value host naming a variable directly."""

    name: str

    def __str__(self) -> str:
        return self.name


@_hash_once
@dataclass(frozen=True)
class MemHost:
    """The l-value host dereferencing a pointer expression."""

    addr: "Expr"

    def __str__(self) -> str:
        return f"*({self.addr})"


@_hash_once
@dataclass(frozen=True)
class NoOffset:
    def __str__(self) -> str:
        return ""


@_hash_once
@dataclass(frozen=True)
class FieldOff:
    fieldname: str
    rest: "Offset" = field(default_factory=NoOffset)

    def __str__(self) -> str:
        return f".{self.fieldname}{self.rest}"


@_hash_once
@dataclass(frozen=True)
class IndexOff:
    index: "Expr"
    rest: "Offset" = field(default_factory=NoOffset)

    def __str__(self) -> str:
        return f"[{self.index}]{self.rest}"


Offset = NoOffset | FieldOff | IndexOff
Host = VarHost | MemHost


@_hash_once
@dataclass(frozen=True)
class Lvalue:
    host: Host
    offset: Offset = field(default_factory=NoOffset)

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


@dataclass(frozen=True)
class Expr:
    pass


@_hash_once
@dataclass(frozen=True)
class IntConst(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@_hash_once
@dataclass(frozen=True)
class StrConst(Expr):
    value: str

    def __str__(self) -> str:
        return '"' + self.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


@_hash_once
@dataclass(frozen=True)
class NullConst(Expr):
    def __str__(self) -> str:
        return "NULL"


@_hash_once
@dataclass(frozen=True)
class Lval(Expr):
    """Reading an l-value (the l-value used in expression position)."""

    lvalue: Lvalue

    def __str__(self) -> str:
        return str(self.lvalue)


@_hash_once
@dataclass(frozen=True)
class AddrOf(Expr):
    lvalue: Lvalue

    def __str__(self) -> str:
        return f"&{self.lvalue}"


@_hash_once
@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # '-', '!', '~'
    operand: Expr

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@_hash_once
@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # arithmetic/relational/logical; 'ptradd' for pointer indexing
    left: Expr
    right: Expr

    def __str__(self) -> str:
        if self.op == "ptradd":
            return f"({self.left} + {self.right})"
        return f"({self.left} {self.op} {self.right})"


@_hash_once
@dataclass(frozen=True)
class CastE(Expr):
    to_type: CType
    operand: Expr

    def __str__(self) -> str:
        return f"({self.to_type})({self.operand})"


@_hash_once
@dataclass(frozen=True)
class CondE(Expr):
    """A side-effect-free conditional expression ``c ? a : b``.

    Only produced when both branches lower without emitting
    instructions, so expressions remain pure.
    """

    cond: Expr
    then: Expr
    otherwise: Expr

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.otherwise})"


@_hash_once
@dataclass(frozen=True)
class SizeOfE(Expr):
    of_type: Optional[CType] = None

    def __str__(self) -> str:
        return f"sizeof({self.of_type if self.of_type else '...'})"


# -------------------------------------------------------------- instructions


@dataclass
class Set:
    """Assignment instruction ``lvalue := expr``."""

    lvalue: Lvalue
    expr: Expr
    loc: Loc = field(default_factory=Loc)

    def __str__(self) -> str:
        return f"{self.lvalue} = {self.expr};"


@dataclass
class Call:
    """Procedure call; ``result`` receives the return value if not None."""

    result: Optional[Lvalue]
    func: str
    args: List[Expr]
    loc: Loc = field(default_factory=Loc)
    # A cast the surface program applied to the call result, e.g.
    # ``p = (int*)malloc(...)``; recorded so pattern matching can ignore
    # it (footnote 1 and figure 6 of the paper).
    result_cast: Optional[CType] = None

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


@dataclass
class Instr:
    instrs: List[Instruction] = field(default_factory=list)
    loc: Loc = field(default_factory=Loc)


@dataclass
class If:
    cond: Expr
    then: List["Stmt"] = field(default_factory=list)
    otherwise: List["Stmt"] = field(default_factory=list)
    loc: Loc = field(default_factory=Loc)


@dataclass
class While:
    """``while`` loop; ``cond_instrs`` re-evaluate side-effecting parts of
    the condition on every iteration (lowered from e.g.
    ``while ((t = next()) != NULL)``)."""

    cond_instrs: List[Instruction]
    cond: Expr
    body: List["Stmt"] = field(default_factory=list)
    loc: Loc = field(default_factory=Loc)


@dataclass
class Return:
    expr: Optional[Expr] = None
    loc: Loc = field(default_factory=Loc)


@dataclass
class Break:
    loc: Loc = field(default_factory=Loc)


@dataclass
class Continue:
    loc: Loc = field(default_factory=Loc)


@dataclass
class Goto:
    """``goto label;`` — unstructured jump, resolved against the
    function's :class:`Label` statements by the CFG builder."""

    label: str = ""
    loc: Loc = field(default_factory=Loc)


@dataclass
class Label:
    """``name:`` — a goto target; labels have function scope."""

    name: str = ""
    loc: Loc = field(default_factory=Loc)


Stmt = Instr | If | While | Return | Break | Continue | Goto | Label


# ----------------------------------------------------------------- top level


@dataclass
class Function:
    name: str
    ret: CType
    formals: List[Tuple[str, CType]]
    locals: List[Tuple[str, CType]]
    body: List[Stmt]
    varargs: bool = False
    loc: Loc = field(default_factory=Loc)

    def local_type(self, name: str) -> CType:
        for n, t in self.formals + self.locals:
            if n == name:
                return t
        raise KeyError(name)


@dataclass
class GlobalVar:
    name: str
    ctype: CType
    loc: Loc = field(default_factory=Loc)


@dataclass
class Program:
    structs: Dict[str, List[Tuple[str, CType]]] = field(default_factory=dict)
    # Names in `structs` that are C unions: their fields overlay at
    # offset 0 and qualifier checking of them is unsound (paper §3.3).
    unions: set = field(default_factory=set)
    globals: List[GlobalVar] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)
    # Declared signatures for every known function (definitions and
    # prototypes, e.g. the annotated printf signature).
    signatures: Dict[str, FuncType] = field(default_factory=dict)
    # Formal parameter names for defined functions (for diagnostics).
    formal_names: Dict[str, List[str]] = field(default_factory=dict)

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
