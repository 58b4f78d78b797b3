"""Abstract syntax of the qualifier-definition language.

Grammar (paper section 2; patterns from section 2.1.1):

    P ::= X | *X | &X | new | uop X | X bop X

where ``X`` ranges over variable patterns with a declared type and
classifier (``Expr``, ``Const``, ``LValue``, ``Var``).  ``NULL`` is also
accepted as a pattern in ``assign`` blocks (figure 5).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.nodes import Frozen, Node

_set = object.__setattr__


class Classifier(str, Enum):
    """What kind of program fragment a pattern variable may match."""

    EXPR = "Expr"
    CONST = "Const"
    LVALUE = "LValue"
    VAR = "Var"


# ------------------------------------------------------------- DSL types
# Types inside qualifier definitions may mention a type variable (``T``),
# so they are a separate small grammar that *matches against* C types.


class DType(Frozen):
    __slots__ = ()


class DInt(DType):
    __slots__ = ("kind",)

    def __init__(self, kind: str = "int"):
        _set(self, "kind", kind)

    def __str__(self) -> str:
        return self.kind


class DVoid(DType):
    __slots__ = ()

    def __str__(self) -> str:
        return "void"


class DTypeVar(DType):
    __slots__ = ("name",)

    def __init__(self, name: str = "T"):
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


class DPtr(DType):
    __slots__ = ("inner",)

    def __init__(self, inner: DType = DTypeVar()):
        _set(self, "inner", inner)

    def __str__(self) -> str:
        return f"{self.inner}*"


# ------------------------------------------------------------- variables


class VarDecl(Frozen):
    """``decl int Expr E1`` — a pattern variable declaration."""

    __slots__ = ("name", "dtype", "classifier")

    def __init__(self, name: str, dtype: DType, classifier: Classifier):
        _set(self, "name", name)
        _set(self, "dtype", dtype)
        _set(self, "classifier", classifier)

    def __str__(self) -> str:
        return f"{self.dtype} {self.classifier.value} {self.name}"


# -------------------------------------------------------------- patterns


class Pattern(Frozen):
    __slots__ = ()


class PVar(Pattern):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


class PDeref(Pattern):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __str__(self) -> str:
        return f"*{self.name}"


class PAddrOf(Pattern):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __str__(self) -> str:
        return f"&{self.name}"


class PNew(Pattern):
    __slots__ = ()

    def __str__(self) -> str:
        return "new"


class PNull(Pattern):
    __slots__ = ()

    def __str__(self) -> str:
        return "NULL"


class PUnop(Pattern):
    __slots__ = ("op", "name")

    def __init__(self, op: str, name: str):
        _set(self, "op", op)
        _set(self, "name", name)

    def __str__(self) -> str:
        return f"{self.op}{self.name}"


class PBinop(Pattern):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: str, right: str):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def pattern_vars(p: Pattern) -> Tuple[str, ...]:
    if isinstance(p, (PVar, PDeref, PAddrOf)):
        return (p.name,)
    if isinstance(p, PUnop):
        return (p.name,)
    if isinstance(p, PBinop):
        return (p.left, p.right)
    return ()


# ------------------------------------------------------------ predicates
# The predicate after `where`: qualifier checks, operations on constants,
# conjunction and disjunction (section 2.1.1).


class Pred(Frozen):
    __slots__ = ()


class PredTrue(Pred):
    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class PredQual(Pred):
    """``pos(E1)`` — a (possibly recursive) qualifier check."""

    __slots__ = ("qualifier", "var")

    def __init__(self, qualifier: str, var: str):
        _set(self, "qualifier", qualifier)
        _set(self, "var", var)

    def __str__(self) -> str:
        return f"{self.qualifier}({self.var})"


class AVar(Frozen):
    """A pattern variable used as an arithmetic operand (must have
    classifier Const when the predicate is evaluated)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


class ANum(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)

    def __str__(self) -> str:
        return str(self.value)


class ANull(Frozen):
    __slots__ = ()

    def __str__(self) -> str:
        return "NULL"


class ABin(Frozen):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "AExpr", right: "AExpr"):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


AExpr = AVar | ANum | ANull | ABin


class PredCmp(Pred):
    """``C > 0`` — comparison over constant operands."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: AExpr, right: AExpr):
        # op: '>', '<', '>=', '<=', '==', '!='
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class PredAnd(Pred):
    __slots__ = ("left", "right")

    def __init__(self, left: Pred, right: Pred):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} && {self.right})"


class PredOr(Pred):
    __slots__ = ("left", "right")

    def __init__(self, left: Pred, right: Pred):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} || {self.right})"


class PredNot(Pred):
    __slots__ = ("operand",)

    def __init__(self, operand: Pred):
        _set(self, "operand", operand)

    def __str__(self) -> str:
        return f"!({self.operand})"


# ------------------------------------------------------------- invariants
# Terms and formulas of the invariant language (sections 2.1.3, 2.2.3).


class ITerm(Frozen):
    __slots__ = ()


class IValue(ITerm):
    """``value(E)`` — the value of the qualified expression in ρ."""

    __slots__ = ("var",)

    def __init__(self, var: str):
        _set(self, "var", var)

    def __str__(self) -> str:
        return f"value({self.var})"


class ILocation(ITerm):
    """``location(L)`` — the address of the qualified l-value in ρ."""

    __slots__ = ("var",)

    def __init__(self, var: str):
        _set(self, "var", var)

    def __str__(self) -> str:
        return f"location({self.var})"


class IDeref(ITerm):
    """``*P`` — the contents of location ``P`` in ρ."""

    __slots__ = ("operand",)

    def __init__(self, operand: ITerm):
        _set(self, "operand", operand)

    def __str__(self) -> str:
        return f"*{self.operand}"


class IVar(ITerm):
    """A quantified variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


class INum(ITerm):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)

    def __str__(self) -> str:
        return str(self.value)


class INull(ITerm):
    __slots__ = ()

    def __str__(self) -> str:
        return "NULL"


class IBin(ITerm):
    """Arithmetic in invariants, e.g. ``value(E) % 2``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: ITerm, right: ITerm):
        # op: '+', '-', '*', '/', '%'
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class IFormula(Frozen):
    __slots__ = ()


class ICmp(IFormula):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: ITerm, right: ITerm):
        # op: '==', '!=', '>', '<', '>=', '<='
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class IIsHeapLoc(IFormula):
    __slots__ = ("operand",)

    def __init__(self, operand: ITerm):
        _set(self, "operand", operand)

    def __str__(self) -> str:
        return f"isHeapLoc({self.operand})"


class IAnd(IFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: IFormula, right: IFormula):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} && {self.right})"


class IOr(IFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: IFormula, right: IFormula):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} || {self.right})"


class INot(IFormula):
    __slots__ = ("operand",)

    def __init__(self, operand: IFormula):
        _set(self, "operand", operand)

    def __str__(self) -> str:
        return f"!({self.operand})"


class IImplies(IFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: IFormula, right: IFormula):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} => {self.right})"


class IForall(IFormula):
    """``forall T** P: body`` — quantification over memory locations of
    a given type (used by reference-qualifier invariants)."""

    __slots__ = ("var", "dtype", "body")

    def __init__(self, var: str, dtype: DType, body: IFormula):
        _set(self, "var", var)
        _set(self, "dtype", dtype)
        _set(self, "body", body)

    def __str__(self) -> str:
        return f"forall {self.dtype} {self.var}: {self.body}"


# --------------------------------------------------------------- clauses
# The three rule kinds share one shape: declarations, a pattern and the
# predicate guarding it.


class _Clause(Frozen):
    __slots__ = ("decls", "pattern", "predicate")

    def __init__(
        self,
        decls: Tuple[VarDecl, ...],
        pattern: Pattern,
        predicate: Pred = PredTrue(),
    ):
        _set(self, "decls", decls)
        _set(self, "pattern", pattern)
        _set(self, "predicate", predicate)

    def decl_of(self, name: str) -> VarDecl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(f"pattern variable {name!r} not declared")


class CaseClause(_Clause):
    """Introduction rule: an expression matching ``pattern`` whose
    ``predicate`` holds may be given the qualified type."""

    __slots__ = ()

    def __str__(self) -> str:
        decls = f"decl {', '.join(str(d) for d in self.decls)}: " if self.decls else ""
        where = f", where {self.predicate}" if not isinstance(self.predicate, PredTrue) else ""
        return f"{decls}{self.pattern}{where}"


class RestrictClause(_Clause):
    """Any program expression matching ``pattern`` must satisfy
    ``predicate`` (section 2.1.1)."""

    __slots__ = ()


class AssignClause(_Clause):
    """Allowed right-hand sides in assignments to a ref-qualified
    l-value (section 2.2.1)."""

    __slots__ = ()


class DisallowClause(Frozen):
    """What uses of a ref-qualified l-value are forbidden: appearing as
    a reference (``disallow L``) and/or having its address taken
    (``disallow &L``)."""

    __slots__ = ("forbid_reference", "forbid_address_of")

    def __init__(self, forbid_reference: bool = False, forbid_address_of: bool = False):
        _set(self, "forbid_reference", forbid_reference)
        _set(self, "forbid_address_of", forbid_address_of)

    def __str__(self) -> str:
        parts = []
        if self.forbid_reference:
            parts.append("L")
        if self.forbid_address_of:
            parts.append("&L")
        return "disallow " + " | ".join(parts)


# -------------------------------------------------------------- definition


class QualifierDef(Node):
    """A complete qualifier definition."""

    __slots__ = (
        "name", "kind", "dtype", "classifier", "var", "cases", "restricts",
        "assigns", "disallow", "ondecl", "invariant", "source",
    )

    def __init__(
        self,
        name: str,
        kind: str,  # 'value' or 'ref'
        dtype: DType,
        classifier: Classifier,
        var: str,
        cases: List[CaseClause] = None,
        restricts: List[RestrictClause] = None,
        assigns: List[AssignClause] = None,
        disallow: Optional[DisallowClause] = None,
        ondecl: bool = False,
        invariant: Optional[IFormula] = None,
        source: str = "",
    ):
        self.name = name
        self.kind = kind
        self.dtype = dtype
        self.classifier = classifier
        self.var = var
        self.cases = [] if cases is None else cases
        self.restricts = [] if restricts is None else restricts
        self.assigns = [] if assigns is None else assigns
        self.disallow = disallow
        self.ondecl = ondecl
        self.invariant = invariant
        self.source = source

    @property
    def is_value(self) -> bool:
        return self.kind == "value"

    @property
    def is_ref(self) -> bool:
        return self.kind == "ref"

    def referenced_qualifiers(self) -> set:
        """Names of other qualifiers mentioned in this one's predicates
        (qualifier definitions may be mutually recursive)."""
        names = set()
        for clause in list(self.cases) + list(self.restricts) + list(self.assigns):
            names |= _pred_quals(clause.predicate)
        names.discard(self.name)
        return names


def _pred_quals(pred: Pred) -> set:
    if isinstance(pred, PredQual):
        return {pred.qualifier}
    if isinstance(pred, (PredAnd, PredOr)):
        return _pred_quals(pred.left) | _pred_quals(pred.right)
    if isinstance(pred, PredNot):
        return _pred_quals(pred.operand)
    return set()


class QualifierSet:
    """A collection of qualifier definitions, indexed by name.

    The extensible typechecker and soundness checker both operate
    relative to a qualifier set, since definitions may refer to each
    other (e.g. ``pos``'s rules mention ``neg`` and vice versa).
    """

    def __init__(self, defs: List[QualifierDef] = ()):  # noqa: B006
        self._defs: Dict[str, QualifierDef] = {}
        for d in defs:
            self.add(d)

    def add(self, d: QualifierDef) -> None:
        if d.name in self._defs:
            raise ValueError(f"duplicate qualifier definition {d.name!r}")
        self._defs[d.name] = d

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __getitem__(self, name: str) -> QualifierDef:
        return self._defs[name]

    def __iter__(self):
        return iter(self._defs.values())

    def __len__(self) -> int:
        return len(self._defs)

    def get(self, name: str) -> Optional[QualifierDef]:
        return self._defs.get(name)

    @property
    def names(self) -> set:
        return set(self._defs)

    def value_qualifiers(self) -> List[QualifierDef]:
        return [d for d in self if d.is_value]

    def ref_qualifiers(self) -> List[QualifierDef]:
        return [d for d in self if d.is_ref]

    def missing_references(self) -> set:
        """Qualifiers referenced in rules but not defined in this set."""
        missing = set()
        for d in self:
            missing |= d.referenced_qualifiers() - self.names
        return missing
