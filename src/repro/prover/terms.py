"""First-order terms and formulas.

Terms are untyped (as in Simplify): the intended domain is the
integers, with program values, memory locations and reified syntax all
encoded as integer-valued terms.  The interpreted function symbols are
``+``, ``-`` and ``*`` plus integer literals; every other symbol is
uninterpreted and handled by congruence closure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.nodes import Frozen

_set = object.__setattr__

# ---------------------------------------------------------------------- terms
# The three term classes hash eagerly, with a tag per class: terms are
# deep trees used heavily as dict keys.


class Term(Frozen):
    __slots__ = ("_hash",)


# The slot's own setter: cheaper than ``object.__setattr__``.
_set_hash = Term._hash.__set__


class TVar(Term):
    """A variable — free variables are only meaningful under a
    quantifier or in an axiom schema; ground reasoning uses constants
    (nullary :class:`TApp`)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        _set_hash(self, hash(("v", name)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"?{self.name}"


class TInt(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)
        _set_hash(self, hash(("i", value)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return str(self.value)


class TApp(Term):
    __slots__ = ("fname", "args")

    def __init__(self, fname: str, args: Tuple[Term, ...] = ()):
        _set(self, "fname", fname)
        _set(self, "args", args)
        _set_hash(self, hash(("a", fname, args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            type(other) is TApp
            and self._hash == other._hash
            and self.fname == other.fname
            and self.args == other.args
        )

    def __str__(self) -> str:
        if not self.args:
            return self.fname
        return f"{self.fname}({', '.join(str(a) for a in self.args)})"


def fn(name: str, *args: Term) -> TApp:
    """Convenience constructor for function applications/constants."""
    return TApp(name, tuple(args))


def Int(value: int) -> TInt:
    return TInt(value)


ARITH_FNS = ("+", "-", "*")


def term_vars(t: Term) -> FrozenSet[str]:
    if isinstance(t, TVar):
        return frozenset([t.name])
    if isinstance(t, TApp):
        out: FrozenSet[str] = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    return frozenset()


def term_subst(t: Term, subst: Dict[str, Term]) -> Term:
    if isinstance(t, TVar):
        return subst.get(t.name, t)
    if isinstance(t, TApp):
        return TApp(t.fname, tuple(term_subst(a, subst) for a in t.args))
    return t


def subterms(t: Term):
    """Yield ``t`` and every subterm (pre-order)."""
    yield t
    if isinstance(t, TApp):
        for a in t.args:
            yield from subterms(a)


# ------------------------------------------------------------------- formulas


class Formula(Frozen):
    __slots__ = ()


class FTrue(Formula):
    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class FFalse(Formula):
    __slots__ = ()

    def __str__(self) -> str:
        return "false"


TRUE = FTrue()
FALSE = FFalse()


class Eq(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


class Le(Formula):
    """``left <= right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"{self.left} <= {self.right}"


class Lt(Formula):
    """``left < right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"{self.left} < {self.right}"


class Pr(Formula):
    """An uninterpreted predicate application, e.g. isHeapLoc(v)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Term, ...]):
        _set(self, "name", name)
        _set(self, "args", args)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        _set(self, "operand", operand)

    def __str__(self) -> str:
        return f"¬({self.operand})"


class And(Formula):
    __slots__ = ("conjuncts",)

    def __init__(self, *conjuncts: Formula):
        _set(self, "conjuncts", tuple(conjuncts))

    def __reduce__(self):
        return And, self.conjuncts

    def __str__(self) -> str:
        return "(" + " ∧ ".join(str(c) for c in self.conjuncts) + ")"


class Or(Formula):
    __slots__ = ("disjuncts",)

    def __init__(self, *disjuncts: Formula):
        _set(self, "disjuncts", tuple(disjuncts))

    def __reduce__(self):
        return Or, self.disjuncts

    def __str__(self) -> str:
        return "(" + " ∨ ".join(str(d) for d in self.disjuncts) + ")"


class Implies(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} ⇒ {self.right})"


class Iff(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} ⇔ {self.right})"


class ForAll(Formula):
    """Universal quantification with optional E-matching triggers.

    Each trigger is a tuple of term patterns (a multi-pattern); at least
    one trigger must match ground terms for the axiom to instantiate.
    When no triggers are given, the instantiation engine derives them.
    """

    __slots__ = ("vars", "body", "triggers")

    def __init__(
        self,
        vars: Tuple[str, ...],
        body: Formula,
        triggers: Tuple[Tuple[Term, ...], ...] = (),
    ):
        _set(self, "vars", vars)
        _set(self, "body", body)
        _set(self, "triggers", triggers)

    def __str__(self) -> str:
        return f"∀{','.join(self.vars)}. {self.body}"


class Exists(Formula):
    __slots__ = ("vars", "body")

    def __init__(self, vars: Tuple[str, ...], body: Formula):
        _set(self, "vars", vars)
        _set(self, "body", body)

    def __str__(self) -> str:
        return f"∃{','.join(self.vars)}. {self.body}"


Atom = (Eq, Le, Lt, Pr)


def formula_subst(f: Formula, subst: Dict[str, Term]) -> Formula:
    if isinstance(f, (FTrue, FFalse)):
        return f
    if isinstance(f, Eq):
        return Eq(term_subst(f.left, subst), term_subst(f.right, subst))
    if isinstance(f, Le):
        return Le(term_subst(f.left, subst), term_subst(f.right, subst))
    if isinstance(f, Lt):
        return Lt(term_subst(f.left, subst), term_subst(f.right, subst))
    if isinstance(f, Pr):
        return Pr(f.name, tuple(term_subst(a, subst) for a in f.args))
    if isinstance(f, Not):
        return Not(formula_subst(f.operand, subst))
    if isinstance(f, And):
        return And(*(formula_subst(c, subst) for c in f.conjuncts))
    if isinstance(f, Or):
        return Or(*(formula_subst(d, subst) for d in f.disjuncts))
    if isinstance(f, Implies):
        return Implies(formula_subst(f.left, subst), formula_subst(f.right, subst))
    if isinstance(f, Iff):
        return Iff(formula_subst(f.left, subst), formula_subst(f.right, subst))
    if isinstance(f, ForAll):
        inner = {k: v for k, v in subst.items() if k not in f.vars}
        return ForAll(
            f.vars,
            formula_subst(f.body, inner),
            tuple(
                tuple(term_subst(p, inner) for p in trig) for trig in f.triggers
            ),
        )
    if isinstance(f, Exists):
        inner = {k: v for k, v in subst.items() if k not in f.vars}
        return Exists(f.vars, formula_subst(f.body, inner))
    raise TypeError(f"unknown formula {f!r}")


def formula_terms(f: Formula):
    """Yield every term occurring in the formula (including subterms)."""
    if isinstance(f, (Eq, Le, Lt)):
        yield from subterms(f.left)
        yield from subterms(f.right)
    elif isinstance(f, Pr):
        for a in f.args:
            yield from subterms(a)
    elif isinstance(f, Not):
        yield from formula_terms(f.operand)
    elif isinstance(f, And):
        for c in f.conjuncts:
            yield from formula_terms(c)
    elif isinstance(f, Or):
        for d in f.disjuncts:
            yield from formula_terms(d)
    elif isinstance(f, (Implies, Iff)):
        yield from formula_terms(f.left)
        yield from formula_terms(f.right)
    elif isinstance(f, (ForAll, Exists)):
        yield from formula_terms(f.body)


def free_vars(f: Formula) -> FrozenSet[str]:
    if isinstance(f, (FTrue, FFalse)):
        return frozenset()
    if isinstance(f, (Eq, Le, Lt)):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, Pr):
        out: FrozenSet[str] = frozenset()
        for a in f.args:
            out |= term_vars(a)
        return out
    if isinstance(f, Not):
        return free_vars(f.operand)
    if isinstance(f, And):
        out = frozenset()
        for c in f.conjuncts:
            out |= free_vars(c)
        return out
    if isinstance(f, Or):
        out = frozenset()
        for d in f.disjuncts:
            out |= free_vars(d)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (ForAll, Exists)):
        return free_vars(f.body) - frozenset(f.vars)
    raise TypeError(f"unknown formula {f!r}")
