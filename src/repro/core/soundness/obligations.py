"""Proof-obligation generation (paper section 4.2).

For a *value* qualifier, each ``case`` clause yields one obligation: if
an expression matches the clause's pattern and its predicate holds in an
arbitrary execution state ρ, the qualifier's invariant holds for the
expression in ρ.  (``restrict`` clauses do not affect soundness and are
ignored, section 2.1.3.)

For a *reference* qualifier:

* each ``assign`` clause yields an *establishment* obligation — after
  executing an assignment of that shape to the qualified l-value, the
  invariant holds;
* ``ondecl`` yields an establishment obligation from declaration
  freshness;
* one *preservation* obligation per right-hand-side form of the pattern
  grammar shows the invariant survives an arbitrary assignment to some
  *other* l-value, where the forms are those consistent with the
  qualifier's ``disallow`` clause (section 2.2.3).  Omitting a needed
  disallow re-admits the form that breaks the proof — e.g. without
  ``disallow L``, the "read of an l-value" case may read the unique
  l-value itself, and the obligation correctly fails.

Typing predicates (side conditions guaranteed by the base type system,
which the paper's Simplify encoding elides, footnote 2) appear here as
explicit hypotheses: integer-typed results are not heap locations and
differ from the qualified l-value's address; constants of pointer type
are NULL; l-values excluded by ``disallow`` have addresses different
from the qualified l-value's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.qualifiers import ast as Q
from repro.core.qualifiers.ast import QualifierDef, QualifierSet
from repro.core.soundness import axioms as S
from repro.prover.terms import (
    And,
    Eq,
    ForAll,
    Formula,
    Implies,
    Int,
    Le,
    Lt,
    Not,
    Or,
    TInt,
    TRUE,
    TVar,
    Term,
    fn,
)


class ObligationError(Exception):
    """The qualifier definition cannot be translated to obligations
    (e.g. its invariant uses location() on an Expr-classified subject)."""


@dataclass
class Obligation:
    qualifier: str
    rule: str  # human-readable description of the rule being verified
    goal: Formula
    trivial: bool = False  # no invariant: vacuously sound

    def __str__(self) -> str:
        status = " (trivial)" if self.trivial else ""
        return f"[{self.qualifier}] {self.rule}{status}"


RHO = TVar("rho")


# ---------------------------------------------------------------- invariants


def value_invariant(
    qdef: QualifierDef, rho: Term, expr_term: Term
) -> Optional[Formula]:
    """The invariant of a value qualifier, as a predicate of (ρ, e)."""
    if qdef.invariant is None:
        return None
    return _translate_inv(
        qdef.invariant,
        value_term=S.eval_expr(rho, expr_term),
        location_term=None,
        store_term=S.get_store(rho),
        subject=qdef.var,
    )


def ref_invariant(qdef: QualifierDef, rho: Term, lv_term: Term) -> Optional[Formula]:
    """The invariant of a reference qualifier, as a predicate of (ρ, l)."""
    if qdef.invariant is None:
        return None
    loc = S.location(rho, lv_term)
    return _translate_inv(
        qdef.invariant,
        value_term=S.select(S.get_store(rho), loc),
        location_term=loc,
        store_term=S.get_store(rho),
        subject=qdef.var,
    )


def _translate_inv(
    f: Q.IFormula,
    value_term: Term,
    location_term: Optional[Term],
    store_term: Term,
    subject: str,
) -> Formula:
    def term(t: Q.ITerm) -> Term:
        if isinstance(t, Q.IValue):
            if t.var != subject:
                raise ObligationError(f"value({t.var}) does not name the subject")
            return value_term
        if isinstance(t, Q.ILocation):
            if location_term is None:
                raise ObligationError(
                    "location() is only meaningful for reference qualifiers"
                )
            if t.var != subject:
                raise ObligationError(f"location({t.var}) does not name the subject")
            return location_term
        if isinstance(t, Q.IDeref):
            return S.select(store_term, term(t.operand))
        if isinstance(t, Q.IVar):
            return TVar(t.name)
        if isinstance(t, Q.INum):
            return Int(t.value)
        if isinstance(t, Q.INull):
            return S.NULL
        if isinstance(t, Q.IBin):
            # '+', '-', '*' are interpreted by the prover; '/' and '%'
            # are uninterpreted symbols constrained by the Euclidean
            # division lemmas the prover instantiates per ground term.
            return _arith(t.op, term(t.left), term(t.right))
        raise ObligationError(f"unknown invariant term {t!r}")

    def formula(g: Q.IFormula) -> Formula:
        if isinstance(g, Q.ICmp):
            left, right = term(g.left), term(g.right)
            ops = {
                "==": lambda: Eq(left, right),
                "!=": lambda: Not(Eq(left, right)),
                "<": lambda: Lt(left, right),
                ">": lambda: Lt(right, left),
                "<=": lambda: Le(left, right),
                ">=": lambda: Le(right, left),
            }
            return ops[g.op]()
        if isinstance(g, Q.IIsHeapLoc):
            return S.is_heap_loc(term(g.operand))
        if isinstance(g, Q.IAnd):
            return And(formula(g.left), formula(g.right))
        if isinstance(g, Q.IOr):
            return Or(formula(g.left), formula(g.right))
        if isinstance(g, Q.INot):
            return Not(formula(g.operand))
        if isinstance(g, Q.IImplies):
            return Implies(formula(g.left), formula(g.right))
        if isinstance(g, Q.IForall):
            body = formula(g.body)
            trig = ((S.select(store_term, TVar(g.var)),),)
            return ForAll((g.var,), body, triggers=trig)
        raise ObligationError(f"unknown invariant formula {g!r}")

    return formula(f)


# ----------------------------------------------------- pattern symbolization


@dataclass
class _SymbolEnv:
    """Maps clause pattern variables to symbolic terms."""

    qdef: QualifierDef
    decls: Dict[str, Q.VarDecl] = field(default_factory=dict)
    qvars: List[str] = field(default_factory=list)

    @classmethod
    def for_clause(cls, qdef: QualifierDef, clause) -> "_SymbolEnv":
        env = cls(qdef)
        for d in clause.decls:
            env.decls[d.name] = d
        env.decls.setdefault(
            qdef.var, Q.VarDecl(qdef.var, qdef.dtype, qdef.classifier)
        )
        return env

    def _fresh(self, name: str) -> TVar:
        if name not in self.qvars:
            self.qvars.append(name)
        return TVar(name)

    def const_value(self, name: str) -> Term:
        decl = self.decls[name]
        if decl.classifier is not Q.Classifier.CONST:
            raise ObligationError(
                f"{name} used as a constant but declared {decl.classifier.value}"
            )
        return self._fresh(f"c_{name}")

    def expr_term(self, name: str) -> Term:
        """The reified expression bound to a pattern variable."""
        decl = self.decls[name]
        if decl.classifier is Q.Classifier.CONST:
            return S.const_expr(self._fresh(f"c_{name}"))
        if decl.classifier in (Q.Classifier.LVALUE, Q.Classifier.VAR):
            return S.lval_expr(self.lvalue_term(name))
        return self._fresh(f"e_{name}")

    def lvalue_term(self, name: str) -> Term:
        decl = self.decls[name]
        if decl.classifier is Q.Classifier.VAR:
            return S.var_lv(self._fresh(f"x_{name}"))
        if decl.classifier is Q.Classifier.LVALUE:
            return self._fresh(f"l_{name}")
        raise ObligationError(
            f"{name} used as an l-value but declared {decl.classifier.value}"
        )


def _pattern_expr_term(env: _SymbolEnv, pattern: Q.Pattern) -> Term:
    if isinstance(pattern, Q.PVar):
        return env.expr_term(pattern.name)
    if isinstance(pattern, Q.PNull):
        return S.const_expr(S.NULL)
    if isinstance(pattern, Q.PDeref):
        return S.lval_expr(S.deref_lv(env.expr_term(pattern.name)))
    if isinstance(pattern, Q.PAddrOf):
        return S.addr_expr(env.lvalue_term(pattern.name))
    if isinstance(pattern, Q.PUnop):
        return S.unop_expr(pattern.op, env.expr_term(pattern.name))
    if isinstance(pattern, Q.PBinop):
        return S.binop_expr(
            pattern.op, env.expr_term(pattern.left), env.expr_term(pattern.right)
        )
    if isinstance(pattern, Q.PNew):
        raise ObligationError("`new` is handled at the statement level")
    raise ObligationError(f"unknown pattern {pattern!r}")


# ------------------------------------------------------ predicate hypotheses


def _pred_hypotheses(
    env: _SymbolEnv, pred: Q.Pred, quals: QualifierSet
) -> Formula:
    if isinstance(pred, Q.PredTrue):
        return TRUE
    if isinstance(pred, Q.PredAnd):
        return And(
            _pred_hypotheses(env, pred.left, quals),
            _pred_hypotheses(env, pred.right, quals),
        )
    if isinstance(pred, Q.PredOr):
        return Or(
            _pred_hypotheses(env, pred.left, quals),
            _pred_hypotheses(env, pred.right, quals),
        )
    if isinstance(pred, Q.PredNot):
        return Not(_pred_hypotheses(env, pred.operand, quals))
    if isinstance(pred, Q.PredQual):
        other = quals.get(pred.qualifier)
        if other is None:
            raise ObligationError(
                f"predicate references unknown qualifier {pred.qualifier!r}"
            )
        # Proving q's rules sound requires the invariants of the
        # qualifiers q refers to (section 4.2).
        expr_term = env.expr_term(pred.var)
        if other.is_value:
            inv = value_invariant(other, RHO, expr_term)
        else:
            inv = ref_invariant(other, RHO, env.lvalue_term(pred.var))
        return inv if inv is not None else TRUE
    if isinstance(pred, Q.PredCmp):
        left = _aexpr_term(env, pred.left)
        right = _aexpr_term(env, pred.right)
        ops = {
            "==": lambda: Eq(left, right),
            "!=": lambda: Not(Eq(left, right)),
            "<": lambda: Lt(left, right),
            ">": lambda: Lt(right, left),
            "<=": lambda: Le(left, right),
            ">=": lambda: Le(right, left),
        }
        return ops[pred.op]()
    raise ObligationError(f"unknown predicate {pred!r}")


def _aexpr_term(env: _SymbolEnv, aexpr: Q.AExpr) -> Term:
    if isinstance(aexpr, Q.ANum):
        return Int(aexpr.value)
    if isinstance(aexpr, Q.ANull):
        return S.NULL
    if isinstance(aexpr, Q.AVar):
        return env.const_value(aexpr.name)
    if isinstance(aexpr, Q.ABin):
        left = _aexpr_term(env, aexpr.left)
        return _arith(aexpr.op, left, _aexpr_term(env, aexpr.right))
    raise ObligationError(f"unknown arithmetic operand {aexpr!r}")


_FOLD = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def _arith(op: str, left: Term, right: Term) -> Term:
    """``op(left, right)``, folded to a number when both sides are
    numbers: a ground ``0 - 1`` left as a term never meets the prover's
    arithmetic, so ``C != 0 - 1`` would be refuted.  ``/`` and ``%``
    stay symbolic (their C rounding is the division lemmas' business)."""
    if op in _FOLD and isinstance(left, TInt) and isinstance(right, TInt):
        return Int(_FOLD[op](left.value, right.value))
    return fn(op, left, right)


# ------------------------------------------------------------ value rules


def _value_obligations(qdef: QualifierDef, quals: QualifierSet) -> List[Obligation]:
    out: List[Obligation] = []
    for i, clause in enumerate(qdef.cases, start=1):
        rule = f"case {i}: {clause}"
        if qdef.invariant is None:
            out.append(Obligation(qdef.name, rule, TRUE, trivial=True))
            continue
        env = _SymbolEnv.for_clause(qdef, clause)
        subject_term = _pattern_expr_term(env, clause.pattern)
        hyp = _pred_hypotheses(env, clause.predicate, quals)
        conclusion = value_invariant(qdef, RHO, subject_term)
        goal = ForAll(
            tuple(["rho"] + env.qvars), Implies(hyp, conclusion)
        )
        out.append(Obligation(qdef.name, rule, goal))
    return out


# -------------------------------------------------------------- ref rules


def _ref_subject(qdef: QualifierDef) -> Tuple[Term, List[str]]:
    """The symbolic qualified l-value and its quantified variables."""
    if qdef.classifier is Q.Classifier.VAR:
        return S.var_lv(TVar("x_subject")), ["x_subject"]
    return TVar("l_subject"), ["l_subject"]


def _establishment_obligations(
    qdef: QualifierDef, quals: QualifierSet
) -> List[Obligation]:
    out: List[Obligation] = []
    subject, subject_vars = _ref_subject(qdef)
    inv_after = ref_invariant(qdef, S.step_state(RHO), subject)

    for i, clause in enumerate(qdef.assigns, start=1):
        rule = f"assign {i}: {clause.pattern}"
        if qdef.invariant is None:
            out.append(Obligation(qdef.name, rule, TRUE, trivial=True))
            continue
        env = _SymbolEnv.for_clause(qdef, clause)
        hyps: List[Formula] = []
        if isinstance(clause.pattern, Q.PNew):
            stmt = S.assign_new_stmt(subject)
        else:
            rhs = _pattern_expr_term(env, clause.pattern)
            stmt = S.assign_stmt(subject, rhs)
        hyps.append(Eq(S.get_stmt(RHO), stmt))
        pred_hyp = _pred_hypotheses(env, clause.predicate, quals)
        if pred_hyp is not TRUE:
            hyps.append(pred_hyp)
        goal = ForAll(
            tuple(["rho"] + subject_vars + env.qvars),
            Implies(And(*hyps), inv_after),
        )
        out.append(Obligation(qdef.name, rule, goal))

    if qdef.ondecl:
        rule = "ondecl: establishment at declaration"
        if qdef.invariant is None:
            out.append(Obligation(qdef.name, rule, TRUE, trivial=True))
        else:
            # A freshly declared variable's address is referenced from
            # nowhere in the store (declaration freshness).
            p = TVar("p")
            fresh = ForAll(
                ("p",),
                Not(Eq(S.select(S.get_store(RHO), p), S.location(RHO, subject))),
                triggers=((S.select(S.get_store(RHO), p),),),
            )
            inv_now = ref_invariant(qdef, RHO, subject)
            goal = ForAll(
                tuple(["rho"] + subject_vars), Implies(fresh, inv_now)
            )
            out.append(Obligation(qdef.name, rule, goal))
    return out


def _preservation_obligations(
    qdef: QualifierDef, quals: QualifierSet
) -> List[Obligation]:
    """One obligation per RHS form consistent with the disallow clause
    (the prover performs the case analysis the paper describes as "a
    case analysis on the different forms of right-hand sides")."""
    if qdef.invariant is None:
        return [
            Obligation(qdef.name, "preservation", TRUE, trivial=True)
        ]
    out: List[Obligation] = []
    subject, subject_vars = _ref_subject(qdef)
    disallow = qdef.disallow or Q.DisallowClause()
    a_subject = S.location(RHO, subject)
    target = TVar("l_target")
    inv_before = ref_invariant(qdef, RHO, subject)
    inv_after = ref_invariant(qdef, S.step_state(RHO), subject)

    def emit(form: str, stmt: Term, extra_hyps: List[Formula], extra_vars: List[str]):
        hyps = [
            inv_before,
            Eq(S.get_stmt(RHO), stmt),
            Not(Eq(S.location(RHO, target), a_subject)),
        ] + extra_hyps
        goal = ForAll(
            tuple(["rho"] + subject_vars + ["l_target"] + extra_vars),
            Implies(And(*hyps), inv_after),
        )
        out.append(Obligation(qdef.name, f"preservation: rhs is {form}", goal))

    # Form 1: constant.  Typing: a pointer-typed constant is NULL; other
    # constants are integer-typed, hence neither heap locations nor
    # addresses.
    c = TVar("c_rhs")
    emit(
        "a constant",
        S.assign_stmt(target, S.const_expr(c)),
        [
            Or(
                Eq(c, S.NULL),
                And(Not(S.is_heap_loc(c)), Not(Eq(c, a_subject))),
            )
        ],
        ["c_rhs"],
    )

    # Form 2: a read of an l-value.  With `disallow L`, the read l-value
    # cannot be (an alias of) the qualified one: any l-value at the same
    # address has the qualified type (no subtyping under pointers), so
    # reading it is equally forbidden.  Without the disallow, the read
    # may target the qualified l-value itself.
    read_lv = TVar("l_read")
    read_hyps: List[Formula] = []
    if disallow.forbid_reference:
        read_hyps.append(Not(Eq(S.location(RHO, read_lv), a_subject)))
    emit(
        "a read of an l-value",
        S.assign_stmt(target, S.lval_expr(read_lv)),
        read_hyps,
        ["l_read"],
    )

    # Form 3: the address of a variable.  With `disallow &X`, the
    # variable cannot be the qualified one.
    xv = TVar("x_addr")
    addr_hyps: List[Formula] = []
    if disallow.forbid_address_of and qdef.classifier is Q.Classifier.VAR:
        addr_hyps.append(Not(Eq(xv, TVar("x_subject"))))
    emit(
        "the address of a variable",
        S.assign_stmt(target, S.addr_expr(S.var_lv(xv))),
        addr_hyps,
        ["x_addr"],
    )

    # Form 4: an allocation.
    emit("an allocation (new)", S.assign_new_stmt(target), [], [])

    # Forms 5, 6: unary / binary operations.  Typing: arithmetic results
    # are integer-typed — not heap locations and not addresses.
    e1, e2 = TVar("e_rhs1"), TVar("e_rhs2")
    for form, rhs, extra_vars in (
        ("a unary operation", S.unop_expr("-", e1), ["e_rhs1"]),
        ("a binary operation", S.binop_expr("+", e1, e2), ["e_rhs1", "e_rhs2"]),
    ):
        w = S.eval_expr(RHO, rhs)
        emit(
            form,
            S.assign_stmt(target, rhs),
            [Not(S.is_heap_loc(w)), Not(Eq(w, a_subject))],
            extra_vars,
        )

    return out


# -------------------------------------------------------------------- driver


def generate_obligations(
    qdef: QualifierDef, quals: QualifierSet
) -> List[Obligation]:
    """All proof obligations for one qualifier definition."""
    if qdef.is_value:
        return _value_obligations(qdef, quals)
    return _establishment_obligations(qdef, quals) + _preservation_obligations(
        qdef, quals
    )
