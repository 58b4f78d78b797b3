"""Integer linear arithmetic: Gaussian elimination for equalities,
Fourier–Motzkin for the residual inequalities.

Constraints are linear combinations over opaque "atoms" (non-arithmetic
terms are treated as variables; the Nelson–Oppen layer keeps them in
sync with congruence closure).  The domain is the integers: strict
bounds with integral coefficients are tightened (``t < c`` becomes
``t <= c - 1``), which makes the procedure complete for the
conjunctions our proof obligations produce.

Most constraints arriving from the equality-heavy obligations are
equalities; eliminating them by substitution first keeps the (worst-
case exponential) Fourier–Motzkin step tiny.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.prover.terms import ARITH_FNS, TApp, TInt, Term

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Explanation tags carried by constraints (opaque; the Nelson–Oppen
#: layer uses frozensets of input literals).  Every derived constraint
#: unions the tags of its parents — Farkas-style provenance — so an
#: infeasibility can name the input constraints responsible.
Tags = FrozenSet
_NO_TAGS: Tags = frozenset()


class NotLinear(Exception):
    """A term is not linear in its opaque atoms (shouldn't happen; true
    nonlinear products are opaque atoms by construction)."""


def linearize(t: Term) -> Tuple[Dict[Term, Fraction], Fraction]:
    """Decompose a term into (coefficients over opaque atoms, constant).

    ``+``/``-`` are interpreted; ``*`` is interpreted when at least one
    side is a numeric constant, otherwise the whole product is an opaque
    atom (handled by the sign-lemma module)."""
    if isinstance(t, TInt):
        return {}, Fraction(t.value)
    if isinstance(t, TApp) and t.fname in ARITH_FNS:
        if t.fname == "+":
            coeffs: Dict[Term, Fraction] = {}
            const = _ZERO
            for a in t.args:
                c2, k2 = linearize(a)
                _accumulate(coeffs, c2, _ONE)
                const += k2
            return coeffs, const
        if t.fname == "-":
            if len(t.args) == 1:
                c, k = linearize(t.args[0])
                return {v: -f for v, f in c.items()}, -k
            c1, k1 = linearize(t.args[0])
            c2, k2 = linearize(t.args[1])
            _accumulate(c1, c2, -_ONE)
            return c1, k1 - k2
        if t.fname == "*":
            c1, k1 = linearize(t.args[0])
            c2, k2 = linearize(t.args[1])
            if not c1:  # constant * linear
                return {v: f * k1 for v, f in c2.items()}, k1 * k2
            if not c2:
                return {v: f * k2 for v, f in c1.items()}, k1 * k2
            # Nonlinear: opaque atom.
            return {t: _ONE}, _ZERO
    # Opaque atom (uninterpreted application, variable-like).
    return {t: _ONE}, _ZERO


def _accumulate(
    into: Dict[Term, Fraction], other: Dict[Term, Fraction], factor: Fraction
) -> None:
    for v, f in other.items():
        new = into.get(v, _ZERO) + factor * f
        if new == 0:
            into.pop(v, None)
        else:
            into[v] = new


class Constraint:
    """``expr (op) 0`` where op is '=', '<=' or '<'."""

    __slots__ = ("coeffs", "const", "op", "tags")

    def __init__(
        self,
        coeffs: Dict[Term, Fraction],
        const: Fraction,
        op: str,
        tags: Tags = _NO_TAGS,
    ):
        self.coeffs = {v: f for v, f in coeffs.items() if f != 0}
        self.const = const
        self.op = op
        self.tags = tags

    def tightened(self) -> "Constraint":
        """Integer tightening.

        * ``expr < 0`` with integral coefficients becomes ``expr <= -1``;
        * a common coefficient divisor g lets the bound round down:
          ``g·(c·x) <= b`` becomes ``c·x <= floor(b/g)``;
        * an equality whose coefficient gcd does not divide the constant
          is infeasible outright (e.g. ``2x = 1``).
        """
        import math

        c = self
        integral = all(
            f.denominator == 1 for f in c.coeffs.values()
        ) and c.const.denominator == 1
        if not integral or not c.coeffs:
            return c
        if c.op == "<":
            c = Constraint(c.coeffs, c.const + 1, "<=", c.tags)
        g = 0
        for f in c.coeffs.values():
            g = math.gcd(g, abs(int(f)))
        if g > 1:
            if c.op == "=":
                if int(c.const) % g != 0:  # infeasible
                    return Constraint({}, Fraction(1), "=", c.tags)
                return Constraint(
                    {v: f / g for v, f in c.coeffs.items()},
                    c.const / g, "=", c.tags,
                )
            # coeffs·x <= -const  ==>  (coeffs/g)·x <= floor(-const/g)
            bound = -c.const
            new_bound = Fraction(int(bound) // g)
            return Constraint(
                {v: f / g for v, f in c.coeffs.items()}, -new_bound, c.op,
                c.tags,
            )
        return c

    def is_trivial_true(self) -> bool:
        if self.coeffs:
            return False
        if self.op == "=":
            return self.const == 0
        return self.const < 0 if self.op == "<" else self.const <= 0

    def is_trivial_false(self) -> bool:
        return not self.coeffs and not self.is_trivial_true()

    def substitute(
        self,
        var: Term,
        solution: "Tuple[Dict[Term, Fraction], Fraction, Tags]",
    ) -> "Constraint":
        """Replace ``var`` by the linear expression ``solution``; the
        result inherits the tags of the defining equality."""
        factor = self.coeffs.get(var)
        if factor is None or factor == 0:
            return self
        sol_coeffs, sol_const, sol_tags = solution
        coeffs = dict(self.coeffs)
        del coeffs[var]
        _accumulate(coeffs, sol_coeffs, factor)
        return Constraint(
            coeffs, self.const + factor * sol_const, self.op,
            self.tags | sol_tags,
        )

    def __repr__(self) -> str:
        parts = [f"{f}*{v}" for v, f in self.coeffs.items()]
        return f"{' + '.join(parts) or '0'} + {self.const} {self.op} 0"


def make_le(
    left: Term, right: Term, strict: bool, tags: Tags = _NO_TAGS
) -> Constraint:
    """Build ``left <= right`` / ``left < right`` as a Constraint."""
    lc, lk = linearize(left)
    rc, rk = linearize(right)
    _accumulate(lc, rc, -_ONE)
    return Constraint(lc, lk - rk, "<" if strict else "<=", tags).tightened()


def make_eq(left: Term, right: Term, tags: Tags = _NO_TAGS) -> List[Constraint]:
    lc, lk = linearize(left)
    rc, rk = linearize(right)
    _accumulate(lc, rc, -_ONE)
    return [Constraint(lc, lk - rk, "=", tags).tightened()]


def satisfiable(constraints: List[Constraint], limit: int = 4000) -> bool:
    """Rational satisfiability with integer tightening.

    Equalities are removed by Gaussian substitution; Fourier–Motzkin
    decides the residual inequalities.  ``limit`` caps derived
    constraints — exceeding it returns True (unknown-sat), which only
    ever makes the prover *less* willing to claim a proof.

    Calls are timed into ``prover.linarith_ms`` when profiling is on
    (including the pair of calls behind every ``entails_eq`` probe)."""
    return explain_unsat(constraints, limit) is None


def explain_unsat(
    constraints: List[Constraint], limit: int = 4000
) -> Optional[Tags]:
    """Like :func:`satisfiable`, but an infeasible system answers with
    the union of tags of the constraints its refutation combined
    (``None`` means satisfiable / unknown-sat).  Same decision
    procedure, so the verdict always agrees with :func:`satisfiable`."""
    if not obs.enabled():
        return _solve(constraints, limit)
    obs.incr("prover.linarith_calls")
    with obs.timer("prover.linarith_ms"):
        return _solve(constraints, limit)


def _solve(constraints: List[Constraint], limit: int = 4000) -> Optional[Tags]:
    eqs = [c for c in constraints if c.op == "="]
    ineqs = [c for c in constraints if c.op != "="]

    # --- Gaussian elimination of equalities.  Substituting out a
    # variable with a ±1 coefficient is exact over the integers; other
    # pivots lose integrality (substituting q out of m = 2q erases the
    # parity constraint on m), so unit pivots are taken first.
    while eqs:
        index = next(
            (
                i
                for i, c in enumerate(eqs)
                if any(abs(f) == 1 for f in c.coeffs.values())
            ),
            len(eqs) - 1,
        )
        eq = eqs.pop(index).tightened()
        if eq.is_trivial_false():
            return eq.tags
        if not eq.coeffs:
            continue
        var, coeff = min(
            eq.coeffs.items(), key=lambda item: (abs(item[1]) != 1, repr(item[0]))
        )
        # var = (-const - rest) / coeff
        sol_coeffs = {
            v: -f / coeff for v, f in eq.coeffs.items() if v != var
        }
        sol_const = -eq.const / coeff
        solution = (sol_coeffs, sol_const, eq.tags)
        eqs = [c.substitute(var, solution) for c in eqs]
        new_ineqs = []
        for c in ineqs:
            c2 = c.substitute(var, solution).tightened()
            if c2.is_trivial_false():
                return c2.tags
            if not c2.is_trivial_true():
                new_ineqs.append(c2)
        ineqs = new_ineqs

    # --- Fourier–Motzkin on the inequalities.
    work = [c for c in ineqs if not c.is_trivial_true()]
    for c in work:
        if c.is_trivial_false():
            return c.tags
    while True:
        ups: Dict[Term, int] = {}
        downs: Dict[Term, int] = {}
        for c in work:
            for v, f in c.coeffs.items():
                if f > 0:
                    ups[v] = ups.get(v, 0) + 1
                else:
                    downs[v] = downs.get(v, 0) + 1
        # First-seen order, not a set's: ``min`` keeps the first of equal
        # costs, and set order would follow PYTHONHASHSEED.
        variables = list(dict.fromkeys([*ups, *downs]))
        if not variables:
            return None
        # Choose the variable with the fewest pairings to limit blowup.
        var = min(variables, key=lambda v: ups.get(v, 0) * downs.get(v, 0))
        uppers = [c for c in work if c.coeffs.get(var, _ZERO) > 0]
        lowers = [c for c in work if c.coeffs.get(var, _ZERO) < 0]
        rest = [c for c in work if var not in c.coeffs]
        derived: List[Constraint] = []
        for up in uppers:
            for low in lowers:
                cu = up.coeffs[var]
                cl = -low.coeffs[var]
                coeffs: Dict[Term, Fraction] = {}
                _accumulate(coeffs, up.coeffs, cl)
                _accumulate(coeffs, low.coeffs, cu)
                coeffs.pop(var, None)
                const = up.const * cl + low.const * cu
                op = "<" if (up.op == "<" or low.op == "<") else "<="
                combo = Constraint(coeffs, const, op, up.tags | low.tags)
                combo = combo.tightened()
                if combo.is_trivial_false():
                    return combo.tags
                if not combo.is_trivial_true():
                    derived.append(combo)
        work = rest + derived
        if len(work) > limit:
            return None  # give up: report satisfiable (no proof claimed)


def entails_eq(constraints: List[Constraint], a: Term, b: Term) -> bool:
    """Do the constraints force ``a = b``?  True iff both strict orders
    are inconsistent with them."""
    lt = make_le(a, b, strict=True)
    gt = make_le(b, a, strict=True)
    return not satisfiable(constraints + [lt]) and not satisfiable(
        constraints + [gt]
    )


def entails_eq_core(
    constraints: List[Constraint], a: Term, b: Term
) -> Optional[Tags]:
    """Explaining variant of :func:`entails_eq`: when the constraints
    force ``a = b``, answer with the union of tags of the constraints
    both refutations used (the probe constraints carry no tags)."""
    lt_core = explain_unsat(constraints + [make_le(a, b, strict=True)])
    if lt_core is None:
        return None
    gt_core = explain_unsat(constraints + [make_le(b, a, strict=True)])
    if gt_core is None:
        return None
    return lt_core | gt_core
