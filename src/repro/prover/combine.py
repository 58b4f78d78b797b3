"""Nelson–Oppen-style combination of congruence closure and linear
arithmetic.

``check(literals, state)`` decides the conjunction of theory literals
produced by the SAT core.  Equalities go to both theories; derived
equalities are exchanged between them until fixpoint (the theories are
convex enough over our obligations for this to be complete in
practice).  Uninterpreted predicates are encoded as equations with
distinguished boolean constants, the standard Simplify trick.

Conflict cores are *explained*: the congruence closure of a
:class:`TheoryState` runs with a proof forest and every constraint
carries provenance tags, so a conflict names the responsible input
literals directly — no re-closure, no search.  The state is also
incremental: literals are pushed as journaled frames and only the
suffix that differs from the previous check is retracted/re-asserted,
so successive checks along a SAT trail share their common prefix.

An explained core is verified once by a cold consistency check
(:func:`_consistent`, which rebuilds the closure) before it is learned.
It is not minimised further: any theory-unsat subset is a sound
clause.  If verification fails, the full literal list is checked cold
instead and learned unminimised when it is inconsistent, so nothing
unverified is ever learned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.prover.euf import CongruenceClosure, EufConflict, Tags
from repro.prover.linarith import (
    Constraint,
    entails_eq_core,
    explain_unsat,
    linearize,
    make_eq,
    make_le,
)
from repro.prover.terms import (
    ARITH_FNS,
    Eq,
    Formula,
    Le,
    Lt,
    Pr,
    TApp,
    Term,
    fn,
    subterms,
)

#: (atom, polarity)
Literal = Tuple[Formula, bool]

_TRUE = fn("@true")
_FALSE = fn("@false")

_NO_TAGS: Tags = frozenset()

#: Cap on pairwise LA->EUF equality propagation (quadratic in shared
#: atoms); beyond this only disequality-relevant pairs are tested.
_PAIR_LIMIT = 14


class _Conflict(Exception):
    def __init__(self, core: Tags = _NO_TAGS):
        super().__init__()
        self.core = core


def check(
    literals: List[Literal], state: "TheoryState"
) -> Optional[List[Literal]]:
    """Return None when the conjunction is theory-consistent, else a
    verified conflicting subset of the literals.

    The check runs incrementally against ``state``'s warm congruence
    closure and the conflict core is read off its proof forest.

    With profiling on, the whole combination check is timed into the
    ``prover.theory_ms`` counter; the linear-arithmetic share is timed
    separately inside :mod:`repro.prover.linarith`, and the EUF share
    is reported as the difference (see docs/observability.md)."""
    if not obs.enabled():
        return state.check(literals)
    obs.incr("prover.theory_checks")
    with obs.timer("prover.theory_ms"):
        return state.check(literals)


# --------------------------------------------------------- cold check


def _consistent(literals: List[Literal]) -> bool:
    try:
        _check_raw(literals)
        return True
    except (_Conflict, EufConflict):
        return False


def _check_raw(literals: List[Literal]) -> None:
    cc = CongruenceClosure()
    cc.assert_neq(_TRUE, _FALSE)
    constraints: List[Constraint] = []
    diseq_pairs: List[Tuple[Term, Term]] = []
    relevant = _arith_relevant_atoms(literals)

    for atom, polarity in literals:
        if isinstance(atom, Eq):
            cc.add_term(atom.left)
            cc.add_term(atom.right)
            if polarity:
                cc.assert_eq(atom.left, atom.right)
                # Purification: equalities between terms the arithmetic
                # never constrains stay in the EUF world only; feeding
                # them all to Fourier–Motzkin drowns it.
                if _touches(relevant, atom.left, atom.right):
                    constraints.extend(make_eq(atom.left, atom.right))
            else:
                cc.assert_neq(atom.left, atom.right)
                diseq_pairs.append((atom.left, atom.right))
        elif isinstance(atom, Le):
            cc.add_term(atom.left)
            cc.add_term(atom.right)
            if polarity:
                constraints.append(make_le(atom.left, atom.right, strict=False))
            else:
                constraints.append(make_le(atom.right, atom.left, strict=True))
        elif isinstance(atom, Lt):
            cc.add_term(atom.left)
            cc.add_term(atom.right)
            if polarity:
                constraints.append(make_le(atom.left, atom.right, strict=True))
            else:
                constraints.append(make_le(atom.right, atom.left, strict=False))
        elif isinstance(atom, Pr):
            app = fn(f"@p_{atom.name}", *atom.args)
            cc.assert_eq(app, _TRUE if polarity else _FALSE)
        else:  # pragma: no cover - the CNF layer only produces atoms
            raise TypeError(f"not an atom: {atom!r}")

    _propagate(cc, constraints, diseq_pairs)


# -------------------------------------------------------- incremental path


class TheoryState:
    """Push/pop theory solver state with explanation-producing cores.

    One explain-mode congruence closure plus a tagged constraint list,
    mirrored by a stack of *frames* — one per asserted input literal,
    each remembering the trail mark and constraint count it started at
    so it can be retracted exactly.  ``check`` diffs the incoming
    literal list against the stack, pops the divergent suffix, pushes
    the new literals, and runs Nelson–Oppen propagation in a scratch
    frame that is always popped afterwards (so the persistent state is
    exactly the asserted literals).  A :class:`~repro.prover.session`
    keeps one instance warm across obligations sharing an environment,
    which is where the prefix reuse pays off most: canonical goal
    skolems make successive obligations' literal lists near-identical.
    """

    def __init__(self) -> None:
        self.cc = CongruenceClosure(explain=True)
        self.cc.assert_neq(_TRUE, _FALSE)  # axiom: carries no tags
        self.constraints: List[Constraint] = []
        self.diseq_pairs: List[Tuple[Term, Term]] = []
        # frames[i] = (literal, fed_la, cc_mark, n_constraints, n_diseqs)
        self.frames: List[Tuple] = []

    # Public push/pop face (the SMT loop's assert/retract protocol).

    def push(self, literal: Literal, fed_la: Optional[bool] = None) -> None:
        """Assert one literal as a retractable frame.  ``fed_la``
        overrides the purification decision (by default it is computed
        against the currently asserted literals plus this one)."""
        if fed_la is None:
            lits = [f[0] for f in self.frames] + [literal]
            relevant = _arith_relevant_atoms(lits)
            fed_la = self._feeds_la(literal, relevant)
        self._push_frame(literal, fed_la)

    def pop(self, count: int = 1) -> None:
        """Retract the ``count`` most recent frames."""
        self.rewind(len(self.frames) - count)

    @property
    def depth(self) -> int:
        return len(self.frames)

    def rewind(self, keep: int) -> None:
        """Retract frames until only the first ``keep`` remain."""
        frames = self.frames
        if keep < 0 or keep > len(frames):
            raise IndexError(f"rewind to {keep} of {len(frames)} frames")
        if keep == len(frames):
            return
        _lit, _fed, cc_mark, n_con, n_dis = frames[keep]
        self.cc.pop_to(cc_mark)
        del self.constraints[n_con:]
        del self.diseq_pairs[n_dis:]
        del frames[keep:]

    # The full check: diff, retract, assert, propagate, explain.

    def check(self, literals: List[Literal]) -> Optional[List[Literal]]:
        relevant = _arith_relevant_atoms(literals)
        desired = [
            (lit, self._feeds_la(lit, relevant)) for lit in literals
        ]
        # Longest reusable prefix: a frame survives only if both the
        # literal and its purification decision are unchanged (the
        # latter depends on the whole literal list, so it can flip for
        # an unchanged literal).
        frames = self.frames
        keep = 0
        limit = min(len(frames), len(desired))
        while (
            keep < limit
            and frames[keep][0] == desired[keep][0]
            and frames[keep][1] == desired[keep][1]
        ):
            keep += 1
        obs.incr("prover.theory_frames_reused", keep)
        obs.incr("prover.theory_frames_pushed", len(desired) - keep)
        self.rewind(keep)

        core: Optional[Tags] = None
        for lit, fed in desired[keep:]:
            try:
                self._push_frame(lit, fed)
            except EufConflict as exc:
                core = exc.core if exc.core is not None else _NO_TAGS
                break
        if core is None:
            core = self._propagate_scratch()
        if core is None:
            return None
        return self._finish_core(core, literals)

    # ------------------------------------------------------------ internals

    @staticmethod
    def _feeds_la(literal: Literal, relevant: Set[Term]) -> bool:
        atom, polarity = literal
        return (
            polarity
            and isinstance(atom, Eq)
            and _touches(relevant, atom.left, atom.right)
        )

    def _push_frame(self, lit: Literal, fed: bool) -> None:
        cc = self.cc
        cc_mark = cc.mark
        n_con = len(self.constraints)
        n_dis = len(self.diseq_pairs)
        try:
            self._assert_literal(lit, fed)
        except EufConflict:
            # Roll back the partial frame so the stack stays a prefix
            # of successfully asserted literals.
            cc.pop_to(cc_mark)
            del self.constraints[n_con:]
            del self.diseq_pairs[n_dis:]
            raise
        self.frames.append((lit, fed, cc_mark, n_con, n_dis))

    def _assert_literal(self, lit: Literal, fed: bool) -> None:
        atom, polarity = lit
        tags = frozenset((lit,))
        cc = self.cc
        if isinstance(atom, Eq):
            cc.add_term(atom.left)
            cc.add_term(atom.right)
            if polarity:
                cc.assert_eq(atom.left, atom.right, tags=tags)
                if fed:
                    self.constraints.extend(
                        make_eq(atom.left, atom.right, tags=tags)
                    )
            else:
                cc.assert_neq(atom.left, atom.right, tags=tags)
                self.diseq_pairs.append((atom.left, atom.right))
        elif isinstance(atom, Le):
            cc.add_term(atom.left)
            cc.add_term(atom.right)
            if polarity:
                self.constraints.append(
                    make_le(atom.left, atom.right, strict=False, tags=tags)
                )
            else:
                self.constraints.append(
                    make_le(atom.right, atom.left, strict=True, tags=tags)
                )
        elif isinstance(atom, Lt):
            cc.add_term(atom.left)
            cc.add_term(atom.right)
            if polarity:
                self.constraints.append(
                    make_le(atom.left, atom.right, strict=True, tags=tags)
                )
            else:
                self.constraints.append(
                    make_le(atom.right, atom.left, strict=False, tags=tags)
                )
        elif isinstance(atom, Pr):
            app = fn(f"@p_{atom.name}", *atom.args)
            cc.assert_eq(app, _TRUE if polarity else _FALSE, tags=tags)
        else:  # pragma: no cover - the CNF layer only produces atoms
            raise TypeError(f"not an atom: {atom!r}")

    def _propagate_scratch(self) -> Optional[Tags]:
        """Run Nelson–Oppen propagation in a frame that is popped
        whether it conflicts or not, so derived facts never outlive the
        check that produced them."""
        cc = self.cc
        cc_mark = cc.mark
        n_con = len(self.constraints)
        n_dis = len(self.diseq_pairs)
        try:
            _propagate(cc, self.constraints, self.diseq_pairs)
            return None
        except _Conflict as exc:
            return exc.core
        except EufConflict as exc:
            return exc.core if exc.core is not None else _NO_TAGS
        finally:
            cc.pop_to(cc_mark)
            del self.constraints[n_con:]
            del self.diseq_pairs[n_dis:]

    def _finish_core(
        self, core: Tags, literals: List[Literal]
    ) -> Optional[List[Literal]]:
        """Order an explained core by input position and verify it
        (timed as ``prover.explain_ms``)."""
        if not obs.enabled():
            return self._finish_core_raw(core, literals)
        with obs.timer("prover.explain_ms"):
            return self._finish_core_raw(core, literals)

    def _finish_core_raw(
        self, core: Tags, literals: List[Literal]
    ) -> Optional[List[Literal]]:
        index_of = {lit: i for i, lit in enumerate(literals)}
        core_list = sorted(
            (lit for lit in core if lit in index_of),
            key=index_of.__getitem__,
        )
        if not core_list or _consistent(core_list):
            # Safety net: a core that does not check out as a genuine
            # conflict must never be learned (an unsound clause could
            # flip verdicts).  Decide the full list cold instead: when
            # it is inconsistent it is itself a sound clause.
            obs.incr("prover.explain_fallbacks")
            if _consistent(literals):
                return None
            core_list = list(literals)
        obs.incr("prover.cores")
        return core_list


# ------------------------------------------------------------- propagation


def _arith_relevant_atoms(literals: List[Literal]) -> Set[Term]:
    """Opaque atoms the arithmetic theory genuinely constrains: those
    under inequality literals or inside interpreted (+,-,*) contexts,
    closed over asserted equalities."""
    relevant: Set[Term] = set()

    def mark(term: Term) -> None:
        coeffs, const = linearize(term)
        relevant.update(coeffs)

    # Seeds: inequality literals and interpreted-arithmetic contexts.
    # Note (dis)equalities with integer literals are NOT seeds: the EUF
    # side decides those exactly (distinct integers are distinct), and
    # seeding them would cascade relevance through the whole E-graph.
    for atom, _polarity in literals:
        if isinstance(atom, (Le, Lt)):
            mark(atom.left)
            mark(atom.right)
        elif isinstance(atom, Eq):
            for side in (atom.left, atom.right):
                for t in subterms(side):
                    if isinstance(t, TApp) and t.fname in ARITH_FNS:
                        mark(t)

    # Close over equalities: if one side is relevant, both are.
    eqs = [a for a, pol in literals if pol and isinstance(a, Eq)]
    changed = True
    while changed:
        changed = False
        for eq in eqs:
            left_in = _touches(relevant, eq.left)
            right_in = _touches(relevant, eq.right)
            if left_in != right_in:
                mark(eq.left)
                mark(eq.right)
                changed = True
    return relevant


def _touches(relevant: Set[Term], *terms: Term) -> bool:
    for t in terms:
        coeffs, _const = linearize(t)
        if any(v in relevant for v in coeffs):
            return True
        if not coeffs:  # a pure constant is always arithmetic
            return True
    return False


def _propagate(
    cc: CongruenceClosure,
    constraints: List[Constraint],
    diseq_pairs: List[Tuple[Term, Term]],
) -> None:
    known_eqs: Set[Tuple[Term, Term]] = set()
    checked_at = -1  # constraint count at the last satisfiability check
    explains = cc.explains
    for _ in range(24):  # fixpoint loop, bounded defensively
        changed = False
        shared = _shared_atoms(constraints)

        # EUF -> LA: congruent shared atoms become arithmetic equalities
        # (tagged, in explain mode, with the literals that merged them).
        # Classes as ``cc.classes()`` orders them, members in term
        # insertion order: the first member is paired with the rest,
        # and a set's order would follow PYTHONHASHSEED.
        classes: Dict[Term, List[Term]] = {}
        for t in cc.terms:
            classes.setdefault(cc.find(t), []).append(t)
        for members in classes.values():
            arith_members = [m for m in members if _arithmetic(m, shared)]
            for i in range(1, len(arith_members)):
                pair = _norm_pair(arith_members[0], arith_members[i])
                if pair not in known_eqs:
                    known_eqs.add(pair)
                    tags = cc.explain(*pair) if explains else _NO_TAGS
                    constraints.extend(make_eq(*pair, tags=tags))
                    changed = True

        if len(constraints) != checked_at:
            conflict_tags = explain_unsat(constraints)
            if conflict_tags is not None:
                raise _Conflict(conflict_tags)
            checked_at = len(constraints)

        # LA -> EUF: arithmetic-forced equalities feed congruence.
        if constraints:
            for a, b in _candidate_pairs(shared, diseq_pairs, cc):
                pair = _norm_pair(a, b)
                if pair in known_eqs or cc.are_equal(a, b):
                    continue
                eq_tags = entails_eq_core(constraints, a, b)
                if eq_tags is not None:
                    # may raise EufConflict via diseqs
                    cc.assert_eq(a, b, tags=eq_tags)
                    known_eqs.add(pair)
                    constraints.extend(make_eq(a, b, tags=eq_tags))
                    changed = True

        if not changed:
            return
    # Fixpoint bound exhausted: treat as consistent (no proof claimed).


def _shared_atoms(constraints: List[Constraint]) -> Set[Term]:
    return {v for c in constraints for v in c.coeffs}


def _arithmetic(term: Term, shared: Set[Term]) -> bool:
    """Can the arithmetic constraints speak about ``term``?  True for
    an atom they mention and for an arithmetic constant: an integer
    literal, or ground arithmetic such as ``0 - 1`` (its linear form
    has no atoms)."""
    return term in shared or not linearize(term)[0]


def _norm_pair(a: Term, b: Term) -> Tuple[Term, Term]:
    return (a, b) if repr(a) <= repr(b) else (b, a)


def _candidate_pairs(
    shared: Set[Term],
    diseq_pairs: List[Tuple[Term, Term]],
    cc: CongruenceClosure,
) -> List[Tuple[Term, Term]]:
    """Pairs worth testing for arithmetic-entailed equality.

    Testing every pair of shared atoms is quadratically many expensive
    Fourier–Motzkin entailment probes; only two kinds of derived
    equalities can advance the proof, so only those are probed:

    * pairs under an asserted disequality (forcing them equal is an
      immediate conflict), and
    * pairs of same-position arguments of same-symbol applications
      (forcing them equal fires a congruence).

    Both terms must actually occur in the arithmetic constraints or be
    arithmetic constants; a term the constraints never mention cannot
    be forced equal to anything.
    """
    pairs: List[Tuple[Term, Term]] = []
    seen: Set[Tuple[Term, Term]] = set()

    def consider(a: Term, b: Term) -> None:
        if a == b:
            return
        if not (_arithmetic(a, shared) and _arithmetic(b, shared)):
            return
        pair = _norm_pair(a, b)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)

    for a, b in diseq_pairs:
        consider(a, b)

    by_fn: Dict[Tuple[str, int], List[TApp]] = {}
    for t in cc.terms:
        if isinstance(t, TApp) and t.args:
            by_fn.setdefault((t.fname, len(t.args)), []).append(t)
    for group in by_fn.values():
        if len(group) > _PAIR_LIMIT:
            group = group[:_PAIR_LIMIT]
        for i, app_a in enumerate(group):
            for app_b in group[i + 1 :]:
                if cc.are_equal(app_a, app_b):
                    continue
                for arg_a, arg_b in zip(app_a.args, app_b.args):
                    if not cc.are_equal(arg_a, arg_b):
                        consider(arg_a, arg_b)
    return pairs
