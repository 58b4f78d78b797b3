"""The prover driver: lazy SMT with quantifier instantiation rounds.

``Prover.prove(goal)`` asserts the axioms and the negated goal, then
alternates:

* a DPLL search for a boolean model, with theory conflicts (from the
  Nelson–Oppen core) learned as clauses — until UNSAT (goal proved) or
  a theory-consistent model is found;
* an E-matching round instantiating every quantifier atom against the
  ground-term pool, plus fresh sign lemmas for any nonlinear product
  terms that appeared.

If a round adds nothing new and a model still exists, the result is
"not proven" — exactly Simplify's behaviour on invalid or too-hard
obligations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.harness.watchdog import NO_RETRY, Deadline, DeadlineExceeded, RetryPolicy
from repro.prover import combine, sat
from repro.prover.cnf import ClauseDb, QuantAtom, assert_formula, encode, nnf, skolemize
from repro.prover.quant import ground_pool, instantiate
from repro.prover.terms import (
    And,
    Eq,
    Formula,
    Implies,
    Int,
    Le,
    Lt,
    Not,
    Or,
    Pr,
    TApp,
    TInt,
    Term,
    fn,
    subterms,
)


#: Outcome taxonomy (``ProofResult.verdict``):
#: * ``PROVED`` — the negated goal is unsatisfiable: the obligation holds.
#: * ``REFUTED`` — instantiation saturated and a theory-consistent
#:   candidate countermodel remains: the rules genuinely fail to
#:   exclude a scenario (Simplify's "invalid").
#: * ``TIMEOUT`` — the wall-clock deadline fired mid-search; more time
#:   might settle it either way.
#: * ``GAVE_UP`` — a search budget (conflicts, instantiation rounds)
#:   ran out before saturation; a bigger budget may help, so this is
#:   the verdict the retry policy escalates on.
PROVED = "PROVED"
REFUTED = "REFUTED"
TIMEOUT = "TIMEOUT"
GAVE_UP = "GAVE_UP"


@dataclass
class ProofResult:
    proved: bool
    rounds: int = 0
    instances: int = 0
    conflicts: int = 0
    elapsed: float = 0.0
    reason: str = ""
    verdict: str = GAVE_UP
    attempts: int = 1
    # True when this result was replayed from the proof cache rather
    # than searched for; rounds/instances/conflicts/attempts then
    # describe the original (cold) proof, elapsed the cache lookup.
    cached: bool = False
    # For NOT PROVEN: the theory literals of the final candidate
    # countermodel (a consistent scenario the rules fail to exclude).
    countermodel: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.proved

    def __str__(self) -> str:
        status = "PROVED" if self.proved else f"NOT PROVEN [{self.verdict}]"
        retried = f", attempts={self.attempts}" if self.attempts > 1 else ""
        origin = ", cached" if self.cached else ""
        return (
            f"{status} (rounds={self.rounds}, instances={self.instances}, "
            f"theory conflicts={self.conflicts}, {self.elapsed * 1000:.1f} ms{retried}{origin})"
            + (f": {self.reason}" if self.reason else "")
        )

    def to_cache_payload(self) -> Dict:
        """The JSON-safe slice of this result worth replaying later."""
        return {
            "proved": self.proved,
            "rounds": self.rounds,
            "instances": self.instances,
            "conflicts": self.conflicts,
            "elapsed": self.elapsed,
            "reason": self.reason,
            "verdict": self.verdict,
            "attempts": self.attempts,
            "countermodel": list(self.countermodel),
        }

    @classmethod
    def from_cache_payload(cls, payload: Dict, elapsed: float = 0.0) -> "ProofResult":
        return cls(
            proved=bool(payload.get("proved")),
            rounds=int(payload.get("rounds", 0)),
            instances=int(payload.get("instances", 0)),
            conflicts=int(payload.get("conflicts", 0)),
            elapsed=elapsed,
            reason=str(payload.get("reason", "")),
            verdict=str(payload.get("verdict", GAVE_UP)),
            attempts=int(payload.get("attempts", 1)),
            cached=True,
            countermodel=[str(f) for f in payload.get("countermodel", ())],
        )


class Prover:
    """A reusable prover instance holding a set of axioms."""

    def __init__(
        self,
        max_rounds: int = 6,
        max_conflicts: int = 4000,
        time_limit: float = 60.0,
        explain: bool = True,
    ):
        self.axioms: List[Formula] = []
        self.max_rounds = max_rounds
        self.max_conflicts = max_conflicts
        self.time_limit = time_limit
        # Explained conflict cores (proof-forest EUF + incremental
        # theory state per goal); False falls back to the search-based
        # ddmin minimizer — same verdicts, slower cores (the
        # ``--no-explain`` ablation).
        self.explain = explain
        self._theory_state: Optional[combine.TheoryState] = None
        # Optional derive_triggers memo shared across prove calls; a
        # plain Prover leaves it off (None).
        self.trigger_cache = None

    def add_axiom(self, axiom: Formula) -> None:
        self.axioms.append(axiom)

    def add_axioms(self, axioms) -> None:
        self.axioms.extend(axioms)

    # ------------------------------------------------------- session hooks
    #
    # ProverSession subclasses Prover and overrides these to reuse
    # encoded axioms, canonical goal skolems, and learned theory
    # conflicts across obligations.  The defaults reproduce the
    # stand-alone prover exactly.

    def _base_db(self) -> ClauseDb:
        """Clause database with the axioms asserted."""
        db = ClauseDb()
        for ax in self.axioms:
            assert_formula(db, ax)
        return db

    def _assert(self, db: ClauseDb, f: Formula) -> None:
        """Assert a goal-side formula (extra axiom or negated goal)."""
        assert_formula(db, f)

    def _begin_goal(self) -> None:
        """Called once at the start of every uncached prove call."""
        self._theory_state = combine.TheoryState() if self.explain else None

    def _theory_check(self, theory_lits, deadline: Deadline):
        """Nelson–Oppen consistency check; returns a conflict or None."""
        return combine.check(
            theory_lits, deadline=deadline.at, state=self._theory_state
        )

    def _note_conflict(self, conflict) -> None:
        """Observe a learned theory conflict ((atom, polarity) pairs)."""

    def _seed_learned(self, db: ClauseDb) -> None:
        """Inject previously learned clauses before a SAT search."""

    def _spawn(
        self, max_rounds: int, max_conflicts: int, time_limit: float
    ) -> "Prover":
        """A prover for one retry attempt, sharing this one's axioms
        (and, in a session, its learned state)."""
        attempt = Prover(
            max_rounds=max_rounds,
            max_conflicts=max_conflicts,
            time_limit=time_limit,
            explain=self.explain,
        )
        attempt.axioms = self.axioms
        return attempt

    # ----------------------------------------------------------------- prove

    def prove(
        self,
        goal: Formula,
        extra_axioms: List[Formula] = (),
        deadline: Optional[Deadline] = None,
        cache=None,
        cache_context: str = "",
    ) -> ProofResult:
        """Attempt the goal once within ``self.time_limit`` (further
        capped by ``deadline`` when one is supplied).  The deadline is
        threaded into *every* loop — DPLL restarts, theory checks, and
        each E-matching pass inside an instantiation round — so a hard
        obligation cannot overshoot its budget by a whole round.

        ``cache`` (a :class:`repro.cache.ProofCache`, duck-typed so the
        prover stays dependency-free) is consulted before any search
        work and updated afterwards with settled verdicts;
        ``cache_context`` is folded into the cache's environment key
        (the soundness checker passes the qualifier definition text).
        """
        start = time.perf_counter()
        cache_key = None
        if cache is not None:
            cache_key = cache.key(
                goal, self.axioms, extra_axioms, context=cache_context
            )
            payload = cache.get(cache_key)
            if payload is not None:
                return ProofResult.from_cache_payload(
                    payload, elapsed=time.perf_counter() - start
                )
        with obs.span("prover.prove"):
            result = self._prove_uncached(goal, extra_axioms, deadline, start)
        if obs.enabled():
            obs.incr("prover.calls")
            obs.add_time("prover.proofs_ms", result.elapsed * 1000.0)
            obs.incr(f"prover.verdicts.{result.verdict}")
            obs.incr("prover.conflicts", result.conflicts)
            obs.incr("prover.instances", result.instances)
        return _record(cache, cache_key, result)

    def _prove_uncached(
        self,
        goal: Formula,
        extra_axioms: List[Formula],
        deadline: Optional[Deadline],
        start: float,
    ) -> ProofResult:
        deadline = (deadline or Deadline(None)).tightened(self.time_limit)
        self._begin_goal()
        db = self._base_db()
        for ax in extra_axioms:
            self._assert(db, ax)
        self._assert(db, Not(goal))

        instantiated: Dict[int, Set[Tuple[Term, ...]]] = {}
        lemma_products = {
            "done": set(),
            "products": [],
            "moduli": set(),
            "pairs": set(),
        }
        result = ProofResult(proved=False)

        last_model = None
        try:
            for round_no in range(self.max_rounds + 1):
                result.rounds = round_no
                self._add_product_lemmas(db, lemma_products)
                self._seed_learned(db)
                model = self._smt_search(db, result, deadline)
                if model is None:
                    result.proved = True
                    result.verdict = PROVED
                    result.elapsed = time.perf_counter() - start
                    return result
                if model == "budget":
                    result.reason = "search budget exhausted"
                    result.verdict = GAVE_UP
                    break
                if model == "timeout":
                    result.reason = "time limit"
                    result.verdict = TIMEOUT
                    break
                last_model = model
                # Theory-consistent boolean model: instantiate and retry.
                obs.incr("prover.ematch_rounds")
                with obs.timer("prover.quant_ms"):
                    added = self._instantiation_round(
                        db, instantiated, result, deadline
                    )
                if not added:
                    result.reason = "no further instances (candidate countermodel)"
                    result.verdict = REFUTED
                    break
                deadline.check()
            else:
                result.reason = "instantiation round limit"
                result.verdict = GAVE_UP
        except DeadlineExceeded:
            result.reason = "time limit"
            result.verdict = TIMEOUT
        if last_model is not None:
            result.countermodel = _describe_model(db, last_model)
        result.elapsed = time.perf_counter() - start
        return result

    def prove_with_retry(
        self,
        goal: Formula,
        extra_axioms: List[Formula] = (),
        retry: RetryPolicy = NO_RETRY,
        deadline: Optional[Deadline] = None,
        cache=None,
        cache_context: str = "",
    ) -> ProofResult:
        """Like :meth:`prove`, but ``GAVE_UP`` outcomes are retried with
        escalating conflict/round budgets and exponential backoff, as
        long as the governing deadline can fund another attempt.
        ``TIMEOUT`` is never retried (more wall-clock is exactly what
        the unit does not have), and ``REFUTED`` is final: saturation
        found a stable countermodel that a bigger budget cannot remove.

        The cache is consulted exactly once, before the first attempt
        (a hit costs no prover work at all), and the final settled
        verdict — whatever attempt produced it — is stored back.
        """
        cache_key = None
        if cache is not None:
            probe_start = time.perf_counter()
            cache_key = cache.key(
                goal, self.axioms, extra_axioms, context=cache_context
            )
            payload = cache.get(cache_key)
            if payload is not None:
                return ProofResult.from_cache_payload(
                    payload, elapsed=time.perf_counter() - probe_start
                )
        deadline = (deadline or Deadline(None)).tightened(self.time_limit)
        result: Optional[ProofResult] = None
        attempts = 0
        for attempt in retry.attempts(deadline):
            attempts = attempt
            # The first attempt runs the budgets exactly as given (0
            # rounds means no instantiation at all); retries scale them.
            scale = retry.budget_scale(attempt)
            attempt_prover = self._spawn(
                max_rounds=int(self.max_rounds * scale),
                max_conflicts=int(self.max_conflicts * scale),
                time_limit=deadline.remaining(),
            )
            result = attempt_prover.prove(goal, extra_axioms, deadline=deadline)
            result.attempts = attempts
            if result.verdict != GAVE_UP or deadline.expired():
                return _record(cache, cache_key, result)
        if result is None:  # deadline could not fund even one attempt
            result = ProofResult(
                proved=False, reason="time limit", verdict=TIMEOUT
            )
        result.attempts = max(attempts, result.attempts)
        return _record(cache, cache_key, result)

    # -------------------------------------------------------------- internals

    def _smt_search(self, db: ClauseDb, result: ProofResult, deadline: Deadline):
        while True:
            model = sat.solve(db.clauses, db.num_vars)
            if model is None:
                return None
            theory_lits = [
                (atom, model[var])
                for var, atom in db.theory_atoms()
                if var in model
            ]
            conflict = self._theory_check(theory_lits, deadline)
            if conflict is None:
                return model
            result.conflicts += 1
            db.learn_theory_conflict(conflict)
            self._note_conflict(conflict)
            if result.conflicts > self.max_conflicts:
                return "budget"
            if deadline.expired():
                return "timeout"

    def _instantiation_round(
        self,
        db: ClauseDb,
        instantiated: Dict[int, Set[Tuple[Term, ...]]],
        result: ProofResult,
        deadline: Deadline,
    ) -> bool:
        atoms = [a for _, a in db.theory_atoms()]
        pool = ground_pool(atoms)
        added = False
        # Snapshot: instances added this round may create new quant atoms
        # (nested foralls); they instantiate next round.  The deadline is
        # threaded into the E-matching loops themselves: a round over a
        # large pool aborts mid-match (DeadlineExceeded) rather than
        # only noticing the limit once the whole round has run.
        for var, qatom in list(db.quant_atoms()):
            deadline.check("instantiation round")
            seen = instantiated.setdefault(var, set())
            for _args, body in instantiate(
                qatom, pool, seen, deadline=deadline,
                trigger_cache=self.trigger_cache,
            ):
                lit = encode(db, body)
                db.add_clause([-var, lit])
                result.instances += 1
                added = True
        return added

    def _add_product_lemmas(self, db: ClauseDb, state: Dict) -> None:
        """Arithmetic lemmas for terms the linear solver treats as
        opaque: sign/zero lemmas for nonlinear products (Simplify had
        comparable multiplication heuristics) and Euclidean division
        lemmas for ``%``/``/`` with a positive constant divisor."""
        done: Set[Term] = state["done"]
        products: List[TApp] = []
        mods: List[TApp] = []
        for _, atom in db.theory_atoms():
            for t in _atom_terms(atom):
                for s in subterms(t):
                    if not isinstance(s, TApp) or len(s.args) != 2 or s in done:
                        continue
                    if (
                        s.fname == "*"
                        and not isinstance(s.args[0], TInt)
                        and not isinstance(s.args[1], TInt)
                    ):
                        done.add(s)
                        products.append(s)
                        state["products"].append(s)
                    elif (
                        s.fname == "%"
                        and isinstance(s.args[1], TInt)
                        and s.args[1].value > 0
                    ):
                        done.add(s)
                        mods.append(s)
                        state["moduli"].add(s.args[1])
        zero = Int(0)
        for m in mods:
            x, k = m.args
            quotient = fn("/", x, k)
            # C's truncating division satisfies x == (x/k)*k + x%k for
            # every x, with |x%k| < k and x%k carrying x's sign.
            assert_formula(db, Eq(x, fn("+", fn("*", k, quotient), m)))
            assert_formula(db, Lt(m, k))
            assert_formula(db, Lt(fn("-", zero, k), m))
            assert_formula(db, Implies(Le(zero, x), Le(zero, m)))
            assert_formula(db, Implies(Le(x, zero), Le(m, zero)))
        # Divisibility transfers through products: k | a implies
        # k | a*b (exact divisibility, valid for C's truncated %).
        # Stated for every (product, modulus) pair seen so far;
        # congruence closure connects mod(p, k) with mod(e, k) when e is
        # known equal to p.
        for p in state["products"]:
            for k in sorted(state["moduli"], key=repr):
                if (p, k) in state["pairs"]:
                    continue
                state["pairs"].add((p, k))
                for factor in p.args:
                    assert_formula(
                        db,
                        Implies(
                            Eq(fn("%", factor, k), zero),
                            Eq(fn("%", p, k), zero),
                        ),
                    )
        for p in products:
            a, b = p.args
            for lemma in (
                Implies(And(Lt(zero, a), Lt(zero, b)), Lt(zero, p)),
                Implies(And(Lt(a, zero), Lt(b, zero)), Lt(zero, p)),
                Implies(And(Lt(zero, a), Lt(b, zero)), Lt(p, zero)),
                Implies(And(Lt(a, zero), Lt(zero, b)), Lt(p, zero)),
                Implies(Eq(a, zero), Eq(p, zero)),
                Implies(Eq(b, zero), Eq(p, zero)),
                Implies(Eq(p, zero), Or(Eq(a, zero), Eq(b, zero))),
            ):
                assert_formula(db, lemma)


def _record(cache, cache_key, result: ProofResult) -> ProofResult:
    """Store a settled verdict back into the proof cache.  The cache
    itself refuses budget-dependent verdicts (TIMEOUT/GAVE_UP), so a
    slow run never poisons a later, better-funded one."""
    if cache is not None and cache_key is not None and not result.cached:
        cache.put(cache_key, result.to_cache_payload())
    return result


def _atom_terms(atom):
    if isinstance(atom, (Eq, Le, Lt)):
        return (atom.left, atom.right)
    if isinstance(atom, Pr):
        return atom.args
    return ()


def _describe_model(db: ClauseDb, model) -> List[str]:
    """Human-readable theory literals of a candidate countermodel.

    Every registered theory atom is accounted for: atoms the SAT model
    assigns appear as literals, and atoms the search never constrained
    (e.g. variables introduced only by ``extra`` axioms whose clauses
    simplified away) are still listed — tagged — so a failure artifact
    records a complete binding for every variable in play."""
    lines: List[str] = []
    unconstrained: List[str] = []
    for var, atom in sorted(db.theory_atoms(), key=lambda p: str(p[1])):
        value = model.get(var)
        if value is None:
            unconstrained.append(f"{atom} [unconstrained]")
            continue
        lines.append(str(atom) if value else f"¬({atom})")
    return lines + unconstrained


def prove_valid(
    goal: Formula,
    axioms: List[Formula] = (),
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[Deadline] = None,
    cache=None,
    cache_context: str = "",
    **kwargs,
) -> ProofResult:
    """One-shot validity check: is ``goal`` entailed by ``axioms``?"""
    prover = Prover(**kwargs)
    prover.add_axioms(list(axioms))
    if retry is not None:
        return prover.prove_with_retry(
            goal, retry=retry, deadline=deadline,
            cache=cache, cache_context=cache_context,
        )
    return prover.prove(goal, deadline=deadline, cache=cache, cache_context=cache_context)
