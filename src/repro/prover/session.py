"""Prover sessions: solver state shared by one qualifier group.

Every obligation of one qualifier is proved against the same *axiom
environment* (axioms + qualifier definition text, digested by
:func:`repro.cache.fingerprint.environment_key`), and the obligation
scheduler proves them together as one group.  A :class:`ProverSession`
lives exactly that long: the scheduler builds one when a group starts
and drops it when the group ends, so no state crosses groups, requests
or workspaces, and a warm or served prove reports what a one-shot prove
does.  Within the group the session keeps:

* the axiom set, NNF'd, skolemized and Tseitin-encoded **once**; each
  obligation starts from a :meth:`ClauseDb.clone` of that base, so axiom
  skolem constants are stable across the group;
* goal-side skolems named **canonically per prove call** (``@sg0_x``,
  ``@sg1_y``, … with the counter reset for every goal), so structurally
  identical subgoals produce identical atoms across obligations;
* theory conflicts learned during one obligation, kept as *cores* (sets
  of theory literals) and seeded as clauses into later obligations —
  but only when every atom of the core already exists in the new
  obligation's clause database, which keeps the ground-term pool, and
  therefore the instantiation sequence, untouched.  This is the one
  transfer that measurably pays: over the ~650 ``prove_cold`` benchmark
  files (cache off) a sweep took 14.2–14.4 s with seeding against
  16.2–19.2 s without, with identical verdicts;
* the derived E-matching triggers, cached per quantifier atom;
* one warm incremental theory state, so successive checks retract and
  assert only the literals that differ.

There is no theory-check memo: every check runs the combination
procedure.  A memo answered almost nothing within a group, and across
groups it made a repeat prove report fewer conflicts than the first.

Verdict identity: a seeded core is a theory-valid implication (the
theory solver proved its literals jointly unsatisfiable), so adding it
never changes satisfiability — ``PROVED`` and ``REFUTED`` outcomes are
exactly those of a cold prover.  Only budget-edge verdicts
(``GAVE_UP``/``TIMEOUT``) can shift, and those are never cached.  A
stand-alone :class:`~repro.prover.prover.Prover` (what
``discharge_obligation(session=None)`` builds) is the cold reference
the tests compare sessions against.

Sessions are single-threaded; share one across the obligations of a
group, not across processes.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.harness.watchdog import NO_RETRY, Deadline, RetryPolicy
from repro.prover import combine
from repro.prover.cnf import ClauseDb, assert_formula
from repro.prover.prover import ProofResult, Prover
from repro.prover.terms import Formula

#: Cap on retained conflict cores per session; beyond it new conflicts
#: are still learned *within* their obligation (the plain clause-learning
#: path) but no longer transferred.
MAX_CORES = 512

#: Cores larger than this are obligation-specific noise, not reusable
#: facts; skip them.
MAX_CORE_LITERALS = 16

#: The counters every session keeps, in report order.
COUNTERS = ("proofs", "session_reuse", "cores_learned", "cores_seeded")

_Core = FrozenSet[Tuple[object, bool]]


class _SessionProver(Prover):
    """A :class:`Prover` whose extension hooks delegate to a session."""

    def __init__(
        self,
        session: "ProverSession",
        max_rounds: int,
        max_conflicts: int,
        time_limit: float,
    ):
        super().__init__(
            max_rounds=max_rounds,
            max_conflicts=max_conflicts,
            time_limit=time_limit,
        )
        self.axioms = session.axioms
        self.trigger_cache = session.trigger_cache
        self._session = session
        self._goal_serial = itertools.count()
        self._seeded: Set[int] = set()

    # -- hooks ----------------------------------------------------------

    def _base_db(self) -> ClauseDb:
        return self._session.base_db()

    def _assert(self, db: ClauseDb, f: Formula) -> None:
        assert_formula(db, f, namer=self._goal_namer)

    def _goal_namer(self, v: str) -> str:
        return f"@sg{next(self._goal_serial)}_{v}"

    def _begin_goal(self) -> None:
        # Canonical names restart for every goal so equal goals yield
        # equal atoms; the seeded set restarts because each goal gets a
        # fresh clone of the base db.
        self._goal_serial = itertools.count()
        self._seeded = set()

    def _theory_check(self, theory_lits):
        return self._session.theory_check(theory_lits)

    def _note_conflict(self, conflict) -> None:
        index = self._session.learn_core(conflict)
        if index is not None:
            # The clause is already in the current db; don't re-seed it.
            self._seeded.add(index)

    def _seed_learned(self, db: ClauseDb) -> None:
        self._session.seed_cores(db, self._seeded)

    def _spawn(self, max_rounds, max_conflicts, time_limit) -> Prover:
        return _SessionProver(
            self._session, max_rounds, max_conflicts, time_limit
        )


class ProverSession:
    """Solver state for the obligations of one axiom environment.

    Construct with the axiom list and the qualifier definition text as
    ``context`` (mirroring the proof cache's environment key), then call
    :meth:`prove` / :meth:`prove_with_retry` per obligation exactly as
    on a plain :class:`Prover`.  Drop the session when the group ends.
    """

    def __init__(
        self,
        axioms,
        context: str = "",
        max_rounds: int = 6,
        max_conflicts: int = 4000,
        time_limit: float = 60.0,
    ):
        self.axioms: List[Formula] = list(axioms)
        self.context = context
        self.max_rounds = max_rounds
        self.max_conflicts = max_conflicts
        self.time_limit = time_limit
        # The warm proof forest: one incremental theory state shared by
        # every obligation of this environment, so successive checks
        # retract/assert only the literals that differ.
        self.theory_state = combine.TheoryState()
        self.trigger_cache: Dict[object, tuple] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._base: Optional[ClauseDb] = None
        self._cores: List[_Core] = []
        self._core_set: Set[_Core] = set()

    # -- state shared with _SessionProver -------------------------------

    def base_db(self) -> ClauseDb:
        if self._base is None:
            db = ClauseDb()
            for ax in self.axioms:
                assert_formula(db, ax)
            self._base = db
        return self._base.clone()

    def theory_check(self, theory_lits):
        return combine.check(theory_lits, self.theory_state)

    def learn_core(self, conflict) -> Optional[int]:
        """Retain a theory conflict for transfer; returns its index in
        the core store, or None when it was not retained."""
        core: _Core = frozenset(conflict)
        if len(core) > MAX_CORE_LITERALS or len(self._cores) >= MAX_CORES:
            return None
        if core in self._core_set:
            return self._cores.index(core)
        self._core_set.add(core)
        self._cores.append(core)
        self.counters["cores_learned"] += 1
        return len(self._cores) - 1

    def seed_cores(self, db: ClauseDb, seeded: Set[int]) -> None:
        """Add every eligible learned core to ``db`` as a clause.

        A core is eligible only when all of its atoms already have SAT
        variables in ``db`` — seeding must not mint new atoms, or the
        ground-term pool (and with it the instantiation sequence and
        the REFUTED saturation argument) would drift from the cold run.
        """
        var_of_atom = db.var_of_atom
        for index, core in enumerate(self._cores):
            if index in seeded:
                continue
            lits = []
            for atom, polarity in core:
                var = var_of_atom.get(atom)
                if var is None:
                    break
                lits.append(-var if polarity else var)
            else:
                db.add_clause(lits)
                seeded.add(index)
                self.counters["cores_seeded"] += 1
                if obs.enabled():
                    obs.incr("prover.session_cores_seeded")

    # -- the Prover-compatible surface -----------------------------------

    def _prover(self, max_rounds, time_limit) -> _SessionProver:
        return _SessionProver(
            self,
            max_rounds=max_rounds if max_rounds is not None else self.max_rounds,
            max_conflicts=self.max_conflicts,
            time_limit=time_limit if time_limit is not None else self.time_limit,
        )

    def _count_proof(self) -> None:
        self.counters["proofs"] += 1
        if self.counters["proofs"] > 1:
            self.counters["session_reuse"] += 1
            if obs.enabled():
                obs.incr("prover.session_reuse")

    def prove(
        self,
        goal: Formula,
        extra_axioms=(),
        deadline: Optional[Deadline] = None,
        cache=None,
        cache_context: Optional[str] = None,
        max_rounds: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> ProofResult:
        self._count_proof()
        context = self.context if cache_context is None else cache_context
        return self._prover(max_rounds, time_limit).prove(
            goal, extra_axioms, deadline=deadline,
            cache=cache, cache_context=context,
        )

    def prove_with_retry(
        self,
        goal: Formula,
        extra_axioms=(),
        retry: RetryPolicy = NO_RETRY,
        deadline: Optional[Deadline] = None,
        cache=None,
        cache_context: Optional[str] = None,
        max_rounds: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> ProofResult:
        self._count_proof()
        context = self.context if cache_context is None else cache_context
        return self._prover(max_rounds, time_limit).prove_with_retry(
            goal, extra_axioms, retry=retry, deadline=deadline,
            cache=cache, cache_context=context,
        )
