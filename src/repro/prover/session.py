"""Incremental prover sessions: solver-state reuse across obligations.

Profiling (PR 5, confirmed on the committed bench history) shows the
prover's wall time is dominated by Nelson–Oppen theory checks, and that
roughly half of all theory conflicts recur across the obligations of a
single qualifier — the same axioms produce the same contradictions,
merely spelled with different skolem constants.  A
:class:`ProverSession` makes that reuse real for every obligation
sharing an *axiom environment* (axioms + qualifier definition text,
digested by :func:`repro.cache.fingerprint.environment_key`):

* the axiom set is NNF'd, skolemized, and Tseitin-encoded **once**; each
  obligation starts from a :meth:`ClauseDb.clone` of that base, so axiom
  skolem constants are stable for the session's lifetime;
* goal-side skolems are named **canonically per prove call**
  (``@sg0_x``, ``@sg1_y``, … with the counter reset for every goal), so
  structurally identical subgoals produce identical atoms across
  obligations;
* theory conflicts learned during one obligation are kept as *cores*
  (sets of theory literals) and re-seeded as clauses into later
  obligations — but only when every atom of the core already exists in
  the new obligation's clause database, which keeps the ground-term
  pool, and therefore the instantiation sequence, untouched;
* raw theory-consistency queries are memoized, and derived E-matching
  triggers are cached per quantifier atom.

Verdict identity: a seeded core is a theory-valid implication (the
theory solver proved its literals jointly unsatisfiable), so adding it
never changes satisfiability — ``PROVED`` and ``REFUTED`` outcomes are
exactly those of a cold prover.  Only budget-edge verdicts
(``GAVE_UP``/``TIMEOUT``) can shift, and those are never cached.  Every
product prove path runs through sessions; a stand-alone
:class:`~repro.prover.prover.Prover` (what
``discharge_obligation(session=None)`` builds) is the cold reference
the tests compare them against.

Sessions are single-threaded and cheap to build; share them across
obligations, not across processes.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
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

#: Bound on the theory-consistency memo (entries, LRU).
MEMO_LIMIT = 4096

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
    """Persistent solver state for one axiom environment.

    Construct with the axiom list (and the qualifier definition text as
    ``context``, mirroring the proof cache's environment key), then call
    :meth:`prove` / :meth:`prove_with_retry` per obligation exactly as
    on a plain :class:`Prover`.  :meth:`reset` drops all learned state;
    a :class:`SessionPool` calls it implicitly by handing out a fresh
    session whenever the environment digest changes.
    """

    def __init__(
        self,
        axioms,
        context: str = "",
        max_rounds: int = 6,
        max_conflicts: int = 4000,
        time_limit: float = 60.0,
        max_cores: int = MAX_CORES,
        memo_limit: int = MEMO_LIMIT,
    ):
        self.axioms: List[Formula] = list(axioms)
        self.context = context
        self.max_rounds = max_rounds
        self.max_conflicts = max_conflicts
        self.time_limit = time_limit
        self.max_cores = max_cores
        self.memo_limit = memo_limit
        # The warm proof forest: one incremental theory state shared by
        # every obligation of this environment, so successive checks
        # retract/assert only the literals that differ.
        self.theory_state = combine.TheoryState()
        self.env_digest = _environment_digest(self.axioms, context)
        self.trigger_cache: Dict[object, tuple] = {}
        self.counters: Dict[str, int] = {
            "proofs": 0,
            "session_reuse": 0,
            "cores_learned": 0,
            "cores_seeded": 0,
            "core_hits": 0,
            "theory_memo_hits": 0,
            "resets": 0,
        }
        self._base: Optional[ClauseDb] = None
        self._cores: List[_Core] = []
        self._core_set: Set[_Core] = set()
        self._memo: "OrderedDict[FrozenSet, Optional[tuple]]" = OrderedDict()

    # -- state shared with _SessionProver -------------------------------

    def base_db(self) -> ClauseDb:
        if self._base is None:
            db = ClauseDb()
            for ax in self.axioms:
                assert_formula(db, ax)
            self._base = db
        return self._base.clone()

    def theory_check(self, theory_lits):
        key = frozenset(theory_lits)
        hit = self._memo.get(key, _MISS)
        if hit is not _MISS:
            self._memo.move_to_end(key)
            self.counters["theory_memo_hits"] += 1
            if obs.enabled():
                obs.incr("prover.session_memo_hits")
            return list(hit) if hit is not None else None
        # A learned core contained in this literal set is itself a
        # conflicting subset, so it is a valid answer as-is —
        # skip the combination check and its core verification.
        for core in self._cores:
            if core <= key:
                self.counters["core_hits"] += 1
                if obs.enabled():
                    obs.incr("prover.session_core_hits")
                conflict = list(core)
                if len(self._memo) >= self.memo_limit:
                    self._memo.popitem(last=False)
                self._memo[key] = tuple(conflict)
                return conflict
        conflict = combine.check(theory_lits, self.theory_state)
        if len(self._memo) >= self.memo_limit:
            self._memo.popitem(last=False)
        self._memo[key] = tuple(conflict) if conflict is not None else None
        return conflict

    def learn_core(self, conflict) -> Optional[int]:
        """Retain a theory conflict for transfer; returns its index in
        the core store, or None when it was not retained."""
        core: _Core = frozenset(conflict)
        if len(core) > MAX_CORE_LITERALS or len(self._cores) >= self.max_cores:
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

    def reset(self) -> None:
        """Drop all learned state (cores, memo, triggers, base db).

        Required whenever the axiom environment changes; a session must
        never be reused across environments without it."""
        self._base = None
        self._cores = []
        self._core_set = set()
        self._memo.clear()
        self.trigger_cache.clear()
        self.theory_state = combine.TheoryState()
        self.counters["resets"] += 1

    def rebind(self, axioms, context: str = "") -> None:
        """Point the session at a new axiom environment and reset."""
        self.axioms = list(axioms)
        self.context = context
        self.env_digest = _environment_digest(self.axioms, context)
        self.reset()


class SessionPool:
    """LRU pool of :class:`ProverSession`, keyed by environment digest.

    The pool is the "explicit reset on environment change": asking for
    an environment that is not resident creates a fresh session (and may
    evict the least recently used one), so learned state can never leak
    across environments.
    """

    def __init__(self, max_sessions: int = 8):
        self.max_sessions = max_sessions
        self.evictions = 0
        self._sessions: "OrderedDict[str, ProverSession]" = OrderedDict()
        # Counters of evicted sessions, so pool totals never decrease.
        self._retired: Dict[str, int] = {}

    def get(
        self,
        axioms,
        context: str = "",
        max_rounds: int = 6,
        max_conflicts: int = 4000,
        time_limit: float = 60.0,
    ) -> ProverSession:
        digest = _environment_digest(list(axioms), context)
        session = self._sessions.get(digest)
        if session is not None:
            self._sessions.move_to_end(digest)
            session.max_rounds = max_rounds
            session.max_conflicts = max_conflicts
            session.time_limit = time_limit
            return session
        session = ProverSession(
            axioms,
            context=context,
            max_rounds=max_rounds,
            max_conflicts=max_conflicts,
            time_limit=time_limit,
        )
        self._sessions[digest] = session
        while len(self._sessions) > self.max_sessions:
            _, evicted = self._sessions.popitem(last=False)
            self.evictions += 1
            for key, value in evicted.counters.items():
                self._retired[key] = self._retired.get(key, 0) + value
        return session

    def sessions(self) -> List[ProverSession]:
        return list(self._sessions.values())

    def counters(self) -> Dict[str, int]:
        """Aggregate counters: ``sessions`` is the resident count, every
        other counter sums all sessions this pool has opened, evicted
        ones included, so no counter ever decreases."""
        totals: Dict[str, int] = {"sessions": len(self._sessions)}
        for counters in (
            self._retired, *(s.counters for s in self._sessions.values())
        ):
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        for key in (
            "proofs", "session_reuse", "cores_learned",
            "cores_seeded", "core_hits", "theory_memo_hits",
        ):
            totals.setdefault(key, 0)
        totals.pop("resets", None)
        return totals


_MISS = object()


def _environment_digest(axioms, context: str) -> str:
    # Imported lazily: cache.fingerprint depends on prover.terms, and a
    # module-level import here would make the prover package depend on
    # the cache package at import time.
    from repro.cache import fingerprint

    return fingerprint.environment_key(axioms, context=context)
