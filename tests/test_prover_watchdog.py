"""Prover deadline discipline and the retry policy.

The acceptance bar: a hard obligation with ``time_limit=0.01`` must
come back ``TIMEOUT`` within ~10x the limit — the deadline fires
*inside* an E-matching instantiation round, not just between rounds.
"""

import time

import pytest

from repro.harness.watchdog import Deadline, RetryPolicy
from repro.prover.prover import (
    GAVE_UP,
    PROVED,
    REFUTED,
    ROUNDS_EXHAUSTED,
    TIMEOUT,
    Prover,
    prove_valid,
)
from repro.prover.terms import And, Eq, ForAll, Implies, Int, Lt, Pr, TVar, fn


def _explosive_axioms(n=80):
    """Axioms whose first instantiation round is combinatorial: a
    3-variable multi-pattern trigger over ``n`` ground facts yields an
    O(n^3) E-matching pass (~several seconds unguarded)."""
    axioms = [Pr("P", (fn(f"c{i}"),)) for i in range(n)]
    x, y, z = TVar("x"), TVar("y"), TVar("z")
    trigger = ((fn("@p_P", x), fn("@p_P", y), fn("@p_P", z)),)
    body = Implies(
        And(Pr("P", (x,)), Pr("P", (y,)), Pr("P", (z,))),
        Eq(fn("h", x, y), fn("h", y, z)),
    )
    axioms.append(ForAll(("x", "y", "z"), body, trigger))
    return axioms


class TestDeadlineInsideInstantiation:
    def test_hard_obligation_times_out_within_10x_limit(self):
        prover = Prover(time_limit=0.01)
        prover.add_axioms(_explosive_axioms())
        start = time.perf_counter()
        result = prover.prove(Pr("Q", (fn("c0"),)))
        elapsed = time.perf_counter() - start
        assert result.verdict == TIMEOUT
        assert not result.proved
        assert result.reason == "time limit"
        # ~10x the 10 ms limit, with headroom for slow CI machines.
        assert elapsed < 0.25

    def test_generous_limit_does_not_time_out(self):
        result = prove_valid(
            Eq(fn("f", fn("c")), fn("c")),
            axioms=[ForAll(("x",), Eq(fn("f", TVar("x")), TVar("x")))],
            time_limit=30.0,
        )
        assert result.verdict == PROVED

    def test_external_deadline_caps_the_time_limit(self):
        prover = Prover(time_limit=60.0)
        prover.add_axioms(_explosive_axioms())
        start = time.perf_counter()
        result = prover.prove(
            Pr("Q", (fn("c0"),)), deadline=Deadline.after(0.01)
        )
        assert result.verdict == TIMEOUT
        assert time.perf_counter() - start < 0.25


class TestVerdictTaxonomy:
    def test_proved(self):
        result = prove_valid(Lt(Int(0), Int(1)))
        assert result.verdict == PROVED and result.proved

    def test_refuted_on_saturation_with_countermodel(self):
        # 0 < x is not valid; instantiation saturates immediately.
        result = prove_valid(Lt(Int(0), fn("x")))
        assert result.verdict == REFUTED
        assert not result.proved

    def test_gave_up_on_round_limit(self):
        # Proving f(c) = h(c) needs two chained instantiation rounds;
        # max_rounds=1 exhausts the budget first.
        x = TVar("x")
        axioms = [
            ForAll(("x",), Eq(fn("f", x), fn("g", x))),
            ForAll(("x",), Eq(fn("g", x), fn("h", x))),
        ]
        result = prove_valid(
            Eq(fn("f", fn("c")), fn("h", fn("c"))),
            axioms=axioms,
            max_rounds=0,
        )
        assert result.verdict == GAVE_UP
        assert not result.proved


class TestRetryPolicy:
    def _chained_goal_prover(self, max_rounds):
        """Needs 2 instantiation rounds: round 1 rewrites f(c)->g(c),
        round 2 (over the new g(c) term) rewrites g(c)->c0."""
        x = TVar("x")
        prover = Prover(max_rounds=max_rounds, time_limit=30.0)
        prover.add_axioms(
            [
                ForAll(("x",), Eq(fn("f", x), fn("g", x))),
                ForAll(("x",), Eq(fn("g", x), fn("c0"))),
            ]
        )
        return prover, Eq(fn("f", fn("c")), fn("c0"))

    def test_escalating_budget_turns_gave_up_into_proved(self):
        prover, goal = self._chained_goal_prover(max_rounds=1)
        first = prover.prove(goal)
        assert first.verdict == GAVE_UP  # budget too small on its own
        retried = prover.prove_with_retry(
            goal, retry=RetryPolicy(max_attempts=3, backoff=0.001)
        )
        assert retried.verdict == PROVED
        assert retried.attempts >= 2

    def test_zero_round_budget_is_honoured(self):
        # With no instantiation rounds the chained goal cannot be proved.
        prover, goal = self._chained_goal_prover(max_rounds=0)
        result = prover.prove_with_retry(goal)
        assert result.verdict == GAVE_UP
        assert result.rounds == 0

    @staticmethod
    def _record_budgets(monkeypatch):
        budgets = []
        spawn = Prover._spawn

        def recording_spawn(self, max_rounds, max_conflicts, time_limit):
            budgets.append((max_rounds, max_conflicts))
            return spawn(self, max_rounds, max_conflicts, time_limit)

        monkeypatch.setattr(Prover, "_spawn", recording_spawn)
        return budgets

    def test_retries_scale_the_requested_budgets(self, monkeypatch):
        budgets = self._record_budgets(monkeypatch)
        prover, goal = self._chained_goal_prover(max_rounds=1)
        prover.max_conflicts = 3
        result = prover.prove_with_retry(
            goal, retry=RetryPolicy(max_attempts=3, backoff=0.001)
        )
        # One round gives up; the retry's two rounds prove the goal.
        assert result.verdict == PROVED
        assert result.attempts == 2
        assert budgets == [(1, 3), (2, 6)]

    def test_zero_round_budget_makes_one_attempt(self, monkeypatch):
        # 0 rounds scale to 0: a retry would repeat the same search.
        budgets = self._record_budgets(monkeypatch)
        prover, goal = self._chained_goal_prover(max_rounds=0)
        prover.max_conflicts = 3
        result = prover.prove_with_retry(
            goal, retry=RetryPolicy(max_attempts=3, backoff=0.001)
        )
        assert result.verdict == GAVE_UP
        assert result.reason == ROUNDS_EXHAUSTED
        assert result.attempts == 1
        assert budgets == [(0, 3)]

    def test_unit_budget_factor_makes_one_attempt(self, monkeypatch):
        budgets = self._record_budgets(monkeypatch)
        prover, goal = self._chained_goal_prover(max_rounds=1)
        result = prover.prove_with_retry(
            goal,
            retry=RetryPolicy(max_attempts=3, backoff=0.001, budget_factor=1.0),
        )
        assert result.verdict == GAVE_UP
        assert result.attempts == 1
        assert len(budgets) == 1

    def test_no_retry_when_first_attempt_settles(self):
        prover, goal = self._chained_goal_prover(max_rounds=6)
        result = prover.prove_with_retry(
            goal, retry=RetryPolicy(max_attempts=5, backoff=0.001)
        )
        assert result.verdict == PROVED
        assert result.attempts == 1

    def test_timeout_is_not_retried(self):
        prover = Prover(time_limit=0.01)
        prover.add_axioms(_explosive_axioms())
        start = time.perf_counter()
        result = prover.prove_with_retry(
            Pr("Q", (fn("c0"),)),
            retry=RetryPolicy(max_attempts=5, backoff=0.05),
        )
        assert result.verdict == TIMEOUT
        assert result.attempts == 1
        assert time.perf_counter() - start < 0.5

    def test_persistent_gave_up_reports_attempt_count(self):
        x = TVar("x")
        # Unprovable goal that never saturates: each round grows the
        # term pool (f(c), f(f(c)), ...) so the round limit always hits.
        prover = Prover(max_rounds=1, max_conflicts=10, time_limit=5.0)
        prover.add_axioms(
            [ForAll(("x",), Implies(Pr("P", (x,)), Pr("P", (fn("f", x),)))),
             Pr("P", (fn("c"),))]
        )
        result = prover.prove_with_retry(
            Pr("Q", (fn("c"),)),
            retry=RetryPolicy(max_attempts=2, backoff=0.001),
        )
        assert result.verdict in (GAVE_UP, REFUTED)
        if result.verdict == GAVE_UP:
            assert result.attempts == 2
