"""The watched-literal DPLL against the rescanning one it replaced.

The prover's search path — and so every round, instance and conflict
count and every countermodel — depends on the exact model the SAT core
returns, not just on satisfiability.  ``tests/reference_sat.py`` keeps
the previous solver; these tests require the current one to return the
same result on random CNFs, including the shapes ``ClauseDb`` never
produces but a direct caller may: empty clauses, unit clauses,
duplicate literals, tautologies and gaps in variable numbering.  They
also pin that the deadline interrupts a long search.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.watchdog import Deadline, DeadlineExceeded
from repro.prover import sat
from repro.prover.prover import TIMEOUT, Prover
from repro.prover.terms import And, Not, Or, Pr
from tests.reference_sat import reference_solve


_WIDTHS = [0] + [1, 2, 2, 3, 3, 3, 4, 5] * 3


@st.composite
def sparse_cnf(draw):
    """Random CNF over a sparse variable set (so numbering has gaps)."""
    variables = sorted(
        draw(st.sets(st.integers(1, 40), min_size=1, max_size=10))
    )
    clauses = []
    for _ in range(draw(st.integers(0, 30))):
        # Width 0 (an empty clause) is rare: one draw in 25.
        width = draw(st.sampled_from(_WIDTHS))
        clause = tuple(
            draw(st.sampled_from(variables)) * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        )
        clauses.append(clause)
    return variables[-1], clauses


@settings(max_examples=400, deadline=None)
@given(sparse_cnf())
def test_models_equal_the_reference(case):
    num_vars, clauses = case
    before = list(clauses)
    assert sat.solve(clauses, num_vars) == reference_solve(
        list(before), num_vars
    )
    assert clauses == before  # the caller's clause list is not touched


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(8, 24),
)
def test_models_equal_the_reference_near_the_threshold(seed, num_vars):
    # Random 3-SAT around 4.3 clauses per variable: about half satisfiable,
    # with deep backtracking either way.
    rng = random.Random(seed)
    clauses = [
        tuple(
            rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(3)
        )
        for _ in range(int(num_vars * 4.3))
    ]
    assert sat.solve(clauses, num_vars, Deadline(None)) == reference_solve(
        clauses, num_vars
    )


@pytest.mark.parametrize(
    "clauses, expected",
    [
        ([], {}),
        ([()], None),
        ([(3,), ()], None),
        ([(5, 5)], {5: True}),
        ([(-5, -5)], {5: False}),
        ([(2, -2)], {2: True}),
        ([(-7, 7, -7), (-7,)], {7: False}),
        ([(9,), (-9, 4), (-4, -30)], {4: True, 9: True, 30: False}),
    ],
)
def test_degenerate_clause_shapes(clauses, expected):
    assert reference_solve(list(clauses), 0) == expected
    assert sat.solve(list(clauses), 0) == expected


def _pigeonhole(pigeons: int, holes: int):
    """PHP(p, h): p pigeons in h holes, no two sharing — unsat when
    p > h, and exponentially hard for DPLL."""

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [
        tuple(var(p, h) for h in range(holes)) for p in range(pigeons)
    ]
    for h in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append((-var(a, h), -var(b, h)))
    return clauses, pigeons * holes


def test_pigeonhole_is_unsat():
    clauses, num_vars = _pigeonhole(5, 4)
    assert sat.solve(clauses, num_vars) is None
    assert reference_solve(clauses, num_vars) is None


def test_deadline_interrupts_a_long_search():
    clauses, num_vars = _pigeonhole(9, 8)
    start = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        sat.solve(clauses, num_vars, Deadline.after(0.2))
    assert time.perf_counter() - start < 1.0


def test_prove_reports_timeout_when_the_sat_search_overruns():
    # A propositional goal whose negation is PHP(9, 8): valid, but the
    # proof is all DPLL search, so only the SAT core can see the clock.
    pigeons, holes = 9, 8

    def at(pigeon, hole):
        return Pr(f"p{pigeon}_{hole}", ())

    facts = [Or(*[at(p, h) for h in range(holes)]) for p in range(pigeons)]
    for h in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                facts.append(Or(Not(at(a, h)), Not(at(b, h))))
    start = time.perf_counter()
    result = Prover(time_limit=0.2).prove(Not(And(*facts)))
    assert result.verdict == TIMEOUT
    assert time.perf_counter() - start < 1.0
