"""Tests for the prover's integer-arithmetic extensions: GCD
tightening, unit-pivot Gaussian elimination, and the Euclidean
division/modulus lemmas (used by qualifiers with arithmetic
invariants, e.g. the `even` example)."""

from hypothesis import given, settings, strategies as st

from repro.prover.prover import prove_valid
from repro.prover.terms import (
    And,
    Eq,
    Implies,
    Int,
    Le,
    Lt,
    Not,
    Or,
    fn,
)

a, b, c = fn("a"), fn("b"), fn("c")


def proved(goal, axioms=()):
    return prove_valid(goal, list(axioms)).proved


def mod2(t):
    return fn("%", t, Int(2))


# ------------------------------------------------------------ GCD tightening


def test_even_between_zero_and_one_is_zero():
    # m = 2t and 0 <= m <= 1 force m = 0.
    t = fn("t")
    goal = Implies(
        And(Eq(a, fn("*", Int(2), t)), Le(Int(0), a), Le(a, Int(1))),
        Eq(a, Int(0)),
    )
    assert proved(goal)


def test_no_integer_solution_to_2x_eq_1():
    goal = Implies(Eq(fn("*", Int(2), a), Int(1)), Eq(Int(0), Int(1)))
    assert proved(goal)


def test_3x_between_1_and_2_impossible():
    goal = Implies(
        And(Le(Int(1), fn("*", Int(3), a)), Le(fn("*", Int(3), a), Int(2))),
        Eq(Int(0), Int(1)),
    )
    assert proved(goal)


def test_rationally_satisfiable_not_over_tightened():
    # x + y = 1 with 0 <= x, y has integer solutions; must not prove false.
    goal = Implies(
        And(
            Eq(fn("+", a, b), Int(1)),
            Le(Int(0), a),
            Le(Int(0), b),
        ),
        Eq(Int(0), Int(1)),
    )
    assert not proved(goal)


# ------------------------------------------------------------ modulus lemmas


def test_even_plus_even_is_even():
    goal = Implies(
        And(Eq(mod2(a), Int(0)), Eq(mod2(b), Int(0))),
        Eq(mod2(fn("+", a, b)), Int(0)),
    )
    assert proved(goal)


def test_even_minus_even_is_even():
    goal = Implies(
        And(Eq(mod2(a), Int(0)), Eq(mod2(b), Int(0))),
        Eq(mod2(fn("-", a, b)), Int(0)),
    )
    assert proved(goal)


def test_even_plus_odd_not_provably_even():
    goal = Implies(Eq(mod2(a), Int(0)), Eq(mod2(fn("+", a, b)), Int(0)))
    assert not proved(goal)


def test_product_with_even_factor_is_even():
    goal = Implies(
        Or(Eq(mod2(a), Int(0)), Eq(mod2(b), Int(0))),
        Eq(mod2(fn("*", a, b)), Int(0)),
    )
    assert proved(goal)


def test_negation_preserves_evenness():
    goal = Implies(
        Eq(mod2(a), Int(0)), Eq(mod2(fn("-", Int(0), a)), Int(0))
    )
    assert proved(goal)


def test_mod_bounds():
    # a % 3 is strictly between -3 and 3 under C semantics.
    m = fn("%", a, Int(3))
    assert proved(Implies(Eq(m, m), Lt(m, Int(3))))
    assert proved(Implies(Eq(m, m), Lt(Int(-3), m)))


def test_mod_sign_follows_dividend():
    m = fn("%", a, Int(3))
    assert proved(Implies(Le(Int(0), a), Le(Int(0), m)))
    assert not proved(Implies(Eq(m, m), Le(Int(0), m)))  # negative a


def test_divisibility_not_assumed():
    # a % 2 = 0 does not prove a = 0.
    goal = Implies(Eq(mod2(a), Int(0)), Eq(a, Int(0)))
    assert not proved(goal)


def _c_mod(x: int, k: int) -> int:
    q = abs(x) // abs(k)
    if (x >= 0) != (k >= 0):
        q = -q
    return x - k * q


@settings(max_examples=30, deadline=None)
@given(st.integers(-20, 20), st.integers(2, 5))
def test_mod_lemmas_agree_with_concrete_c_semantics(v, k):
    """On concrete dividends the lemmas pin x % k to its C value: the
    correct equation is provable and any wrong value is refutable."""
    m = fn("%", Int(v), Int(k))
    correct = _c_mod(v, k)
    assert proved(Eq(m, Int(correct)))
    wrong = correct + 1 if correct + 1 < k else correct - 1
    assert proved(Not(Eq(m, Int(wrong))))


# Ground arithmetic (a term like ``0 - 1`` whose linear form has no
# atoms) is an arithmetic constant, like an integer literal: the pair
# (C, 0 - 1) under a disequality must be probed for an arithmetic-
# forced equality, or C = -1 and C != 0 - 1 look consistent.

MINUS_ONE = fn("-", Int(0), Int(1))


def _ground_arith_goals():
    return [
        Implies(Not(Eq(c, MINUS_ONE)), Not(Eq(c, Int(-1)))),
        Implies(Not(Eq(c, Int(-1))), Not(Eq(c, MINUS_ONE))),
        Implies(Eq(c, MINUS_ONE), Eq(c, Int(-1))),
        Implies(Eq(c, Int(-1)), Eq(c, MINUS_ONE)),
    ]


def test_ground_arithmetic_disequality_proves_on_both_core_paths():
    from repro.difftest.oracles import DdminProver
    from repro.prover.prover import Prover

    for goal in _ground_arith_goals():
        assert Prover().prove(goal).verdict == "PROVED", goal
        assert DdminProver().prove(goal).verdict == "PROVED", goal


def test_ground_arithmetic_disequality_is_a_theory_conflict():
    from repro.difftest.oracles import ddmin_check
    from repro.prover import combine

    literals = [(Eq(c, MINUS_ONE), False), (Eq(c, Int(-1)), True)]
    assert ddmin_check(list(literals)) == literals
    assert combine.check(list(literals), combine.TheoryState()) == literals
