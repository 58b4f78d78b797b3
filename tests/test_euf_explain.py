"""Proof-forest explanations: unit and property tests.

The explain-mode congruence closure must answer ``explain(a, b)`` with
exactly the input literals responsible for ``a = b`` — through
transitivity, through congruence steps, and across push/pop — and the
:class:`~repro.prover.combine.TheoryState` built on it must hand the
SMT loop conflict cores that are theory-unsat, 1-minimal, and
verdict-identical to the search-based ddmin minimizer it replaces.
"""

import random

import pytest

from repro.difftest.oracles import ddmin_check
from repro.prover import combine
from repro.prover.euf import CongruenceClosure, EufConflict
from repro.prover.terms import Eq, Int, Le, Lt, fn

a, b, c, d, e = fn("a"), fn("b"), fn("c"), fn("d"), fn("e")


def lit(atom, polarity=True):
    return (atom, polarity)


def tags(*lits):
    return frozenset(lits)


# ------------------------------------------------------- explain() units


class TestExplain:
    def test_direct_assertion(self):
        cc = CongruenceClosure(explain=True)
        l1 = lit(Eq(a, b))
        cc.assert_eq(a, b, tags=tags(l1))
        assert cc.explain(a, b) == {l1}

    def test_reflexive_pair_is_empty(self):
        cc = CongruenceClosure(explain=True)
        cc.add_term(a)
        assert cc.explain(a, a) == frozenset()

    def test_transitive_chain_unions_tags(self):
        cc = CongruenceClosure(explain=True)
        l1, l2, l3 = lit(Eq(a, b)), lit(Eq(b, c)), lit(Eq(c, d))
        cc.assert_eq(a, b, tags=tags(l1))
        cc.assert_eq(b, c, tags=tags(l2))
        cc.assert_eq(c, d, tags=tags(l3))
        assert cc.explain(a, d) == {l1, l2, l3}
        # Sub-queries stay sharp: only the needed links are blamed.
        assert cc.explain(a, c) == {l1, l2}
        assert cc.explain(c, d) == {l3}

    def test_congruence_recurses_into_arguments(self):
        cc = CongruenceClosure(explain=True)
        cc.add_term(fn("f", a))
        cc.add_term(fn("f", b))
        l1 = lit(Eq(a, b))
        cc.assert_eq(a, b, tags=tags(l1))
        assert cc.explain(fn("f", a), fn("f", b)) == {l1}

    def test_nested_congruence_collects_all_argument_reasons(self):
        cc = CongruenceClosure(explain=True)
        t1 = fn("g", fn("f", a), c)
        t2 = fn("g", fn("f", b), d)
        cc.add_term(t1)
        cc.add_term(t2)
        l1, l2 = lit(Eq(a, b)), lit(Eq(c, d))
        cc.assert_eq(a, b, tags=tags(l1))
        cc.assert_eq(c, d, tags=tags(l2))
        assert cc.explain(t1, t2) == {l1, l2}

    def test_irrelevant_assertions_not_blamed(self):
        cc = CongruenceClosure(explain=True)
        l1, noise = lit(Eq(a, b)), lit(Eq(d, e))
        cc.assert_eq(a, b, tags=tags(l1))
        cc.assert_eq(d, e, tags=tags(noise))
        assert cc.explain(a, b) == {l1}


# ------------------------------------------------------- conflict cores


class TestConflictCores:
    def test_neq_against_existing_merge(self):
        cc = CongruenceClosure(explain=True)
        l1, l2 = lit(Eq(a, b)), lit(Eq(a, b), False)
        cc.assert_eq(a, b, tags=tags(l1))
        with pytest.raises(EufConflict) as exc:
            cc.assert_neq(a, b, tags=tags(l2))
        assert exc.value.core == {l1, l2}

    def test_deferred_disequality_refires_with_full_core(self):
        cc = CongruenceClosure(explain=True)
        ln, l1, l2 = lit(Eq(a, c), False), lit(Eq(a, b)), lit(Eq(b, c))
        cc.assert_neq(a, c, tags=tags(ln))
        cc.assert_eq(a, b, tags=tags(l1))
        with pytest.raises(EufConflict) as exc:
            cc.assert_eq(b, c, tags=tags(l2))
        assert exc.value.core == {ln, l1, l2}

    def test_distinct_integers_conflict(self):
        cc = CongruenceClosure(explain=True)
        l1, l2 = lit(Eq(a, Int(1))), lit(Eq(a, Int(2)))
        cc.assert_eq(a, Int(1), tags=tags(l1))
        with pytest.raises(EufConflict) as exc:
            cc.assert_eq(a, Int(2), tags=tags(l2))
        assert exc.value.core == {l1, l2}

    def test_untagged_axioms_stay_out_of_cores(self):
        # The @true != @false axiom carries no tags, so a predicate
        # conflict blames only the input literals.
        cc = CongruenceClosure(explain=True)
        t, f = fn("@true"), fn("@false")
        cc.assert_neq(t, f)
        l1, l2 = lit(Eq(a, t)), lit(Eq(a, f))
        cc.assert_eq(a, t, tags=tags(l1))
        with pytest.raises(EufConflict) as exc:
            cc.assert_eq(a, f, tags=tags(l2))
        assert exc.value.core == {l1, l2}


# ----------------------------------------------------------- push / pop


class TestPushPop:
    def test_pop_retracts_merges_and_forest(self):
        cc = CongruenceClosure(explain=True)
        l1 = lit(Eq(a, b))
        cc.assert_eq(a, b, tags=tags(l1))
        mark = cc.mark
        cc.assert_eq(b, c, tags=tags(lit(Eq(b, c))))
        assert cc.are_equal(a, c)
        cc.pop_to(mark)
        assert cc.are_equal(a, b)
        assert not cc.are_equal(a, c)
        assert cc.explain(a, b) == {l1}

    def test_reassert_after_pop_explains_freshly(self):
        cc = CongruenceClosure(explain=True)
        l1 = lit(Eq(a, b))
        cc.assert_eq(a, b, tags=tags(l1))
        mark = cc.mark
        cc.assert_eq(b, c, tags=tags(lit(Eq(b, c))))
        cc.pop_to(mark)
        l3 = lit(Eq(a, c))
        cc.assert_eq(a, c, tags=tags(l3))
        assert cc.explain(b, c) == {l1, l3}

    def test_push_pop_frames(self):
        cc = CongruenceClosure(explain=True)
        cc.assert_eq(a, b)
        cc.push()
        cc.assert_eq(c, d)
        assert cc.are_equal(c, d)
        cc.pop()
        assert not cc.are_equal(c, d)
        assert cc.are_equal(a, b)

    def test_pop_retracts_congruence_and_new_terms(self):
        cc = CongruenceClosure(explain=True)
        cc.add_term(fn("f", a))
        mark = cc.mark
        cc.add_term(fn("f", b))
        cc.assert_eq(a, b, tags=tags(lit(Eq(a, b))))
        assert cc.are_equal(fn("f", a), fn("f", b))
        cc.pop_to(mark)
        assert not cc.are_equal(a, b)
        # Re-running the same sequence on the restored state works.
        cc.add_term(fn("f", b))
        cc.assert_eq(a, b, tags=tags(lit(Eq(a, b))))
        assert cc.are_equal(fn("f", a), fn("f", b))

    def test_pop_restores_pending_disequalities(self):
        cc = CongruenceClosure(explain=True)
        mark = cc.mark
        cc.assert_neq(a, b, tags=tags(lit(Eq(a, b), False)))
        cc.pop_to(mark)
        # The disequality was retracted with the frame.
        cc.assert_eq(a, b, tags=tags(lit(Eq(a, b))))
        assert cc.are_equal(a, b)


# --------------------------------------------- property: explained cores


def _random_literals(rng, n):
    consts = [a, b, c, d, e]

    def term():
        r = rng.random()
        if r < 0.45:
            return rng.choice(consts)
        if r < 0.70:
            return Int(rng.randint(0, 3))
        if r < 0.90:
            return fn("f", rng.choice(consts))
        return fn("g", rng.choice(consts), rng.choice(consts))

    literals = []
    for _ in range(n):
        t1, t2 = term(), term()
        kind = rng.random()
        if kind < 0.5:
            atom = Eq(t1, t2)
        elif kind < 0.8:
            atom = Le(t1, t2)
        else:
            atom = Lt(t1, t2)
        literals.append((atom, rng.random() < 0.7))
    return literals


@pytest.mark.parametrize("seed", range(60))
def test_explained_cores_are_unsat_minimal_and_verdict_identical(seed):
    rng = random.Random(f"euf-explain:{seed}")
    literals = _random_literals(rng, rng.randint(3, 12))

    forest_core = combine.TheoryState().check(list(literals))
    ddmin_core = ddmin_check(list(literals))

    # Verdict identity: both strategies agree on consistency.
    assert (forest_core is None) == (ddmin_core is None)
    if forest_core is None:
        return
    # The explained core is a subset of the input literals...
    assert all(l in literals for l in forest_core)
    # ...theory-unsat...
    assert not combine._consistent(forest_core)
    # ...and 1-minimal: dropping any single literal restores
    # consistency.
    for i in range(len(forest_core)):
        rest = forest_core[:i] + forest_core[i + 1 :]
        assert combine._consistent(rest), (
            f"core not 1-minimal: literal {forest_core[i]} is redundant"
        )


@pytest.mark.parametrize("seed", range(10))
def test_warm_state_reuse_preserves_verdicts(seed):
    # Re-checking permuted/extended literal lists against one warm
    # TheoryState must keep agreeing with cold ddmin checks.
    rng = random.Random(f"euf-explain-warm:{seed}")
    state = combine.TheoryState()
    base = _random_literals(rng, 8)
    for _ in range(6):
        literals = [l for l in base if rng.random() < 0.8]
        rng.shuffle(literals)
        warm = state.check(list(literals))
        cold = ddmin_check(list(literals))
        assert (warm is None) == (cold is None)
        if warm is not None:
            assert not combine._consistent(warm)


# ------------------------------------- difftest corpus: forest vs ddmin


def test_forest_vs_ddmin_agrees_on_difftest_corpus():
    from repro.difftest import oracles, runner
    from repro.difftest.generator import GenConfig, generate_case

    compared = 0
    for index in range(4):
        case = generate_case(0, index, GenConfig())
        quals, gen_names = runner.build_qualifier_set(case)
        findings, counters = oracles.explain_vs_ddmin(
            case, quals, gen_names, time_limit=10.0
        )
        assert findings == [], [f.to_dict() for f in findings]
        compared += counters["compared"]
    assert compared > 0, "oracle never compared a verdict"
