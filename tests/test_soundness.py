"""Tests for the automated soundness checker (paper section 4).

The positive results reproduce the paper's headline claims: pos, neg,
nonzero and nonnull are proven sound automatically; unique and
unaliased too.  The negative results reproduce the paper's error
scenarios: the ``E1 - E2`` mutation of pos (section 2.1.3) and the
omission of ``disallow`` from unique (section 2.2.3) are both caught.
"""

import pytest

from repro.core.qualifiers import ast as Q
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.library import (
    NEG,
    NONNULL,
    NONZERO,
    POS,
    POS_SOURCE,
    TAINTED,
    UNALIASED,
    UNALIASED_SOURCE,
    UNIQUE,
    UNIQUE_SOURCE,
    UNTAINTED,
    standard_qualifiers,
)
from repro.core.qualifiers.parser import parse_qualifier
from repro.core.soundness.checker import check_soundness
from repro.core.soundness.obligations import generate_obligations

QUALS = standard_qualifiers()


@pytest.fixture(scope="module")
def reports():
    """Soundness reports for all standard qualifiers, computed once."""
    return {
        q.name: check_soundness(q, QUALS, time_limit=45)
        for q in (POS, NEG, NONZERO, NONNULL, TAINTED, UNTAINTED, UNIQUE, UNALIASED)
    }


# ------------------------------------------------------------------ positive


def test_pos_proved_sound(reports):
    assert reports["pos"].sound, reports["pos"].summary()


def test_neg_proved_sound(reports):
    assert reports["neg"].sound, reports["neg"].summary()


def test_nonzero_proved_sound(reports):
    assert reports["nonzero"].sound, reports["nonzero"].summary()


def test_nonnull_proved_sound(reports):
    assert reports["nonnull"].sound, reports["nonnull"].summary()


def test_flow_qualifiers_trivially_sound(reports):
    # tainted/untainted have no invariant: sound "for free" (2.1.4).
    assert reports["tainted"].sound
    assert reports["untainted"].sound
    assert all(r.obligation.trivial for r in reports["tainted"].results)


def test_unique_proved_sound(reports):
    assert reports["unique"].sound, reports["unique"].summary()


def test_unaliased_proved_sound(reports):
    assert reports["unaliased"].sound, reports["unaliased"].summary()


def test_value_qualifier_obligation_counts(reports):
    # One obligation per case clause (section 4.2).
    assert len(reports["pos"].results) == len(POS.cases)
    assert len(reports["nonzero"].results) == len(NONZERO.cases)


def test_ref_qualifier_obligation_shape(reports):
    rules = [r.obligation.rule for r in reports["unique"].results]
    assert any(r.startswith("assign 1") for r in rules)
    assert any(r.startswith("assign 2") for r in rules)
    assert sum(1 for r in rules if r.startswith("preservation")) == 6


def test_restrict_clauses_ignored_by_soundness():
    # nonzero's restrict clause contributes no obligation (2.1.3).
    obs = generate_obligations(NONZERO, QUALS)
    assert len(obs) == len(NONZERO.cases)


# ------------------------------------------------------------------ negative


def test_paper_mutation_pos_minus_is_caught():
    """Section 2.1.3: pattern E1 - E2 instead of E1 * E2 must fail."""
    bad = parse_qualifier(POS_SOURCE.replace("E1 * E2", "E1 - E2"))
    report = check_soundness(bad, QUALS, time_limit=20)
    assert not report.sound
    failing = [r.obligation.rule for r in report.failures]
    assert any("E1 - E2" in rule for rule in failing)
    # The other clauses still prove.
    assert len(report.failures) == 1


def test_paper_mutation_unique_without_disallow_is_caught():
    """Section 2.2.3: omitting `disallow L` breaks preservation — the
    'store the value of l in l'' case is no longer provable."""
    bad = parse_qualifier(UNIQUE_SOURCE.replace("disallow L", ""))
    report = check_soundness(bad, QUALS, time_limit=20)
    assert not report.sound
    failing = [r.obligation.rule for r in report.failures]
    assert any("read of an l-value" in rule for rule in failing)


def test_unaliased_without_disallow_is_caught():
    bad = parse_qualifier(UNALIASED_SOURCE.replace("disallow &X", ""))
    report = check_soundness(bad, QUALS, time_limit=20)
    assert not report.sound
    failing = [r.obligation.rule for r in report.failures]
    assert any("address of a variable" in rule for rule in failing)


def test_wrong_constant_rule_is_caught():
    bad = parse_qualifier(POS_SOURCE.replace("C > 0", "C >= 0"))
    report = check_soundness(bad, QUALS, time_limit=20)
    assert not report.sound


@pytest.mark.parametrize(
    "condition, invariant",
    [("C != -1", "value(E) != -1"), ("C < -3", "value(E) < -3")],
)
def test_negative_where_constant_is_proved(condition, invariant):
    # ``-k`` parses as the number -k, not ``0 - k``, so the prover's
    # arithmetic sees it; the same rule with a wrong bound stays refuted.
    qdef = parse_qualifier(
        "value qualifier negk(int Expr E)\n"
        f"  case E of decl int Const C: C, where {condition}\n"
        f"  invariant {invariant}"
    )
    assert qdef.cases[0].predicate.right == Q.ANum(int(condition.split()[-1]))
    assert check_soundness(qdef, QUALS, time_limit=20).sound
    wrong = parse_qualifier(
        "value qualifier negk(int Expr E)\n"
        f"  case E of decl int Const C: C, where {condition.replace('-', '')}\n"
        f"  invariant {invariant}"
    )
    assert not check_soundness(wrong, QUALS, time_limit=20).sound


@pytest.mark.parametrize(
    "condition, invariant, sound",
    [
        ("C != -(1)", "value(E) != -1", True),
        ("C != 0 - 1", "value(E) != -1", True),
        ("C != 2 * 3 - 7", "value(E) != 0 - 1", True),
        ("C != (0 - 1)", "value(E) != 1", False),
    ],
)
def test_ground_arithmetic_is_folded(condition, invariant, sound):
    # Ground ``+ - *`` in a where clause or an invariant becomes one
    # number before it reaches the prover, however it is spelled.
    qdef = parse_qualifier(
        "value qualifier negk(int Expr E)\n"
        f"  case E of decl int Const C: C, where {condition}\n"
        f"  invariant {invariant}"
    )
    assert check_soundness(qdef, QUALS, time_limit=20).sound is sound


def test_wrong_invariant_is_caught():
    bad = parse_qualifier(POS_SOURCE.replace("value(E) > 0", "value(E) > 1"))
    report = check_soundness(bad, QUALS, time_limit=20)
    assert not report.sound


def test_bogus_assign_rule_is_caught():
    # Allowing arbitrary l-value reads into unique is unsound.
    bad = parse_qualifier(
        UNIQUE_SOURCE.replace(
            "assign L\n      NULL\n    | new",
            "assign L\n      NULL\n    | new\n    | decl T* LValue L2: L2",
        )
    )
    report = check_soundness(bad, QUALS, time_limit=20)
    assert not report.sound
    failing = [r.obligation.rule for r in report.failures]
    assert any(r.startswith("assign 3") for r in failing)


# ------------------------------------------------------------- performance


def test_value_qualifiers_prove_quickly(reports):
    """Paper: value qualifiers prove in under a second with Simplify;
    our pure-Python prover gets an order of magnitude of slack."""
    for name in ("pos", "neg", "nonzero", "nonnull"):
        assert reports[name].elapsed < 10, f"{name}: {reports[name].elapsed}s"


def test_ref_qualifiers_prove_within_paper_bound(reports):
    """Paper: reference qualifiers prove in under 30 seconds."""
    for name in ("unique", "unaliased"):
        assert reports[name].elapsed < 30, f"{name}: {reports[name].elapsed}s"


# ------------------------------------------------------------- budgets
#
# The prover's budgets mean what they say (DESIGN.md §5): below the
# instantiation depth a proof needs, or without the sign lemmas, the
# answer is "not proven", never a wrong "sound".


@pytest.mark.parametrize("max_rounds", [0, 2, 4, 6])
def test_pos_is_sound_from_two_rounds_and_never_at_zero(max_rounds):
    report = check_soundness(POS, QUALS, max_rounds=max_rounds, time_limit=20)
    # With zero rounds no axiom can instantiate: incomplete, not unsound.
    assert report.sound == (max_rounds >= 2), report.summary()


@pytest.mark.parametrize("max_rounds", [3, 6])
def test_unaliased_is_sound_from_three_instantiation_rounds(max_rounds):
    report = check_soundness(UNALIASED, QUALS, max_rounds=max_rounds, time_limit=25)
    assert report.sound, report.summary()


def test_pos_product_rule_needs_the_sign_lemmas(monkeypatch):
    from repro.core.soundness.axioms import semantics_axioms
    from repro.prover import prover as prover_mod

    (product,) = [
        ob for ob in generate_obligations(POS, QUALS) if "E1 * E2" in ob.rule
    ]

    def prove():
        prover = prover_mod.Prover(time_limit=20)
        prover.add_axioms(semantics_axioms())
        return prover.prove(product.goal).proved

    assert prove()
    monkeypatch.setattr(
        prover_mod.Prover, "_add_product_lemmas", lambda self, db, done: None
    )
    assert not prove()
