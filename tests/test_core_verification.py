"""The conflict-core safety net.

An explained conflict core is verified by one cold consistency check
before it is learned, and is not minimised further.  If verification
fails, the full literal list is decided cold: it is learned unminimised
when it is inconsistent (any theory-unsat set is a sound clause), and
the check reports no conflict when it is consistent.  Either way the
fallback is counted under ``prover.explain_fallbacks``.  These tests
break the proof-forest explanation on purpose and check that nothing
unverified is learned and no verdict moves.
"""

import contextlib
import importlib
import inspect
import pkgutil

import pytest

import repro.prover
from repro import obs
from repro.core.qualifiers.library import POS, UNIQUE, standard_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.obligations import generate_obligations
from repro.prover import combine
from repro.prover.prover import Prover
from repro.prover.terms import Eq, fn

QUALS = standard_qualifiers()
AXIOMS = semantics_axioms()

a, b, c = fn("a"), fn("b"), fn("c")


@contextlib.contextmanager
def _collected():
    """Collect obs counters over the block into the yielded dict."""
    owner = not obs.enabled()
    if owner:
        obs.enable()
    marker = obs.mark()
    counts = {}
    try:
        yield counts
        counts.update(obs.since(marker)["counters"])
    finally:
        if owner:
            obs.disable()
            obs.reset()


def _consistent_subset(literals):
    """A non-empty consistent subset of ``literals`` when one exists (a
    single consistent literal), else the empty core."""
    for literal in literals:
        if combine._consistent([literal]):
            return frozenset([literal])
    return frozenset()


def _break_explanations(monkeypatch):
    """Replace every explained core by a consistent subset; returns the
    list of (bogus core, checked literals, learned conflict) triples."""
    seen = []
    finish = combine.TheoryState._finish_core

    def bogus(self, core, literals):
        subset = _consistent_subset(literals)
        learned = finish(self, subset, literals)
        seen.append((subset, list(literals), learned))
        return learned

    monkeypatch.setattr(combine.TheoryState, "_finish_core", bogus)
    return seen


def _obligations():
    """The value qualifier ``pos`` and the assignment rules of the ref
    qualifier ``unique``.  (Its preservation rules need the pruning of
    small cores: with every core replaced by the whole literal list
    they run out of time, which would test the budget, not the net.)"""
    for qdef in (POS, UNIQUE):
        for obligation in generate_obligations(qdef, QUALS):
            if not obligation.trivial and not obligation.rule.startswith(
                "preservation"
            ):
                yield obligation


def _prove(goal):
    prover = Prover(time_limit=30)
    prover.add_axioms(AXIOMS)
    return prover.prove(goal)


def test_inconsistent_list_is_learned_whole(monkeypatch):
    literals = [(Eq(a, b), True), (Eq(b, c), True), (Eq(a, c), False)]
    seen = _break_explanations(monkeypatch)
    with _collected() as counts:
        learned = combine.TheoryState().check(list(literals))
    [(subset, _checked, _learned)] = seen
    assert subset and learned != list(subset)
    assert learned == literals
    assert counts["prover.explain_fallbacks"] == 1
    assert counts["prover.cores"] == 1


def test_consistent_list_is_not_a_conflict():
    literals = [(Eq(a, b), True), (Eq(b, c), True)]
    state = combine.TheoryState()
    with _collected() as counts:
        for core in (frozenset(literals[:1]), frozenset()):
            assert state._finish_core(core, list(literals)) is None
    assert counts["prover.explain_fallbacks"] == 2
    assert "prover.cores" not in counts


def test_broken_explanations_learn_nothing_unverified_and_keep_verdicts(
    monkeypatch,
):
    obligations = list(_obligations())
    honest = [_prove(o.goal).verdict for o in obligations]
    seen = _break_explanations(monkeypatch)
    with _collected() as counts:
        broken = [_prove(o.goal).verdict for o in obligations]
    assert broken == honest
    assert "PROVED" in honest
    assert seen
    assert counts["prover.explain_fallbacks"] == len(seen)
    for subset, literals, learned in seen:
        if learned is None:
            assert combine._consistent(literals)
            continue
        assert learned == literals
        assert not combine._consistent(learned)
        if subset:
            assert learned != list(subset)


def test_prover_package_holds_no_ddmin_minimiser():
    assert not hasattr(combine, "_check")
    for info in pkgutil.iter_modules(repro.prover.__path__):
        module = importlib.import_module(f"repro.prover.{info.name}")
        assert not hasattr(module, "_check"), info.name
        assert "ddmin" not in inspect.getsource(module).lower(), info.name
