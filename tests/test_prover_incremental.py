"""Push/pop incrementality: metamorphic and reference identity tests.

The incremental theory stack re-plumbs every combination check — the
SMT loop asserts/retracts literals along the SAT trail instead of
rebuilding closure state — so its non-negotiable properties are path
independence (any push/pop sequence reaching the same asserted set
yields the same verdict and equivalence classes as a cold run) and
verdict identity with the cold ddmin reference
(:class:`repro.difftest.oracles.DdminProver`) over the standard
library and ``examples/*.qual``.
"""

import glob
import os
import random

import pytest

from repro import api, obs
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.qualifiers.parser import parse_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.checker import check_soundness
from repro.core.soundness.obligations import generate_obligations
from repro.difftest.oracles import DdminProver, ddmin_check
from repro.prover import combine
from repro.prover.prover import Prover
from repro.prover.session import ProverSession
from repro.prover.terms import Eq, Int, fn

QUALS = standard_qualifiers()
AXIOMS = semantics_axioms()

CONSTS = [fn(name) for name in "abcde"]


def _random_eq_literals(rng, n):
    """Random (dis)equality literals over a small EUF vocabulary."""

    def term():
        r = rng.random()
        if r < 0.5:
            return rng.choice(CONSTS)
        if r < 0.7:
            return Int(rng.randint(0, 2))
        return fn("f", rng.choice(CONSTS))

    return [
        (Eq(term(), term()), rng.random() < 0.75) for _ in range(n)
    ]


def _consistent_literal_set(seed, n=10):
    """A random literal set that the cold checker finds consistent (so
    push sequences never conflict and end states are comparable)."""
    rng = random.Random(f"incremental:{seed}")
    while True:
        literals = _random_eq_literals(rng, n)
        if ddmin_check(list(literals)) is None:
            return literals


def _atom_terms(literals):
    terms = []
    for atom, _ in literals:
        terms.extend((atom.left, atom.right))
    return terms


def _partition(cc, terms):
    """The equivalence relation restricted to ``terms``, as a
    comparable signature."""
    return [
        tuple(cc.are_equal(x, y) for y in terms) for x in terms
    ]


class TestPushPopPathIndependence:
    @pytest.mark.parametrize("seed", range(20))
    def test_any_pushpop_walk_matches_cold_run(self, seed):
        literals = _consistent_literal_set(seed)
        rng = random.Random(f"walk:{seed}")

        walked = combine.TheoryState()
        index = 0
        while index < len(literals):
            if walked.depth > 0 and rng.random() < 0.35:
                count = rng.randint(1, walked.depth)
                walked.pop(count)
                index -= count
            else:
                walked.push(literals[index])
                index += 1

        cold = combine.TheoryState()
        for literal in literals:
            cold.push(literal)

        assert walked.depth == cold.depth == len(literals)
        terms = _atom_terms(literals)
        assert _partition(walked.cc, terms) == _partition(cold.cc, terms)

        def flat(constraints):
            return [
                (c.coeffs, c.const, c.op, c.tags) for c in constraints
            ]

        assert flat(walked.constraints) == flat(cold.constraints)

    @pytest.mark.parametrize("seed", range(12))
    def test_check_history_is_invisible(self, seed):
        # Interleaving checks of arbitrary other literal lists must not
        # change what a final check of the target list concludes.
        rng = random.Random(f"history:{seed}")
        target = _random_eq_literals(rng, 8)
        state = combine.TheoryState()
        for _ in range(5):
            state.check(_random_eq_literals(rng, rng.randint(2, 10)))
        warm = state.check(list(target))
        cold = ddmin_check(list(target))
        assert (warm is None) == (cold is None)
        if warm is None:
            terms = _atom_terms(target)
            fresh = combine.TheoryState()
            assert fresh.check(list(target)) is None
            assert _partition(state.cc, terms) == _partition(
                fresh.cc, terms
            )
        else:
            assert not combine._consistent(warm)

    def test_rewind_to_empty_forgets_everything(self):
        state = combine.TheoryState()
        a, b = CONSTS[0], CONSTS[1]
        assert state.check([(Eq(a, b), True), (Eq(a, b), False)]) is not None
        state.rewind(0)
        assert state.depth == 0
        assert state.check([(Eq(a, b), True)]) is None


class TestSessionWarmForest:
    def _obligations(self, names, limit=4):
        goals = []
        for qdef in QUALS:
            if qdef.name not in names:
                continue
            goals.extend(
                o.goal
                for o in generate_obligations(qdef, QUALS)
                if not o.trivial
            )
        return goals[:limit]

    def test_explain_and_ddmin_sessions_agree(self):
        goals = self._obligations(("nonneg", "pos", "nonnull"), limit=8)
        assert goals
        forest = ProverSession(AXIOMS, context="t", time_limit=15)
        ddmin = DdminProver(time_limit=15)
        ddmin.add_axioms(AXIOMS)
        for goal in goals:
            assert (
                forest.prove(goal).verdict == ddmin.prove(goal).verdict
            )
        assert forest.counters["proofs"] == len(goals)

    def test_core_strategy_is_not_an_option(self):
        with pytest.raises(TypeError):
            ProverSession(AXIOMS, explain=False)
        with pytest.raises(TypeError):
            Prover(explain=False)
        assert not hasattr(ProverSession, "set_explain")

    def test_sessions_are_not_an_option(self):
        """Each qualifier group builds its own session; no caller can
        hand the scheduler or the cold reference a shared one."""
        from repro.harness.shard import run_obligations

        with pytest.raises(TypeError):
            run_obligations([], AXIOMS, sessions=None)
        with pytest.raises(TypeError):
            check_soundness(QUALS.get("pos"), QUALS, sessions=True)


class TestExplainVsDdminOracle:
    def test_oracle_smoke_on_generated_cases(self):
        from repro.difftest import runner
        from repro.difftest.generator import GenConfig, generate_case

        compared = 0
        for index in range(3):
            case = generate_case(7, index, GenConfig())
            outcome = runner.run_case(
                case, time_limit=10.0, which=("explain-vs-ddmin",)
            )
            assert outcome.findings == [], [
                f.to_dict() for f in outcome.findings
            ]
            compared += outcome.counters.get(
                "explain_vs_ddmin.compared", 0
            )
        assert compared > 0, "oracle never compared a verdict"


# --------------------------------- strategy identity (ddmin reference)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _qualifier_sweep():
    """(qualifier set, definitions to prove) for the standard library
    and every ``examples/*.qual`` file, composed as ``prove`` does."""
    sweep = [(QUALS, list(QUALS))]
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.qual"))):
        with open(path, encoding="utf-8") as handle:
            defs = parse_qualifiers(handle.read())
        quals = QualifierSet(
            list(QUALS) + [d for d in defs if d.name not in QUALS.names]
        )
        sweep.append((quals, defs))
    return sweep


class TestDdminReferenceIdentity:
    def test_library_and_examples_match_ddmin_reference(self):
        """Every obligation of the standard library and the example
        definitions gets the same verdict from the explained-core
        prover as from the cold ddmin reference, and no explained core
        falls back to ddmin."""
        reference = DdminProver(time_limit=30)
        reference.add_axioms(AXIOMS)
        owner = not obs.enabled()
        if owner:
            obs.enable()
        marker = obs.mark()
        compared = []
        try:
            for quals, defs in _qualifier_sweep():
                for qdef in defs:
                    report = check_soundness(qdef, quals, time_limit=30)
                    for res in report.results:
                        if res.obligation.trivial:
                            continue
                        ref = reference.prove_with_retry(res.obligation.goal)
                        compared.append(
                            (
                                qdef.name,
                                res.obligation.rule,
                                (res.verdict, res.proved),
                                (ref.verdict, ref.proved),
                            )
                        )
            fallbacks = obs.since(marker)["counters"].get(
                "prover.explain_fallbacks", 0
            )
        finally:
            if owner:
                obs.disable()
                obs.reset()
        assert len(compared) > 30
        assert [c for c in compared if c[2] != c[3]] == []
        assert fallbacks == 0

    def test_prove_request_has_no_strategy_fields(self):
        for field in ("explain", "session"):
            with pytest.raises(TypeError):
                api.ProveRequest(files=("x.qual",), **{field: False})
