"""Push/pop incrementality: metamorphic and golden identity tests.

The incremental theory stack re-plumbs every combination check — the
SMT loop asserts/retracts literals along the SAT trail instead of
rebuilding closure state — so its non-negotiable properties are path
independence (any push/pop sequence reaching the same asserted set
yields the same verdict and equivalence classes as a cold run) and
verdict identity between the ``--no-explain`` ablation and the
default, all the way up to byte-compared batch reports at ``--jobs 2``
(mirroring ``tests/test_shard.py``).
"""

import json
import random
import re

import pytest

from repro import api
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.obligations import generate_obligations
from repro.prover import combine
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
        if combine._check(list(literals)) is None:
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
        cold = combine._check(list(target))
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
        ddmin = ProverSession(
            AXIOMS, context="t", time_limit=15, explain=False
        )
        assert forest.theory_state is not None
        assert ddmin.theory_state is None
        for goal in goals:
            assert (
                forest.prove(goal).verdict == ddmin.prove(goal).verdict
            )

    def test_set_explain_flip_preserves_verdicts(self):
        goals = self._obligations(("nonneg", "pos"), limit=4)
        session = ProverSession(AXIOMS, context="t", time_limit=15)
        before = [session.prove(goal).verdict for goal in goals]
        session.set_explain(False)
        assert session.theory_state is None
        assert [session.prove(g).verdict for g in goals] == before
        session.set_explain(True)
        assert session.theory_state is not None
        assert [session.prove(g).verdict for g in goals] == before


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


# ----------------------------------------- golden verdict identity (API)

NN_QUAL = """
value qualifier nn3(int Expr E)
  case E of
      decl int Const C:
        C, where C >= 0
    | decl int Expr E1, E2:
        E1 + E2, where nn3(E1) && nn3(E2)
  invariant value(E) >= 0
"""

POS_QUAL = """
value qualifier pp3(int Expr E)
  case E of
      decl int Const C:
        C, where C > 0
    | decl int Expr E1, E2:
        E1 * E2, where pp3(E1) && pp3(E2)
  invariant value(E) > 0
"""


def _scrub(node):
    """Drop wall-clock fields and search statistics.  Conflict counts
    (like milliseconds) depend on the SAT search path, which learned
    cores legitimately steer differently per strategy; verdicts,
    reasons, and countermodels must still match exactly."""
    if isinstance(node, dict):
        return {k: _scrub(v) for k, v in node.items() if k != "elapsed"}
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    if isinstance(node, str):
        node = re.sub(r"[0-9.]+ m?s\b", "_", node)
        return re.sub(r"(rounds|instances|conflicts)=[0-9]+", r"\1=_", node)
    return node


def _normalize(payload):
    """A prove payload minus the documented additive counter blocks
    (session/cache/scheduler stats legitimately differ between core
    strategies — e.g. how many cores were learned — while per-unit
    reports must not)."""
    payload = _scrub(payload)
    for key in ("sessions", "cache", "scheduler", "incremental"):
        payload.pop(key, None)
    for unit in payload["units"]:
        for key in ("sessions", "cache", "incremental"):
            (unit.get("detail") or {}).pop(key, None)
    return payload


def _prove(files, **options) -> dict:
    """One uncached prove on a fresh one-shot workspace, as the CLI runs it."""
    with api.Workspace(incremental=False) as ws:
        return ws.prove(
            api.ProveRequest(files=files, cache=False, **options)
        ).to_dict()


class TestGoldenVerdictIdentity:
    @pytest.fixture
    def qual_files(self, tmp_path):
        a = tmp_path / "nn.qual"
        b = tmp_path / "pp.qual"
        a.write_text(NN_QUAL)
        b.write_text(POS_QUAL)
        return (str(a), str(b))

    def test_no_explain_report_is_byte_identical_at_jobs_2(
        self, qual_files
    ):
        forest = _prove(qual_files, jobs=2)
        ddmin = _prove(qual_files, jobs=2, explain=False)
        assert json.dumps(_normalize(forest), sort_keys=True) == json.dumps(
            _normalize(ddmin), sort_keys=True
        )
        # Both paths really ran the sharded scheduler.
        assert forest["scheduler"]["obligations"] > 0
        assert ddmin["scheduler"]["obligations"] > 0

    def test_no_explain_serial_matches_default(self, qual_files):
        forest = _prove(qual_files)
        ddmin = _prove(qual_files, explain=False)
        assert _normalize(forest) == _normalize(ddmin)
