"""Tests for the differential testing harness (`repro.difftest`).

Three layers: the building blocks (generator determinism, the shadow
semantics), the clean path (a generated corpus produces zero
disagreements and non-vacuous counters), and the adversarial path —
inject a known bug (a dropped prover axiom; a flipped must-set join)
and require the harness to catch it and produce a minimized,
replayable artifact.
"""

import dataclasses
import json
import os
from unittest import mock

import pytest

import repro.core.soundness.checker as checker_mod
from repro import api
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.qualifiers.parser import parse_qualifier, parse_qualifiers
from repro.core.qualifiers.ast import QualifierSet
from repro.dataflow.lattice import UNIVERSE, MustSetLattice
from repro.difftest import minimize, oracles, runner, shadow
from repro.difftest.generator import GenConfig, generate_case

STD = standard_qualifiers()


# ------------------------------------------------------------- generator


def test_cases_are_deterministic():
    for index in (0, 7, 123):
        a = generate_case(42, index)
        b = generate_case(42, index)
        assert a.c_source == b.c_source
        assert a.qual_source == b.qual_source
        assert a.name == b.name


def test_different_indices_differ():
    sources = {generate_case(0, i).c_source for i in range(10)}
    assert len(sources) > 1


def test_generated_sources_parse():
    case = generate_case(0, 3)
    quals, gen_names = runner.build_qualifier_set(case)
    assert gen_names  # at least one generated qualifier
    from repro.cfront.parser import parse_c

    unit = parse_c(case.c_source, qualifier_names=quals.names)
    assert not unit.errors, [str(e) for e in unit.errors]


def test_config_round_trips():
    config = GenConfig(size=5, allow_goto=False)
    assert GenConfig.from_dict(config.to_dict()) == config


# ------------------------------------------------------ shadow semantics


def _single(src: str):
    qdef = parse_qualifier(src)
    quals = QualifierSet(list(STD) + [qdef])
    return qdef, quals


def test_shadow_finds_counterexample_for_unsound_clause():
    qdef, quals = _single(
        "value qualifier q(int Expr E)\n"
        "  case E of decl int Expr E1, E2: E1 - E2, "
        "where pos(E1) && pos(E2)\n"
        "  invariant value(E) > 0\n"
    )
    verdicts = shadow.clause_verdicts(qdef, quals)
    assert len(verdicts) == 1
    _, cex = verdicts[0]
    assert isinstance(cex, dict)
    env = {k: v for k, v in cex.items()}
    assert env["E1"] > 0 and env["E2"] > 0 and env["E1"] - env["E2"] <= 0


def test_shadow_clean_box_for_sound_clause():
    qdef, quals = _single(
        "value qualifier q(int Expr E)\n"
        "  case E of decl int Expr E1, E2: E1 + E2, "
        "where pos(E1) && pos(E2)\n"
        "  invariant value(E) > 0\n"
    )
    (_, verdict), = shadow.clause_verdicts(qdef, quals)
    assert verdict is None


def test_shadow_reports_pointer_clause_unrepresentable():
    qdef, quals = _single(
        "value qualifier q(int* Expr E)\n"
        "  case E of decl int* LValue L: &L\n"
        "  invariant value(E) != NULL\n"
    )
    (_, verdict), = shadow.clause_verdicts(qdef, quals)
    assert verdict == shadow.NOT_REPRESENTABLE


# ------------------------------------------------------------ minimizer


def test_ddmin_reaches_minimal_subset():
    needle = {3, 11}
    result = minimize.ddmin(
        list(range(16)), lambda items: needle <= set(items)
    )
    assert set(result) == needle


def test_ddmin_respects_probe_budget():
    calls = []

    def pred(items):
        calls.append(1)
        return 0 in items

    minimize.ddmin(list(range(64)), pred, max_probes=10)
    assert len(calls) <= 10


def test_minimal_qual_source_keeps_premise_dependencies():
    defs = parse_qualifiers(
        "value qualifier g0(int Expr E)\n"
        "  case E of decl int Const C: C, where C > 1\n"
        "  invariant value(E) > 0\n"
        "\n"
        "value qualifier g1(int Expr E)\n"
        "  case E of decl int Expr E1: E1, where g0(E1)\n"
        "    | decl int Const C: C, where C < 0\n"
        "  invariant value(E) != 0\n"
    )
    reduced = minimize.minimal_qual_source(list(defs), "g1", 0)
    reparsed = parse_qualifiers(reduced)
    by_name = {d.name: d for d in reparsed}
    assert set(by_name) == {"g0", "g1"}
    assert len(by_name["g1"].cases) == 1  # only the offending clause


# ----------------------------------------------------------- clean path


def test_small_corpus_has_no_disagreements():
    for index in range(8):
        case = generate_case(0, index)
        outcome = runner.run_case(case, time_limit=10.0)
        assert not outcome.findings, [
            f.to_dict() for f in outcome.findings
        ]
    # non-vacuous: verdicts were actually compared
    assert outcome.counters["prover_vs_enum.obligations"] > 0


@pytest.mark.slow
def test_full_corpus_sweep_seed0():
    """The acceptance sweep: 200 cases, zero disagreements."""
    compared = 0
    for index in range(200):
        case = generate_case(0, index)
        outcome = runner.run_case(case, time_limit=10.0)
        assert not outcome.findings, [
            f.to_dict() for f in outcome.findings
        ]
        compared += outcome.counters.get("prover_vs_enum.compared", 0)
    assert compared > 500


# ------------------------------------------------------- injected bugs


_REAL_AXIOMS = checker_mod.semantics_axioms  # bind before patching


def _dropped_axioms():
    axioms = _REAL_AXIOMS()
    # Dropping the constant-evaluation axiom makes valid constant-rule
    # obligations unprovable; the prover refutes them.
    return axioms[:2] + axioms[3:]


def _flipped_join(self, a, b):
    if a is UNIVERSE:
        return b
    if b is UNIVERSE:
        return a
    return frozenset(a) | frozenset(b)  # union where intersection belongs


def _hunt(which, max_cases=60):
    for index in range(max_cases):
        case = generate_case(0, index)
        outcome = runner.run_case(case, time_limit=10.0, which=which)
        if outcome.findings:
            return case, outcome.findings[0]
    pytest.fail(f"injected bug not caught in {max_cases} cases")


def test_dropped_axiom_is_caught_minimized_and_replayable(tmp_path):
    with mock.patch.object(
        checker_mod, "semantics_axioms", _dropped_axioms
    ):
        case, finding = _hunt(("prover-vs-enum",))
        assert finding.kind == "refuted-but-valid"
        minimized = runner.minimize_finding(case, finding)
        assert minimized is not None
        # reduced to a single case clause
        reduced = parse_qualifiers(minimized["qual_source"])
        target = [d for d in reduced if d.name == finding.detail["qualifier"]]
        assert len(target) == 1 and len(target[0].cases) == 1
        path = runner.write_artifact(
            str(tmp_path), case, finding, minimized
        )
        replayed = runner.replay_artifact(path)
        assert any(
            f.kind == "refuted-but-valid" for f in replayed.findings
        )
    # with the bug fixed, the same artifact replays clean
    clean = runner.replay_artifact(path)
    assert not clean.findings


def test_flipped_join_is_caught_minimized_and_replayable(tmp_path):
    with mock.patch.object(MustSetLattice, "join", _flipped_join):
        case, finding = _hunt(("preservation",))
        assert finding.kind == "native-vs-instrumented-divergence"
        minimized = runner.minimize_finding(case, finding)
        assert minimized is not None
        original = len(case.c_source.splitlines())
        reduced = len(minimized["c_source"].splitlines())
        assert reduced < original
        path = runner.write_artifact(
            str(tmp_path), case, finding, minimized
        )
        replayed = runner.replay_artifact(path)
        assert any(
            f.kind == "native-vs-instrumented-divergence"
            for f in replayed.findings
        )
    clean = runner.replay_artifact(path)
    assert not clean.findings


def test_audit_interpreter_catches_violating_store():
    """The Thm-5.1 audit fires on a store that breaks a declared
    invariant even when no cast (hence no check) guards it."""
    from repro.cfront.parser import parse_c
    from repro.cil.lower import lower_unit
    from repro.difftest.audit import AuditInterpreter, PreservationViolation

    src = """
    int main() {
      int pos p = 5;
      p = p - 10;
      return p;
    }
    """
    program = lower_unit(parse_c(src, qualifier_names=STD.names))
    interp = AuditInterpreter(program, quals=STD)
    with pytest.raises(PreservationViolation) as err:
        interp.run("main", [])
    assert err.value.qualifier == "pos"
    assert err.value.value == -5


# ------------------------------------------------------------ api / cli


def test_api_difftest_clean_run(tmp_path):
    with api.Workspace(incremental=False) as ws:
        report = ws.difftest(
            api.DifftestRequest(
                seed=0, count=4, time_limit=10.0, out_dir=str(tmp_path)
            )
        )
    assert report.exit_code == 0
    payload = report.to_dict()
    assert payload["schema_version"] == api.SCHEMA_VERSION
    meta = payload["difftest"]  # BatchReport.meta keys land top-level
    assert meta["findings"] == 0
    assert meta["counters"]["preservation.compared_runs"] == 4
    assert not os.listdir(str(tmp_path))  # clean runs write nothing


def test_api_difftest_budget_skips_cases(tmp_path):
    with api.Workspace(incremental=False) as ws:
        report = ws.difftest(
            api.DifftestRequest(
                seed=0, count=30, budget=0.0, out_dir=str(tmp_path)
            )
        )
    assert report.exit_code == 0
    meta = report.batch.meta["difftest"]
    assert meta["cases_skipped_budget"] == 30
    assert meta["findings"] == 0


def test_api_difftest_reports_findings_as_warnings(tmp_path):
    with mock.patch.object(MustSetLattice, "join", _flipped_join), \
            api.Workspace(incremental=False) as ws:
        report = ws.difftest(
            api.DifftestRequest(
                seed=0, count=6, time_limit=10.0, out_dir=str(tmp_path)
            )
        )
    meta = report.batch.meta["difftest"]
    assert meta["findings"] > 0
    assert report.exit_code == 1  # WARNINGS
    assert meta["artifacts"]
    artifact = json.load(open(meta["artifacts"][0]))
    assert artifact["finding"]["oracle"] == "preservation"
    assert "--replay" in artifact["repro"]


def test_cli_difftest_runs(capsys):
    from repro.cli import main

    code = main(["difftest", "--seed", "0", "--count", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 disagreement(s)" in out
