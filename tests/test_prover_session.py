"""Prover sessions: verdict identity and state lifecycle.

The session layer's whole contract is "faster, never different": a
:class:`ProverSession` may transfer learned theory cores and cached
triggers across the obligations of one qualifier group, but
PROVED/REFUTED verdicts must be exactly those of a cold prover, in any
discharge order.  These tests pin that contract, that seeding never
mints atoms, and that sessions are no longer optional: the retired
``--no-session`` flag and ``session`` request field are refused.
"""

import random

import pytest

from repro import api
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.workitems import (
    discharge_work_item,
    generate_work_items,
)
from repro.prover.cnf import ClauseDb
from repro.prover.session import ProverSession

QUALS = standard_qualifiers()
AXIOMS = semantics_axioms()


def _work_items(names=None):
    items = []
    for qdef in QUALS:
        if names is not None and qdef.name not in names:
            continue
        items.extend(generate_work_items(qdef, QUALS, AXIOMS, unit="t"))
    return items


def _verdict(outcome):
    return (
        outcome["qualifier"],
        outcome["rule"],
        outcome["verdict"],
        outcome["proved"],
    )


def _cold_outcomes(items):
    return {
        item.key: discharge_work_item(item, AXIOMS, time_limit=15)
        for item in items
    }


class TestVerdictIdentity:
    def test_cold_vs_warm_session_full_sweep(self):
        """Every standard-library obligation gets the same verdict from
        a shared session as from a cold prover."""
        items = _work_items()
        cold = _cold_outcomes(items)
        sessions = {}
        warm = {}
        for item in items:
            session = sessions.get(item.env_digest)
            if session is None:
                session = ProverSession(
                    AXIOMS, context=item.context, time_limit=15
                )
                sessions[item.env_digest] = session
            warm[item.key] = discharge_work_item(
                item, AXIOMS, session=session, time_limit=15
            )
        assert {k: _verdict(v) for k, v in warm.items()} == {
            k: _verdict(v) for k, v in cold.items()
        }
        totals = {}
        for session in sessions.values():
            for key, value in session.counters.items():
                totals[key] = totals.get(key, 0) + value
        # The sweep must actually exercise reuse, or this test proves
        # nothing about state transfer.
        assert totals["session_reuse"] > 0
        assert totals["cores_learned"] > 0
        assert totals["cores_seeded"] > 0

    def test_discharge_order_permutation(self):
        """Learned-state transfer is order-insensitive: shuffling the
        obligation stream never flips a verdict."""
        items = [i for i in _work_items() if not i.trivial]
        cold = {k: _verdict(v) for k, v in _cold_outcomes(items).items()}
        rng = random.Random(1234)
        for trial in range(2):
            shuffled = list(items)
            rng.shuffle(shuffled)
            sessions = {}
            for item in shuffled:
                session = sessions.setdefault(
                    item.env_digest,
                    ProverSession(
                        AXIOMS, context=item.context, time_limit=15
                    ),
                )
                outcome = discharge_work_item(
                    item, AXIOMS, session=session, time_limit=15
                )
                assert _verdict(outcome) == cold[item.key], (
                    f"trial {trial}: order-dependent verdict for "
                    f"{item.key}"
                )


class TestLifecycle:
    def test_workspace_session_deltas_never_negative(self, tmp_path):
        """Twelve qualifier groups through one Workspace (one unit of
        8 three-clause qualifiers, then four one-clause units): each
        group's session is dropped when the group ends, and the
        run-level counters still count every proof."""
        clauses = (
            "      decl int Const C:\n"
            "        C, where C > {k}\n"
            "    | decl int Expr E1, E2:\n"
            "        E1 + E2, where {name}(E1) && {name}(E2)\n"
            "    | decl int Expr E1, int Const C:\n"
            "        E1 + C, where {name}(E1) && C >= 0\n"
        )

        def qualifier(name, k, body):
            return (
                f"value qualifier {name}(int Expr E)\n  case E of\n"
                + body.format(name=name, k=k)
                + f"  invariant value(E) > {k}\n"
            )

        big = tmp_path / "big.qual"
        big.write_text(
            "".join(qualifier(f"big{k}", k, clauses) for k in range(1, 9))
        )
        files = [str(big)]
        for k in range(1, 5):
            small = tmp_path / f"small{k}.qual"
            small.write_text(
                qualifier(f"small{k}", k, clauses.split("    |")[0])
            )
            files.append(str(small))
        with api.Workspace(incremental=False) as ws:
            report = ws.prove(
                api.ProveRequest(files=tuple(files), cache=False)
            )
        assert report.exit_code == 0, report.to_dict()
        sessions = report.to_dict()["sessions"]
        assert all(
            value >= 0 for value in sessions.values()
        ), sessions
        assert sessions["proofs"] == 28
        assert sessions["sessions"] == 12
        assert all("sessions" not in r.detail for r in report.results)

    def test_seeding_never_mints_atoms(self):
        """A core whose atoms are absent from the target db must not be
        seeded — seeding may only reuse existing SAT variables."""
        session = ProverSession(AXIOMS, context="seed-test")
        index = session.learn_core(
            [("some-atom-object", True), ("another-atom", False)]
        )
        assert index is not None
        empty = ClauseDb()
        before = len(empty.clauses)
        session.seed_cores(empty, set())
        assert len(empty.clauses) == before
        assert session.counters["cores_seeded"] == 0


class TestEscapeHatch:
    """``--no-session`` is retired: every prove path uses sessions,
    and the cold path survives only as the reference they must match."""

    QUAL = (
        "value qualifier nn2(int Expr E)\n"
        "  case E of\n"
        "      decl int Const C:\n"
        "        C, where C >= 0\n"
        "    | decl int Expr E1, E2:\n"
        "        E1 + E2, where nn2(E1) && nn2(E2)\n"
        "  invariant value(E) >= 0\n"
    )

    def test_session_prove_matches_cold_discharge(self, tmp_path):
        from repro.core.qualifiers.ast import QualifierSet
        from repro.core.qualifiers.parser import parse_qualifiers

        qual = tmp_path / "defs.qual"
        qual.write_text(self.QUAL)
        with api.Workspace(incremental=False) as ws:
            on = ws.prove(
                api.ProveRequest(files=(str(qual),), cache=False)
            ).to_dict()
        assert on["sessions"]["enabled"] is True
        assert on["sessions"]["proofs"] > 0

        (qdef,) = parse_qualifiers(self.QUAL)
        quals = QualifierSet(list(QUALS) + [qdef])
        cold = [
            discharge_work_item(item, AXIOMS, session=None, time_limit=45)
            for item in generate_work_items(qdef, quals, AXIOMS)
        ]
        assert [
            (o["rule"], o["verdict"], o["proved"])
            for u in on["units"]
            for q in u["detail"]["qualifiers"]
            for o in q["obligations"]
        ] == [(o["rule"], o["verdict"], o["proved"]) for o in cold]

    def test_cli_no_session_flag(self, tmp_path, capsys):
        from repro.cli import main

        qual = tmp_path / "defs.qual"
        qual.write_text(self.QUAL)
        with pytest.raises(SystemExit) as exit_info:
            main(["prove", str(qual), "--no-cache", "--no-session"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-session" in (
            capsys.readouterr().err
        )
