"""Obligation work items: the generate / discharge split.

The soundness pipeline has two halves that used to be fused inside
``check_soundness``: *generating* proof obligations from a qualifier
definition, and *discharging* them with the prover.  This module
reifies the boundary as :class:`ObligationWorkItem` — a self-contained,
content-addressed description of one obligation — so the two halves can
run in different processes: the batch parent generates items, groups
them by environment digest (obligations sharing a digest can share one
:class:`repro.prover.session.ProverSession`), ships them to pool
workers, and re-assembles the streamed verdicts into ordinary
:class:`SoundnessReport` objects.

Outcomes cross the process boundary as plain dicts (pickle/JSON-safe);
:func:`result_from_outcome` reconstructs a faithful
:class:`ObligationResult` on the parent side, so an assembled report is
shaped exactly like a ``check_soundness`` one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.core.qualifiers.ast import QualifierDef, QualifierSet
from repro.core.qualifiers.validate import validate_definition
from repro.core.soundness.checker import (
    ObligationResult,
    SoundnessReport,
    discharge_obligation,
)
from repro.core.soundness.obligations import Obligation, generate_obligations
from repro.harness.watchdog import NO_RETRY, Deadline, RetryPolicy
from repro.prover.prover import GAVE_UP, ProofResult
from repro.prover.terms import Formula


@dataclass(frozen=True)
class ObligationWorkItem:
    """One proof obligation, self-contained.

    ``env_digest`` groups items whose proofs may share solver state (the
    proof-cache environment key: axioms + qualifier definition text).
    """

    unit: str
    qualifier: str
    index: int
    rule: str
    trivial: bool
    goal: Optional[Formula]
    context: str
    env_digest: str

    @property
    def key(self) -> str:
        return f"{self.unit}|{self.qualifier}|{self.index}"

    def to_obligation(self) -> Obligation:
        return Obligation(
            qualifier=self.qualifier,
            rule=self.rule,
            goal=self.goal,
            trivial=self.trivial,
        )


def generate_work_items(
    qdef: QualifierDef,
    quals: QualifierSet,
    axioms,
    unit: str = "",
) -> List[ObligationWorkItem]:
    """The generate phase: one work item per obligation of ``qdef``."""
    from repro.cache import fingerprint

    env_digest = fingerprint.environment_key(
        list(axioms), context=qdef.source
    )
    with obs.span("obligations", qualifier=qdef.name):
        obligations = list(generate_obligations(qdef, quals))
    obs.incr("soundness.obligations", len(obligations))
    return [
        ObligationWorkItem(
            unit=unit,
            qualifier=qdef.name,
            index=index,
            rule=obligation.rule,
            trivial=obligation.trivial,
            goal=obligation.goal,
            context=qdef.source,
            env_digest=env_digest,
        )
        for index, obligation in enumerate(obligations)
    ]


def discharge_work_item(
    item: ObligationWorkItem,
    axioms,
    session=None,
    max_rounds: int = 6,
    time_limit: float = 45.0,
    retry: RetryPolicy = NO_RETRY,
    deadline: Optional[Deadline] = None,
    cache=None,
) -> Dict:
    """The discharge phase: prove one item, returning an outcome dict.

    ``session`` (a :class:`repro.prover.session.ProverSession`) must
    match ``item.env_digest`` when given; pass None for the cold
    reference path (a fresh prover per item).
    The fault-handling contract is ``check_soundness``'s: exceptions
    become CRASH outcomes, expired deadlines TIMEOUT outcomes.
    """
    result = discharge_obligation(
        item.to_obligation(),
        item.context,
        axioms,
        session=session,
        max_rounds=max_rounds,
        time_limit=time_limit,
        retry=retry,
        deadline=deadline,
        cache=cache,
    )
    return outcome_from_result(item, result)


def proof_result_to_dict(result: Optional[ProofResult]) -> Optional[Dict]:
    """Flatten one ProofResult into a pickle/JSON-safe dict (the
    ``proof`` field of an outcome)."""
    if result is None:
        return None
    proof = result.to_cache_payload()
    proof["elapsed"] = result.elapsed
    proof["cached"] = result.cached
    return proof


def proof_result_from_dict(proof: Optional[Dict]) -> Optional[ProofResult]:
    """Reconstruct the ProofResult a proof dict came from."""
    if proof is None:
        return None
    return ProofResult(
        proved=bool(proof.get("proved")),
        rounds=int(proof.get("rounds", 0)),
        instances=int(proof.get("instances", 0)),
        conflicts=int(proof.get("conflicts", 0)),
        elapsed=float(proof.get("elapsed", 0.0)),
        reason=str(proof.get("reason", "")),
        verdict=str(proof.get("verdict", GAVE_UP)),
        attempts=int(proof.get("attempts", 1)),
        cached=bool(proof.get("cached")),
        countermodel=[str(f) for f in proof.get("countermodel", ())],
    )


def outcome_from_result(item: ObligationWorkItem, entry) -> Dict:
    """Flatten an ObligationResult into a pickle/JSON-safe dict."""
    proof = proof_result_to_dict(entry.result)
    return {
        "key": item.key,
        "unit": item.unit,
        "qualifier": item.qualifier,
        "index": item.index,
        "rule": item.rule,
        "trivial": item.trivial,
        "verdict": entry.verdict,
        "proved": entry.proved,
        "error": entry.error,
        "proof": proof,
    }


def result_from_outcome(item: ObligationWorkItem, outcome: Dict):
    """Reconstruct the ObligationResult an outcome dict came from."""
    result = proof_result_from_dict(outcome.get("proof"))
    return ObligationResult(
        item.to_obligation(), result, error=outcome.get("error", "")
    )


def assemble_report(
    qdef: QualifierDef,
    quals: QualifierSet,
    items: List[ObligationWorkItem],
    outcomes: Dict[str, Dict],
    elapsed: float = 0.0,
):
    """Re-assemble a :class:`SoundnessReport` from discharged outcomes.

    ``items`` are this qualifier's work items in generation order;
    ``outcomes`` maps item keys to outcome dicts.  The result is shaped
    exactly like a report from ``check_soundness``.
    """
    report = SoundnessReport(qualifier=qdef.name)
    report.lint = validate_definition(qdef, quals)
    for item in sorted(items, key=lambda i: i.index):
        report.results.append(result_from_outcome(item, outcomes[item.key]))
    report.elapsed = elapsed
    return report
