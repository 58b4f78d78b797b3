"""Soundness-checker driver: generate obligations, discharge with the
prover, and report per-rule results (paper section 4)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import faults, obs
from repro.core.qualifiers.ast import QualifierDef, QualifierSet
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.obligations import Obligation, generate_obligations
from repro.harness.watchdog import (
    NO_RETRY,
    Deadline,
    RetryPolicy,
    recursion_guard,
)
from repro.prover.prover import GAVE_UP, TIMEOUT, ProofResult, Prover


@dataclass
class ObligationResult:
    obligation: Obligation
    result: Optional[ProofResult]  # None for trivial obligations
    # Non-empty when discharging this obligation crashed the prover
    # (the exception is recorded, the remaining obligations still run).
    error: str = ""

    @property
    def proved(self) -> bool:
        return (
            not self.error
            and (
                self.obligation.trivial
                or (self.result is not None and self.result.proved)
            )
        )

    @property
    def verdict(self) -> str:
        if self.error:
            return "CRASH"
        if self.obligation.trivial:
            return "PROVED"
        return self.result.verdict if self.result is not None else GAVE_UP

    def __str__(self) -> str:
        if self.error:
            return f"{self.obligation}: CRASH ({self.error})"
        if self.obligation.trivial:
            return f"{self.obligation}: trivially sound (no invariant)"
        return f"{self.obligation}: {self.result}"

    def explain_failure(self, max_facts: Optional[int] = None) -> str:
        """A readable account of why the rule was rejected, from the
        prover's candidate countermodel.

        Every fact is shown by default — a scenario with bindings
        missing (e.g. for variables introduced only by ``extra``
        axioms) is not replayable.  Passing ``max_facts`` truncates,
        but then says how many facts were left out."""
        if self.proved:
            return "obligation proved; nothing to explain"
        lines = [f"rule not proven: {self.obligation.rule}"]
        # NB: ProofResult.__bool__ is `proved`, so test identity.
        facts = self.result.countermodel if self.result is not None else []
        if facts:
            lines.append("a scenario the rule fails to exclude:")
            ordered = [f for f in facts if not f.startswith("¬")]
            ordered += [f for f in facts if f.startswith("¬")]
            shown = ordered if max_facts is None else ordered[:max_facts]
            lines.extend(f"  {fact}" for fact in shown)
            omitted = len(ordered) - len(shown)
            if omitted > 0:
                lines.append(f"  ... ({omitted} more fact(s) omitted)")
        return "\n".join(lines)


@dataclass
class SoundnessReport:
    qualifier: str
    results: List[ObligationResult] = field(default_factory=list)
    elapsed: float = 0.0
    # Definition-level lint findings (see qualifiers.validate); these do
    # not affect soundness but usually explain why a proof failed.
    lint: List[str] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return all(r.proved for r in self.results)

    @property
    def failures(self) -> List[ObligationResult]:
        return [r for r in self.results if not r.proved]

    def summary(self) -> str:
        verdict = "SOUND" if self.sound else "POTENTIALLY UNSOUND"
        lines = [
            f"qualifier {self.qualifier}: {verdict} "
            f"({len(self.results)} obligation(s), {self.elapsed:.2f} s)"
        ]
        lines.extend(f"  {r}" for r in self.results)
        lines.extend(f"  note: {p}" for p in self.lint)
        return "\n".join(lines)

    @property
    def cached_count(self) -> int:
        """How many obligations were replayed from the proof cache."""
        return sum(
            1
            for r in self.results
            if r.result is not None and r.result.cached
        )

    def to_dict(self) -> Dict:
        """JSON-ready shape for ``--format json`` reports."""
        return {
            "qualifier": self.qualifier,
            "sound": self.sound,
            "elapsed": self.elapsed,
            "obligations": [
                {
                    "rule": r.obligation.rule,
                    "verdict": r.verdict,
                    "proved": r.proved,
                    "reason": (
                        r.error
                        if r.error
                        else (r.result.reason if r.result is not None else "")
                    ),
                    "elapsed": r.result.elapsed if r.result is not None else 0.0,
                    "cached": r.result.cached if r.result is not None else False,
                    # Complete countermodel for unproved obligations
                    # (additive; absent when there is nothing to show).
                    **(
                        {"countermodel": list(r.result.countermodel)}
                        if (
                            not r.proved
                            and r.result is not None
                            and r.result.countermodel
                        )
                        else {}
                    ),
                }
                for r in self.results
            ],
            "lint": list(self.lint),
        }


def discharge_obligation(
    obligation: Obligation,
    context: str,
    axioms,
    session=None,
    max_rounds: int = 6,
    time_limit: float = 45.0,
    retry: RetryPolicy = NO_RETRY,
    deadline: Optional[Deadline] = None,
    cache=None,
) -> ObligationResult:
    """Discharge one obligation — the single prover entry point shared
    by :func:`check_soundness` and the obligation scheduler.

    ``context`` is the qualifier definition's source text (folded into
    the proof-cache environment key).  ``session`` is an optional
    :class:`repro.prover.session.ProverSession` for the obligation's
    axiom environment; when absent a fresh prover is built — the cold
    reference that sessions are tested against, and the library
    default of :func:`check_soundness`.
    """
    if obligation.trivial:
        return ObligationResult(obligation, None)
    deadline = deadline or Deadline(None)
    if deadline.expired():
        return ObligationResult(
            obligation,
            ProofResult(proved=False, reason="time limit", verdict=TIMEOUT),
        )
    # Chaos site: an injected stall standing in for a prover whose
    # budget estimate was wildly off (cooperates with the deadline).
    faults.maybe_slow_prover(
        f"{obligation.qualifier}:{obligation.rule}", deadline=deadline
    )
    try:
        with recursion_guard():
            if session is not None:
                result = session.prove_with_retry(
                    obligation.goal,
                    retry=retry,
                    deadline=deadline,
                    cache=cache,
                    cache_context=context,
                    max_rounds=max_rounds,
                    time_limit=time_limit,
                )
            else:
                prover = Prover(max_rounds=max_rounds, time_limit=time_limit)
                prover.add_axioms(axioms)
                result = prover.prove_with_retry(
                    obligation.goal,
                    retry=retry,
                    deadline=deadline,
                    cache=cache,
                    cache_context=context,
                )
        return ObligationResult(obligation, result)
    except (RecursionError, MemoryError) as exc:
        return ObligationResult(obligation, None, error=type(exc).__name__)
    except Exception as exc:  # prover bug: survive, report, continue
        return ObligationResult(
            obligation, None, error=f"{type(exc).__name__}: {exc}"
        )


def check_soundness(
    qdef: QualifierDef,
    quals: Optional[QualifierSet] = None,
    max_rounds: int = 6,
    time_limit: float = 45.0,
    retry: RetryPolicy = NO_RETRY,
    deadline: Optional[Deadline] = None,
    cache=None,
    on_result=None,
) -> SoundnessReport:
    """Prove every obligation of one qualifier definition.

    ``quals`` supplies the definitions of qualifiers referenced by
    ``qdef``'s rules (their invariants are needed, section 4.2); it
    defaults to a set containing only ``qdef``.

    Each obligation is an isolated unit of work: ``time_limit`` bounds
    every proof attempt, ``deadline`` (if given) additionally caps the
    whole report, ``retry`` re-attempts ``GAVE_UP`` results with
    escalated budgets, and an exception from the prover is recorded as
    a ``CRASH`` on that obligation while the rest still run.

    ``cache`` (a :class:`repro.cache.ProofCache`) is consulted before
    any prover work per obligation; the qualifier definition's
    normalized source text is folded into the environment key, so an
    edited definition can never replay its old verdicts, and another
    caller's proof in flight is waited for, not repeated.

    ``on_result`` (if given) is called with each
    :class:`ObligationResult` the moment it settles — the streaming
    hook the batch pipeline uses to report per-obligation progress
    while the report is still being built.  Callback errors are
    swallowed: progress reporting must never change a verdict.

    Every obligation gets a fresh :class:`~repro.prover.prover.Prover`:
    this is the cold reference the obligation scheduler's per-group
    prover sessions are tested against (docs/architecture.md, "The
    obligation lifecycle").
    """
    if quals is None:
        quals = QualifierSet([qdef])
    elif qdef.name not in quals:
        quals = QualifierSet(list(quals) + [qdef])
    start = time.perf_counter()
    deadline = deadline or Deadline(None)
    report = SoundnessReport(qualifier=qdef.name)
    from repro.core.qualifiers.validate import validate_definition

    report.lint = validate_definition(qdef, quals)
    axioms = semantics_axioms()
    with obs.span("obligations", qualifier=qdef.name):
        obligations = list(generate_obligations(qdef, quals))
    obs.incr("soundness.obligations", len(obligations))

    def settle(entry: ObligationResult) -> None:
        report.results.append(entry)
        if on_result is not None:
            try:
                on_result(entry)
            except Exception:
                pass

    for obligation in obligations:
        settle(
            discharge_obligation(
                obligation,
                qdef.source,
                axioms,
                max_rounds=max_rounds,
                time_limit=time_limit,
                retry=retry,
                deadline=deadline,
                cache=cache,
            )
        )
    report.elapsed = time.perf_counter() - start
    return report


def check_all_soundness(
    quals: QualifierSet, **kwargs
) -> Dict[str, SoundnessReport]:
    """Soundness-check every qualifier in a set (definitions may be
    mutually recursive; each proof may use all the others' invariants)."""
    return {q.name: check_soundness(q, quals, **kwargs) for q in quals}
