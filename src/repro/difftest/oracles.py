"""The four differential oracles.

Each oracle takes a generated case plus the composed qualifier set and
returns ``(findings, counters)``: findings are concrete disagreements
between two independent implementations of the same semantics, and the
counters record how much comparison actually happened (so a silently
vacuous run is visible in reports).

1. *Prover vs. small-scope enumeration* — every settled verdict of the
   soundness prover on a generated rule is re-derived by brute force
   over a bounded integer box (:mod:`repro.difftest.shadow`).  A PROVED
   rule with a box counterexample is an unsoundness; a REFUTED rule
   with a clean box (or with an empty countermodel) is a bogus
   refutation.

2. *Static vs. dynamic preservation* — a checker-accepted program runs
   twice: natively (interpreter-enforced casts, plus the Thm.-5.1
   audit of :mod:`repro.difftest.audit`) and instrumented (inserted
   ``__check_*`` calls only, native checks off).  The two executions
   must agree on outcome, output, and — when a violation occurs —
   which qualifier was violated; an audit failure in an accepted
   program is a harness failure outright.

3. *Metamorphic prover invariance* — alpha-renaming the goal,
   permuting the axioms, reordering hypothesis conjuncts, and
   cache-cold vs. cache-warm replay must never flip a settled
   PROVED/REFUTED verdict.

4. *Forest vs. ddmin cores* — discharging the same qualifier with
   proof-forest conflict explanations (what the prover runs) and with
   the search-based ddmin core minimizer (:class:`DdminProver`, the
   cold reference) must yield the same verdict on every obligation.
   Conflict cores only prune the SAT search; the strategy that
   produced them must never decide it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cfront.parser import parse_c
from repro.cil.lower import lower_unit
from repro.core.checker.instrument import instrument_program
from repro.core.checker.typecheck import QualifierChecker
from repro.core.qualifiers.ast import QualifierSet
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.checker import check_soundness
from repro.core.soundness.obligations import generate_obligations
from repro.difftest import shadow
from repro.difftest.audit import AuditInterpreter, PreservationViolation
from repro.difftest.generator import GeneratedCase
from repro.difftest.minimize import ddmin
from repro.prover import combine
from repro.prover.prover import Prover
from repro.prover.terms import (
    And,
    ForAll,
    Implies,
    TVar,
    formula_subst,
    term_subst,
)
from repro.semantics.csem import (
    CInterpreter,
    CRuntimeError,
    NullDereference,
    QualifierViolation,
)

PROVED = "PROVED"
REFUTED = "REFUTED"
SETTLED = (PROVED, REFUTED)


@dataclass
class Finding:
    """One concrete disagreement between two implementations."""

    oracle: str  # "prover-vs-enum" | "preservation" | "metamorphic"
                 # | "explain-vs-ddmin"
    kind: str    # short machine-readable failure class
    case: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "kind": self.kind,
            "case": self.case,
            "detail": self.detail,
        }


# --------------------------------------- oracle 1: prover vs enumeration


def prover_vs_enum(
    case: GeneratedCase,
    quals: QualifierSet,
    gen_names: List[str],
    time_limit: float = 10.0,
    bound: int = shadow.DEFAULT_BOUND,
) -> Tuple[List[Finding], Dict[str, int]]:
    findings: List[Finding] = []
    counters = {
        "obligations": 0,
        "compared": 0,
        "unsettled": 0,
        "not_representable": 0,
    }
    for name in gen_names:
        qdef = quals.get(name)
        if qdef is None or not qdef.is_value:
            continue
        report = check_soundness(qdef, quals, time_limit=time_limit)
        truths = dict(
            (id(clause), verdict)
            for clause, verdict in shadow.clause_verdicts(
                qdef, quals, bound
            )
        )
        # Obligations for case clauses carry rule "case i: <clause>"
        # with 1-based i; match them back to the clause by that index.
        for res in report.results:
            counters["obligations"] += 1
            rule = res.obligation.rule
            if not rule.startswith("case "):
                continue
            try:
                index = int(rule.split(":", 1)[0][len("case "):]) - 1
                clause = qdef.cases[index]
            except (ValueError, IndexError):
                continue
            if not rule.endswith(str(clause)):
                continue  # rule numbering drifted; never mismatch
            truth = truths.get(id(clause))
            base = {
                "qualifier": name,
                "rule": rule,
                "clause": str(clause),
                "verdict": res.verdict,
                "qual_source": case.qual_source,
            }
            if res.verdict == "CRASH":
                findings.append(
                    Finding(
                        "prover-vs-enum", "prover-crash", case.name,
                        {**base, "error": res.error},
                    )
                )
                continue
            if res.verdict not in SETTLED or res.obligation.trivial:
                counters["unsettled"] += 1
                continue
            if truth == shadow.NOT_REPRESENTABLE:
                counters["not_representable"] += 1
                continue
            counters["compared"] += 1
            if res.verdict == PROVED and isinstance(truth, dict):
                findings.append(
                    Finding(
                        "prover-vs-enum", "proved-but-counterexample",
                        case.name,
                        {**base, "box_counterexample": truth},
                    )
                )
            elif res.verdict == REFUTED:
                # NB: ProofResult.__bool__ is `proved` — test against
                # None, or every refutation looks countermodel-less.
                countermodel = (
                    res.result.countermodel
                    if res.result is not None
                    else []
                )
                if not isinstance(truth, dict):
                    findings.append(
                        Finding(
                            "prover-vs-enum", "refuted-but-valid",
                            case.name,
                            {**base, "countermodel": countermodel,
                             "box_bound": bound},
                        )
                    )
                elif not countermodel:
                    findings.append(
                        Finding(
                            "prover-vs-enum", "refuted-without-countermodel",
                            case.name,
                            {**base, "box_counterexample": truth},
                        )
                    )
    return findings, counters


# ------------------------------------------ oracle 2: preservation A/B


def _execute(interp: CInterpreter) -> dict:
    """Run to completion and summarize the observable outcome."""
    try:
        value = interp.run("main", [])
        return {
            "kind": "exit",
            "value": value,
            "output": "".join(interp.output),
        }
    except PreservationViolation:
        raise
    except QualifierViolation as exc:
        return {
            "kind": "qualifier-violation",
            "qualifier": exc.qualifier,
            "output": "".join(interp.output),
        }
    except NullDereference as exc:
        return {
            "kind": "null-dereference",
            "error": str(exc),
            "output": "".join(interp.output),
        }
    except CRuntimeError as exc:
        return {
            "kind": "runtime-error",
            "error": str(exc),
            "output": "".join(interp.output),
        }


def preservation(
    case: GeneratedCase, quals: QualifierSet
) -> Tuple[List[Finding], Dict[str, int]]:
    findings: List[Finding] = []
    counters = {
        "programs": 1,
        "accepted": 0,
        "static_warnings": 0,
        "compared_runs": 0,
    }
    unit = parse_c(
        case.c_source,
        qualifier_names=quals.names,
        recover=True,
        filename=f"{case.name}.c",
    )
    if unit.errors:
        findings.append(
            Finding(
                "preservation", "generator-invalid-program", case.name,
                {
                    "errors": [str(e) for e in unit.errors],
                    "c_source": case.c_source,
                },
            )
        )
        return findings, counters
    program = lower_unit(unit)
    check_report = QualifierChecker(
        program, quals, flow_sensitive=True
    ).check()
    accepted = not check_report.diagnostics
    if accepted:
        counters["accepted"] += 1
    else:
        counters["static_warnings"] += 1

    base = {
        "c_source": case.c_source,
        "qual_source": case.qual_source,
        "diagnostics": [str(d) for d in check_report.diagnostics],
    }

    # Run A: native semantics; in accepted programs, additionally audit
    # every store against the declared invariants (Thm. 5.1).
    interp_a: CInterpreter
    if accepted:
        interp_a = AuditInterpreter(program, quals=quals)
    else:
        interp_a = CInterpreter(program, quals=quals)
    try:
        outcome_a = _execute(interp_a)
    except PreservationViolation as exc:
        findings.append(
            Finding(
                "preservation", "audit-violation", case.name,
                {
                    **base,
                    "qualifier": exc.qualifier,
                    "variable": exc.variable,
                    "value": exc.value,
                    "output": "".join(interp_a.output),
                },
            )
        )
        return findings, counters

    # Run B: the materialized instrumentation is the only enforcement.
    instrumented = instrument_program(program, quals, flow_sensitive=True)
    interp_b = CInterpreter(
        instrumented, quals=quals, native_checks=False
    )
    outcome_b = _execute(interp_b)
    counters["compared_runs"] += 1
    if outcome_a != outcome_b:
        findings.append(
            Finding(
                "preservation", "native-vs-instrumented-divergence",
                case.name,
                {**base, "native": outcome_a, "instrumented": outcome_b},
            )
        )
    return findings, counters


# ------------------------------------- oracle 3: metamorphic invariance


def _alpha_rename(goal):
    if not isinstance(goal, ForAll) or not goal.vars:
        return None
    mapping = {v: TVar(f"{v}_renamed") for v in goal.vars}
    return ForAll(
        tuple(f"{v}_renamed" for v in goal.vars),
        formula_subst(goal.body, mapping),
        tuple(
            tuple(term_subst(p, mapping) for p in trig)
            for trig in goal.triggers
        ),
    )


def _reorder_conjuncts(goal):
    body = goal.body if isinstance(goal, ForAll) else goal
    if not (
        isinstance(body, Implies) and isinstance(body.left, And)
    ) or len(body.left.conjuncts) < 2:
        return None
    flipped = Implies(
        And(*reversed(body.left.conjuncts)), body.right
    )
    if isinstance(goal, ForAll):
        return ForAll(goal.vars, flipped, goal.triggers)
    return flipped


def _prove(goal, axioms, time_limit: float, cache=None) -> str:
    prover = Prover(time_limit=time_limit)
    prover.add_axioms(list(axioms))
    return prover.prove(goal, cache=cache).verdict


def metamorphic(
    case: GeneratedCase,
    quals: QualifierSet,
    gen_names: List[str],
    time_limit: float = 10.0,
    max_obligations: int = 2,
    cache_dir: Optional[str] = None,
) -> Tuple[List[Finding], Dict[str, int]]:
    findings: List[Finding] = []
    counters = {"obligations": 0, "variants": 0}
    rng = random.Random(f"metamorphic:{case.seed}:{case.index}")
    axioms = semantics_axioms()

    obligations = []
    for name in gen_names:
        qdef = quals.get(name)
        if qdef is None:
            continue
        obligations.extend(
            o for o in generate_obligations(qdef, quals) if not o.trivial
        )
    rng.shuffle(obligations)

    settled_obligations: List[Tuple] = []
    for obligation in obligations[:max_obligations]:
        base = _prove(obligation.goal, axioms, time_limit)
        if base not in SETTLED:
            continue
        counters["obligations"] += 1
        settled_obligations.append((obligation, base))
        variants = []
        renamed = _alpha_rename(obligation.goal)
        if renamed is not None:
            variants.append(("alpha-renaming", renamed, axioms))
        permuted = list(axioms)
        rng.shuffle(permuted)
        variants.append(("axiom-permutation", obligation.goal, permuted))
        reordered = _reorder_conjuncts(obligation.goal)
        if reordered is not None:
            variants.append(("conjunct-reordering", reordered, axioms))
        for label, goal, variant_axioms in variants:
            counters["variants"] += 1
            verdict = _prove(goal, variant_axioms, time_limit)
            if verdict in SETTLED and verdict != base:
                findings.append(
                    Finding(
                        "metamorphic", f"{label}-flips-verdict", case.name,
                        {
                            "qualifier": obligation.qualifier,
                            "rule": obligation.rule,
                            "base": base,
                            "variant": verdict,
                            "qual_source": case.qual_source,
                        },
                    )
                )
        if cache_dir is not None:
            from repro.cache.store import ProofCache

            with ProofCache(cache_dir=cache_dir) as cache:
                cold = _prove(
                    obligation.goal, axioms, time_limit, cache=cache
                )
                warm = _prove(
                    obligation.goal, axioms, time_limit, cache=cache
                )
            counters["variants"] += 2
            if {cold, warm} <= set(SETTLED) and (
                cold != base or warm != cold
            ):
                findings.append(
                    Finding(
                        "metamorphic", "cache-replay-flips-verdict",
                        case.name,
                        {
                            "qualifier": obligation.qualifier,
                            "rule": obligation.rule,
                            "base": base,
                            "cold": cold,
                            "warm": warm,
                            "qual_source": case.qual_source,
                        },
                    )
                )

    # Session invariance: discharging the same obligations through one
    # warm ProverSession — in generation order and in a permuted order —
    # must reproduce every cold verdict (learned-core seeding and goal
    # skolem canonicalization are verdict-preserving by design).
    if settled_obligations:
        from repro.prover.session import ProverSession

        def session_verdicts(pairs):
            session = ProverSession(
                axioms, context="difftest-metamorphic", time_limit=time_limit
            )
            return {
                id(o): session.prove(o.goal).verdict for o, _ in pairs
            }

        permuted_pairs = list(settled_obligations)
        rng.shuffle(permuted_pairs)
        for label, verdicts in (
            ("session-reuse", session_verdicts(settled_obligations)),
            ("session-order-permutation", session_verdicts(permuted_pairs)),
        ):
            for obligation, base in settled_obligations:
                counters["variants"] += 1
                verdict = verdicts[id(obligation)]
                if verdict in SETTLED and verdict != base:
                    findings.append(
                        Finding(
                            "metamorphic", f"{label}-flips-verdict",
                            case.name,
                            {
                                "qualifier": obligation.qualifier,
                                "rule": obligation.rule,
                                "base": base,
                                "variant": verdict,
                                "qual_source": case.qual_source,
                            },
                        )
                    )
    return findings, counters


# ------------------------------------- oracle 4: forest vs ddmin cores


def ddmin_check(
    literals: List[combine.Literal],
) -> Optional[List[combine.Literal]]:
    """The cold reference theory check: decide the conjunction with a
    fresh closure (:func:`repro.prover.combine._consistent`) and, when
    it is inconsistent, shrink it to a core by delta debugging — one
    fresh consistency query per candidate subset."""
    if combine._consistent(literals):
        return None
    return ddmin(literals, lambda core: not combine._consistent(core))


class DdminProver(Prover):
    """The cold ddmin reference prover.

    Every theory check rebuilds the congruence closure and finds its
    conflict core by delta debugging (:func:`ddmin_check`) instead of
    reading it off a warm proof forest.  Only this oracle and the tests
    run it: it is the independent core strategy the explained one is
    compared against.
    """

    def _theory_check(self, theory_lits):
        return ddmin_check(theory_lits)

    def _spawn(self, max_rounds, max_conflicts, time_limit) -> Prover:
        attempt = DdminProver(
            max_rounds=max_rounds,
            max_conflicts=max_conflicts,
            time_limit=time_limit,
        )
        attempt.axioms = self.axioms
        return attempt


def explain_vs_ddmin(
    case: GeneratedCase,
    quals: QualifierSet,
    gen_names: List[str],
    time_limit: float = 10.0,
) -> Tuple[List[Finding], Dict[str, int]]:
    """Core-strategy invariance: every obligation verdict of
    ``check_soundness`` (explained cores) must agree with the
    :class:`DdminProver` reference.

    Both sides run cold (no session, no cache) so the only variable is
    the conflict-core strategy inside the theory solver.
    """
    findings: List[Finding] = []
    counters = {"obligations": 0, "compared": 0}
    reference = DdminProver(time_limit=time_limit)
    reference.add_axioms(semantics_axioms())
    for name in gen_names:
        qdef = quals.get(name)
        if qdef is None or not qdef.is_value:
            continue
        forest = check_soundness(qdef, quals, time_limit=time_limit)
        for res_f in forest.results:
            counters["obligations"] += 1
            if res_f.obligation.trivial:
                continue
            counters["compared"] += 1
            ddmin = reference.prove_with_retry(res_f.obligation.goal)
            if (res_f.verdict, res_f.proved) != (ddmin.verdict, ddmin.proved):
                findings.append(
                    Finding(
                        "explain-vs-ddmin", "core-strategy-flips-verdict",
                        case.name,
                        {
                            "qualifier": name,
                            "rule": res_f.obligation.rule,
                            "explain": res_f.verdict,
                            "ddmin": ddmin.verdict,
                            "qual_source": case.qual_source,
                        },
                    )
                )
    return findings, counters
