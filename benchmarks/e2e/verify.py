"""Known answers for every timed operation, checked after the timed
phase so checking costs nothing inside it.

* ``prove_*``: every case clause of a generated value qualifier must
  get the verdict of :func:`repro.difftest.shadow.clause_verdicts` — a
  counterexample in the box means REFUTED, a clean box means PROVED,
  NOT_REPRESENTABLE clauses are skipped.  Renamed copies of ``unique``
  and ``unaliased`` must be PROVED on every obligation, and the paper's
  two mutants must come out unsound.
* ``check_edit``: a served report must equal an in-process one-shot
  check of the same files once run-dependent fields are stripped.
* ``check_cold``: there is no independent oracle for the checker in
  the repository, so each pool unit's (verdict, diagnostic count,
  runtime-check count) is pinned in ``expected/check_cold-pool.json``.
  That file is a reference recorded from the checker itself, not an
  independent answer; rewrite it with ``python verify.py --pin`` only
  when a change to the checker's output is intended.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PIN_PATH = os.path.join(HERE, "expected", "check_cold-pool.json")

SETTLED = ("PROVED", "REFUTED")

#: Unit verdicts that mean an operation failed rather than answered.
BAD_UNIT_VERDICTS = ("ERROR", "TIMEOUT", "UNKNOWN", "GAVE_UP", "CRASH",
                     "SKIPPED")


# ---------------------------------------------------------------- prove


def obligation_rows(unit_detail: dict) -> List[Tuple[str, str, str]]:
    """``(qualifier, rule, verdict)`` for every obligation of a prove
    unit's ``detail``."""
    return [
        (entry["qualifier"], obligation["rule"], obligation["verdict"])
        for entry in unit_detail.get("qualifiers", ())
        for obligation in entry.get("obligations", ())
    ]


_DEFINITION = re.compile(r"^(?=(?:value|ref) qualifier )", re.M)
_CALLS = re.compile(r"\b(\w+)\s*\(")


class ShadowOracle:
    """Expected per-clause verdicts of generated value qualifiers,
    memoized on the qualifier's text and the invariants it refers to
    (an edit to one rule leaves every other answer cached).  Each
    definition is parsed on its own and memoized too, so checking an
    edited library parses only the edited definition."""

    def __init__(self) -> None:
        from repro.core.qualifiers.ast import QualifierSet
        from repro.core.qualifiers.library import standard_qualifiers
        from repro.core.qualifiers.parser import parse_qualifiers
        from repro.difftest import shadow

        self._QualifierSet = QualifierSet
        self._std = standard_qualifiers()
        self._parse = parse_qualifiers
        self._shadow = shadow
        self._memo: Dict[tuple, Dict[int, Optional[str]]] = {}
        self._parsed: Dict[str, list] = {}

    def _definitions(self, text: str) -> list:
        defs = []
        for chunk in _DEFINITION.split(text):
            if chunk.strip():
                if chunk not in self._parsed:
                    self._parsed[chunk] = self._parse(chunk)
                defs.extend(self._parsed[chunk])
        return defs

    def expected(self, text: str, names: Iterable[str]) -> Dict[Tuple[str, int], str]:
        """``{(qualifier, 1-based case index): "PROVED" | "REFUTED"}``
        for every representable case clause of ``names`` in ``text``."""
        defs = self._definitions(text)
        quals = self._QualifierSet(
            list(self._std) + [d for d in defs if d.name not in self._std.names]
        )
        sources = {d.name: d.source for d in defs}
        answers: Dict[Tuple[str, int], str] = {}
        for name in names:
            qdef = quals.get(name)
            key = (qdef.source, tuple(
                (other, sources[other])
                for other in sorted(set(_CALLS.findall(qdef.source)))
                if other != name and other in sources
            ))
            per_clause = self._memo.get(key)
            if per_clause is None:
                per_clause = {}
                for index, (_clause, truth) in enumerate(
                    self._shadow.clause_verdicts(qdef, quals), start=1
                ):
                    if truth == self._shadow.NOT_REPRESENTABLE:
                        per_clause[index] = None
                    else:
                        per_clause[index] = (
                            "REFUTED" if isinstance(truth, dict) else "PROVED"
                        )
                self._memo[key] = per_clause
            for index, verdict in per_clause.items():
                if verdict is not None:
                    answers[(name, index)] = verdict
        return answers


def case_index(rule: str) -> Optional[int]:
    """The 1-based clause index of a ``case i: ...`` obligation."""
    if not rule.startswith("case "):
        return None
    head = rule.split(":", 1)[0][len("case "):]
    return int(head) if head.isdigit() else None


def value_mismatches(
    oracle: ShadowOracle,
    text: str,
    names: Iterable[str],
    rows: List[Tuple[str, str, str]],
) -> List[str]:
    """Disagreements between a prove report and the shadow semantics
    (an empty list means every representable clause was answered
    right, and every clause was answered)."""
    names = list(names)
    expected = oracle.expected(text, names)
    seen = set()
    problems = []
    for qualifier, rule, verdict in rows:
        if qualifier not in names:
            continue
        index = case_index(rule)
        if index is None:
            continue
        seen.add((qualifier, index))
        want = expected.get((qualifier, index))
        if want is not None and verdict != want:
            problems.append(f"{qualifier} {rule!r}: {verdict}, expected {want}")
    for key in expected:
        if key not in seen:
            problems.append(f"{key[0]} case {key[1]}: no obligation reported")
    return problems


def ref_mismatches(names: Iterable[str], rows) -> List[str]:
    names = set(names)
    problems = [
        f"{q} {rule!r}: {verdict}, expected PROVED"
        for q, rule, verdict in rows
        if q in names and verdict != "PROVED"
    ]
    if not any(q in names for q, _, _ in rows):
        problems.append(f"no obligations reported for {sorted(names)}")
    return problems


def mutant_mismatches(qualifier: str, rows) -> List[str]:
    """A mutant must be refuted: at least one REFUTED obligation, and
    nothing left unsettled."""
    mine = [(rule, verdict) for q, rule, verdict in rows if q == qualifier]
    problems = [
        f"{qualifier} {rule!r}: {verdict} (unsettled)"
        for rule, verdict in mine
        if verdict not in SETTLED
    ]
    if not any(verdict == "REFUTED" for _, verdict in mine):
        problems.append(f"mutant {qualifier} was not refuted")
    return problems


# ---------------------------------------------------------------- check


def strip_volatile(payload: dict) -> dict:
    """A report with its timing and incremental bookkeeping removed —
    the fields that legitimately differ between a served incremental
    run and a one-shot run of the same files."""
    out = copy.deepcopy(payload)
    for key in ("elapsed", "incremental", "timings"):
        out.pop(key, None)
    for unit in out.get("units", ()):
        unit.pop("elapsed", None)
        detail = unit.get("detail", {})
        detail.pop("incremental", None)
        dataflow = detail.get("dataflow")
        if isinstance(dataflow, dict):
            dataflow.get("totals", {}).pop("ms", None)
            for stats in dataflow.get("functions", {}).values():
                stats.pop("ms", None)
    if isinstance(out.get("dataflow"), dict):
        out["dataflow"].pop("ms", None)
    return out


def load_pin() -> Dict[str, list]:
    with open(PIN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["units"]


def check_answer(result) -> list:
    """What the pin records for one checked unit."""
    return [
        result.verdict,
        len(result.diagnostics),
        int(result.detail.get("runtime_checks", 0)),
    ]


def write_pin() -> None:
    """Check every check_cold pool unit once and record the answers."""
    import tempfile

    import inputs
    from repro import api

    units = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp, api.Workspace() as ws:
        for kind, size_class, variant in inputs.pool_units():
            text, flow = inputs.pool_unit(kind, size_class, variant)
            path = os.path.join(tmp, "unit.c")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            report = ws.check(
                api.CheckRequest(files=(path,), flow_sensitive=flow)
            )
            units[f"{kind}-{size_class}-{variant}"] = check_answer(
                report.results[0]
            )
    note = (
        "Pinned reference, not an independent answer: [verdict, diagnostic "
        "count, runtime-check count] per check_cold pool unit, recorded "
        "from the checker itself. A mismatch means the checker's output "
        "changed."
    )
    rows = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(answer)}"
        for name, answer in sorted(units.items())
    )
    os.makedirs(os.path.dirname(PIN_PATH), exist_ok=True)
    with open(PIN_PATH, "w", encoding="utf-8") as handle:
        handle.write(f'{{"note": {json.dumps(note)},\n "units": {{\n{rows}\n}}}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: PYTHONPATH=src python benchmarks/e2e/verify.py --pin")
    write_pin()
