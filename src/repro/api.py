"""The stable library facade over the parse→lower→check→prove pipeline.

Programmatic users should depend on this module — not on ``repro.cli``
(whose argparse plumbing is an implementation detail) and not on the
internal module layout (which refactors freely).  The surface is two
session objects, four request dataclasses, and one report:

* :class:`SessionConfig` — the *immutable* qualifier environment:
  which definition files are loaded (in order, later files overriding
  earlier ones by name), whether the standard library is included, the
  paper's ``trust-constants`` switch, and the proof-cache settings.
* :class:`Workspace` — the *stateful* entry object: owns loaded
  units, per-function content fingerprints, and an incremental
  verdict store, so a long-lived process (``python -m repro serve``)
  re-checks only the functions an edit actually touched and replays
  cached verdicts for everything else.  One-shot use is just a
  ``Workspace`` that is thrown away after one request.
* :class:`CheckRequest` / :class:`ProveRequest` / :class:`InferRequest`
  / :class:`DifftestRequest` — one batch invocation each, mirroring
  the CLI flag-for-flag.
* :class:`Report` — the result: per-unit verdicts, exit code, and a
  JSON-ready :meth:`Report.to_dict` stamped with
  ``schema_version`` = :data:`SCHEMA_VERSION`.

Every ``--format json`` payload the CLI prints is exactly
``Report.to_dict()`` (or :func:`cache_stats` for the ``cache``
subcommand), so the schema documented in docs/robustness.md is the
schema of this module.  :func:`report_from_dict` reconstructs a
:class:`Report` from such a payload (the ``repro serve`` client uses
it so remote runs format identically to local ones).

Example::

    from repro.api import ProveRequest, SessionConfig, Workspace

    with Workspace(SessionConfig()) as ws:
        report = ws.prove(ProveRequest(files=("defs.qual",)))
    assert report.exit_code == 0
    assert report.to_dict()["schema_version"] == 1
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cache import DEFAULT_CACHE_DIR
from repro.cache import fingerprint as _fingerprint
from repro.core.qualifiers.ast import QualifierDef, QualifierSet
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.qualifiers.parser import parse_qualifiers
from repro.harness import batch
from repro.harness.watchdog import Deadline, RetryPolicy

if TYPE_CHECKING:
    from repro.cache.store import ProofCache
    from repro.cil.lower import Lowered

# Each command loads its own layers when it runs (see
# docs/architecture.md, "Import layering"): check the C front end and
# the checker, prove the soundness checker and the prover, a cached
# prove the sqlite store, run the interpreter.  The loaders bind module
# globals, so ``repro.api.parse_c`` and the rest stay module attributes
# that a tracer can rebind.  No import may move into a per-obligation
# or per-node function.


def _load_front_end() -> None:
    global blanked_functions, body_extents, lower_unit, parse_c, preprocess
    global Relocation, reduce_text, splice_statements, statement_starts
    from repro.cfront.bodies import (
        Relocation,
        blanked_functions,
        body_extents,
        reduce_text,
        splice_statements,
        statement_starts,
    )
    from repro.cfront.parser import parse_c
    from repro.cfront.preprocess import preprocess
    from repro.cil.lower import lower_unit


def _load_checker() -> None:
    global QualifierChecker, code_for
    _load_front_end()
    from repro.core.checker.diagnostics import code_for
    from repro.core.checker.typecheck import QualifierChecker


#: Version of the report payload shape (``Report.to_dict`` and the
#: CLI's ``--format json`` output).  Bump only on breaking changes —
#: removing or renaming a field, changing a field's type — never for
#: additions; consumers must tolerate new keys.
SCHEMA_VERSION = 1


class UnknownQualifierError(ValueError):
    """The requested qualifier is not defined in the session's set."""


def _tool_version() -> str:
    """The package version (every JSON payload is stamped with it).

    Imported lazily: ``repro.__init__`` imports this module, so a
    top-level import would be circular.
    """
    from repro import __version__

    return __version__


# ----------------------------------------------------------------- requests


@dataclass(frozen=True)
class BatchOptions:
    """Flags shared by every batch command (see docs/robustness.md).

    ``profile=True`` collects phase/prover/cache timings for the
    invocation and attaches them as the additive ``timings`` key of the
    JSON report (see docs/observability.md).  Off by default and free
    when off.
    """

    keep_going: bool = False
    jobs: int = 1
    unit_timeout: Optional[float] = None
    profile: bool = False


@dataclass(frozen=True)
class CheckRequest(BatchOptions):
    """One ``check`` invocation: qualifier-check C translation units."""

    files: Tuple[str, ...] = ()
    flow_sensitive: bool = False


@dataclass(frozen=True)
class ProveRequest(BatchOptions):
    """One ``prove`` invocation: soundness-check ``.qual`` files."""

    files: Tuple[str, ...] = ()
    qualifier: Optional[str] = None  # prove only this qualifier
    time_limit: float = 45.0
    retries: int = 0
    cache: bool = True
    cache_dir: str = DEFAULT_CACHE_DIR


@dataclass(frozen=True)
class InferRequest(BatchOptions):
    """One ``infer`` invocation: infer annotations for one qualifier."""

    files: Tuple[str, ...] = ()
    qualifier: str = ""
    flow_sensitive: bool = False


@dataclass(frozen=True)
class DifftestRequest(BatchOptions):
    """One ``difftest`` invocation: differential testing of the
    pipeline on generated cases (see docs/testing.md).

    Each case is one batch unit named ``case-NNNNN`` and is a pure
    function of ``(seed, index)``; ``budget`` caps the whole run in
    seconds (cases past the budget are skipped and counted, not
    failed).  ``replay`` switches to re-running stored failure
    artifacts instead of generating new cases."""

    seed: int = 0
    count: int = 100
    budget: Optional[float] = None
    time_limit: float = 6.0
    out_dir: str = ""  # empty: repro.difftest.runner.ARTIFACT_DIR
    replay: Tuple[str, ...] = ()


# ------------------------------------------------------------------- report


@dataclass
class Report:
    """The outcome of one batch invocation, JSON-ready.

    ``batch`` carries the per-unit verdicts and counts;
    :meth:`to_dict` is the exact ``--format json`` payload.
    """

    command: str
    batch: batch.BatchReport
    schema_version: int = SCHEMA_VERSION

    @property
    def exit_code(self) -> int:
        return self.batch.exit_code

    @property
    def results(self) -> List[batch.UnitResult]:
        return self.batch.results

    def counts(self) -> Dict[str, int]:
        return self.batch.counts()

    def summary(self) -> str:
        return self.batch.summary()

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "version": _tool_version(),
            **self.batch.to_dict(),
        }


#: Payload keys produced by :meth:`Report.to_dict` itself (everything
#: else in a payload is run-level ``meta``).
_REPORT_ENVELOPE_KEYS = frozenset(
    ("schema_version", "command", "version", "units", "counts", "elapsed",
     "exit_code")
)


def report_from_dict(payload: dict) -> Report:
    """Reconstruct a :class:`Report` from a :meth:`Report.to_dict`
    payload — the inverse used by the ``repro serve`` client, so a
    report received over the wire formats exactly like a local one.

    The round trip preserves units, verdicts, diagnostics, detail, and
    meta; ``exit_code`` is recomputed from the verdicts (and agrees
    with the payload's by construction).
    """
    results = [
        batch.UnitResult(
            unit=u.get("unit", ""),
            verdict=u.get("verdict", batch.CRASH),
            elapsed=u.get("elapsed", 0.0),
            diagnostics=list(u.get("diagnostics") or []),
            error=u.get("error", ""),
            detail=dict(u.get("detail") or {}),
            attempts=int(u.get("attempts", 1)),
        )
        for u in payload.get("units", ())
    ]
    meta = {
        k: v for k, v in payload.items() if k not in _REPORT_ENVELOPE_KEYS
    }
    batch_report = batch.BatchReport(
        results=results, elapsed=payload.get("elapsed", 0.0), meta=meta
    )
    return Report(
        payload.get("command", ""),
        batch_report,
        schema_version=payload.get("schema_version", SCHEMA_VERSION),
    )


#: Worst-first ordering used to combine per-obligation verdicts into a
#: unit verdict (distinct from exit-code severity, which ties some).
_VERDICT_RANK = {
    batch.OK: 0,
    batch.WARNINGS: 1,
    batch.UNKNOWN: 2,
    batch.GAVE_UP: 3,
    batch.TIMEOUT: 4,
    batch.ERROR: 5,
    batch.CRASH: 6,
}


def _worst(verdicts) -> str:
    return max(verdicts, key=lambda v: _VERDICT_RANK.get(v, 6), default=batch.OK)


def _read_source(path: str) -> str:
    # Binary read + explicit decode so a non-UTF-8 file produces a
    # clean UnicodeDecodeError (input error) instead of a traceback.
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8")


def _sum_dataflow(per_function: Dict[str, dict]) -> dict:
    """Fold per-function solver stats into one totals dict."""
    totals = {
        "functions": 0, "blocks": 0, "edges": 0, "iterations": 0, "ms": 0.0,
    }
    for stats in per_function.values():
        totals["functions"] += 1
        totals["blocks"] += stats.get("blocks", 0)
        totals["edges"] += stats.get("edges", 0)
        totals["iterations"] += stats.get("iterations", 0)
        totals["ms"] += stats.get("ms", 0.0)
    totals["ms"] = round(totals["ms"], 3)
    return totals


def _aggregate_dataflow_meta(batch_report: batch.BatchReport) -> None:
    """Sum each unit's dataflow totals into run-level meta (additive
    key)."""
    run = {"functions": 0, "blocks": 0, "edges": 0, "iterations": 0, "ms": 0.0}
    seen = False
    for result in batch_report.results:
        totals = result.detail.get("dataflow", {}).get("totals")
        if not isinstance(totals, dict):
            continue
        seen = True
        for key in run:
            run[key] += totals.get(key, 0)
    if seen:
        run["ms"] = round(run["ms"], 3)
        batch_report.meta["dataflow"] = run


def _aggregate_incremental_meta(
    batch_report: batch.BatchReport, count: str
) -> None:
    """Sum each unit's incremental counters into run-level meta (only
    present on incremental-workspace runs, so one-shot payloads — and
    their goldens — are unchanged).  ``count`` names what a unit is
    made of: ``functions`` for check, ``obligations`` for prove."""
    totals = {
        "units": 0, "units_replayed": 0,
        count: 0, "rechecked": 0, "replayed": 0,
    }
    seen = False
    for result in batch_report.results:
        inc = result.detail.get("incremental")
        if not isinstance(inc, dict):
            continue
        seen = True
        totals["units"] += 1
        totals["units_replayed"] += 1 if inc.get("unit_replayed") else 0
        for key in (count, "rechecked", "replayed"):
            totals[key] += inc.get(key, 0)
    if seen:
        batch_report.meta["incremental"] = totals


def _obligation_verdicts(results) -> List[str]:
    """Map a report's per-obligation verdicts onto batch verdicts (the
    unit verdict is the worst of these plus OK)."""
    verdicts: List[str] = []
    for res in results:
        if res.verdict == "CRASH":
            verdicts.append(batch.CRASH)
        elif res.verdict == "TIMEOUT":
            verdicts.append(batch.TIMEOUT)
        elif res.verdict == "GAVE_UP":
            verdicts.append(batch.UNKNOWN)
        elif not res.proved:
            verdicts.append(batch.WARNINGS)
    return verdicts


def _start_profile(request: BatchOptions) -> Optional[dict]:
    """Begin profiling one invocation if asked to (``request.profile``)
    or if the collector is already on (``--profile`` at the CLI, or a
    caller that enabled it).  Returns the token ``_finish_profile``
    needs, or ``None`` when profiling stays off."""
    if not (request.profile or obs.enabled()):
        return None
    owner = not obs.enabled()
    if owner:
        obs.enable()
    return {"mark": obs.mark(), "start": time.perf_counter(), "owner": owner}


def _abort_profile(prof: Optional[dict]) -> None:
    """Error-path cleanup: never leave the collector enabled behind an
    exception if this invocation turned it on."""
    if prof is not None and prof["owner"]:
        obs.disable()


def _finish_profile(
    prof: Optional[dict], batch_report: batch.BatchReport
) -> None:
    """Attach the invocation's slice as ``meta["timings"]`` (an
    additive schema-v1 key) and restore the collector state."""
    if prof is None:
        return
    total_ms = (time.perf_counter() - prof["start"]) * 1000.0
    batch_report.meta["timings"] = obs.build_timings(
        obs.since(prof["mark"]), total_ms=total_ms
    )
    if prof["owner"]:
        obs.disable()


def _parse_error_dict(err: Exception) -> dict:
    return {
        "code": code_for("parse"),
        "kind": "parse",
        "qualifier": "-",
        "message": str(err),
        "severity": "error",
        "text": f"error: {err}",
    }


def _check_result(
    path: str,
    functions: Dict[str, "_FunctionRecord"],
    errors=(),
    rechecked: Optional[int] = None,
    unit_replayed: bool = False,
) -> batch.UnitResult:
    """Assemble one unit's check result from its per-function records
    (freshly checked and replayed alike) in program order.  A broken
    unit's parse ``errors`` come first and make it ``ERROR``.  Only an
    incremental workspace passes ``rechecked`` (how many functions it
    checked rather than replayed), and only then does the detail carry
    the ``incremental`` block."""
    diagnostics = [_parse_error_dict(e) for e in errors]
    runtime_checks = 0
    dataflow: Dict[str, dict] = {}
    for name, record in functions.items():
        diagnostics.extend(record.diagnostics)
        runtime_checks += record.runtime_checks
        if record.dataflow:
            dataflow[name] = record.dataflow
    if errors:
        verdict = batch.ERROR
    elif diagnostics:
        verdict = batch.WARNINGS
    else:
        verdict = batch.OK
    detail = {
        "warnings": sum(
            1 for d in diagnostics if d.get("severity") == "warning"
        ),
        "runtime_checks": runtime_checks,
        "dataflow": {"functions": dataflow, "totals": _sum_dataflow(dataflow)},
    }
    if rechecked is not None:
        total = len(functions)
        detail["incremental"] = {
            "functions": total,
            "rechecked": rechecked,
            "replayed": total - rechecked,
            "unit_replayed": unit_replayed,
        }
        if errors:
            detail["incremental"]["disabled"] = "parse errors"
    return batch.UnitResult(
        unit=path,
        verdict=verdict,
        diagnostics=diagnostics,
        error=str(errors[0]) if errors else "",
        detail=detail,
    )


# ------------------------------------------------------------ configuration


@dataclass(frozen=True)
class SessionConfig:
    """The immutable qualifier environment every request runs under.

    ``quals`` lists qualifier-definition files loaded *in order*: a
    definition with an already-seen name replaces the earlier one, so
    a project file can override a team file can override the standard
    library.  ``cache``/``cache_dir`` are the proof-cache defaults for
    ``prove`` requests (a request's own explicit settings still win).

    Frozen on purpose: a :class:`Workspace` keys its cached state on
    this object, so everything that can change a verdict lives here.
    """

    quals: Tuple[str, ...] = ()
    no_std: bool = False
    trust_constants: bool = False
    cache: bool = True
    cache_dir: str = DEFAULT_CACHE_DIR

    def qualifier_set(self) -> QualifierSet:
        """The composed qualifier set for this configuration (re-read
        from the definition files on every call)."""
        return _compose_qualifiers(self, (_read_source(p) for p in self.quals))

    def key(self) -> Tuple:
        """A hashable identity (the serve daemon routes requests to one
        workspace per distinct configuration)."""
        return (self.quals, self.no_std, self.trust_constants)


def _compose_qualifiers(config: SessionConfig, texts) -> QualifierSet:
    """The standard library (unless ``config.no_std``) followed by the
    definitions in ``texts``, in order: a definition with an
    already-seen name replaces the earlier one."""
    defs: List[QualifierDef] = []
    if not config.no_std:
        defs.extend(
            standard_qualifiers(trust_constants=config.trust_constants)
        )
    for text in texts:
        for qdef in parse_qualifiers(text):
            defs = [d for d in defs if d.name != qdef.name]
            defs.append(qdef)
    return QualifierSet(defs)


def _unit_qualifiers(defs: List[QualifierDef], std: QualifierSet):
    """A ``.qual`` unit's prove environment: the standard library plus
    the unit's own definitions whose names the library does not use."""
    return QualifierSet(
        list(std) + [d for d in defs if d.name not in std.names]
    )


# ------------------------------------------------- incremental verdict store


@dataclass
class _StatementChecks:
    """What each top-level statement of a function contributed to its
    check, in the order of ``_FunctionRecord.text.statements``: how many
    of the record's diagnostics are its, how many run-time checks its
    calls need, the (cast, qualifier) pairs whose run-time checks it
    needs (counted once per function), and where it starts in the
    unit's text (``(line, column)``, ``(0, 0)`` if nowhere).  The places
    move with the text, as the diagnostics do."""

    counts: List[int]
    calls: List[int]
    casts: List[frozenset]
    places: List[Tuple[int, int]]


@dataclass
class _FunctionRecord:
    """Everything one function contributed to its unit's check report,
    keyed by the content fingerprint it was computed under.  An
    incremental workspace also keeps the function's text in parts
    (:class:`repro.cache.fingerprint.FunctionText`) and, when it was
    checked statement by statement, each statement's share of the
    check."""

    fingerprint: str
    diagnostics: List[dict] = field(default_factory=list)
    runtime_checks: int = 0
    dataflow: dict = field(default_factory=dict)
    text: Optional[_fingerprint.FunctionText] = None
    statements: Optional[_StatementChecks] = None


@dataclass
class _UnitState:
    """Per-unit incremental state: the raw-source digest (a match skips
    even the parse), the qualifier-environment digest it was checked
    under, and the per-function verdict records in program order (their
    keys are the function names in that order).

    For the next edit's reduced re-parse it also keeps what the last
    parse saw: the preprocessed text, the macro table, each body's
    extent in that text (:mod:`repro.cfront.bodies`) and its function's
    name, the typedefs and the unit's interface digest.  After a
    reduced re-parse, and only then, it keeps the tree and the lowering
    of each body that parse did not blank
    (:class:`repro.cil.lower.Lowered`) and where its top-level
    statements start, keyed by the body's index, so the next edit
    inside one of them can splice statements and re-lower only those;
    a full parse keeps none, so the trees held are those of the bodies
    being edited."""

    source: str
    env: str
    functions: Dict[str, _FunctionRecord] = field(default_factory=dict)
    text: str = ""
    defines: Dict[str, str] = field(default_factory=dict)
    bodies: List[Tuple[int, int]] = field(default_factory=list)
    names: List[str] = field(default_factory=list)
    typedefs: dict = field(default_factory=dict)
    interface: str = ""
    lowered: Dict[int, Lowered] = field(default_factory=dict)
    statements: Dict[int, List[int]] = field(default_factory=dict)


@dataclass
class _ProveUnitState:
    """Per-unit prove replay state: source digest, the prove-environment
    digest (axioms + composed qualifiers + budgets + filter, see
    :func:`repro.cache.fingerprint.prove_environment_digest`), how many
    obligations the stored report covers, and the settled
    :class:`batch.UnitResult` itself (stored without its run-scoped
    ``incremental`` detail key)."""

    source: str
    env: str
    obligations: int
    result: batch.UnitResult


#: Incremental stores are LRU-bounded so a long-lived daemon workspace
#: cannot grow without limit; per-store cap, overridable through
#: ``REPRO_WORKSPACE_MAX_UNITS``.
MAX_UNIT_STATES = 256


def _max_unit_states() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_WORKSPACE_MAX_UNITS", "")))
    except ValueError:
        return MAX_UNIT_STATES


def _replayed(
    program,
    changed: set,
    state: "_UnitState",
    relocation,
    bodies: Dict[str, Tuple[int, int]],
    texts: Dict[str, "_fingerprint.FunctionText"],
) -> Dict[str, _FunctionRecord]:
    """The stored records of ``program``'s functions outside
    ``changed``, their diagnostics moved from the stored text to the new
    one by ``relocation`` (:class:`repro.cfront.bodies.Relocation`).  A
    diagnostic inside the changed span moves with its function's body if
    the body text is unchanged; ``bodies`` gives each body's extent in
    the new text.  A function with a diagnostic that has no new place
    joins ``changed`` instead: only a re-check knows where it went.  A
    function printed again (in ``texts``) whose statements now split its
    unchanged text differently keeps the new parts and drops its
    per-statement results, as does one with a statement that has no new
    place."""
    stored = dict(zip(state.names, state.bodies))
    replay: Dict[str, _FunctionRecord] = {}
    for func in program.functions:
        name = func.name
        if name in changed:
            continue
        record = state.functions[name]
        text = texts.get(name)
        if text is not None and (
            record.text is None or record.text.statements != text.statements
        ):
            record = replace(record, text=text, statements=None)
        if record.diagnostics or record.statements is not None:
            moved = _relocated(record, relocation)
            if moved is None and name in stored and name in bodies:
                whole = relocation.moved(stored[name], bodies[name])
                if whole is not None:
                    moved = _relocated(record, whole)
            if moved is None and record.statements is not None:
                moved = _relocated(replace(record, statements=None), relocation)
            if moved is None:
                changed.add(name)
                continue
            record = moved
        replay[name] = record
    return replay


def _relocated(record: _FunctionRecord, where) -> Optional[_FunctionRecord]:
    """``record`` with its diagnostics (:func:`_moved`) and its
    statements' places moved by ``where``; None if one has no new
    place."""
    diagnostics = _moved(record.diagnostics, where)
    if diagnostics is None:
        return None
    statements = record.statements
    if statements is not None:
        places = _moved_places(statements.places, where)
        if places is None:
            return None
        if places is not statements.places:
            statements = replace(statements, places=places)
    if diagnostics == record.diagnostics and statements is record.statements:
        return record
    return replace(record, diagnostics=diagnostics, statements=statements)


def _moved_places(places: List[Tuple[int, int]], where):
    """``places`` moved by ``where`` (``places`` itself if none moved);
    None if one has no new place.  ``(0, 0)`` stays as it is."""
    out = None
    for index, place in enumerate(places):
        if place[0] == 0:
            continue
        moved = where(*place)
        if moved is None:
            return None
        if moved != place:
            if out is None:
                out = list(places)
            out[index] = moved
    return places if out is None else out


def _moved(diagnostics: List[dict], where) -> Optional[List[dict]]:
    """``diagnostics`` with each one's ``loc`` (``file:line:col``) and
    ``text`` moved by ``where``; None if one has no new place.  A
    diagnostic without a position (``line 0``) stays as it is."""
    out = []
    for diag in diagnostics:
        loc = diag["loc"]
        file, _, col = loc.rpartition(":")
        file, _, line = file.rpartition(":")
        if file and line.isdigit() and col.isdigit():
            moved = where(int(line), int(col))
            if moved is None:
                return None
            new_loc = f"{file}:{moved[0]}:{moved[1]}"
            if new_loc != loc:
                text = diag["text"].replace(loc, new_loc, 1)
                diag = {**diag, "loc": new_loc, "text": text}
        out.append(diag)
    return out


def _statement_plan(
    record: _FunctionRecord,
    text: "_fingerprint.FunctionText",
    func,
    relocation,
) -> Optional[Dict[int, tuple]]:
    """For a function to check again, lowered as ``func``: the top-level
    statements of its new ``text`` that need no check, by index, each
    with the stored record's results for it (its diagnostics moved by
    ``relocation``, its calls' run-time checks, its cast pairs).  A new
    statement is an old one if both have the same text and the old one's
    place, moved by ``relocation``, is where the new one starts: equal
    texts alone do not tell repeated statements apart.  A statement
    needs no check if it is its old one in the run of statements the
    old and new bodies start with, or in the run they end with, and
    each of its diagnostics has a new place.  None if the record has no
    per-statement results or the header (signature and locals, so the
    typing context) changed: then the function is checked whole."""
    checks = record.statements
    if checks is None or record.text.header != text.header:
        return None
    old, new = record.text.statements, text.statements
    places, body = checks.places, func.body

    def same(i: int, j: int) -> bool:
        place, loc = places[j], body[i].loc
        return (
            old[j] == new[i]
            and place[0] > 0
            and relocation(*place) == (loc.line, loc.col)
        )

    shortest = min(len(old), len(new))
    head = 0
    while head < shortest and same(head, head):
        head += 1
    tail = 0
    while tail < shortest - head and same(
        len(new) - 1 - tail, len(old) - 1 - tail
    ):
        tail += 1
    offsets = [0]
    for count in checks.counts:
        offsets.append(offsets[-1] + count)
    shift = len(old) - len(new)
    plan: Dict[int, tuple] = {}
    for index in [*range(head), *range(len(new) - tail, len(new))]:
        j = index if index < head else index + shift
        diagnostics = record.diagnostics[offsets[j] : offsets[j + 1]]
        if diagnostics:
            diagnostics = _moved(diagnostics, relocation)
            if diagnostics is None:
                continue
        plan[index] = (diagnostics, checks.calls[j], checks.casts[j])
    return plan


def _statement_record(
    fingerprint: str,
    results: list,
    plan: Dict[int, tuple],
    dataflow: dict,
    text: "_fingerprint.FunctionText",
    func,
) -> _FunctionRecord:
    """A function's record from its statement-by-statement check of
    ``func``: each statement's ``results`` entry or, for one it skipped,
    its ``plan`` entry (:func:`_statement_plan`)."""
    diagnostics: List[dict] = []
    checks = _StatementChecks(
        [], [], [], [(stmt.loc.line, stmt.loc.col) for stmt in func.body]
    )
    for index, result in enumerate(results):
        if result is None:
            found, calls, casts = plan[index]
        else:
            found, calls, casts = result
            found = [{**d.to_dict(), "text": str(d)} for d in found]
        diagnostics.extend(found)
        checks.counts.append(len(found))
        checks.calls.append(calls)
        checks.casts.append(casts)
    runtime_checks = sum(checks.calls) + len(frozenset().union(*checks.casts))
    return _FunctionRecord(
        fingerprint, diagnostics, runtime_checks, dataflow, text, checks
    )


def _earlier(state: Optional["_UnitState"]) -> Optional[dict]:
    """For :func:`repro.cache.fingerprint.function_text`: each function
    whose lowering ``state`` kept, with the text it was fingerprinted
    under (a re-lowered body shares the statements it did not
    re-lower with that lowering)."""
    if state is None:
        return None
    out = {}
    for body in state.lowered.values():
        record = state.functions.get(body.function.name)
        if record is not None and record.text is not None:
            out[body.function.name] = (body.function, record.text)
    return out


# ---------------------------------------------------------------- workspace


class Workspace:
    """The stateful entry object: every pipeline command hangs off it.

    A workspace owns mutable state an immutable :class:`SessionConfig`
    cannot: the composed qualifier set (re-validated against the
    definition files' content each request), resident proof caches for
    ``prove``, and — with ``incremental=True`` — a per-function verdict
    store for ``check``:

    * each checked function is fingerprinted over its lowered body, its
      unit's declared interface, and the qualifier environment (see
      :mod:`repro.cache.fingerprint`);
    * a re-check recomputes fingerprints and runs the checker only on
      functions whose fingerprint changed, replaying the stored
      verdicts (diagnostics, runtime-check counts, dataflow stats) for
      the rest;
    * an unchanged *file* (same source digest, same environment) skips
      even the parse.

    Incremental runs add an additive ``incremental`` block to each unit
    detail and to the report meta (``functions``/``rechecked``/
    ``replayed``); one-shot runs (``incremental=False``, as every CLI
    run without ``--server``) leave it out.  Both run the same check
    path: a one-shot workspace is an incremental one that keeps no
    state, so every function counts as changed.  Incremental ``check``
    executes in-process (``jobs`` is ignored for it) so the verdict
    store lives in one place; ``prove`` still fans out through the
    batch pool and shares this workspace's resident proof cache.

    Not thread-safe: the serve daemon serializes requests per
    workspace (concurrency comes from distinct configurations and from
    the batch pool underneath).
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        incremental: bool = False,
    ):
        self.config = config or SessionConfig()
        self.incremental = incremental
        self.counters: Dict[str, int] = {
            "requests": 0,
            "units_checked": 0,
            "units_replayed": 0,
            "functions_checked": 0,
            "functions_replayed": 0,
            "prove_units": 0,
            "prove_units_replayed": 0,
            "obligations_proved": 0,
            "obligations_replayed": 0,
            "session_reuse": 0,
            "units_evicted": 0,
            "units_reparsed_partially": 0,
            "bodies_spliced": 0,
            "statements_relowered": 0,
            "statements_rechecked": 0,
            "partial_fallbacks": 0,
        }
        self.max_units = _max_unit_states()
        self._quals: Optional[QualifierSet] = None
        self._qual_texts: Optional[Tuple[str, ...]] = None
        self._env_digest: str = ""
        self._units: "OrderedDict[Tuple[str, bool], _UnitState]" = OrderedDict()
        self._prove_units: "OrderedDict[str, _ProveUnitState]" = OrderedDict()
        self._caches: Dict[str, ProofCache] = {}

    # ------------------------------------------------------------ loading

    def qualifier_set(self) -> QualifierSet:
        """The composed qualifier set, rebuilt whenever a definition
        file's content changes (so a warm workspace never trusts a
        stale parse — and the environment digest folded into every
        function fingerprint moves with it)."""
        texts = tuple(_read_source(p) for p in self.config.quals)
        if self._quals is None or texts != self._qual_texts:
            self._quals = _compose_qualifiers(self.config, texts)
            self._qual_texts = texts
            self._env_digest = _fingerprint.qualifier_env_digest(self._quals)
        return self._quals

    def load_program(self, path: str, quals: Optional[QualifierSet] = None):
        """Parse and lower one translation unit under this workspace."""
        _load_front_end()
        if quals is None:
            quals = self.qualifier_set()
        with obs.span("parse", unit=path):
            unit = parse_c(
                _read_source(path), qualifier_names=quals.names, filename=path
            )
        with obs.span("lower", unit=path):
            return lower_unit(unit)

    # ------------------------------------------------------- state control

    def invalidate(self, path: Optional[str] = None) -> int:
        """Drop the incremental verdict stores (for one unit path, or
        all of them); returns how many unit entries were dropped."""
        if path is None:
            dropped = len(self._units) + len(self._prove_units)
            self._units.clear()
            self._prove_units.clear()
            return dropped
        keys = [key for key in self._units if key[0] == path]
        for key in keys:
            del self._units[key]
        dropped = len(keys)
        if self._prove_units.pop(path, None) is not None:
            dropped += 1
        return dropped

    def _lru_get(self, store: OrderedDict, key):
        """Fetch from an incremental store, refreshing LRU recency."""
        state = store.get(key)
        if state is not None:
            store.move_to_end(key)
        return state

    def _lru_put(self, store: OrderedDict, key, state) -> None:
        """Insert into an incremental store, evicting the least
        recently used entries past the cap (``units_evicted``)."""
        store[key] = state
        store.move_to_end(key)
        while len(store) > self.max_units:
            store.popitem(last=False)
            self.counters["units_evicted"] += 1
            obs.incr("serve.units_evicted")

    def stats(self) -> dict:
        """Workspace facts, JSON-ready (the serve ``status`` payload
        embeds one of these per live workspace)."""
        return {
            "incremental": self.incremental,
            "config": {
                "quals": list(self.config.quals),
                "no_std": self.config.no_std,
                "trust_constants": self.config.trust_constants,
            },
            "units": len(self._units),
            "prove_units": len(self._prove_units),
            "functions": sum(
                len(state.functions) for state in self._units.values()
            ),
            "counters": dict(self.counters),
        }

    def close(self) -> None:
        """Release resident resources (proof-cache connections)."""
        for cache in self._caches.values():
            cache.close()
        self._caches.clear()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- commands

    def check(
        self, request: CheckRequest, on_result=None, on_event=None
    ) -> Report:
        """Qualifier-check each file as an isolated batch unit.

        Incremental workspaces re-check only the functions whose
        content fingerprint changed since the last request and replay
        stored verdicts for the rest (see the class docstring)."""
        self.counters["requests"] += 1
        _load_checker()
        quals = self.qualifier_set()
        if self.incremental:
            # The verdict store lives in this process; incremental
            # checks are cheap enough that pool fan-out would cost more
            # than it saves (prove still uses the pool).
            request = replace(request, jobs=1)
        batch_report = self._run(
            request,
            self._check_worker(request, quals),
            on_result=on_result,
            on_event=on_event,
        )
        _aggregate_dataflow_meta(batch_report)
        if self.incremental:
            _aggregate_incremental_meta(batch_report, "functions")
        return Report("check", batch_report)

    def _check_worker(self, request: CheckRequest, quals):
        """The one check path.  A one-shot workspace is an incremental
        one that keeps nothing: with no stored state every function
        counts as changed, and it stores, digests and fingerprints
        nothing (so a one-shot ``jobs > 1`` check can run this worker
        in pool children)."""
        env = self._env_digest
        keep = self.incremental

        def worker(path: str, deadline: Deadline) -> batch.UnitResult:
            self.counters["units_checked"] += 1
            source = _read_source(path)
            key = (path, request.flow_sensitive)
            state = reduced = None
            if keep:
                source_digest = _fingerprint.source_digest(source)
                state = self._lru_get(self._units, key)
                if state is not None and state.env != env:
                    state = None
                if state is not None and state.source == source_digest:
                    # Nothing changed: skip even the parse.
                    self.counters["units_replayed"] += 1
                    self.counters["functions_replayed"] += len(state.functions)
                    obs.incr("serve.incremental_hits", len(state.functions))
                    return _check_result(
                        path, state.functions, rechecked=0, unit_replayed=True
                    )
            pre = preprocess(source)
            if state is not None:
                reduced = self._reduced_parse(path, state, pre, quals)
            lowered: Dict[int, Lowered] = {}
            statements: Dict[int, List[int]] = {}
            if reduced is not None:
                unit, program, extents, blanked, lowered, statements = reduced
                interface = state.interface
                todo = {f.name for f in program.functions} - blanked
            else:
                with obs.span("parse", unit=path):
                    unit = parse_c(
                        pre.text,
                        qualifier_names=quals.names,
                        run_preprocessor=False,
                        recover=True,
                        filename=path,
                    )
                deadline.check("after parse")
                with obs.span("lower", unit=path):
                    program = lower_unit(unit)
                todo = None
            # Broken units are checked in full and never stored:
            # panic-mode recovery can attribute diagnostics across
            # function boundaries, so replay would not be sound.
            fingerprints: Dict[str, str] = {}
            texts: Dict[str, _fingerprint.FunctionText] = {}
            old = state.functions if state is not None else {}
            replay: Dict[str, _FunctionRecord] = {}
            plans: Dict[str, Optional[Dict[int, tuple]]] = {}
            checker = QualifierChecker(
                program, quals, flow_sensitive=request.flow_sensitive
            )
            statement_wise = keep and not unit.errors and checker.statement_wise
            if keep and not unit.errors:
                if reduced is None:
                    extents = body_extents(pre.text, unit._bodies)
                    interface = _fingerprint.interface_digest(program)
                names = [entry[0] for entry in unit._bodies]
                fingerprints = _fingerprint.unit_function_fingerprints(
                    program,
                    env,
                    flow_sensitive=request.flow_sensitive,
                    interface=interface,
                    functions=todo,
                    texts=texts,
                    earlier=_earlier(state),
                )
                changed = {
                    name
                    for name, digest in fingerprints.items()
                    if name not in old or old[name].fingerprint != digest
                }
                if old:
                    relocation = Relocation(state.text, pre.text)
                    replay = _replayed(
                        program, changed, state, relocation,
                        dict(zip(names, extents)), texts,
                    )
                    if statement_wise and interface == state.interface:
                        plans = {
                            func.name: _statement_plan(
                                old[func.name], texts[func.name], func, relocation
                            )
                            for func in program.functions
                            if func.name in changed
                            and func.name in old
                            and func.name in texts
                        }
            else:
                changed = {f.name for f in program.functions}
            with obs.span("typecheck", unit=path, incremental=keep):
                check_report = checker.check(
                    functions=changed,
                    statements={
                        name: set(plans.get(name) or ()) for name in changed
                    } if statement_wise else None,
                )
            per_diag: Dict[str, List[dict]] = {}
            for diag in check_report.diagnostics:
                entry = {**diag.to_dict(), "text": str(diag)}
                per_diag.setdefault(diag.function, []).append(entry)
            per_rtc: Dict[str, int] = {}
            for rtc in check_report.runtime_checks:
                per_rtc[rtc.function] = per_rtc.get(rtc.function, 0) + 1
            records: Dict[str, _FunctionRecord] = {}
            for func in program.functions:  # program order = report order
                name = func.name
                results = check_report.statements.get(name)
                if name not in changed:
                    records[name] = replay[name]
                elif results is not None:
                    plan = plans.get(name)
                    records[name] = _statement_record(
                        fingerprints[name], results, plan or {},
                        check_report.dataflow[name], texts[name], func,
                    )
                    if plan is not None:
                        self.counters["statements_rechecked"] += sum(
                            result is not None for result in results
                        )
                else:
                    records[name] = _FunctionRecord(
                        fingerprint=fingerprints.get(name, ""),
                        diagnostics=per_diag.get(name, []),
                        runtime_checks=per_rtc.get(name, 0),
                        dataflow=check_report.dataflow.get(name, {}),
                        text=texts.get(name),
                    )
            replayed = len(records) - len(changed)
            self.counters["functions_checked"] += len(changed)
            self.counters["functions_replayed"] += replayed
            if not keep:
                return _check_result(path, records, unit.errors)
            obs.incr("serve.incremental_hits", replayed)
            if unit.errors:
                self._units.pop(key, None)
            else:
                self._lru_put(
                    self._units,
                    key,
                    _UnitState(
                        source=source_digest,
                        env=env,
                        functions=records,
                        text=pre.text,
                        defines=pre.defines,
                        bodies=extents,
                        names=names,
                        typedefs=unit._typedefs,
                        interface=interface,
                        lowered=lowered,
                        statements=statements,
                    ),
                )
            return _check_result(path, records, unit.errors, len(changed))

        return worker

    def _reduced_parse(self, path: str, state: _UnitState, pre, quals):
        """Parse and lower a reduced copy of ``pre.text``
        (:func:`repro.cfront.bodies.reduce_text`), or return None when
        the reduced program may differ from a full parse outside the
        re-parsed code.  The copy first splices statements into a body
        whose tree ``state`` kept, when the edit lies inside it; if
        that fails a guard, a copy with only the untouched bodies
        blanked is tried.  Either stands in for the full parse only if
        the macro table is unchanged, the reduced parse has no errors
        and finds every blanked body where it was put, and the typedefs
        (a blanked body may use one), the interface digest and the
        function names in program order equal the stored ones.
        Returns ``(unit, program, body extents, names of the blanked
        functions, the kept bodies' lowerings, their statement
        starts)``."""
        result = None
        if pre.defines == state.defines:
            reduced = reduce_text(
                state.text, pre.text, state.bodies, state.statements
            )
            result = self._parse_reduced(path, state, reduced, quals)
            if reduced.splice is not None:
                if result is None:
                    reduced = reduce_text(state.text, pre.text, state.bodies)
                    result = self._parse_reduced(path, state, reduced, quals)
                else:
                    self.counters["bodies_spliced"] += 1
                    self.counters["statements_relowered"] += result[4][
                        reduced.splice.index
                    ].relowered
        key = "units_reparsed_partially" if result else "partial_fallbacks"
        self.counters[key] += 1
        return result

    def _parse_reduced(self, path: str, state: _UnitState, reduced, quals):
        """One reduced parse and lower for :meth:`_reduced_parse`."""
        with obs.span("parse", unit=path, reduced=True):
            unit = parse_c(
                reduced.text,
                qualifier_names=quals.names,
                run_preprocessor=False,
                recover=True,
                filename=path,
            )
        if unit.errors or unit._typedefs != state.typedefs:
            return None
        found = blanked_functions(reduced.text, unit._bodies, reduced.blanked)
        if found is None:
            return None
        extents, blanked = found
        # The definitions, in the order the parser recorded their bodies.
        defs = [f for f in unit.functions if f.body is not None]
        blanked_set = set(reduced.blanked)
        kept = {
            index: None
            for index, extent in enumerate(extents)
            if extent not in blanked_set
        }
        splice = reduced.splice
        if splice is not None:
            index = splice.index
            last = state.lowered[index]
            if (
                len(extents) != len(state.bodies)
                or extents[index] != splice.extent
                or not splice_statements(reduced.text, splice, defs[index], last.tree)
            ):
                return None
            kept[index] = (last, splice.head, splice.tail)
        with obs.span("lower", unit=path, reduced=True):
            program = lower_unit(unit, kept=kept)
        if (
            _fingerprint.interface_digest(program) != state.interface
            or [f.name for f in program.functions] != list(state.functions)
        ):
            return None
        statements = {
            index: statement_starts(
                reduced.text, extents[index][0], body.tree.body.stmts
            )
            for index, body in kept.items()
        }
        return unit, program, extents, blanked, kept, statements

    def _proof_cache(self, request: ProveRequest) -> Optional[ProofCache]:
        """The resident proof cache a prove request should run against
        (``None`` when caching is off).  The request's explicit
        settings win over the configuration's defaults; caches stay
        open for the workspace's lifetime so a warm daemon keeps its
        in-memory LRU across requests."""
        if not (request.cache and self.config.cache):
            return None
        cache_dir = (
            request.cache_dir
            if request.cache_dir != DEFAULT_CACHE_DIR
            else self.config.cache_dir
        )
        cache = self._caches.get(cache_dir)
        if cache is None:
            from repro.cache.store import ProofCache

            cache = ProofCache(cache_dir=cache_dir)
            self._caches[cache_dir] = cache
        return cache

    def prove(
        self, request: ProveRequest, on_result=None, on_event=None
    ) -> Report:
        """Soundness-check every qualifier defined in each ``.qual``
        unit, consulting the content-addressed proof cache before any
        prover work and recording settled verdicts back into it.

        Every ``jobs`` value takes one path (see docs/architecture.md,
        "obligation lifecycle"): the units' work items are generated
        here, discharged through :func:`repro.harness.shard.
        run_obligations` (in process at ``jobs`` 1, in at most ``jobs``
        pool children otherwise) and re-assembled into per-unit
        reports.  ``unit_timeout`` bounds each qualifier's obligation
        group.  An incremental workspace additionally replays a unit's
        stored report when neither its source nor the prove
        environment changed."""
        from repro.core.soundness import workitems
        from repro.core.soundness.axioms import semantics_axioms
        from repro.harness import shard as _shard

        self.counters["requests"] += 1
        retry = RetryPolicy(max_attempts=request.retries + 1)
        cache = self._proof_cache(request)
        prof = _start_profile(request)
        start = time.perf_counter()
        try:
            axioms = semantics_axioms()
            std = standard_qualifiers()
            env = self._prove_env_digest(request) if self.incremental else ""
            staged: Dict[str, tuple] = {}

            def parse_worker(path: str, deadline: Deadline) -> batch.UnitResult:
                source = _read_source(path)
                with obs.span("parse_quals", unit=path):
                    defs = parse_qualifiers(source)
                quals = _unit_qualifiers(defs, std)
                staged[path] = (
                    source,
                    quals,
                    [
                        (qdef, workitems.generate_work_items(
                            qdef, quals, axioms, unit=path
                        ))
                        for qdef in defs
                        if not request.qualifier
                        or qdef.name == request.qualifier
                    ],
                )
                return batch.UnitResult(unit=path, verdict=batch.OK)

            results_by_path: Dict[str, batch.UnitResult] = {}
            all_items: List[workitems.ObligationWorkItem] = []
            skip_rest = False
            for path in request.files:
                if skip_rest:
                    results_by_path[path] = batch.UnitResult(
                        unit=path, verdict=batch.SKIPPED
                    )
                    continue
                if self.incremental:
                    self.counters["prove_units"] += 1
                    try:
                        source_digest = _fingerprint.source_digest(
                            _read_source(path)
                        )
                    except Exception:
                        source_digest = None
                    if source_digest is not None:
                        replayed = self._prove_replay(path, source_digest, env)
                        if replayed is not None:
                            results_by_path[path] = replayed
                            continue
                # run_one supplies the batch engine's fault taxonomy
                # (input error -> ERROR, etc.) for parsing and
                # obligation generation.
                parse_result = batch.run_one(
                    path, parse_worker, request.unit_timeout
                )
                if path not in staged:
                    results_by_path[path] = parse_result
                    if (
                        not request.keep_going
                        and parse_result.severity
                        >= batch._SEVERITY[batch.ERROR]
                    ):
                        skip_rest = True
                    continue
                for _qdef, items in staged[path][2]:
                    all_items.extend(items)

            outcomes, stats = _shard.run_obligations(
                all_items,
                axioms,
                jobs=request.jobs,
                unit_timeout=request.unit_timeout,
                time_limit=request.time_limit,
                retry=retry,
                cache=cache,
                on_event=on_event,
            )

            for path, (source, quals, per_qdef) in staged.items():
                if any(
                    item.key not in outcomes
                    for _qdef, items in per_qdef
                    for item in items
                ):
                    # Interrupted before every obligation settled.
                    results_by_path[path] = batch.UnitResult(
                        unit=path, verdict=batch.SKIPPED
                    )
                    continue
                verdicts = [batch.OK]
                summaries: List[dict] = []
                unit_elapsed = 0.0
                for qdef, items in per_qdef:
                    q_elapsed = sum(
                        (outcomes[i.key].get("proof") or {}).get("elapsed", 0.0)
                        for i in items
                    )
                    unit_elapsed += q_elapsed
                    qreport = workitems.assemble_report(
                        qdef, quals, items, outcomes, elapsed=q_elapsed
                    )
                    entry = qreport.to_dict()
                    entry["summary"] = qreport.summary()
                    summaries.append(entry)
                    verdicts.extend(_obligation_verdicts(qreport.results))
                result = batch.UnitResult(
                    unit=path,
                    verdict=_worst(verdicts),
                    elapsed=unit_elapsed,
                    detail={"qualifiers": summaries},
                )
                if self.incremental:
                    self._store_prove_state(
                        path, _fingerprint.source_digest(source), env, result
                    )
                results_by_path[path] = result

            release = batch.Release(
                request.files, request.keep_going, on_result
            )
            for index, path in enumerate(request.files):
                release.settle(index, results_by_path[path])
            batch_report = release.report()
            batch_report.elapsed = time.perf_counter() - start
            if stats.get("interrupted"):
                batch_report.meta["interrupted"] = True
            self._finish_prove_meta(batch_report, cache, stats)
        except BaseException:
            _abort_profile(prof)
            raise
        _finish_profile(prof, batch_report)
        return Report("prove", batch_report)

    # ------------------------------------------- prove replay (incremental)

    def _prove_env_digest(self, request: ProveRequest) -> str:
        """The prove-environment digest every stored prove report is
        keyed under (the unit's own definitions are covered by its
        source digest, so only request-level inputs appear here)."""
        from repro.core.soundness.axioms import semantics_axioms

        return _fingerprint.prove_environment_digest(
            semantics_axioms(),
            standard_qualifiers(),
            request.time_limit,
            request.retries,
            request.qualifier,
        )

    def _prove_replay(self, path: str, source_digest: str, env: str):
        """The stored prove result for an unchanged unit, or ``None``.
        A hit returns a fresh :class:`batch.UnitResult` carrying an
        ``incremental`` detail block (never the stored object itself —
        callers stamp ``elapsed`` on what they get back)."""
        state = self._lru_get(self._prove_units, path)
        if (
            state is None
            or state.source != source_digest
            or state.env != env
        ):
            return None
        self.counters["prove_units_replayed"] += 1
        self.counters["obligations_replayed"] += state.obligations
        obs.incr("serve.prove_replays")
        obs.incr("serve.incremental_hits", state.obligations)
        stored = state.result
        return batch.UnitResult(
            unit=stored.unit,
            verdict=stored.verdict,
            diagnostics=list(stored.diagnostics),
            error=stored.error,
            detail={
                **stored.detail,
                "incremental": {
                    "obligations": state.obligations,
                    "rechecked": 0,
                    "replayed": state.obligations,
                    "unit_replayed": True,
                },
            },
        )

    def _store_prove_state(
        self,
        path: str,
        source_digest: str,
        env: str,
        result: batch.UnitResult,
    ) -> None:
        """Record a freshly-computed prove result for later replay and
        attach its ``incremental`` detail block.  Only settled reports
        (OK/WARNINGS) are stored: TIMEOUT/GAVE_UP/CRASH outcomes are
        budget- or environment-transient and must be recomputed."""
        total = 0
        cached = 0
        for entry in result.detail.get("qualifiers", ()):
            for obligation in entry.get("obligations", ()):
                total += 1
                if obligation.get("cached"):
                    cached += 1
        self.counters["obligations_proved"] += total - cached
        self.counters["obligations_replayed"] += cached
        if result.verdict in (batch.OK, batch.WARNINGS):
            stored_detail = {
                key: value
                for key, value in result.detail.items()
                if key != "incremental"
            }
            self._lru_put(
                self._prove_units,
                path,
                _ProveUnitState(
                    source=source_digest,
                    env=env,
                    obligations=total,
                    result=batch.UnitResult(
                        unit=result.unit,
                        verdict=result.verdict,
                        diagnostics=list(result.diagnostics),
                        error=result.error,
                        detail=stored_detail,
                    ),
                ),
            )
        result.detail["incremental"] = {
            "obligations": total,
            "rechecked": total - cached,
            "replayed": cached,
            "unit_replayed": False,
        }

    def _finish_prove_meta(
        self, batch_report: batch.BatchReport, cache, stats: dict
    ) -> None:
        """Run-level meta of a prove: the proof cache's, the prover
        sessions' and the obligation scheduler's counters for the run,
        and the incremental totals."""
        if cache is not None:
            batch_report.meta["cache"] = {
                "enabled": True,
                "dir": cache.cache_dir,
                "entries": cache.entry_count(),
                **stats.get("cache", {}),
            }
        else:
            batch_report.meta["cache"] = {"enabled": False}
        sessions = stats["sessions"]
        batch_report.meta["sessions"] = {"enabled": True, **sessions}
        self.counters["session_reuse"] += int(
            sessions.get("session_reuse", 0)
        )
        batch_report.meta["scheduler"] = {
            key: stats.get(key, 0)
            for key in (
                "groups", "rounds", "obligations", "requeued", "quarantined",
            )
        }
        if self.incremental:
            _aggregate_incremental_meta(batch_report, "obligations")

    def infer(
        self, request: InferRequest, on_result=None, on_event=None
    ) -> Report:
        """Infer annotations for one qualifier over each file."""
        self.counters["requests"] += 1
        quals = self.qualifier_set()
        qdef = quals.get(request.qualifier)
        if qdef is None:
            raise UnknownQualifierError(
                f"unknown qualifier {request.qualifier!r}"
            )

        def worker(path: str, deadline: Deadline) -> batch.UnitResult:
            from repro.analysis.infer import infer_value_qualifier

            program = self.load_program(path, quals)
            with obs.span("infer", unit=path, qualifier=request.qualifier):
                result = infer_value_qualifier(
                    program, qdef, quals, flow_sensitive=request.flow_sensitive
                )
            return batch.UnitResult(
                unit=path,
                verdict=batch.OK,
                detail={
                    "summary": result.summary(),
                    "entities": sorted(str(e) for e in result.inferred),
                    "dataflow": {
                        "functions": result.dataflow,
                        "totals": _sum_dataflow(result.dataflow),
                    },
                },
            )

        batch_report = self._run(
            request, worker, on_result=on_result, on_event=on_event
        )
        _aggregate_dataflow_meta(batch_report)
        return Report("infer", batch_report)

    def difftest(
        self, request: DifftestRequest, on_result=None, on_event=None
    ) -> Report:
        """Differentially test the pipeline on generated cases.

        Every case runs through four oracles (prover vs. brute-force
        enumeration, native vs. instrumented execution, metamorphic
        prover invariance, forest vs. ddmin conflict cores); any
        disagreement makes the unit
        ``WARNINGS`` (exit 1) and drops a minimized, replayable
        artifact under ``request.out_dir``.
        """
        from repro.difftest import runner as difftest_runner
        from repro.difftest.generator import generate_case

        self.counters["requests"] += 1
        out_dir = request.out_dir or difftest_runner.ARTIFACT_DIR
        budget = Deadline.after(request.budget)

        def run_outcome(unit: str, outcome) -> batch.UnitResult:
            artifacts = []
            for finding in outcome.findings:
                with obs.span("minimize", case=str(outcome.case)):
                    minimized = difftest_runner.minimize_finding(
                        outcome.case, finding, time_limit=request.time_limit
                    )
                artifacts.append(
                    difftest_runner.write_artifact(
                        out_dir, outcome.case, finding, minimized
                    )
                )
            return batch.UnitResult(
                unit=unit,
                verdict=batch.WARNINGS if outcome.findings else batch.OK,
                diagnostics=[
                    {
                        **f.to_dict(),
                        "text": f"{f.oracle}: {f.kind} in {f.case}",
                    }
                    for f in outcome.findings
                ],
                detail={
                    "findings": len(outcome.findings),
                    "artifacts": artifacts,
                    "counters": outcome.counters,
                },
            )

        if request.replay:
            units: Tuple[str, ...] = request.replay

            def worker(path: str, deadline: Deadline) -> batch.UnitResult:
                outcome = difftest_runner.replay_artifact(
                    path, time_limit=request.time_limit
                )
                return run_outcome(path, outcome)

        else:
            units = tuple(
                f"case-{index:05d}" for index in range(request.count)
            )

            def worker(name: str, deadline: Deadline) -> batch.UnitResult:
                if budget.expired():
                    return batch.UnitResult(
                        unit=name,
                        verdict=batch.OK,
                        detail={"skipped": "budget exhausted"},
                    )
                index = int(name.rsplit("-", 1)[1])
                case = generate_case(request.seed, index)
                outcome = difftest_runner.run_case(
                    case, time_limit=request.time_limit
                )
                return run_outcome(name, outcome)

        batch_report = self._run(
            request, worker, units=units, on_result=on_result, on_event=on_event
        )
        counters: Dict[str, int] = {}
        artifacts: List[str] = []
        skipped = 0
        findings = 0
        for result in batch_report.results:
            findings += result.detail.get("findings", 0)
            artifacts.extend(result.detail.get("artifacts", ()))
            if "skipped" in result.detail:
                skipped += 1
            for key, value in result.detail.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
        batch_report.meta["difftest"] = {
            "seed": request.seed,
            "count": len(units),
            "budget": request.budget,
            "time_limit": request.time_limit,
            "out_dir": out_dir,
            "replay": bool(request.replay),
            "findings": findings,
            "artifacts": artifacts,
            "cases_skipped_budget": skipped,
            "counters": counters,
        }
        return Report("difftest", batch_report)

    def run(self, path: str, entry: str = "main", args=()) -> Tuple[int, List[str]]:
        """Execute one translation unit with run-time qualifier checks;
        returns ``(exit_value, printf_output)``."""
        from repro.semantics.csem import run_program

        quals = self.qualifier_set()
        program = self.load_program(path, quals)
        return run_program(program, quals=quals, entry=entry, args=list(args))

    def show_ir(self, path: str) -> str:
        """The lowered CIL-style IR of one unit, rendered as C."""
        from repro.cil.printer import program_to_c

        return program_to_c(self.load_program(path))

    # ----------------------------------------------------------- internals

    def _run(
        self,
        request: BatchOptions,
        worker,
        units: Optional[Sequence[str]] = None,
        on_result=None,
        on_event=None,
    ) -> batch.BatchReport:
        """Run the batch, bracketed by the profiling lifecycle: start a
        slice, run, attach ``timings`` meta,
        restore collector state — including on the error path.

        ``on_result``/``on_event`` stream settled units and
        per-obligation progress events to the caller as they happen
        (the CLI's ``--format jsonl`` sits on ``on_result``)."""
        prof = _start_profile(request)
        try:
            report = batch.run_units(
                request.files if units is None else units,
                worker,
                keep_going=request.keep_going,
                jobs=request.jobs,
                unit_timeout=request.unit_timeout,
                on_result=on_result,
                on_event=on_event,
            )
        except BaseException:
            _abort_profile(prof)
            raise
        _finish_profile(prof, report)
        return report


# -------------------------------------------------------- cache management


def cache_stats(cache_dir: str = DEFAULT_CACHE_DIR) -> dict:
    """Facts about the on-disk proof cache, JSON-ready (the payload of
    ``python -m repro cache stats --format json``).

    A cache directory that was never created is reported as-is (zero
    entries, zero counters) — asking for stats must not create it.
    """
    from repro.cache.store import COUNTER_NAMES, ProofCache

    if cache_dir is not None and not os.path.isdir(cache_dir):
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "cache-stats",
            "version": _tool_version(),
            "path": os.path.join(cache_dir, "proofs.sqlite"),
            "disk": False,
            "entries": 0,
            "size_bytes": 0,
            "lifetime": {name: 0 for name in COUNTER_NAMES},
        }
    with ProofCache(cache_dir=cache_dir) as cache:
        entries = cache.entry_count()
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "cache-stats",
            "version": _tool_version(),
            "path": cache.path,
            "disk": cache.disk_available,
            "entries": entries,
            "size_bytes": cache.size_bytes(),
            "lifetime": cache.lifetime_counters(),
        }


def cache_clear(cache_dir: str = DEFAULT_CACHE_DIR) -> int:
    """Drop every cached proof; returns the number of entries removed."""
    from repro.cache.store import ProofCache

    with ProofCache(cache_dir=cache_dir) as cache:
        return cache.clear()
