"""Diagnostics produced by qualifier checking.

As in the paper's implementation, type errors are reported as warnings
and checking continues (section 3.2), so a single run reports every
violation in the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cfront.ast import Loc

#: Stable machine-readable codes per diagnostic kind.  Q0xx are
#: pipeline/input failures (reported by the batch harness), Q1xx are
#: qualifier-rule violations from the typechecker.  Codes are part of
#: the tool's output contract (--format json); never renumber, only
#: append.
DIAGNOSTIC_CODES: Dict[str, str] = {
    "parse": "Q001",  # C syntax error (including panic-mode recoveries)
    "lower": "Q002",  # surface AST -> CIL lowering failure
    "qualfile": "Q003",  # malformed qualifier definition file
    "io": "Q004",  # unreadable / undecodable input
    "internal": "Q005",  # survived internal crash (CRASH verdict)
    "timeout": "Q006",  # unit exceeded its wall-clock deadline
    "quarantine": "Q007",  # poison unit: killed repeated workers (GAVE_UP)
    "assign": "Q101",
    "restrict": "Q102",
    "disallow": "Q103",
    "call": "Q104",
    "return": "Q105",
    "base": "Q106",
}

_UNKNOWN_CODE = "Q999"


def code_for(kind: str) -> str:
    """The stable ``Q###`` code for a diagnostic kind."""
    return DIAGNOSTIC_CODES.get(kind, _UNKNOWN_CODE)


@dataclass(frozen=True)
class Diagnostic:
    """One qualifier-checking warning."""

    kind: str  # 'assign', 'restrict', 'disallow', 'call', 'return', 'base'
    qualifier: str
    message: str
    loc: Loc = field(default_factory=Loc)
    function: str = ""
    severity: str = "warning"  # the paper reports violations as warnings

    @property
    def code(self) -> str:
        return code_for(self.kind)

    def __str__(self) -> str:
        where = f"{self.function}: " if self.function else ""
        return (
            f"{where}{self.loc}: {self.code} "
            f"[{self.qualifier}/{self.kind}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "kind": self.kind,
            "qualifier": self.qualifier,
            "message": self.message,
            "severity": self.severity,
            "loc": str(self.loc),
            "function": self.function,
        }


@dataclass
class RuntimeCheck:
    """A run-time check the instrumenter must insert for a cast to a
    value-qualified type (section 2.1.3)."""

    qualifier: str
    loc: Loc
    function: str

    def __str__(self) -> str:
        return f"{self.function}: {self.loc}: runtime check for cast to {self.qualifier}"


@dataclass
class Report:
    """The result of running the extensible typechecker."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    runtime_checks: List[RuntimeCheck] = field(default_factory=list)
    # Per-function solver work counters (blocks, edges, iterations, ms)
    # from the shared dataflow engine — additive report data, keyed by
    # function name.
    dataflow: Dict[str, dict] = field(default_factory=dict)
    # Per top-level statement results of the functions checked statement
    # by statement (``QualifierChecker._check_statements``), keyed by
    # function name; not part of the report's payload.
    statements: Dict[str, list] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def warning_count(self) -> int:
        """Diagnostics with warning severity — the paper's default for
        every rule violation (checking continues past them)."""
        return sum(1 for d in self.diagnostics if d.severity == "warning")

    @property
    def error_count(self) -> int:
        """Total diagnostics, regardless of severity.

        Historically the CLI printed ``error_count`` but keyed its exit
        status on ``diagnostics`` being non-empty; both are the same
        quantity, and this property is the single source of truth for
        "did checking find anything".
        """
        return len(self.diagnostics)

    def to_dict(self) -> dict:
        return {
            "warnings": self.warning_count,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "runtime_checks": len(self.runtime_checks),
        }

    def errors_for(self, qualifier: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.qualifier == qualifier]

    def add(
        self,
        kind: str,
        qualifier: str,
        message: str,
        loc: Loc = Loc(),
        function: str = "",
    ) -> None:
        self.diagnostics.append(Diagnostic(kind, qualifier, message, loc, function))

    def summary(self) -> str:
        lines = [f"{len(self.diagnostics)} qualifier warning(s)"]
        lines.extend(str(d) for d in self.diagnostics)
        if self.runtime_checks:
            lines.append(f"{len(self.runtime_checks)} runtime check(s) inserted")
        return "\n".join(lines)
