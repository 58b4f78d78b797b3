"""The extensible typechecker (paper section 3).

Takes a CIL-style program and a :class:`QualifierSet` and performs
qualifier checking: user-defined ``case`` rules decide when expressions
may be given qualified types; ``restrict`` rules tighten base-type
checks; ``assign``/``disallow``/``ondecl`` rules govern reference-
qualified l-values.  Casts to value-qualified types are recorded so the
program can be instrumented with run-time checks (section 2.1.3).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.core.checker.diagnostics": ("Diagnostic", "Report"),
    "repro.core.checker.patterns": ("MatchBinding", "match_expr_pattern"),
    "repro.core.checker.typecheck": ("QualifierChecker", "check_program"),
    "repro.core.checker.instrument": ("instrument_program",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
