"""Executable semantics.

Two interpreters live here:

* :mod:`repro.semantics.csem` — a concrete interpreter for the CIL-style
  IR with the run-time qualifier-cast checks of section 2.1.3, used by
  the examples and to demonstrate that instrumented programs trap
  invariant violations (including the format-string exploit of the
  paper's section 6.3).
* :mod:`repro.semantics.lambda_ref` — the simply-typed lambda calculus
  with ML-style references and user-defined value qualifiers from the
  paper's formalization (section 5), with a typechecker implementing the
  T-QUALCASE rule template, a big-step evaluator, and the semantic-
  conformance relation of figure 11.  Property-based tests use it to
  check Theorem 5.1 (preservation) empirically.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.semantics.csem": (
        "CInterpreter", "CRuntimeError", "FormatStringError",
        "QualifierViolation", "run_program",
    ),
    "repro.semantics.lambda_ref": (
        "LambdaTypeError", "typecheck", "evaluate", "check_conformance",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
