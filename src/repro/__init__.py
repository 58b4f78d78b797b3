"""repro — a reproduction of "Semantic Type Qualifiers" (PLDI 2005).

A framework for user-defined type qualifiers over C programs:

* write qualifier definitions in the paper's rule language
  (:func:`parse_qualifier`, :data:`standard_qualifiers`);
* check C programs against them with the extensible typechecker
  (:func:`check_c_source`);
* prove each qualifier's type rules establish its declared run-time
  invariant, automatically (:func:`check_soundness`);
* execute checked programs with run-time qualifier checks
  (:func:`run_c_source`).

Quick start::

    import repro

    report = repro.check_c_source('''
        int pos gcd(int pos n, int pos m);
        int pos lcm(int pos a, int pos b) {
          int pos d = gcd(a, b);
          int pos prod = a * b;
          return (int pos) (prod / d);
        }
    ''')
    assert report.ok

    soundness = repro.check_soundness(repro.POS, repro.standard_qualifiers())
    assert soundness.sound
"""

from repro import api
from repro.api import (
    SCHEMA_VERSION,
    CheckRequest,
    InferRequest,
    ProveRequest,
    SessionConfig,
    UnknownQualifierError,
    Workspace,
)
from repro.cache import ProofCache
from repro.cfront.parser import ParseError, parse_c
from repro.cil.lower import LowerError, lower_unit
from repro.cil.printer import program_to_c
from repro.core.checker.diagnostics import Diagnostic, Report
from repro.core.checker.instrument import instrument_program
from repro.core.checker.typecheck import QualifierChecker, check_program
from repro.core.qualifiers.ast import QualifierDef, QualifierSet
from repro.core.qualifiers.library import (
    NEG,
    NONNULL,
    NONZERO,
    POS,
    TAINTED,
    UNALIASED,
    UNIQUE,
    UNTAINTED,
    UNTAINTED_WITH_CONSTS,
    standard_qualifiers,
)
from repro.core.qualifiers.parser import QualParseError, parse_qualifier, parse_qualifiers
from repro.core.qualifiers.validate import validate_definition, validate_set
from repro.core.soundness.checker import SoundnessReport, check_all_soundness, check_soundness
from repro.semantics.csem import (
    CInterpreter,
    CRuntimeError,
    FormatStringError,
    QualifierViolation,
    run_program,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # stable facade (the supported programmatic surface; repro.api.Report
    # is reached through the module to avoid shadowing the checker Report)
    "api", "SessionConfig", "Workspace",
    "CheckRequest", "ProveRequest", "InferRequest",
    "UnknownQualifierError", "SCHEMA_VERSION", "ProofCache",
    # front end
    "parse_c", "ParseError", "lower_unit", "LowerError", "program_to_c",
    # qualifier language
    "parse_qualifier", "parse_qualifiers", "QualParseError",
    "validate_definition", "validate_set",
    "QualifierDef", "QualifierSet", "standard_qualifiers",
    "POS", "NEG", "NONZERO", "NONNULL", "TAINTED", "UNTAINTED",
    "UNTAINTED_WITH_CONSTS", "UNIQUE", "UNALIASED",
    # checking
    "check_program", "QualifierChecker", "Report", "Diagnostic",
    "instrument_program", "check_c_source",
    # soundness
    "check_soundness", "check_all_soundness", "SoundnessReport",
    # execution
    "run_program", "run_c_source", "CInterpreter",
    "CRuntimeError", "QualifierViolation", "FormatStringError",
]

_DEFAULT_QUAL_NAMES = frozenset(
    {"pos", "neg", "nonneg", "nonzero", "nonnull", "tainted", "untainted",
     "unique", "unaliased", "user", "kernel"}
)


def check_c_source(source, quals=None, qualifier_names=None):
    """Parse, lower and qualifier-check C source in one call.

    ``quals`` defaults to the paper's standard qualifier library;
    ``qualifier_names`` are identifiers accepted as bare qualifier
    annotations (defaults to the standard names plus any in ``quals``).
    """
    if quals is None:
        quals = standard_qualifiers()
    names = set(_DEFAULT_QUAL_NAMES) | quals.names
    if qualifier_names:
        names |= set(qualifier_names)
    program = lower_unit(parse_c(source, qualifier_names=names))
    return check_program(program, quals)


def run_c_source(source, quals=None, entry="main", args=(), qualifier_names=None):
    """Parse, lower and execute C source with run-time qualifier checks.

    Returns ``(exit_value, printf_output)``.
    """
    if quals is None:
        quals = standard_qualifiers()
    names = set(_DEFAULT_QUAL_NAMES) | quals.names
    if qualifier_names:
        names |= set(qualifier_names)
    program = lower_unit(parse_c(source, qualifier_names=names))
    return run_program(program, quals=quals, entry=entry, args=list(args))
