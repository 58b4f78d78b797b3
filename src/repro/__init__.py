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

import sys

__version__ = "0.1.0"


def _lazy_exports(package, exports):
    """PEP 562 lazy exports for a package root.

    ``exports`` maps each defining module to the names the package
    re-exports from it (``"attr as alias"`` renames).  Returns the
    package's ``(__all__, __getattr__, __dir__)``: a name is imported
    from its module the first time it is read, then cached in the
    package namespace, so importing a package root loads none of its
    submodules.  Any other public name that is a submodule of
    ``package`` is imported on first access (``import repro`` then
    ``repro.cfront.parser`` works); anything else is an
    :class:`AttributeError` naming the module.
    """
    origins = {}
    for module, names in exports.items():
        for spec in names:
            attr, _, alias = spec.partition(" as ")
            origins[alias or attr] = (module, attr)
    namespace = sys.modules[package].__dict__

    def load(module):
        # The builtin __import__ rather than importlib.import_module:
        # only the former is seen by ``python -X importtime``.
        __import__(module)
        return sys.modules[module]

    def __getattr__(name):
        if name in origins:
            module, attr = origins[name]
            value = getattr(load(module), attr)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return load(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        public = namespace.get("__all__", ())
        return sorted(set(namespace) | set(origins) | set(public))

    return list(origins), __getattr__, __dir__


_EXPORTS = {
    # stable facade (the supported programmatic surface; repro.api.Report
    # is reached through the module to avoid shadowing the checker Report)
    "repro.api": (
        "SessionConfig", "Workspace", "CheckRequest", "ProveRequest",
        "InferRequest", "UnknownQualifierError", "SCHEMA_VERSION",
    ),
    "repro.cache.store": ("ProofCache",),
    # front end
    "repro.cfront.parser": ("parse_c", "ParseError"),
    "repro.cil.lower": ("lower_unit", "LowerError"),
    "repro.cil.printer": ("program_to_c",),
    # qualifier language
    "repro.core.qualifiers.parser": (
        "parse_qualifier", "parse_qualifiers", "QualParseError",
    ),
    "repro.core.qualifiers.validate": ("validate_definition", "validate_set"),
    "repro.core.qualifiers.ast": ("QualifierDef", "QualifierSet"),
    "repro.core.qualifiers.library": (
        "standard_qualifiers", "POS", "NEG", "NONZERO", "NONNULL", "TAINTED",
        "UNTAINTED", "UNTAINTED_WITH_CONSTS", "UNIQUE", "UNALIASED",
    ),
    # checking
    "repro.core.checker.typecheck": ("check_program", "QualifierChecker"),
    "repro.core.checker.diagnostics": ("Report", "Diagnostic"),
    "repro.core.checker.instrument": ("instrument_program",),
    # soundness
    "repro.core.soundness.checker": (
        "check_soundness", "check_all_soundness", "SoundnessReport",
    ),
    # execution
    "repro.semantics.csem": (
        "run_program", "CInterpreter", "CRuntimeError", "QualifierViolation",
        "FormatStringError",
    ),
}

_exported, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = ["__version__", "api", *_exported, "check_c_source", "run_c_source"]

_DEFAULT_QUAL_NAMES = frozenset(
    {"pos", "neg", "nonneg", "nonzero", "nonnull", "tainted", "untainted",
     "unique", "unaliased", "user", "kernel"}
)


def _lower_source(source, quals, qualifier_names):
    """Parse and lower C source with the qualifier words
    :func:`check_c_source` describes.  Returns ``(program, quals)``."""
    from repro.cfront.parser import parse_c
    from repro.cil.lower import lower_unit
    from repro.core.qualifiers.library import standard_qualifiers

    names = set(_DEFAULT_QUAL_NAMES) if quals is None else set()
    if quals is None:
        quals = standard_qualifiers()
    names |= quals.names
    if qualifier_names:
        names |= set(qualifier_names)
    return lower_unit(parse_c(source, qualifier_names=names)), quals


def check_c_source(source, quals=None, qualifier_names=None):
    """Parse, lower and qualifier-check C source in one call.

    ``quals`` defaults to the paper's standard qualifier library.  The
    names of ``quals`` are accepted as bare qualifier annotations (with
    the default library, ``user`` and ``kernel`` too), and so are any
    extra ``qualifier_names``.
    """
    from repro.core.checker.typecheck import check_program

    program, quals = _lower_source(source, quals, qualifier_names)
    return check_program(program, quals)


def run_c_source(source, quals=None, entry="main", args=(), qualifier_names=None):
    """Parse, lower and execute C source with run-time qualifier checks.

    Returns ``(exit_value, printf_output)``.
    """
    from repro.semantics.csem import run_program

    program, quals = _lower_source(source, quals, qualifier_names)
    return run_program(program, quals=quals, entry=entry, args=list(args))
