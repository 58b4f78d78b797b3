"""C-subset front end.

This package stands in for CIL's C parser in the original system.  It
provides a lexer, a light preprocessor (object-like ``#define`` macros and
``#include`` skipping), a recursive-descent parser for a C subset that is
rich enough for the paper's experiments, and a representation of C types
carrying user-defined qualifier annotations.

The supported C subset includes: struct definitions, global and local
declarations with initializers, function prototypes and definitions
(including varargs prototypes such as ``printf``), pointers, arrays,
casts, ``sizeof``, the usual unary/binary/relational/logical operators,
assignment (also in expression position), compound assignment, ``++``/
``--``, conditional expressions, ``if``/``while``/``for``/``return``/
``break``/``continue``, and gcc ``__attribute__((qual))`` qualifier
annotations (usually written through macros such as ``nonnull``).
"""

from repro import _lazy_exports

# Eager, unlike the rest: ``preprocess`` is also the name of its own
# submodule, and importing that submodule would rebind the package
# attribute to the module instead of the function.
from repro.cfront.preprocess import preprocess

_EXPORTS = {
    "repro.cfront.ctypes": (
        "CType", "IntType", "VoidType", "PointerType", "ArrayType",
        "StructType", "FuncType",
    ),
    "repro.cfront.lexer": ("Lexer", "Token", "LexError"),
    "repro.cfront.parser": ("Parser", "ParseError", "parse_c"),
}

_exported, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [*_exported, "preprocess"]
