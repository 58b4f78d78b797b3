"""CIL-style intermediate representation.

Mirrors the essential property of CIL that the paper relies on (section
2.1): *expressions* are side-effect-free, while side effects — including
all procedure calls, hence ``malloc`` — live in *instructions*.  L-values
are represented as a host (variable or memory dereference) plus an
offset chain (fields / array indices), exactly as in CIL.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.cil.ir": (
        "AddrOf", "BinOp", "Break", "Call", "CastE", "Continue", "FieldOff",
        "Function", "GlobalVar", "If", "IndexOff", "Instr", "IntConst",
        "Lval", "Lvalue", "MemHost", "NoOffset", "NullConst", "Program",
        "Return", "Set", "SizeOfE", "StrConst", "UnOp", "VarHost", "While",
    ),
    "repro.cil.lower": ("LowerError", "lower_unit"),
    "repro.cil.printer": ("program_to_c",),
    "repro.cil.typesof": (
        "TypeError_ as CilTypeError", "TypingContext", "type_of_expr",
        "type_of_lvalue",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
