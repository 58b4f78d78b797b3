"""Pretty-printer: render a CIL-style program back to C-like source.

Used to inspect lowering results and to emit instrumented programs (the
paper's pipeline writes the AST back out as C for gcc; we render the IR
the same way, with run-time checks shown as ``__check_<qual>`` calls).
"""

from __future__ import annotations

from typing import List

from repro.cfront.ctypes import CType, type_to_str
from repro.cil import ir


def program_to_c(program: ir.Program) -> str:
    out: List[str] = []
    for name, fields in program.structs.items():
        out.append(f"struct {name} {{")
        for fname, ftype in fields:
            out.append(f"  {_decl(ftype, fname)};")
        out.append("};")
        out.append("")
    for g in program.globals:
        out.append(f"{_decl(g.ctype, g.name)};")
    if program.globals:
        out.append("")
    for f in program.functions:
        out.extend(_function(f))
        out.append("")
    return "\n".join(out)


def function_to_c(f: ir.Function) -> str:
    """One function rendered as C — the canonical per-function text the
    incremental checker fingerprints (whitespace/comment edits in the
    original source do not change it)."""
    return "\n".join(_function(f))


def function_header(f: ir.Function) -> str:
    """The lines of :func:`function_to_c` before the statements: the
    signature and one line per local.  The function's text is this, each
    top-level statement's :func:`statement_text` that is not empty, and
    ``}``, joined by newlines."""
    return "\n".join(_header(f))


def statement_text(stmt: ir.Stmt) -> str:
    """The lines of :func:`function_to_c` one top-level statement
    renders, joined by newlines (empty if it renders none)."""
    return "\n".join(_stmts([stmt], indent=1))


def _decl(ctype: CType, name: str) -> str:
    return f"{type_to_str(ctype)} {name}"


def _header(f: ir.Function) -> List[str]:
    params = ", ".join(_decl(t, n) for n, t in f.formals)
    if f.varargs:
        params = f"{params}, ..." if params else "..."
    out = [f"{type_to_str(f.ret)} {f.name}({params}) {{"]
    for name, ctype in f.locals:
        out.append(f"  {_decl(ctype, name)};")
    return out


def _function(f: ir.Function) -> List[str]:
    out = _header(f)
    out.extend(_stmts(f.body, indent=1))
    out.append("}")
    return out


def _stmts(stmts: List[ir.Stmt], indent: int) -> List[str]:
    pad = "  " * indent
    out: List[str] = []
    for stmt in stmts:
        if isinstance(stmt, ir.Instr):
            out.extend(pad + str(i) for i in stmt.instrs)
        elif isinstance(stmt, ir.If):
            out.append(f"{pad}if ({stmt.cond}) {{")
            out.extend(_stmts(stmt.then, indent + 1))
            if stmt.otherwise:
                out.append(f"{pad}}} else {{")
                out.extend(_stmts(stmt.otherwise, indent + 1))
            out.append(f"{pad}}}")
        elif isinstance(stmt, ir.While):
            for instr in stmt.cond_instrs:
                out.append(pad + str(instr))
            out.append(f"{pad}while ({stmt.cond}) {{")
            out.extend(_stmts(stmt.body, indent + 1))
            for instr in stmt.cond_instrs:
                out.append("  " * (indent + 1) + str(instr))
            out.append(f"{pad}}}")
        elif isinstance(stmt, ir.Return):
            if stmt.expr is None:
                out.append(f"{pad}return;")
            else:
                out.append(f"{pad}return {stmt.expr};")
        elif isinstance(stmt, ir.Break):
            out.append(f"{pad}break;")
        elif isinstance(stmt, ir.Continue):
            out.append(f"{pad}continue;")
        elif isinstance(stmt, ir.Goto):
            out.append(f"{pad}goto {stmt.label};")
        elif isinstance(stmt, ir.Label):
            out.append(f"{pad}{stmt.name}:")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement {stmt!r}")
    return out
