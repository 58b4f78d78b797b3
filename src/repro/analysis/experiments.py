"""The paper's evaluation (section 6), packaged as callable experiments.

Each function reproduces one table or claim and returns a row-oriented
dict mirroring the paper's layout, alongside the paper's published
numbers for comparison.  EXPERIMENTS.md is generated from these
(``tools/generate_experiments_md.py``), and
``tests/test_experiments_module.py`` holds each row to the paper's
shape or to its exact columns.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cfront.parser import parse_c
from repro.cil import ir
from repro.cil.lower import lower_unit
from repro.core.checker.typecheck import QualifierChecker, check_program
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.library import (
    NEG,
    NONNULL,
    NONZERO,
    POS,
    UNALIASED,
    UNIQUE,
    standard_qualifiers,
)
from repro.core.soundness.checker import check_soundness
from repro.analysis.annotate import annotate_nonnull, annotate_untainted
from repro.analysis.stats import count_lines, count_printf_calls, program_stats
from repro.corpus import (
    generate_bftpd,
    generate_dfa_module,
    generate_identd,
    generate_mingetty,
)

#: The paper's published numbers, for side-by-side reporting.
PAPER_TABLE1 = {
    "program": "grep",
    "files": "dfa.c, dfa.h",
    "lines": 2287,
    "dereferences": 1072,
    "annotations": 114,
    "casts": 59,
    "errors": 0,
}

PAPER_TABLE2 = {
    "bftpd": {"lines": 750, "printf_calls": 134, "annotations": 2, "casts": 0, "errors": 1},
    "mingetty": {"lines": 293, "printf_calls": 23, "annotations": 1, "casts": 0, "errors": 0},
    "identd": {"lines": 228, "printf_calls": 21, "annotations": 0, "casts": 0, "errors": 0},
}

PAPER_UNIQUENESS = {"validated_references": 49, "errors": 0}

#: Section 4's timing claims (seconds, on 2005 hardware with Simplify).
PAPER_SOUNDNESS_BOUNDS = {"value": 1.0, "ref": 30.0}
PAPER_TYPECHECK_BOUND = 1.0  # section 6: "under one second"


def compile_corpus(source: str) -> ir.Program:
    return lower_unit(parse_c(source))


# --------------------------------------------------------------- Table 1


def table1_nonnull() -> Dict[str, object]:
    """Table 1: the nonnull experiment on the dfa module."""
    source = generate_dfa_module()
    program = compile_corpus(source)
    stats = program_stats(source, program)
    result = annotate_nonnull(program)
    return {
        "program": "grep (synthetic dfa module)",
        "files": "dfa.c (generated)",
        "lines": stats.lines,
        "dereferences": stats.dereferences,
        "annotations": result.annotations,
        "casts": result.casts,
        "errors": result.errors,
        "paper": PAPER_TABLE1,
    }


# --------------------------------------------------------------- Table 2


_SERVERS = {
    "bftpd": (generate_bftpd, ("sendstrf", "log_event")),
    "mingetty": (generate_mingetty, ("error",)),
    "identd": (generate_identd, ()),
}


def table2_untainted() -> Dict[str, Dict[str, object]]:
    """Table 2: the untainted format-string experiment on the three
    synthetic daemons."""
    rows: Dict[str, Dict[str, object]] = {}
    for name, (gen, wrappers) in _SERVERS.items():
        source = gen()
        program = compile_corpus(source)
        result = annotate_untainted(program)
        rows[name] = {
            "lines": count_lines(source),
            "printf_calls": count_printf_calls(result.program, wrappers),
            "annotations": result.annotations,
            "casts": result.casts,
            "errors": result.errors,
            "error_messages": [str(d) for d in result.report.diagnostics],
            "paper": PAPER_TABLE2[name],
        }
    return rows


# ------------------------------------------------------- Section 6.2 (unique)


def uniqueness_experiment() -> Dict[str, object]:
    """Section 6.2: annotate the dfa global with unique; the checker
    validates every subsequent reference."""
    source = generate_dfa_module()
    program = compile_corpus(source)
    program = copy.deepcopy(program)
    for g in program.globals:
        if g.name == "dfa":
            g.ctype = g.ctype.with_quals(["unique"])
    report = check_program(program, QualifierSet([UNIQUE]))
    references = _count_global_references(program, "dfa")
    return {
        "global": "dfa",
        "validated_references": references,
        "errors": report.error_count,
        "error_messages": [str(d) for d in report.diagnostics],
        "paper": PAPER_UNIQUENESS,
    }


def _count_global_references(program: ir.Program, name: str) -> int:
    """Occurrences of the global: dereferences through it plus
    assignments to it (each validated by the checker)."""
    count = 0
    for func in program.functions:
        for instr in ir.walk_instructions(func.body):
            exprs: List[ir.Expr] = []
            if isinstance(instr, ir.Set):
                exprs = [ir.Lval(instr.lvalue), instr.expr]
                if instr.lvalue.var_name == name:
                    count += 1  # a checked assignment to the global
            elif isinstance(instr, ir.Call):
                exprs = list(instr.args)
                if instr.result is not None:
                    exprs.append(ir.Lval(instr.result))
                    if instr.result.var_name == name:
                        count += 1
            for e in exprs:
                for node in ir.subexprs(e):
                    if (
                        isinstance(node, ir.Lval)
                        and isinstance(node.lvalue.host, ir.MemHost)
                    ):
                        base = node.lvalue.host.addr
                        while isinstance(base, (ir.BinOp, ir.CastE)):
                            base = (
                                base.left
                                if isinstance(base, ir.BinOp)
                                else base.operand
                            )
                        if (
                            isinstance(base, ir.Lval)
                            and base.lvalue.var_name == name
                        ):
                            count += 1
    # Conditions also reference the global.
    for func in program.functions:
        for stmt in ir.walk_stmts(func.body):
            conds = []
            if isinstance(stmt, ir.If):
                conds = [stmt.cond]
            elif isinstance(stmt, ir.While):
                conds = [stmt.cond]
            for cond in conds:
                for node in ir.subexprs(cond):
                    if isinstance(node, ir.Lval) and isinstance(
                        node.lvalue.host, ir.MemHost
                    ):
                        base = node.lvalue.host.addr
                        while isinstance(base, (ir.BinOp, ir.CastE)):
                            base = (
                                base.left
                                if isinstance(base, ir.BinOp)
                                else base.operand
                            )
                        if (
                            isinstance(base, ir.Lval)
                            and base.lvalue.var_name == name
                        ):
                            count += 1
    return count


# ------------------------------------------------------- Section 4 timings


def soundness_timings(time_limit: float = 45.0) -> Dict[str, Dict[str, object]]:
    """Section 4's claims: each value qualifier proves in under a
    second (Simplify, 2005); each ref qualifier in under 30 seconds."""
    quals = standard_qualifiers()
    rows: Dict[str, Dict[str, object]] = {}
    for qdef, kind in (
        (POS, "value"),
        (NEG, "value"),
        (NONZERO, "value"),
        (NONNULL, "value"),
        (UNIQUE, "ref"),
        (UNALIASED, "ref"),
    ):
        report = check_soundness(qdef, quals, time_limit=time_limit)
        rows[qdef.name] = {
            "kind": kind,
            "sound": report.sound,
            "seconds": report.elapsed,
            "obligations": len(report.results),
            "paper_bound_seconds": PAPER_SOUNDNESS_BOUNDS[kind],
        }
    return rows


def typecheck_timings() -> Dict[str, Dict[str, object]]:
    """Section 6: 'the extra compile time for performing qualifier
    checking in CIL is under one second' — for every experiment
    program."""
    quals = standard_qualifiers(trust_constants=True)
    rows: Dict[str, Dict[str, object]] = {}
    sources = {
        "dfa (synthetic grep)": generate_dfa_module(),
        "bftpd (synthetic)": generate_bftpd(),
        "mingetty (synthetic)": generate_mingetty(),
        "identd (synthetic)": generate_identd(),
    }
    for name, source in sources.items():
        program = compile_corpus(source)
        start = time.perf_counter()
        QualifierChecker(program, quals).check()
        elapsed = time.perf_counter() - start
        rows[name] = {
            "lines": count_lines(source),
            "seconds": elapsed,
            "paper_bound_seconds": PAPER_TYPECHECK_BOUND,
        }
    return rows
