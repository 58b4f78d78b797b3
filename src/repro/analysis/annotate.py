"""The paper's iterative annotation workflows, automated.

Section 6.1 describes annotating grep with ``nonnull`` "in an iterative
fashion": run the checker, annotate the variables whose dereferences it
flags, chase the new errors that appear on assignments to the annotated
variables, and fall back to casts where the type rules are insufficient
(flow-insensitivity, malloc results, parser-supplied initialisation).

Section 6.3 does the same with ``untainted``: the checker's errors on
printf-family calls identify the procedure parameters that must be
annotated as untainted; what remains afterwards are real format-string
bugs.

This module mechanises both loops over the IR, so the Table 1 / Table 2
columns (annotations, casts, errors) are produced by the same process
the authors performed by hand.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cfront.ctypes import CType, FuncType, PointerType, is_pointer_like
from repro.cil import ir
from repro.cil.typesof import TypeError_, TypingContext, type_of_expr
from repro.core.checker.diagnostics import Report
from repro.core.checker.typecheck import QualifierChecker
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.library import (
    NONNULL,
    TAINTED,
    UNTAINTED,
    UNTAINTED_WITH_CONSTS,
)

# An annotatable entity: where a pointer type is declared.
#   ('global', name) | ('local', func, name) | ('formal', func, name)
#   | ('field', struct, fieldname)
Entity = Tuple[str, ...]


@dataclass
class NonnullAnnotationResult:
    program: ir.Program
    annotations: int
    casts: int
    report: Report

    @property
    def errors(self) -> int:
        return self.report.error_count

    def row(self) -> Dict[str, int]:
        return {
            "annotations": self.annotations,
            "casts": self.casts,
            "errors": self.errors,
        }


@dataclass
class UntaintedAnnotationResult:
    program: ir.Program
    annotations: int
    casts: int
    report: Report

    @property
    def errors(self) -> int:
        return self.report.error_count

    def row(self) -> Dict[str, int]:
        return {
            "annotations": self.annotations,
            "casts": self.casts,
            "errors": self.errors,
        }


# =========================================================== nonnull workflow


def annotate_nonnull(
    program: ir.Program,
    quals: Optional[QualifierSet] = None,
    flow_sensitive: bool = False,
) -> NonnullAnnotationResult:
    """Run the section-6.1 workflow: annotate, cast, re-check.

    With ``flow_sensitive`` the checker's guard-refinement extension is
    enabled, so NULL-guarded dereferences need no casts — the paper's
    predicted payoff of its planned flow-sensitivity (section 6.1).
    """
    quals = quals or QualifierSet([NONNULL])
    program = copy.deepcopy(program)

    deref_entities = _collect_deref_entities(program)
    nullable = _collect_nullable_entities(program)
    to_annotate = {
        e
        for e in deref_entities
        if e not in nullable and _entity_is_pointer(program, e)
    }
    for entity in to_annotate:
        _add_qual_to_entity(program, entity, "nonnull")
    _refresh_signatures(program)

    casts = 0
    casts += _insert_rhs_casts(program, quals, "nonnull")
    casts += _insert_deref_casts(program, quals, "nonnull", flow_sensitive)

    report = QualifierChecker(program, quals, flow_sensitive=flow_sensitive).check()
    return NonnullAnnotationResult(
        program=program,
        annotations=len(to_annotate),
        casts=casts,
        report=report,
    )


def _entity_of_lvalue(
    program: ir.Program, func: ir.Function, lv: ir.Lvalue
) -> Optional[Entity]:
    """The declaration site an l-value names, or None.

    Only l-values whose *final* component is a declared entity count:
    ``d->states[i].trans`` names the field ``trans``, but
    ``d->states[i].trans[c]`` names an anonymous cell reached *through*
    it (assigning 0 there says nothing about the field's nullability).
    """
    last = None  # the final offset component
    current = lv.offset
    while not isinstance(current, ir.NoOffset):
        last = current
        current = current.rest
    if isinstance(last, ir.IndexOff):
        return None
    if isinstance(last, ir.FieldOff):
        struct = _owning_struct(program, func, lv, last)
        if struct is not None:
            return ("field", struct, last.fieldname)
        return None
    if isinstance(lv.host, ir.VarHost) and isinstance(lv.offset, ir.NoOffset):
        name = lv.host.name
        for n, _t in func.formals:
            if n == name:
                return ("formal", func.name, name)
        for n, _t in func.locals:
            if n == name:
                return ("local", func.name, name)
        for g in program.globals:
            if g.name == name:
                return ("global", name)
    return None


def _owning_struct(
    program: ir.Program, func: ir.Function, lv: ir.Lvalue, target: ir.FieldOff
) -> Optional[str]:
    """The struct type the final FieldOff applies to, resolved with the
    typing context (several structs may declare same-named fields)."""
    from repro.cfront.ctypes import StructType, pointee_of, is_pointer_like
    from repro.cil.typesof import type_of_expr

    ctx = TypingContext.for_function(program, func)
    try:
        if isinstance(lv.host, ir.VarHost):
            current = ctx.var_type(lv.host.name)
        else:
            addr_type = type_of_expr(ctx, lv.host.addr)
            if not is_pointer_like(addr_type):
                return None
            current = pointee_of(addr_type)
        off = lv.offset
        while not isinstance(off, ir.NoOffset):
            if isinstance(off, ir.FieldOff):
                if not isinstance(current, StructType):
                    return None
                if off is target:
                    return current.name
                current = ctx.field_type(current.name, off.fieldname)
            else:
                if not is_pointer_like(current):
                    return None
                current = pointee_of(current)
            off = off.rest
    except TypeError_:
        return None
    return None


def _peel_addr(expr: ir.Expr) -> ir.Expr:
    """Strip pointer arithmetic and casts from a dereference base."""
    while True:
        if isinstance(expr, ir.BinOp) and expr.op == "ptradd":
            expr = expr.left
        elif isinstance(expr, ir.CastE):
            expr = expr.operand
        else:
            return expr


def _collect_deref_entities(program: ir.Program) -> Set[Entity]:
    out: Set[Entity] = set()
    for func in program.functions:
        for expr in _all_exprs(func):
            for node in ir.subexprs(expr):
                if isinstance(node, ir.Lval) and isinstance(node.lvalue.host, ir.MemHost):
                    base = _peel_addr(node.lvalue.host.addr)
                    if isinstance(base, ir.Lval):
                        entity = _entity_of_lvalue(program, func, base.lvalue)
                        if entity is not None:
                            out.add(entity)
    return out


def _collect_nullable_entities(program: ir.Program) -> Set[Entity]:
    """Entities assigned NULL anywhere: annotating them would be wrong."""
    out: Set[Entity] = set()
    for func in program.functions:
        for instr in ir.walk_instructions(func.body):
            if isinstance(instr, ir.Set) and isinstance(instr.expr, ir.NullConst):
                entity = _entity_of_lvalue(program, func, instr.lvalue)
                if entity is not None:
                    out.add(entity)
            elif (
                isinstance(instr, ir.Set)
                and isinstance(instr.expr, ir.IntConst)
                and instr.expr.value == 0
            ):
                entity = _entity_of_lvalue(program, func, instr.lvalue)
                if entity is not None:
                    out.add(entity)
    return out


def _entity_is_pointer(program: ir.Program, entity: Entity) -> bool:
    kind = entity[0]
    if kind == "global":
        try:
            return is_pointer_like(program.global_type(entity[1]))
        except KeyError:
            return False
    if kind in ("local", "formal"):
        func = program.function(entity[1])
        pool = func.formals if kind == "formal" else func.locals
        return any(n == entity[2] and is_pointer_like(t) for n, t in pool)
    if kind == "field":
        return any(
            n == entity[2] and is_pointer_like(t)
            for n, t in program.structs.get(entity[1], [])
        )
    return False


def _add_qual_to_entity(program: ir.Program, entity: Entity, qual: str) -> None:
    kind = entity[0]
    if kind == "global":
        for g in program.globals:
            if g.name == entity[1] and is_pointer_like(g.ctype):
                g.ctype = g.ctype.with_quals([qual])
    elif kind in ("local", "formal"):
        func = program.function(entity[1])
        target = func.formals if kind == "formal" else func.locals
        for i, (name, ctype) in enumerate(target):
            if name == entity[2] and is_pointer_like(ctype):
                target[i] = (name, ctype.with_quals([qual]))
    elif kind == "field":
        fields = program.structs.get(entity[1], [])
        for i, (name, ctype) in enumerate(fields):
            if name == entity[2] and is_pointer_like(ctype):
                fields[i] = (name, ctype.with_quals([qual]))


def _refresh_signatures(program: ir.Program) -> None:
    """Keep declared signatures in sync with (re-)annotated formals."""
    for func in program.functions:
        program.signatures[func.name] = FuncType(
            ret=func.ret,
            params=tuple(t for _n, t in func.formals),
            varargs=func.varargs,
        )


def _all_exprs(func: ir.Function):
    """Every top-level expression in a function (mirrors the checker's
    traversal)."""
    for stmt in ir.walk_stmts(func.body):
        if isinstance(stmt, ir.Instr):
            for instr in stmt.instrs:
                yield from _instr_exprs(instr)
        elif isinstance(stmt, ir.If):
            yield stmt.cond
        elif isinstance(stmt, ir.While):
            yield stmt.cond
            for instr in stmt.cond_instrs:
                yield from _instr_exprs(instr)
        elif isinstance(stmt, ir.Return) and stmt.expr is not None:
            yield stmt.expr


def _instr_exprs(instr: ir.Instruction):
    if isinstance(instr, ir.Set):
        yield ir.Lval(instr.lvalue)
        yield instr.expr
    elif isinstance(instr, ir.Call):
        yield from instr.args
        if instr.result is not None:
            yield ir.Lval(instr.result)


def _checker_for(program: ir.Program, quals: QualifierSet) -> QualifierChecker:
    return QualifierChecker(program, quals)


def _insert_rhs_casts(program: ir.Program, quals: QualifierSet, qual: str) -> int:
    """Casts for assignments (incl. call args/results and returns) into
    annotated targets whose RHS the type rules cannot derive."""
    casts = 0
    checker = _checker_for(program, quals)
    for func in program.functions:
        checker.func = func
        checker.ctx = TypingContext.for_function(
            program, func, ref_quals=checker.ref_qual_names
        )
        checker._memo = {}
        for instr in ir.walk_instructions(func.body):
            if isinstance(instr, ir.Set):
                try:
                    target_type = _lvalue_type(checker, instr.lvalue)
                except TypeError_:
                    continue
                if qual in target_type.quals and not checker.has_qual(
                    instr.expr, qual
                ):
                    instr.expr = ir.CastE(
                        target_type.strip_quals().with_quals([qual]), instr.expr
                    )
                    casts += 1
            elif isinstance(instr, ir.Call):
                casts += _cast_call(checker, program, instr, qual)
        # Returns.
        if qual in func.ret.quals:
            for stmt in ir.walk_stmts(func.body):
                if isinstance(stmt, ir.Return) and stmt.expr is not None:
                    if not checker.has_qual(stmt.expr, qual):
                        stmt.expr = ir.CastE(func.ret, stmt.expr)
                        casts += 1
    return casts


def _cast_call(
    checker: QualifierChecker, program: ir.Program, instr: ir.Call, qual: str
) -> int:
    casts = 0
    sig = program.signatures.get(instr.func)
    if sig is not None:
        for i, (arg, ptype) in enumerate(zip(instr.args, sig.params)):
            if qual in ptype.quals and not checker.has_qual(arg, qual):
                instr.args[i] = ir.CastE(
                    ptype.strip_quals().with_quals([qual]), arg
                )
                casts += 1
    if instr.result is not None:
        try:
            result_type = _lvalue_type(checker, instr.result)
        except TypeError_:
            return casts
        if qual in result_type.quals:
            provided = None
            if instr.result_cast is not None:
                # Like the checker (and CIL's pattern matching), the
                # surface cast does not erase the declared return
                # type's qualifiers.
                provided = instr.result_cast
                if sig is not None:
                    provided = provided.with_quals(sig.ret.quals)
            elif sig is not None:
                provided = sig.ret
            if provided is None or qual not in provided.quals:
                base = provided or result_type.strip_quals()
                instr.result_cast = base.strip_quals().with_quals([qual])
                casts += 1
    return casts


def _lvalue_type(checker: QualifierChecker, lv: ir.Lvalue) -> CType:
    from repro.cil.typesof import type_of_lvalue

    return type_of_lvalue(checker.ctx, lv)


def _insert_deref_casts(
    program: ir.Program,
    quals: QualifierSet,
    qual: str,
    flow_sensitive: bool = False,
) -> int:
    """Casts at dereference sites whose base cannot be shown nonnull.

    With ``flow_sensitive`` the traversal carries guard facts exactly as
    the flow-sensitive checker does, so guarded dereferences are left
    uncast."""
    from repro.core.checker.flow import GuardAnalysis

    count = [0]
    guards = GuardAnalysis(quals) if flow_sensitive else None

    def fix_addr(checker: QualifierChecker, addr: ir.Expr) -> ir.Expr:
        if checker.has_qual(addr, qual):
            return addr
        try:
            addr_type = type_of_expr(checker.ctx, addr)
        except TypeError_:
            addr_type = PointerType()
        count[0] += 1
        return ir.CastE(addr_type.strip_quals().with_quals([qual]), addr)

    checker = QualifierChecker(program, quals, flow_sensitive=flow_sensitive)
    for func in program.functions:
        checker.func = func
        checker.ctx = TypingContext.for_function(
            program, func, ref_quals=checker.ref_qual_names
        )
        checker._memo = {}
        checker._facts = frozenset()
        if flow_sensitive:
            checker._addr_taken = GuardAnalysis.address_taken(func)
            _rewrite_deref_bases_flow(
                func, checker, guards, lambda a: fix_addr(checker, a)
            )
        else:
            _rewrite_deref_bases(func, lambda a: fix_addr(checker, a))
    return count[0]


def _rewrite_deref_bases_flow(
    func: ir.Function, checker: QualifierChecker, guards, fix
) -> None:
    """Rewrite dereference bases under the same guard facts the
    flow-sensitive checker computes: the CFG is solved once, then every
    instruction is rewritten under the facts holding at its program
    point, so guarded dereferences stay uncast.

    CFG blocks reference the *same* mutable instruction and statement
    objects as the function body, so in-place rewrites here are visible
    through the statement tree the printer renders."""
    from repro.cil.cfg import BRANCH, RETURN, build_cfg
    from repro.core.checker.flow import solve_guard_facts

    fix_expr, fix_lvalue = _make_expr_fixers(fix)
    graph = build_cfg(func)
    solution = solve_guard_facts(graph, guards, checker._addr_taken)
    for block in graph.blocks:
        for instr in block.instrs:
            checker._facts = solution.point[id(instr)]
            _fix_instr(instr, fix_expr, fix_lvalue)
        term = block.terminator
        if term.stmt is not None:
            checker._facts = solution.point.get(id(term.stmt), frozenset())
        if term.kind == BRANCH:
            term.stmt.cond = fix_expr(term.stmt.cond)
        elif term.kind == RETURN and term.stmt.expr is not None:
            term.stmt.expr = fix_expr(term.stmt.expr)
    checker._facts = frozenset()


def _make_expr_fixers(fix):
    """Build (fix_expr, fix_lvalue) that rewrite every dereference base
    with ``fix`` (bottom-up, rebuilding the frozen expression trees)."""

    def fix_expr(expr: ir.Expr) -> ir.Expr:
        if isinstance(expr, ir.Lval):
            return ir.Lval(fix_lvalue(expr.lvalue))
        if isinstance(expr, ir.AddrOf):
            return ir.AddrOf(fix_lvalue(expr.lvalue))
        if isinstance(expr, ir.UnOp):
            return ir.UnOp(expr.op, fix_expr(expr.operand))
        if isinstance(expr, ir.BinOp):
            return ir.BinOp(expr.op, fix_expr(expr.left), fix_expr(expr.right))
        if isinstance(expr, ir.CastE):
            return ir.CastE(expr.to_type, fix_expr(expr.operand))
        if isinstance(expr, ir.CondE):
            return ir.CondE(
                fix_expr(expr.cond), fix_expr(expr.then), fix_expr(expr.otherwise)
            )
        return expr

    def fix_lvalue(lv: ir.Lvalue) -> ir.Lvalue:
        host = lv.host
        if isinstance(host, ir.MemHost):
            host = ir.MemHost(fix(fix_expr(host.addr)))
        offset = fix_offset(lv.offset)
        return ir.Lvalue(host, offset)

    def fix_offset(off: ir.Offset) -> ir.Offset:
        if isinstance(off, ir.FieldOff):
            return ir.FieldOff(off.fieldname, fix_offset(off.rest))
        if isinstance(off, ir.IndexOff):
            return ir.IndexOff(fix_expr(off.index), fix_offset(off.rest))
        return off

    return fix_expr, fix_lvalue


def _rewrite_deref_bases(func: ir.Function, fix) -> None:
    fix_expr, fix_lvalue = _make_expr_fixers(fix)
    for stmt in ir.walk_stmts(func.body):
        if isinstance(stmt, ir.Instr):
            for instr in stmt.instrs:
                _fix_instr(instr, fix_expr, fix_lvalue)
        elif isinstance(stmt, ir.If):
            stmt.cond = fix_expr(stmt.cond)
        elif isinstance(stmt, ir.While):
            stmt.cond = fix_expr(stmt.cond)
            for instr in stmt.cond_instrs:
                _fix_instr(instr, fix_expr, fix_lvalue)
        elif isinstance(stmt, ir.Return) and stmt.expr is not None:
            stmt.expr = fix_expr(stmt.expr)


def _fix_instr(instr: ir.Instruction, fix_expr, fix_lvalue) -> None:
    if isinstance(instr, ir.Set):
        instr.lvalue = fix_lvalue(instr.lvalue)
        instr.expr = fix_expr(instr.expr)
    elif isinstance(instr, ir.Call):
        instr.args = [fix_expr(a) for a in instr.args]
        if instr.result is not None:
            instr.result = fix_lvalue(instr.result)


# ========================================================= untainted workflow


def annotate_untainted(
    program: ir.Program,
    trust_constants: bool = True,
    max_iterations: int = 20,
) -> UntaintedAnnotationResult:
    """Run the section-6.3 workflow: iteratively annotate procedure
    parameters used as format strings; remaining errors are real
    format-string vulnerabilities."""
    untainted = UNTAINTED_WITH_CONSTS if trust_constants else UNTAINTED
    quals = QualifierSet([untainted, TAINTED])
    program = copy.deepcopy(program)

    annotations = 0
    casts = 0
    for _ in range(max_iterations):
        report = QualifierChecker(program, quals).check()
        progressed = False
        for diag in report.errors_for("untainted"):
            func = program.function(diag.function)
            formal = _failing_formal(diag.message, func)
            if formal is not None:
                _add_untainted_to_formal(program, func, formal)
                annotations += 1
                progressed = True
        if not progressed:
            break
        _refresh_signatures_partial(program)

    report = QualifierChecker(program, quals).check()
    if not trust_constants:
        # Without the constants rule, string literals need casts.
        casts += _cast_string_literals(program, quals)
        report = QualifierChecker(program, quals).check()
    return UntaintedAnnotationResult(
        program=program,
        annotations=annotations,
        casts=casts,
        report=report,
    )


def _failing_formal(message: str, func: ir.Function) -> Optional[str]:
    """If a diagnostic says an untainted argument was fed from a plain
    formal parameter of the enclosing function, that formal is the
    next annotation (the paper's bftpd needed two of these)."""
    for name, ctype in func.formals:
        if f"but {name} " in message and is_pointer_like(ctype):
            return name
    return None


def _add_untainted_to_formal(
    program: ir.Program, func: ir.Function, formal: str
) -> None:
    for i, (name, ctype) in enumerate(func.formals):
        if name == formal:
            func.formals[i] = (name, ctype.with_quals(["untainted"]))


def _refresh_signatures_partial(program: ir.Program) -> None:
    for func in program.functions:
        program.signatures[func.name] = FuncType(
            ret=func.ret,
            params=tuple(t for _n, t in func.formals),
            varargs=func.varargs,
        )


def _cast_string_literals(program: ir.Program, quals: QualifierSet) -> int:
    """Wrap string-literal arguments to untainted parameters in casts."""
    casts = 0
    for func in program.functions:
        for instr in ir.walk_instructions(func.body):
            if not isinstance(instr, ir.Call):
                continue
            sig = program.signatures.get(instr.func)
            if sig is None:
                continue
            for i, (arg, ptype) in enumerate(zip(instr.args, sig.params)):
                if "untainted" in ptype.quals and isinstance(arg, ir.StrConst):
                    instr.args[i] = ir.CastE(
                        ptype.strip_quals().with_quals(["untainted"]), arg
                    )
                    casts += 1
    return casts
