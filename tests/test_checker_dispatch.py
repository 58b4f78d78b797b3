"""The checker's rule dispatch by node kind.

A checker offers an IR node only to the clauses whose pattern root can
match the node's kind (``patterns.ROOT_KINDS``).  That is sound only if
"cannot match" really implies that ``match_expr_pattern`` returns None,
for every pattern kind and every IR node class; these tests check it
over the example programs, the corpus stand-ins and difftest programs.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.cfront.ctypes import IntType, PointerType
from repro.cfront.parser import parse_c
from repro.cil import ir
from repro.cil.lower import lower_unit
from repro.cil.typesof import TypingContext
from repro.core.checker.patterns import (
    DEREF,
    ROOT_KINDS,
    can_match,
    match_expr_pattern,
    node_kind,
)
from repro.core.checker.typecheck import QualifierChecker
from repro.core.qualifiers import ast as Q
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.qualifiers.parser import parse_qualifiers
from repro.corpus import (
    generate_bftpd,
    generate_dfa_module,
    generate_identd,
    generate_mingetty,
)
from repro.difftest.generator import generate_case

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")

#: Restricts (and cases) rooted at PVar, PNull, PUnop and PAddrOf, the
#: pattern kinds the standard library only uses in case clauses.
EXTRA_QUALS = """
value qualifier small(int Expr E)
  case E of
      decl int Const C:
        C, where C < 100
    | decl int Expr E1:
        -E1, where small(E1)
  restrict
      decl int Expr E1:
        E1, where E1 != 13
    | decl int Expr E1:
        -E1, where small(E1) || pos(E1)
  invariant value(E) < 100

value qualifier shared(T* Expr E)
  case E of
      NULL
    | decl T LValue L:
        &L
  restrict
      NULL, where 0 == 0
    | decl T LValue L:
        &L, where 1 > 0
  invariant value(E) == NULL || value(E) != NULL
"""

#: Every node class, plus the Lval-through-memory kind.
ALL_KINDS = {
    ir.IntConst, ir.StrConst, ir.NullConst, ir.Lval, DEREF, ir.AddrOf,
    ir.UnOp, ir.BinOp, ir.CastE, ir.CondE, ir.SizeOfE,
}


def _with_std(extra: str) -> QualifierSet:
    defs = {d.name: d for d in standard_qualifiers()}
    for qdef in parse_qualifiers(extra):
        defs[qdef.name] = qdef
    return QualifierSet(list(defs.values()))


def _sources():
    """(C source, extra .qual source) for every program under test."""
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.c"))):
        with open(path, encoding="utf-8") as handle:
            yield handle.read(), ""
    yield generate_dfa_module(seed=1), ""
    yield generate_bftpd(), ""
    yield generate_mingetty(), ""
    yield generate_identd(), ""
    for index in range(100):
        case = generate_case(0, index)
        yield case.c_source, case.qual_source


def _function_nodes(func: ir.Function):
    """Every expression the checker scans in ``func``, deduplicated."""
    roots = []
    for stmt in ir.walk_stmts(func.body):
        if isinstance(stmt, (ir.If, ir.While)):
            roots.append(stmt.cond)
        elif isinstance(stmt, ir.Return) and stmt.expr is not None:
            roots.append(stmt.expr)
    for instr in ir.walk_instructions(func.body):
        if isinstance(instr, ir.Set):
            roots += [instr.expr, ir.Lval(instr.lvalue)]
        else:
            roots += instr.args
            if instr.result is not None:
                roots.append(ir.Lval(instr.result))
    seen = {}
    for root in roots:
        for node in ir.subexprs(root):
            seen.setdefault(node, None)
    return list(seen)


def _handmade_nodes():
    """Node kinds the generated programs may not produce."""
    p = ir.Lval(ir.Lvalue(ir.VarHost("p")))
    return [
        ir.SizeOfE(IntType()),
        ir.CondE(ir.IntConst(1), ir.IntConst(0), ir.IntConst(2)),
        ir.StrConst("s"),
        ir.UnOp("-", ir.IntConst(4)),
        ir.CastE(PointerType(pointee=IntType()), ir.IntConst(0)),
        ir.CastE(IntType(), ir.NullConst()),
        ir.AddrOf(ir.Lvalue(ir.VarHost("x"))),
        ir.Lval(ir.Lvalue(ir.MemHost(p))),
    ]


def _clauses(quals: QualifierSet):
    for qdef in quals:
        for clause in list(qdef.cases) + list(qdef.restricts) + list(qdef.assigns):
            yield qdef, clause


def test_every_pattern_kind_has_a_root_entry():
    patterns = {cls for cls in vars(Q).values()
                if isinstance(cls, type) and issubclass(cls, Q.Pattern)
                and cls is not Q.Pattern}
    assert patterns == set(ROOT_KINDS)


def test_cannot_match_implies_no_match():
    std = standard_qualifiers()
    extra = _with_std(EXTRA_QUALS)
    seen_kinds = set()
    seen_patterns = set()
    handmade = lower_unit(parse_c("int x; int *p; void f(void) { }"))
    checked = [(handmade, handmade.function("f"), _handmade_nodes(), "")]
    for source, qual_source in _sources():
        quals = _with_std(qual_source)
        program = lower_unit(parse_c(source, qualifier_names=quals.names))
        for func in program.functions:
            checked.append((program, func, _function_nodes(func), qual_source))
    for program, func, nodes, qual_source in checked:
        sets = [std, extra] + ([_with_std(qual_source)] if qual_source else [])
        ctx = TypingContext.for_function(program, func)
        for quals in sets:
            for qdef, clause in _clauses(quals):
                seen_patterns.add(type(clause.pattern))
                for node in nodes:
                    kind = node_kind(node)
                    seen_kinds.add(kind)
                    if can_match(clause.pattern, kind):
                        continue
                    assert match_expr_pattern(qdef, clause, node, ctx) is None, (
                        f"{qdef.name}: {clause.pattern} matched {node!r}"
                    )
    assert seen_kinds == ALL_KINDS
    assert seen_patterns == set(ROOT_KINDS)


def test_admitted_kinds_do_match_somewhere():
    """The table is not vacuous: each pattern kind with a non-empty
    root set matches some node of each kind it admits, here."""
    p = ir.Lval(ir.Lvalue(ir.VarHost("p")))
    x = ir.Lvalue(ir.VarHost("x"))
    samples = {
        ir.NullConst: ir.NullConst(),
        ir.IntConst: ir.IntConst(0),
        ir.CastE: ir.CastE(PointerType(pointee=IntType()), ir.IntConst(0)),
        DEREF: ir.Lval(ir.Lvalue(ir.MemHost(p))),
        ir.AddrOf: ir.AddrOf(x),
        ir.UnOp: ir.UnOp("-", ir.IntConst(4)),
    }
    program = lower_unit(parse_c("int x; int *p; void f(void) { }"))
    ctx = TypingContext.for_function(program, program.function("f"))
    quals = _with_std(EXTRA_QUALS)
    matched = set()
    for qdef, clause in _clauses(quals):
        kinds = ROOT_KINDS[type(clause.pattern)] or ()
        for kind in kinds:
            node = samples.get(kind)
            if node is not None and match_expr_pattern(qdef, clause, node, ctx) is not None:
                matched.add((type(clause.pattern), kind))
    assert {
        (Q.PNull, ir.NullConst), (Q.PNull, ir.IntConst), (Q.PNull, ir.CastE),
        (Q.PDeref, DEREF), (Q.PAddrOf, ir.AddrOf), (Q.PUnop, ir.UnOp),
    } <= matched


@pytest.mark.parametrize("flow_sensitive", [False, True])
def test_checker_uses_only_its_own_rules(flow_sensitive):
    """Two checkers over one program with different qualifier sets each
    report exactly what a lone checker of the same set reports."""
    source = (
        "int g(int a, int *q) {\n"
        "  int *p = 0;\n"
        "  int y = -a;\n"
        "  if (q) { y = *q; }\n"
        "  p = &y;\n"
        "  return a / y + *p;\n"
        "}\n"
    )
    std = standard_qualifiers()
    extra = _with_std(EXTRA_QUALS)

    def diagnostics(quals):
        program = lower_unit(parse_c(source, qualifier_names=quals.names))
        report = QualifierChecker(program, quals, flow_sensitive).check()
        return [str(d) for d in report.diagnostics]

    alone_std, alone_extra = diagnostics(std), diagnostics(extra)
    assert alone_std != alone_extra  # the extra restricts fire
    program = lower_unit(parse_c(source, qualifier_names=extra.names))
    first = QualifierChecker(program, extra, flow_sensitive)
    second = QualifierChecker(program, std, flow_sensitive)
    assert [str(d) for d in first.check().diagnostics] == alone_extra
    assert [str(d) for d in second.check().diagnostics] == alone_std
    # ... and again in the other order, on the same program objects.
    third = QualifierChecker(program, extra, flow_sensitive)
    assert [str(d) for d in third.check().diagnostics] == alone_extra
