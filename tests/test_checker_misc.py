"""Checker edge cases: calls, returns, globals, ref-assign predicates,
recursive structures, and diagnostic quality."""

import pytest

from repro.cfront.parser import parse_c
from repro.cil.lower import lower_unit
from repro.core.checker.typecheck import check_program
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.qualifiers.parser import parse_qualifier

QUALS = standard_qualifiers()
NAMES = {"pos", "neg", "nonzero", "nonnull", "tainted", "untainted",
         "unique", "unaliased"}


def check(src, quals=QUALS, extra_names=()):
    prog = lower_unit(parse_c(src, qualifier_names=set(NAMES) | set(extra_names)))
    return check_program(prog, quals)


# ------------------------------------------------------------------ globals


def test_global_initializer_checked():
    report = check("int pos bad = -1;")
    assert not report.ok
    assert report.diagnostics[0].function == "__global_init__"


def test_global_initializer_ok():
    assert check("int pos good = 3;").ok


# ------------------------------------------------------------------- calls


def test_varargs_extra_args_unchecked():
    assert check(
        """
        int printf(char* untainted fmt, ...);
        void f(char* buf) { printf((char* untainted)"%s %s", buf, buf); }
        """
    ).ok


def test_fewer_args_than_params_checked_pairwise():
    # Passing fewer args than declared parameters: only the supplied
    # ones are checked (C would reject; the qualifier checker is lax).
    report = check(
        """
        int two(int pos a, int pos b);
        void f() { int r = two(3); }
        """
    )
    assert report.ok


def test_recursive_function_signature_used():
    report = check(
        """
        int pos fact(int pos n) {
          if (n == 1) { return (int pos)1; }
          return (int pos)(n * fact((int pos)(n - 1)));
        }
        """
    )
    assert report.ok, report.summary()


def test_unknown_function_args_unchecked():
    assert check("void f(int x) { mystery(x); }").ok


def test_call_diagnostic_names_parameter():
    report = check(
        """
        void takes_pos(int pos n);
        void f(int x) { takes_pos(x); }
        """
    )
    assert not report.ok
    assert "argument 'n' of takes_pos" in report.diagnostics[0].message


# --------------------------------------------------------------- structures


def test_recursive_struct_checked():
    report = check(
        """
        struct node { int pos weight; struct node* next; };
        void f(struct node* nonnull n) {
          n->weight = 5;
          n->next = NULL;
        }
        """
    )
    assert report.ok, report.summary()


def test_recursive_struct_violation_found():
    report = check(
        """
        struct node { int pos weight; struct node* next; };
        void f(struct node* nonnull n) { n->weight = 0; }
        """
    )
    assert not report.ok


def test_nested_struct_field_path():
    report = check(
        """
        struct inner { int pos v; };
        struct outer { struct inner in; };
        void f(struct outer* nonnull o) { o->in.v = -1; }
        """
    )
    assert not report.ok


# -------------------------------------------------------- ref assign + where


def test_ref_assign_clause_with_predicate():
    nonneg_cell = parse_qualifier(
        """
        ref qualifier nonneg_cell(int LValue L)
          assign L
            decl int Const C:
              C, where C >= 0
          invariant value(L) >= 0
        """
    )
    quals = QualifierSet([nonneg_cell])
    good = check(
        "int nonneg_cell g; void f() { g = 5; g = 0; }",
        quals=quals,
        extra_names={"nonneg_cell"},
    )
    assert good.ok, good.summary()
    bad = check(
        "int nonneg_cell g; void f() { g = -1; }",
        quals=quals,
        extra_names={"nonneg_cell"},
    )
    assert not bad.ok


def test_ref_assign_clause_with_qual_check_predicate():
    pos_cell = parse_qualifier(
        """
        ref qualifier pos_cell(int LValue L)
          assign L
            decl int Expr E1:
              E1, where pos(E1)
          invariant value(L) > 0
        """
    )
    quals = QualifierSet(list(QUALS) + [pos_cell])
    good = check(
        "int pos_cell g; void f(int pos n) { g = n; g = 7; }",
        quals=quals,
        extra_names={"pos_cell"},
    )
    assert good.ok, good.summary()
    bad = check(
        "int pos_cell g; void f(int n) { g = n; }",
        quals=quals,
        extra_names={"pos_cell"},
    )
    assert not bad.ok


# ---------------------------------------------------------------- diagnostics


def test_diagnostics_carry_location_and_function():
    report = check(
        """
        void f() {
          int a = 0;
          int pos b = a;
        }
        """
    )
    assert not report.ok
    diag = report.diagnostics[0]
    assert diag.function == "f"
    assert diag.loc.line == 4


def test_checking_continues_after_errors():
    # Section 3.2: errors are warnings; the whole program is checked.
    report = check(
        """
        void f() { int pos a = -1; }
        void g() { int pos b = -2; }
        """
    )
    assert report.error_count == 2


def test_report_errors_for_filter():
    report = check(
        """
        void f(int* p) {
          int pos a = -1;
          int x = *p;
        }
        """
    )
    assert report.errors_for("pos")
    assert report.errors_for("nonnull")
    assert not report.errors_for("unique")


# ------------------------------------------------- statement-wise checking

#: Two qualifiers whose bare-variable clauses ask about each other: a
#: judgment can meet itself, so its answer depends on what was asked
#: first.
ASKING_EACH_OTHER = """
value qualifier ping(int Expr E)
  case E of
      decl int Expr E1:
        E1, where pong(E1)
  invariant value(E) > 0

value qualifier pong(int Expr E)
  case E of
      decl int Expr E1:
        E1, where ping(E1)
    | decl int Const C:
        C, where C > 0
  invariant value(E) > 0
"""


def _programs():
    import glob
    import os
    import random

    from repro.corpus import generate_bftpd, generate_dfa_module
    from repro.difftest.generator import GenConfig, ProgramGenerator

    root = os.path.join(os.path.dirname(__file__), "..", "examples")
    texts = [open(p, encoding="utf-8").read() for p in sorted(glob.glob(f"{root}/*.c"))]
    texts += [generate_dfa_module(3, 3, 3, 2, 8, seed=5), generate_bftpd(4, 3, 3)]
    texts += [
        ProgramGenerator(random.Random(f"statements:{i}"), GenConfig(size=80, n_qualifiers=0), []).generate()
        for i in range(8)
    ]
    for text in texts:
        yield lower_unit(parse_c(text, qualifier_names=QUALS.names, filename="u.c"))


@pytest.mark.parametrize("trust_constants", [False, True])
def test_statement_wise_check_equals_a_whole_check(trust_constants):
    """With nothing skipped, a function's statements' diagnostics, in
    order, are a whole check's, and its calls' run-time checks plus
    the union of its cast pairs count a whole check's; a statement's
    results do not depend on which others are skipped."""
    import random

    from repro.core.checker.typecheck import QualifierChecker

    quals = standard_qualifiers(trust_constants=trust_constants)
    rng = random.Random(7)
    functions = diagnostics = casts = 0
    for program in _programs():
        whole = QualifierChecker(program, quals).check()
        checker = QualifierChecker(program, quals)
        assert checker.statement_wise
        report = checker.check(statements={f.name: set() for f in program.functions})
        assert report.dataflow.keys() == whole.dataflow.keys()
        for func in program.functions:
            results = report.statements[func.name]
            assert len(results) == len(func.body)
            found = [d for diagnostics, _calls, _casts in results for d in diagnostics]
            assert found == [d for d in whole.diagnostics if d.function == func.name]
            counted = sum(calls for _d, calls, _c in results) + len(
                frozenset().union(*(casts for _d, _calls, casts in results))
            )
            assert counted == sum(1 for c in whole.runtime_checks if c.function == func.name)
            skip = {i for i in range(len(func.body)) if rng.random() < 0.5}
            partial = QualifierChecker(program, quals).check(
                functions={func.name}, statements={func.name: skip}
            )
            assert partial.statements[func.name] == [
                None if i in skip else result for i, result in enumerate(results)
            ]
            functions += 1
            diagnostics += len(found)
            casts += counted
    assert functions > 80 and diagnostics > 20 and casts > 0


def test_statement_wise_needs_flow_insensitivity_and_no_self_asking_clause():
    from repro.core.checker.typecheck import QualifierChecker
    from repro.core.qualifiers.parser import parse_qualifiers

    program = lower_unit(parse_c("int f(int a) { return a; }"))
    # nonneg's bare-variable clause asks about pos, which asks nothing
    # of the whole expression back.
    assert QualifierChecker(program, QUALS).statement_wise
    assert not QualifierChecker(program, QUALS, flow_sensitive=True).statement_wise
    cyclic = QualifierSet(list(QUALS) + parse_qualifiers(ASKING_EACH_OTHER))
    assert not QualifierChecker(program, cyclic).statement_wise
