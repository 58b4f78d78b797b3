"""Tests for the flow-sensitive guard refinement (the extension the
paper plans in sections 6.1 and 8)."""

import os

import pytest

from repro.analysis.annotate import annotate_nonnull
from repro.cfront.parser import parse_c
from repro.cil.lower import lower_unit
from repro.core.checker.flow import GuardAnalysis, _implies, _CmpShape
from repro.core.checker.typecheck import QualifierChecker
from repro.core.qualifiers.library import standard_qualifiers
from repro.corpus import generate_dfa_module

QUALS = standard_qualifiers()
NAMES = {"pos", "neg", "nonzero", "nonnull", "tainted", "untainted",
         "unique", "unaliased"}
EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


def check(src, flow_sensitive):
    prog = lower_unit(parse_c(src, qualifier_names=NAMES))
    return QualifierChecker(prog, QUALS, flow_sensitive=flow_sensitive).check()


# -------------------------------------------------------------- guard facts


def test_null_guard_validates_deref():
    src = """
    int f(int* p) {
      int x = 0;
      if (p != NULL) { x = *p; }
      return x;
    }
    """
    assert not check(src, flow_sensitive=False).ok
    assert check(src, flow_sensitive=True).ok


def test_truthiness_guard():
    src = "int f(int* p) { int x = 0; if (p) { x = *p; } return x; }"
    assert check(src, True).ok


def test_inverted_guard_else_branch():
    src = """
    int f(int* p) {
      int x = 0;
      if (p == NULL) { x = 1; } else { x = *p; }
      return x;
    }
    """
    assert not check(src, False).ok
    assert check(src, True).ok


def test_negated_condition():
    src = """
    int f(int* p) {
      int x = 0;
      if (!(p == NULL)) { x = *p; }
      return x;
    }
    """
    assert check(src, True).ok


def test_conjunction_guard():
    src = """
    int f(int* p, int n) {
      int x = 0;
      if (p != NULL && n > 0) { x = *p / n; }
      return x;
    }
    """
    report = check(src, True)
    assert report.ok, report.summary()


def test_disjunction_else_branch():
    src = """
    int f(int* p, int* q) {
      int x = 0;
      if (p == NULL || q == NULL) { x = 1; }
      else { x = *p + *q; }
      return x;
    }
    """
    assert check(src, True).ok


def test_guard_for_pos_and_nonzero():
    src = """
    int f(int a, int b) {
      int c = 0;
      if (b != 0) { c = a / b; }
      if (a > 0) { int pos p = a; c = c + p; }
      if (a < 0) { int neg n = a; c = c + n; }
      return c;
    }
    """
    assert not check(src, False).ok
    assert check(src, True).ok


def test_guard_with_comparison_on_right():
    src = "int f(int a) { int c = 0; if (0 < a) { int pos p = a; c = p; } return c; }"
    assert check(src, True).ok


def test_stronger_guard_implies_weaker_invariant():
    # a > 5 implies a > 0 and a != 0.
    src = """
    int f(int a) {
      int c = 0;
      if (a > 5) { int pos p = a; c = 1 / a + p; }
      return c;
    }
    """
    assert check(src, True).ok


# --------------------------------------------------------------------- kills


def test_fact_killed_by_reassignment():
    src = """
    int f(int* p, int* q) {
      int x = 0;
      if (p != NULL) {
        p = q;
        x = *p;
      }
      return x;
    }
    """
    report = check(src, True)
    assert not report.ok  # the guard no longer covers the new value


def test_fact_killed_by_memory_write_when_address_taken():
    src = """
    void scramble(int** h);
    int f(int* p, int** h) {
      int x = 0;
      if (p != NULL && h != NULL) {
        *h = NULL;      /* may alias p if p's address escaped */
        x = *p;
      }
      return x;
    }
    """
    # p's address is never taken here, so the fact survives.
    assert check(src, True).ok

    src_taken = """
    int f(int* p) {
      int** h = &p;
      int x = 0;
      if (p != NULL) {
        *h = NULL;
        x = *p;
      }
      return x;
    }
    """
    assert not check(src_taken, True).ok


def test_fact_does_not_leak_out_of_branch():
    src = """
    int f(int* p) {
      int x = 0;
      if (p != NULL) { x = 1; }
      x = *p;
      return x;
    }
    """
    assert not check(src, True).ok


def test_loop_guard_facts():
    src = """
    int f(int* p, int n) {
      int total = 0;
      while (p != NULL && n > 0) {
        total = total + *p;
        n = n - 1;
      }
      return total;
    }
    """
    assert check(src, True).ok


def test_loop_guard_killed_when_body_reassigns():
    src = """
    int* next_node(int* p);
    int f(int* p) {
      int total = 0;
      while (p != NULL) {
        total = total + *p;
        p = next_node(p);
        total = total + *p;   /* p may be NULL again here */
      }
      return total;
    }
    """
    assert not check(src, True).ok


def test_guarded_pointer_indexing():
    # The grep idiom: the guard covers p + i derefs too (logical model).
    src = """
    int f(int* t, int c) {
      int works = 0;
      if (t != NULL) {
        works = t[c];
      }
      return works;
    }
    """
    assert check(src, True).ok


# ----------------------------------------------------------------- ablation


def test_flow_sensitivity_reduces_casts_on_corpus():
    prog = lower_unit(parse_c(generate_dfa_module()))
    fi = annotate_nonnull(prog)
    fs = annotate_nonnull(prog, flow_sensitive=True)
    assert fi.errors == 0 and fs.errors == 0
    assert fs.casts < fi.casts
    assert fs.annotations == fi.annotations


def test_worklist_solver_visits_every_block_on_corpus():
    """One flow-sensitive checker pass over the Table 1 corpus: the
    solver's counters add up, and every reachable block is visited at
    least once."""
    prog = lower_unit(parse_c(generate_dfa_module()))
    report = QualifierChecker(prog, QUALS, flow_sensitive=True).check()
    assert report.dataflow
    blocks = sum(stats["blocks"] for stats in report.dataflow.values())
    visits = sum(stats["iterations"] for stats in report.dataflow.values())
    assert visits >= blocks > 0


#: Per example file, as the structured walks computed it before the
#: worklist engine replaced them: the checker verdict and diagnostic
#: count (the same with and without flow sensitivity), the run-time
#: checks the instrumenter places, and the entities inference grants.
LEGACY_GOLDEN = {
    "lcm.c": {
        "check": ("ok", 0),
        "checks_placed": 1,
        "infer": {
            "nonnull": [],
            "pos": [
                ("formal", "lcm", "a"),
                ("formal", "lcm", "b"),
                ("local", "lcm", "d"),
                ("local", "lcm", "prod"),
            ],
        },
    },
    "nonnull.c": {
        "check": ("ok", 0),
        "checks_placed": 0,
        "infer": {
            "nonnull": [
                ("formal", "deref", "p"),
                ("formal", "pick", "a"),
                ("local", "pick", "q"),
            ],
            "pos": [],
        },
    },
    "untainted.c": {
        "check": ("ok", 0),
        "checks_placed": 1,
        "infer": {
            "nonnull": [("formal", "greet", "name")],
            "pos": [],
        },
    },
}


@pytest.mark.parametrize("name", sorted(LEGACY_GOLDEN))
def test_worklist_engine_matches_legacy_structured_walks(name):
    from repro.analysis.infer import infer_value_qualifier
    from repro.cil import ir
    from repro.core.checker.instrument import instrument_program

    path = os.path.join(EXAMPLES, name)
    with open(path) as handle:
        source = handle.read()
    prog = lower_unit(parse_c(source, qualifier_names=QUALS.names, filename=path))
    verdicts = set()
    for flow_sensitive in (False, True):
        report = QualifierChecker(prog, QUALS, flow_sensitive=flow_sensitive).check()
        verdicts.add(("ok" if report.ok else "warn", len(report.diagnostics)))
    instrumented = instrument_program(prog, QUALS)
    checks_placed = sum(
        1
        for func in instrumented.functions
        for instr in ir.walk_instructions(func.body)
        if isinstance(instr, ir.Call)
        and instr.func
        and instr.func.startswith("__check_")
    )
    inferred = {
        qual: sorted(infer_value_qualifier(prog, QUALS.get(qual), QUALS).inferred)
        for qual in ("nonnull", "pos")
    }
    want = LEGACY_GOLDEN[name]
    assert verdicts == {want["check"]}
    assert checks_placed == want["checks_placed"]
    assert inferred == want["infer"]


# ----------------------------------------------------------- implication law


@pytest.mark.parametrize(
    "known_op,known_b,target_op,target_b,expected",
    [
        (">", 0, "!=", 0, True),
        (">", 5, ">", 0, True),
        (">", 0, ">", 5, False),
        ("<", 0, "!=", 0, True),
        (">=", 1, ">", 0, True),
        (">=", 0, ">", 0, False),
        ("==", 3, ">", 0, True),
        ("==", 0, "!=", 0, False),
        ("<=", -1, "<", 0, True),
        ("<=", 0, "<", 0, False),
    ],
)
def test_implication_table(known_op, known_b, target_op, target_b, expected):
    assert _implies(known_op, known_b, _CmpShape(target_op, target_b)) is expected


def test_implication_table_is_sound_by_brute_force():
    """Every (op, bound) pair the table says implies another must hold
    on all integers in a window around the bounds."""
    ops = {
        "==": lambda v, b: v == b,
        "!=": lambda v, b: v != b,
        "<": lambda v, b: v < b,
        ">": lambda v, b: v > b,
        "<=": lambda v, b: v <= b,
        ">=": lambda v, b: v >= b,
    }
    for known_op in ops:
        for known_b in range(-3, 4):
            for target_op in ops:
                for target_b in range(-3, 4):
                    claimed = _implies(
                        known_op, known_b, _CmpShape(target_op, target_b)
                    )
                    if claimed:
                        for v in range(-12, 13):
                            if ops[known_op](v, known_b):
                                assert ops[target_op](v, target_b), (
                                    known_op, known_b, target_op, target_b, v
                                )
