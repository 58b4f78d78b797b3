"""Flow-sensitive guard refinement (the paper's section 8 future work).

The flow-insensitive checker cannot validate the grep idiom of
section 6.1::

    if ((t = d->trans[works]) != NULL) {
        works = t[*p];        /* safe, but needs a cast */
    }

This module derives *guard facts* from branch conditions: a condition
that syntactically matches a value qualifier's invariant establishes
that qualifier for the tested l-value within the guarded branch.  The
mapping is generic over the qualifier library:

* invariant ``value(E) != NULL`` ⇐ guards ``p != NULL``, ``p``;
* invariant ``value(E) > 0``     ⇐ guard ``x > 0``;
* invariant ``value(E) != 0``    ⇐ guards ``x != 0``, ``x``;
* ... and the corresponding negations for else-branches.

Facts are killed by assignments to the guarded l-value; writes through
pointers conservatively kill every fact about memory and about
address-taken variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cil import ir
from repro.core.qualifiers import ast as Q
from repro.core.qualifiers.ast import QualifierSet

#: A fact: this l-value currently satisfies this qualifier's invariant.
Fact = Tuple[ir.Lvalue, str]


@dataclass(frozen=True)
class _CmpShape:
    """A normalized comparison invariant: value(E) <op> <int>."""

    op: str
    bound: int


def _invariant_shape(qdef: Q.QualifierDef) -> Optional[_CmpShape]:
    """Extract a guardable shape from a value qualifier's invariant."""
    inv = qdef.invariant
    if not isinstance(inv, Q.ICmp):
        return None
    if not isinstance(inv.left, Q.IValue):
        return None
    if isinstance(inv.right, Q.INum):
        return _CmpShape(inv.op, inv.right.value)
    if isinstance(inv.right, Q.INull):
        return _CmpShape(inv.op, 0)
    return None


_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


#: (established op, target op) -> does ``v <est> b`` imply ``v <target> t``,
#: as a test on ``(b, t)``.
_IMPLICATIONS = {
    (">", "!="): lambda b, t: b >= t,        # v > b, b >= t implies v != t
    (">", ">"): lambda b, t: b >= t,
    (">", ">="): lambda b, t: b >= t - 1,
    ("<", "!="): lambda b, t: b <= t,
    ("<", "<"): lambda b, t: b <= t,
    ("<", "<="): lambda b, t: b <= t + 1,
    (">=", ">"): lambda b, t: b > t,
    (">=", ">="): lambda b, t: b >= t,
    (">=", "!="): lambda b, t: b > t,
    ("<=", "<"): lambda b, t: b < t,
    ("<=", "<="): lambda b, t: b <= t,
    ("<=", "!="): lambda b, t: b < t,
    ("==", "!="): lambda b, t: b != t,
    ("==", ">"): lambda b, t: b > t,
    ("==", "<"): lambda b, t: b < t,
    ("==", ">="): lambda b, t: b >= t,
    ("==", "<="): lambda b, t: b <= t,
}


def _implies(established_op: str, established_bound: int, shape: _CmpShape) -> bool:
    """Does ``v <op> bound`` (known) imply ``v <shape.op> shape.bound``?

    Decided exactly over the integers for the handful of comparison
    pairs guards produce."""
    if established_op == shape.op and established_bound == shape.bound:
        return True
    test = _IMPLICATIONS.get((established_op, shape.op))
    return bool(test and test(established_bound, shape.bound))


class GuardAnalysis:
    """Derives then/else guard facts from branch conditions."""

    def __init__(self, quals: QualifierSet):
        self.shapes: Dict[str, _CmpShape] = {}
        for qdef in quals.value_qualifiers():
            shape = _invariant_shape(qdef)
            if shape is not None:
                self.shapes[qdef.name] = shape

    # --------------------------------------------------------- condition

    def facts_of_condition(
        self, cond: ir.Expr
    ) -> Tuple[Set[Fact], Set[Fact]]:
        """(facts holding when cond is true, facts when it is false)."""
        then_facts: Set[Fact] = set()
        else_facts: Set[Fact] = set()
        self._collect(cond, positive=True, out=then_facts)
        self._collect(cond, positive=False, out=else_facts)
        return then_facts, else_facts

    def _collect(self, cond: ir.Expr, positive: bool, out: Set[Fact]) -> None:
        if isinstance(cond, ir.BinOp):
            if cond.op == "&&":
                if positive:  # both conjuncts hold
                    self._collect(cond.left, True, out)
                    self._collect(cond.right, True, out)
                return
            if cond.op == "||":
                if not positive:  # both disjuncts fail
                    self._collect(cond.left, False, out)
                    self._collect(cond.right, False, out)
                return
            self._collect_comparison(cond, positive, out)
            return
        if isinstance(cond, ir.UnOp) and cond.op == "!":
            self._collect(cond.operand, not positive, out)
            return
        if isinstance(cond, ir.Lval):
            # `if (p)` asserts p != 0 in the then-branch.
            self._established(cond.lvalue, "!=", 0, positive, out)

    def _collect_comparison(
        self, cond: ir.BinOp, positive: bool, out: Set[Fact]
    ) -> None:
        op = cond.op
        if op not in ("==", "!=", "<", ">", "<=", ">="):
            return
        lv, bound, op_on_lv = None, None, None
        if isinstance(cond.left, ir.Lval) and _const_int(cond.right) is not None:
            lv, bound, op_on_lv = cond.left.lvalue, _const_int(cond.right), op
        elif isinstance(cond.right, ir.Lval) and _const_int(cond.left) is not None:
            lv, bound = cond.right.lvalue, _const_int(cond.left)
            op_on_lv = _FLIPPED[op]
        if lv is None:
            return
        self._established(lv, op_on_lv, bound, positive, out)

    def _established(
        self,
        lv: ir.Lvalue,
        op: str,
        bound: int,
        positive: bool,
        out: Set[Fact],
    ) -> None:
        if not positive:
            op = _NEGATED[op]
        for qual, shape in self.shapes.items():
            if _implies(op, bound, shape):
                out.add((lv, qual))

    @staticmethod
    def address_taken(func: ir.Function) -> FrozenSet[str]:
        """Variables whose address is taken anywhere in the function;
        memory writes may alias them, so their facts die on such writes."""
        taken: Set[str] = set()

        def scan_expr(expr: ir.Expr) -> None:
            for node in ir.subexprs(expr):
                if isinstance(node, ir.AddrOf) and node.lvalue.is_plain_var:
                    taken.add(node.lvalue.var_name)

        for stmt in ir.walk_stmts(func.body):
            if isinstance(stmt, ir.Instr):
                for instr in stmt.instrs:
                    if isinstance(instr, ir.Set):
                        scan_expr(instr.expr)
                    elif isinstance(instr, ir.Call):
                        for a in instr.args:
                            scan_expr(a)
            elif isinstance(stmt, (ir.If, ir.While)):
                scan_expr(stmt.cond)
            elif isinstance(stmt, ir.Return) and stmt.expr is not None:
                scan_expr(stmt.expr)
        return frozenset(taken)


_FLIPPED = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _const_int(expr: ir.Expr) -> Optional[int]:
    if isinstance(expr, ir.IntConst):
        return expr.value
    if isinstance(expr, ir.NullConst):
        return 0
    return None


class KillIndex:
    """The facts each instruction kills, over one function's fact universe.

    Facts are killed by assignments to the guarded l-value; a write
    through memory (or into a field or element) may alias any fact not
    about a plain variable, and any address-taken variable.  A kill
    depends only on the fact, never on the other live facts, so a
    block's kills are the union of its instructions' and applying them
    is one set difference."""

    _NONE: FrozenSet[Fact] = frozenset()

    def __init__(self, universe: Set[Fact], address_taken: FrozenSet[str]):
        by_lvalue: Dict[ir.Lvalue, Set[Fact]] = {}
        for fact in universe:
            by_lvalue.setdefault(fact[0], set()).add(fact)
        self._by_lvalue = {
            lv: frozenset(facts) for lv, facts in by_lvalue.items()
        }
        self._memory = frozenset(
            f
            for f in universe
            if not (f[0].is_plain_var and f[0].var_name not in address_taken)
        )

    def of_instruction(self, instr: ir.Instruction) -> FrozenSet[Fact]:
        if not self._by_lvalue:  # an empty universe: nothing to kill
            return self._NONE
        target: Optional[ir.Lvalue] = None
        if isinstance(instr, ir.Set):
            target = instr.lvalue
        elif isinstance(instr, ir.Call):
            target = instr.result
        if target is None:
            return self._NONE
        if isinstance(target.host, ir.MemHost) or not isinstance(
            target.offset, ir.NoOffset
        ):
            return self._memory
        return self._by_lvalue.get(target, self._NONE)


# --------------------------------------------------------- worklist client

#: The (then, else) facts of a branch when no qualifier has a guardable
#: invariant.
_NO_FACTS: Tuple[FrozenSet[Fact], FrozenSet[Fact]] = (frozenset(), frozenset())


@dataclass
class GuardSolution:
    """The guard-fact fixpoint of one function.

    ``block_entry`` maps block index → facts holding on entry
    (unreachable blocks resolve to *no* facts, never to the solver's
    UNIVERSE sentinel).  ``block_points`` maps block index → the facts
    holding immediately *before* each of its instructions, followed by
    the facts at its terminator; it is positional because lowering may
    share one instruction object between two blocks (a ``for`` step
    also run on ``continue``).  ``point`` maps ``id(instruction)`` →
    facts before that instruction, and ``id(terminator statement)`` →
    facts at the block's terminator, so clients that walk the
    structured statement tree (instrumentation, annotation) can look
    facts up without re-running kills.  Equal fact sets along a block
    are one shared frozenset."""

    block_entry: Dict[int, FrozenSet[Fact]] = field(default_factory=dict)
    block_points: Dict[int, List[FrozenSet[Fact]]] = field(default_factory=dict)
    point: Dict[int, FrozenSet[Fact]] = field(default_factory=dict)
    stats: "SolverStats" = None  # type: ignore[assignment]


def solve_guard_facts(
    cfg: "CFG",
    guards: GuardAnalysis,
    address_taken: FrozenSet[str] = frozenset(),
) -> GuardSolution:
    """Run the guard-refinement analysis over one function's CFG.

    This is a forward *must* analysis: join is set intersection, so a
    fact survives a merge only when every incoming path establishes
    it.  Facts enter along guarded branch edges
    (:meth:`GuardAnalysis.facts_of_condition`) and die at assignments
    (:class:`KillIndex`) — the same vocabulary the structured walk
    used, now with sound treatment of ``goto``, loops, and unreachable
    code for free."""
    from repro.cil.cfg import BRANCH
    from repro.dataflow.lattice import UNIVERSE, MustSetLattice
    from repro.dataflow.solver import ForwardSolver

    # Every fact the function can hold enters on some branch edge.
    cond_facts: Dict[int, Tuple[FrozenSet[Fact], FrozenSet[Fact]]] = {}
    universe: Set[Fact] = set()
    for block in cfg.blocks:
        if block.terminator.kind == BRANCH and guards.shapes:
            then_facts, else_facts = guards.facts_of_condition(
                block.terminator.cond
            )
            cond_facts[block.index] = (
                frozenset(then_facts),
                frozenset(else_facts),
            )
            universe |= then_facts
            universe |= else_facts
    kills = KillIndex(universe, address_taken)
    instr_kills = {
        block.index: [kills.of_instruction(i) for i in block.instrs]
        for block in cfg.blocks
    }
    block_kills = {
        index: frozenset().union(*per_instr)
        for index, per_instr in instr_kills.items()
    }

    def transfer(block, facts):
        if facts is UNIVERSE or not facts:
            return facts
        killed = block_kills[block.index]
        if killed.isdisjoint(facts):
            return facts
        return facts - killed

    def edge_transfer(edge, out):
        if edge.guard is None or out is UNIVERSE:
            return out
        then_facts, else_facts = cond_facts.get(edge.src.index, _NO_FACTS)
        gained = then_facts if edge.guard else else_facts
        return out | gained if gained else out

    solver = ForwardSolver(
        cfg,
        MustSetLattice(),
        transfer,
        edge_transfer,
        entry_value=frozenset(),
    )
    result = solver.solve()

    solution = GuardSolution(stats=result.stats)
    for block in cfg.blocks:
        live = result.block_in[block.index]
        if live is UNIVERSE:  # unreachable: assume nothing
            live = frozenset()
        solution.block_entry[block.index] = live
        points = solution.block_points[block.index] = []
        for instr, killed in zip(block.instrs, instr_kills[block.index]):
            points.append(live)
            solution.point[id(instr)] = live
            if killed and not killed.isdisjoint(live):
                live = live - killed
        points.append(live)
        if block.terminator.stmt is not None:
            solution.point[id(block.terminator.stmt)] = live
    return solution
