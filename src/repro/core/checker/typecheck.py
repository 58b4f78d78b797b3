"""The extensible typechecker's qualifier-checking pass.

Flow-insensitive, as in the paper.  For every assignment (explicit, or
implicit through calls and returns) the checker validates:

* *value* qualifiers required by the target type, using the qualifier's
  ``case`` rules (recursively) plus the built-in subsumption rule
  τ q ≤ τ and programmer casts (which trigger run-time checks);
* *reference* qualifiers on the target, using ``assign`` rules
  (``ondecl`` qualifiers accept anything);
* deep qualifier agreement under pointers — there is no subtyping under
  ``ref`` types (section 2.1.2), so ``int pos*`` is not assignable to
  ``int*``.

Independently, every expression in the program is scanned against
``restrict`` clauses, and every use of a reference-qualified l-value is
scanned against ``disallow`` clauses (dereferences of a disallowed
l-value remain legal, section 2.2.1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.cfront.ast import Loc
from repro.cfront.ctypes import (
    CType,
    PointerType,
    VoidType,
    deep_quals_equal,
    is_pointer_like,
    type_to_str,
)
from repro.cil import ir
from repro.cil.typesof import TypeError_, TypingContext, type_of_expr, type_of_lvalue
from repro.cil.cfg import BRANCH, RETURN, build_cfg
from repro.core.checker.diagnostics import Report, RuntimeCheck
from repro.core.checker.flow import GuardAnalysis, solve_guard_facts
from repro.core.checker.patterns import (
    ClauseEnv,
    can_match,
    match_assign_pattern,
    match_expr_pattern,
    node_kind,
)
from repro.core.qualifiers import ast as Q
from repro.core.qualifiers.ast import QualifierSet


#: A compiled clause: its qualifier, the clause and its declarations.
_Rule = Tuple[Q.QualifierDef, object, object]


class QualifierChecker:
    """Checks one program against one qualifier set.

    ``flow_sensitive=True`` enables the guard-refinement extension the
    paper plans as future work (sections 6.1 and 8): branch conditions
    that syntactically match a qualifier's invariant establish that
    qualifier within the guarded branch, eliminating many casts.
    """

    def __init__(
        self,
        program: ir.Program,
        quals: QualifierSet,
        flow_sensitive: bool = False,
    ):
        self.program = program
        self.quals = quals
        self.flow_sensitive = flow_sensitive
        self._guards = GuardAnalysis(quals) if flow_sensitive else None
        # The guard facts at the current program point; one shared
        # frozenset per run of points with equal facts.
        self._facts: FrozenSet = frozenset()
        self._addr_taken = frozenset()
        self.ref_qual_names: FrozenSet[str] = frozenset(
            d.name for d in quals.ref_qualifiers()
        )
        self.value_qual_names: FrozenSet[str] = frozenset(
            d.name for d in quals.value_qualifiers()
        )
        self.report = Report()
        # Rules compiled once: each clause with its declarations, and
        # per node kind the clauses whose pattern root can match it.
        self._restrict_rules: List[_Rule] = [
            (d, r, ClauseEnv.for_clause(d, r)) for d in quals for r in d.restricts
        ]
        self._case_rules: Dict[str, List[_Rule]] = {
            d.name: [(d, c, ClauseEnv.for_clause(d, c)) for c in d.cases]
            for d in quals.value_qualifiers()
        }
        self._assign_rules: Dict[str, List[_Rule]] = {
            d.name: [(d, c, ClauseEnv.for_clause(d, c)) for c in d.assigns]
            for d in quals.ref_qualifiers()
        }
        self._restricts_by_kind: Dict[type, Tuple[_Rule, ...]] = {}
        self._cases_by_kind: Dict[Tuple[str, type], Tuple[_Rule, ...]] = {}
        # Per-function state.
        self.func: Optional[ir.Function] = None
        self.ctx: Optional[TypingContext] = None
        self._memo: Dict[Tuple[ir.Expr, str], bool] = {}
        self._in_progress: Set[Tuple[ir.Expr, str]] = set()
        # The (cast, qualifier) pairs whose run-time check the current
        # statement recorded, when checking statement by statement.
        self._casts: Optional[Set[Tuple[ir.Expr, str]]] = None
        #: Can a function be checked one top-level statement at a time,
        #: each statement apart from the others (see
        #: :meth:`_check_statements`)?  Only with flow sensitivity off,
        #: where nothing flows between statements, and only if no
        #: judgment can ask about itself, so that its answer does not
        #: depend on what was asked before it.
        self.statement_wise = not flow_sensitive and not _asks_about_itself(quals)

    # -------------------------------------------------------------- driver

    def check(
        self,
        functions: Optional[Set[str]] = None,
        statements: Optional[Dict[str, Set[int]]] = None,
    ) -> Report:
        """Check the program (or, with ``functions``, only the named
        subset — the incremental re-check path, which replays cached
        verdicts for everything else; see ``repro.api.Workspace``).

        ``statements`` (only if :attr:`statement_wise`) maps the name of
        a function to check statement by statement to the indices of the
        top-level statements of its body to skip; the results land in
        ``report.statements`` (see :meth:`_check_statements`)."""
        for func in self.program.functions:
            if functions is not None and func.name not in functions:
                continue
            skip = statements.get(func.name) if statements else None
            self._check_function(func, skip)
        return self.report

    def _check_function(
        self, func: ir.Function, skip: Optional[Set[int]] = None
    ) -> None:
        self.func = func
        self.ctx = TypingContext.for_function(
            self.program, func, ref_quals=self.ref_qual_names
        )
        self._memo = {}
        self._in_progress = set()
        self._facts = frozenset()
        self._addr_taken = (
            GuardAnalysis.address_taken(func)
            if self.flow_sensitive
            else frozenset()
        )
        # One CFG + worklist solve per function; with flow sensitivity
        # off, the no-shape guard analysis contributes no facts but the
        # per-function work stats are still collected.
        guards = self._guards if self.flow_sensitive else _NO_GUARDS
        graph = build_cfg(func)
        solution = solve_guard_facts(graph, guards, self._addr_taken)
        self.report.dataflow[func.name] = solution.stats.to_dict()
        if skip is not None:
            self._check_statements(func, graph, skip)
            return
        # Blocks are numbered in syntactic order, so iterating them in
        # index order reports diagnostics in source order.
        for block in graph.blocks:
            points = solution.block_points[block.index]
            for instr, facts in zip(block.instrs, points):
                self._facts = facts
                self._check_instruction(instr)
            self._facts = points[-1]
            term = block.terminator
            if term.kind == BRANCH:
                self._scan_expr(term.stmt.cond, term.stmt.loc)
            elif term.kind == RETURN:
                self._check_return(term.stmt)

    def _check_statements(self, func: ir.Function, graph, skip: Set[int]) -> None:
        """Check ``func`` one top-level statement of its body at a time,
        skipping those whose index is in ``skip``, and set
        ``report.statements[func.name]``: per statement, None if skipped,
        else its diagnostics, how many run-time checks its calls need
        and the (cast, qualifier) pairs whose run-time checks it needs.

        Each statement starts from an empty memo, so it is judged apart
        from the others, and its cast pairs are all those it asks about.
        A cast's check is counted once per function, so the function's
        count is its calls' checks plus the size of the union of its
        statements' cast pairs, which a whole check also gets.  The
        blocks are walked as a whole check walks them: ``build_cfg``
        makes blocks in the order it walks the body, so a statement's
        instructions, branches and returns come one after another, in
        statement order."""
        owner = _owners(func.body)
        results: List[Optional[tuple]] = [None] * len(func.body)
        diagnostics = self.report.diagnostics
        checks = self.report.runtime_checks
        current, begun = -1, (len(diagnostics), len(checks))

        def close() -> None:
            if current >= 0 and current not in skip:
                results[current] = (
                    diagnostics[begun[0]:],
                    len(checks) - begun[1] - len(self._casts),
                    frozenset(self._casts) if self._casts else _NO_CASTS,
                )

        for block in graph.blocks:
            term = block.terminator
            nodes = block.instrs
            if term.kind == BRANCH or term.kind == RETURN:
                nodes = [*nodes, term.stmt]
            for node in nodes:
                index = owner[id(node)]
                if index != current:
                    close()
                    current, begun = index, (len(diagnostics), len(checks))
                    self._memo = {}
                    self._casts = set()
                if index in skip:
                    continue
                if isinstance(node, ir.Instruction):
                    self._check_instruction(node)
                elif term.kind == BRANCH:
                    self._scan_expr(node.cond, node.loc)
                else:
                    self._check_return(node)
        close()
        self._casts = None
        self._memo = {}
        for index, result in enumerate(results):
            if result is None and index not in skip:
                results[index] = ((), 0, _NO_CASTS)
        self.report.statements[func.name] = results

    # -------------------------------------------------------- instructions

    def _check_instruction(self, instr: ir.Instruction) -> None:
        if isinstance(instr, ir.Set):
            self._scan_expr(instr.expr, instr.loc)
            self._scan_write_target(instr.lvalue, instr.loc)
            target_type = self._lvalue_type(instr.lvalue, instr.loc)
            if target_type is None:
                return
            # The target l-value is only formatted into a diagnostic.
            self._check_ref_assign(target_type, instr, instr.lvalue, instr.loc)
            self._check_value_assign(
                target_type, instr.expr, "assign", instr.lvalue, instr.loc
            )
            self._check_deep_quals(target_type, instr.expr, instr.loc)
        elif isinstance(instr, ir.Call):
            self._check_call(instr)

    def _check_call(self, instr: ir.Call) -> None:
        for arg in instr.args:
            self._scan_expr(arg, instr.loc)
        sig = self.program.signatures.get(instr.func)
        if sig is not None:
            formal_names = self.program.formal_names.get(instr.func)
            for i, (arg, ptype) in enumerate(zip(instr.args, sig.params)):
                pname = formal_names[i] if formal_names and i < len(formal_names) else f"#{i + 1}"
                desc = f"argument {pname!r} of {instr.func}"
                self._check_value_assign(ptype, arg, "call", desc, instr.loc)
                self._check_deep_quals(ptype, arg, instr.loc)
                # Passing into a ref-qualified formal is an implicit
                # assignment and must obey the qualifier's assign rules.
                ref_target = ptype.quals & self.ref_qual_names
                if ref_target:
                    fake = ir.Set(ir.Lvalue(ir.VarHost("__formal")), arg, instr.loc)
                    self._check_ref_assign(ptype, fake, desc, instr.loc)
        if instr.result is not None:
            self._scan_write_target(instr.result, instr.loc)
            target_type = self._lvalue_type(instr.result, instr.loc)
            if target_type is None:
                return
            self._check_ref_assign(
                target_type, instr, instr.result, instr.loc
            )
            self._check_call_result_value_quals(target_type, instr, sig)

    def _check_call_result_value_quals(
        self,
        target_type: CType,
        instr: ir.Call,
        sig,
    ) -> None:
        """A call result has exactly its declared (or cast-to) type; value
        qualifiers required by the target must appear there."""
        required = target_type.quals & self.value_qual_names
        if instr.result_cast is not None:
            # The surface cast on a call result (``p = (T*)xmalloc(..)``)
            # is ignored for qualifier purposes, as CIL ignores it for
            # pattern matching (footnote 1): the declared return type's
            # qualifiers survive it.
            rhs_type = instr.result_cast
            if sig is not None:
                rhs_type = rhs_type.with_quals(
                    sig.ret.quals & self.value_qual_names
                )
            for q in instr.result_cast.quals & self.value_qual_names:
                self.report.runtime_checks.append(
                    RuntimeCheck(q, instr.loc, self.func.name)
                )
        elif sig is not None:
            rhs_type = sig.ret
        elif ir.is_allocation(instr):
            rhs_type = PointerType()
        else:
            rhs_type = None
        for q in sorted(required):
            if rhs_type is None or q not in rhs_type.quals:
                self.report.add(
                    "assign",
                    q,
                    f"{instr.result} requires {q}, but the result of the "
                    f"call to {instr.func} is not known to be {q}",
                    instr.loc,
                    self.func.name,
                )

    def _check_return(self, stmt: ir.Return) -> None:
        if stmt.expr is not None:
            self._scan_expr(stmt.expr, stmt.loc)
        ret = self.func.ret
        # A return is an implicit assignment into the caller's
        # destination (section 2.2.1), so ref-qualified return types are
        # governed by the qualifier's assign rules.
        ref_required = ret.quals & self.ref_qual_names
        if ref_required and stmt.expr is not None:
            fake = ir.Set(ir.Lvalue(ir.VarHost("__return")), stmt.expr, stmt.loc)
            self._check_ref_assign(ret, fake, "return value", stmt.loc)
        required = ret.quals & self.value_qual_names
        if not required:
            return
        if stmt.expr is None:
            for q in sorted(required):
                self.report.add(
                    "return", q, "return without a value", stmt.loc, self.func.name
                )
            return
        self._check_value_assign(ret, stmt.expr, "return", "return value", stmt.loc)
        self._check_deep_quals(ret, stmt.expr, stmt.loc)

    # --------------------------------------------------- value-qualifier core

    def _check_value_assign(
        self,
        target_type: CType,
        rhs: ir.Expr,
        kind: str,
        target_desc: Union[str, ir.Lvalue],
        loc: Loc,
    ) -> None:
        required = target_type.quals & self.value_qual_names
        for q in sorted(required):
            if not self.has_qual(rhs, q):
                self.report.add(
                    kind,
                    q,
                    f"{target_desc} requires {q}, but {rhs} is not known to be {q}",
                    loc,
                    self.func.name,
                )

    def has_qual(self, expr: ir.Expr, qual: str) -> bool:
        """May ``expr`` be given qualifier ``qual``?

        Combines the declared-type rule, the cast rule (recording a
        run-time check), the built-in conditional rule, and the
        user-defined case rules.  Recursion through mutually-referring
        qualifiers computes a least fixed point: a cycle contributes
        False.
        """
        # Guard facts make the judgment program-point-dependent, so the
        # current fact set is part of the memo key (a frozenset caches
        # its hash, and one is shared along each run of equal facts).
        key = (expr, qual, self._facts if self.flow_sensitive else None)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:
            return False
        self._in_progress.add(key)
        try:
            result = self._has_qual_raw(expr, qual)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    def _has_qual_raw(self, expr: ir.Expr, qual: str) -> bool:
        qdef = self.quals.get(qual)
        if qdef is None or not qdef.is_value:
            return False
        # A dominating guard established the invariant for this l-value.
        if (
            self.flow_sensitive
            and isinstance(expr, ir.Lval)
            and (expr.lvalue, qual) in self._facts
        ):
            return True
        # Programmer cast: permitted, with a run-time check inserted.
        # (Checked before the declared-type rule so the check is
        # recorded: the cast *is* where the qualifier enters.)
        if isinstance(expr, ir.CastE) and qual in expr.to_type.quals:
            self.report.runtime_checks.append(
                RuntimeCheck(qual, Loc(), self.func.name)
            )
            if self._casts is not None:
                self._casts.add((expr, qual))
            return True
        # Declared type carries the qualifier.
        try:
            etype = type_of_expr(self.ctx, expr)
        except TypeError_:
            etype = None
        if etype is not None and qual in etype.quals:
            return True
        if isinstance(expr, ir.CastE):
            # Shape-preserving casts are transparent to qualifiers.
            try:
                inner = type_of_expr(self.ctx, expr.operand)
            except TypeError_:
                inner = None
            if inner is not None and expr.to_type.same_shape(inner):
                if self.has_qual(expr.operand, qual):
                    return True
        # Built-in rule for pure conditionals: both branches qualify.
        if isinstance(expr, ir.CondE):
            if self.has_qual(expr.then, qual) and self.has_qual(expr.otherwise, qual):
                return True
        # Logical memory model (section 3.3): p + i has p's type, hence
        # p's qualifiers.  (The declared-type rule already covers the
        # annotated case; this extends it to guard-derived facts.)
        if isinstance(expr, ir.BinOp) and expr.op == "ptradd":
            if self.has_qual(expr.left, qual):
                return True
        # User-defined case rules.
        kind = node_kind(expr)
        rules = self._cases_by_kind.get((qual, kind))
        if rules is None:
            rules = self._cases_by_kind[qual, kind] = _admitting(
                self._case_rules[qual], kind
            )
        for _, clause, env in rules:
            bindings = match_expr_pattern(qdef, clause, expr, self.ctx, env)
            if bindings is not None and self._eval_pred(clause.predicate, bindings):
                return True
        return False

    def _eval_pred(self, pred: Q.Pred, bindings) -> bool:
        if isinstance(pred, Q.PredTrue):
            return True
        if isinstance(pred, Q.PredAnd):
            return self._eval_pred(pred.left, bindings) and self._eval_pred(
                pred.right, bindings
            )
        if isinstance(pred, Q.PredOr):
            return self._eval_pred(pred.left, bindings) or self._eval_pred(
                pred.right, bindings
            )
        if isinstance(pred, Q.PredNot):
            return not self._eval_pred(pred.operand, bindings)
        if isinstance(pred, Q.PredQual):
            fragment = bindings.get(pred.var)
            if fragment is None:
                return False
            if isinstance(fragment, ir.Lvalue):
                fragment = ir.Lval(fragment)
            return self.has_qual(fragment, pred.qualifier)
        if isinstance(pred, Q.PredCmp):
            left = self._eval_aexpr(pred.left, bindings)
            right = self._eval_aexpr(pred.right, bindings)
            return _compare(pred.op, left, right)
        raise TypeError(f"unknown predicate {pred!r}")

    def _eval_aexpr(self, aexpr: Q.AExpr, bindings):
        if isinstance(aexpr, Q.ANum):
            return ("int", aexpr.value)
        if isinstance(aexpr, Q.ANull):
            return ("null", None)
        if isinstance(aexpr, Q.AVar):
            fragment = bindings.get(aexpr.name)
            if isinstance(fragment, ir.IntConst):
                return ("int", fragment.value)
            if isinstance(fragment, ir.NullConst):
                return ("null", None)
            if isinstance(fragment, ir.StrConst):
                return ("str", fragment.value)
            return None
        if isinstance(aexpr, Q.ABin):
            left = self._eval_aexpr(aexpr.left, bindings)
            right = self._eval_aexpr(aexpr.right, bindings)
            if (
                left is None
                or right is None
                or left[0] != "int"
                or right[0] != "int"
            ):
                return None
            lv, rv = left[1], right[1]
            try:
                if aexpr.op == "+":
                    return ("int", lv + rv)
                if aexpr.op == "-":
                    return ("int", lv - rv)
                if aexpr.op == "*":
                    return ("int", lv * rv)
                if aexpr.op == "/":
                    return ("int", _c_div(lv, rv))
                if aexpr.op == "%":
                    return ("int", _c_mod(lv, rv))
            except ZeroDivisionError:
                return None
            return None
        raise TypeError(f"unknown arithmetic operand {aexpr!r}")

    # ------------------------------------------------ reference-qualifier core

    def _check_ref_assign(
        self,
        target_type: CType,
        instr: ir.Instruction,
        target_desc: Union[str, ir.Lvalue],
        loc: Loc,
    ) -> None:
        ref_quals = target_type.quals & self.ref_qual_names
        for q in sorted(ref_quals):
            qdef = self.quals[q]
            if qdef.ondecl:
                continue  # the variable's contents are unrestricted
            if self._rhs_has_unchecked_ref_cast(instr, q):
                continue  # casts involving reference qualifiers are unchecked
            if isinstance(instr, ir.Call):
                sig = self.program.signatures.get(instr.func)
                if sig is not None and q in sig.ret.quals:
                    # The callee's declared (and checked) return type
                    # already carries the qualifier.
                    continue
            matched = False
            for _, clause, env in self._assign_rules[q]:
                bindings = match_assign_pattern(qdef, clause, instr, self.ctx, env)
                if bindings is not None and self._eval_pred(
                    clause.predicate, bindings
                ):
                    matched = True
                    break
            if not matched:
                rhs = instr.expr if isinstance(instr, ir.Set) else f"call to {instr.func}"
                self.report.add(
                    "assign",
                    q,
                    f"assignment of {rhs} to {q} l-value {target_desc} "
                    f"matches no assign rule",
                    loc,
                    self.func.name,
                )

    def _rhs_has_unchecked_ref_cast(self, instr: ir.Instruction, qual: str) -> bool:
        if isinstance(instr, ir.Set) and isinstance(instr.expr, ir.CastE):
            return qual in instr.expr.to_type.quals
        if isinstance(instr, ir.Call) and instr.result_cast is not None:
            return qual in instr.result_cast.quals
        return False

    # ----------------------------------------------------- expression scans

    def _scan_expr(self, expr: ir.Expr, loc: Loc) -> None:
        """Scan an expression read: restrict rules on every node, and
        disallow rules with dereference-context awareness."""
        self._check_restricts(expr, loc)
        self._scan_disallow_expr(expr, loc)

    def _scan_write_target(self, lv: ir.Lvalue, loc: Loc) -> None:
        """Scan the l-value being written: its dereference site is subject
        to restrict rules, and its inner expressions to all rules, but
        the target itself is not a 'reference' for disallow purposes."""
        self._check_restricts(ir.Lval(lv), loc)
        self._scan_disallow_lvalue_inner(lv, loc)

    def _check_restricts(self, root: ir.Expr, loc: Loc) -> None:
        """Offer every node of ``root`` to the restrict rules its kind
        admits."""
        by_kind = self._restricts_by_kind
        for node in ir.subexprs(root):
            kind = node_kind(node)
            rules = by_kind.get(kind)
            if rules is None:
                rules = by_kind[kind] = _admitting(self._restrict_rules, kind)
            for qdef, clause, env in rules:
                bindings = match_expr_pattern(qdef, clause, node, self.ctx, env)
                if bindings is not None and not self._eval_pred(
                    clause.predicate, bindings
                ):
                    self.report.add(
                        "restrict",
                        qdef.name,
                        f"expression {node} violates restrict rule "
                        f"({clause.pattern} requires {clause.predicate})",
                        loc,
                        self.func.name,
                    )

    # Disallow scanning distinguishes contexts: reading an l-value is a
    # 'reference'; reading it *in order to dereference it* is not
    # (section 2.2.1: a unique l-value may still be dereferenced).

    def _scan_disallow_expr(self, expr: ir.Expr, loc: Loc) -> None:
        if isinstance(expr, ir.Lval):
            self._disallow_reference(expr.lvalue, loc)
            self._scan_disallow_lvalue_inner(expr.lvalue, loc)
        elif isinstance(expr, ir.AddrOf):
            self._disallow_address_of(expr.lvalue, loc)
            self._scan_disallow_lvalue_inner(expr.lvalue, loc)
        elif isinstance(expr, ir.UnOp):
            self._scan_disallow_expr(expr.operand, loc)
        elif isinstance(expr, ir.BinOp):
            self._scan_disallow_expr(expr.left, loc)
            self._scan_disallow_expr(expr.right, loc)
        elif isinstance(expr, ir.CastE):
            if not (expr.to_type.quals & self.ref_qual_names):
                self._scan_disallow_expr(expr.operand, loc)
            # Casts involving reference qualifiers are unchecked (2.2.3).
        elif isinstance(expr, ir.CondE):
            self._scan_disallow_expr(expr.cond, loc)
            self._scan_disallow_expr(expr.then, loc)
            self._scan_disallow_expr(expr.otherwise, loc)

    def _scan_disallow_lvalue_inner(self, lv: ir.Lvalue, loc: Loc) -> None:
        if isinstance(lv.host, ir.MemHost):
            self._scan_disallow_addr(lv.host.addr, loc)
        off = lv.offset
        while not isinstance(off, ir.NoOffset):
            if isinstance(off, ir.IndexOff):
                self._scan_disallow_expr(off.index, loc)
            off = off.rest

    def _scan_disallow_addr(self, addr: ir.Expr, loc: Loc) -> None:
        """Scan an expression whose value is immediately dereferenced."""
        if isinstance(addr, ir.Lval):
            # Reading this l-value only to dereference it: allowed.
            self._scan_disallow_lvalue_inner(addr.lvalue, loc)
        elif isinstance(addr, ir.BinOp) and addr.op == "ptradd":
            self._scan_disallow_addr(addr.left, loc)
            self._scan_disallow_expr(addr.right, loc)
        elif isinstance(addr, ir.CastE):
            self._scan_disallow_addr(addr.operand, loc)
        elif isinstance(addr, ir.AddrOf):
            self._disallow_address_of(addr.lvalue, loc)
            self._scan_disallow_lvalue_inner(addr.lvalue, loc)
        else:
            self._scan_disallow_expr(addr, loc)

    def _disallow_reference(self, lv: ir.Lvalue, loc: Loc) -> None:
        lv_type = self._lvalue_type(lv, loc)
        if lv_type is None:
            return
        for q in sorted(lv_type.quals & self.ref_qual_names):
            qdef = self.quals[q]
            if qdef.disallow is not None and qdef.disallow.forbid_reference:
                self.report.add(
                    "disallow",
                    q,
                    f"{q} l-value {lv} may not be referred to",
                    loc,
                    self.func.name,
                )

    def _disallow_address_of(self, lv: ir.Lvalue, loc: Loc) -> None:
        lv_type = self._lvalue_type(lv, loc)
        if lv_type is None:
            return
        for q in sorted(lv_type.quals & self.ref_qual_names):
            qdef = self.quals[q]
            if qdef.disallow is not None and qdef.disallow.forbid_address_of:
                self.report.add(
                    "disallow",
                    q,
                    f"{q} l-value {lv} may not have its address taken",
                    loc,
                    self.func.name,
                )

    # --------------------------------------------------------------- helpers

    def _lvalue_type(self, lv: ir.Lvalue, loc: Loc) -> Optional[CType]:
        try:
            return type_of_lvalue(self.ctx, lv)
        except TypeError_ as exc:
            self.report.add("base", "-", str(exc), loc, self.func.name)
            return None

    def _check_deep_quals(self, target_type: CType, rhs: ir.Expr, loc: Loc) -> None:
        """No subtyping under pointers: nested qualifiers must agree
        exactly (section 2.1.2)."""
        if isinstance(rhs, (ir.NullConst,)):
            return
        if isinstance(rhs, ir.CastE):
            rhs_type = rhs.to_type  # the cast's type governs, as in C
        else:
            try:
                rhs_type = type_of_expr(self.ctx, rhs)
            except TypeError_:
                return
        if not (is_pointer_like(target_type) and is_pointer_like(rhs_type)):
            return
        if isinstance(rhs, ir.IntConst) and rhs.value == 0:
            return
        # void* converts implicitly in either direction, as in C.
        if isinstance(getattr(target_type, "pointee", None), VoidType) or isinstance(
            getattr(rhs_type, "pointee", None), VoidType
        ):
            return
        if not deep_quals_equal(target_type, rhs_type):
            self.report.add(
                "base",
                "-",
                f"pointer assignment changes nested qualifiers: "
                f"{type_to_str(rhs_type)} is not assignable to "
                f"{type_to_str(target_type)} (no subtyping under pointers)",
                loc,
                self.func.name,
            )


def _owners(body: List[ir.Stmt]) -> Dict[int, int]:
    """For each instruction, branching statement and return within
    ``body`` (what a checker walking the CFG judges), keyed by ``id``:
    the index of the top-level statement holding it."""
    owner: Dict[int, int] = {}
    for index, stmt in enumerate(body):
        stack = [stmt]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is ir.Instr:
                for instr in node.instrs:
                    owner[id(instr)] = index
            elif kind is ir.If:
                owner[id(node)] = index
                stack += node.then
                stack += node.otherwise
            elif kind is ir.While:
                owner[id(node)] = index
                for instr in node.cond_instrs:
                    owner[id(instr)] = index
                stack += node.body
            elif kind is ir.Return:
                owner[id(node)] = index
    return owner


def _asks_about_itself(quals: QualifierSet) -> bool:
    """Can :meth:`QualifierChecker.has_qual` come back to the judgment
    it is making?  Every built-in rule asks about a smaller expression,
    and so does a ``case`` clause whose pattern takes the expression
    apart.  A clause whose pattern is a bare variable binds the whole
    expression, and asks about it under each qualifier its predicate
    names; so a judgment can meet itself only through a cycle of such
    clauses."""
    asks: Dict[str, Set[str]] = {}
    for qdef in quals.value_qualifiers():
        for clause in qdef.cases:
            if isinstance(clause.pattern, Q.PVar):
                asks.setdefault(qdef.name, set()).update(
                    _named_qualifiers(clause.predicate)
                )
    done: Set[str] = set()

    def cycles(name: str, path: Set[str]) -> bool:
        if name in path:
            return True
        if name in done:
            return False
        path.add(name)
        found = any(cycles(nxt, path) for nxt in asks.get(name, ()))
        path.discard(name)
        done.add(name)
        return found

    return any(cycles(name, set()) for name in list(asks))


def _named_qualifiers(pred: Q.Pred):
    if isinstance(pred, Q.PredQual):
        yield pred.qualifier
    elif isinstance(pred, (Q.PredAnd, Q.PredOr)):
        yield from _named_qualifiers(pred.left)
        yield from _named_qualifiers(pred.right)
    elif isinstance(pred, Q.PredNot):
        yield from _named_qualifiers(pred.operand)


def _admitting(rules: List[_Rule], kind: type) -> Tuple[_Rule, ...]:
    """The rules whose pattern root can match a node of ``kind``, in
    clause order (so diagnostics keep their order)."""
    return tuple(rule for rule in rules if can_match(rule[1].pattern, kind))


#: The cast pairs of a statement that needs no cast's run-time check,
#: shared by all of them.
_NO_CASTS: FrozenSet[Tuple[ir.Expr, str]] = frozenset()

#: Guard analysis over the empty qualifier set: derives no facts.
#: Used when flow sensitivity is off, so the same solver runs (and the
#: same stats are collected) without refining anything.
_NO_GUARDS = GuardAnalysis(QualifierSet([]))


def _compare(op: str, left, right) -> bool:
    if left is None or right is None:
        return False
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if left[0] != "int" or right[0] != "int":
        return False
    lv, rv = left[1], right[1]
    return {
        ">": lv > rv,
        "<": lv < rv,
        ">=": lv >= rv,
        "<=": lv <= rv,
    }[op]


def _c_div(a: int, b: int) -> int:
    """C semantics: truncation toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


def check_program(program: ir.Program, quals: QualifierSet) -> Report:
    """Run qualifier checking over ``program`` and return the report."""
    return QualifierChecker(program, quals).check()
