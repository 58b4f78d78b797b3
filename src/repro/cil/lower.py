"""Lowering from the surface C AST to the CIL-style IR.

The pass performs the expression/instruction split: assignments,
``++``/``--``, calls and conditional expressions in expression position
are flattened into instructions (introducing typed temporaries), so that
every :class:`repro.cil.ir.Expr` is side-effect free — the property the
paper's pattern language depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cfront import ast as A
from repro.cfront.ctypes import (
    ArrayType,
    CType,
    FuncType,
    IntType,
    PointerType,
    VoidType,
    is_pointer_like,
)
from repro.cil import ir
from repro.cil.typesof import TypeError_, TypingContext, type_of_expr, type_of_lvalue


class LowerError(Exception):
    def __init__(self, message: str, loc: A.Loc = A.Loc()):
        super().__init__(f"{message} ({loc})")
        self.loc = loc


@dataclass
class Lowered:
    """One body lowered statement by statement, kept so that an edit of
    some of its top-level statements re-lowers only those.

    ``tree`` is the definition as parsed and ``function`` its lowering.
    Top-level statement ``i`` of ``tree.body.stmts`` lowered to
    ``function.body[starts[i]:starts[i + 1]]``; before it,
    ``function.locals`` held ``locals[i]`` entries and the temporary
    counter read ``temps[i]``.  Each list has one entry more than there
    are statements, for the state after the last.  The rest of the
    lowering state before a statement follows from these: the names in
    use are the formals' and those of the locals so far, the typing
    context adds those locals to the globals and formals, and the
    body's scope maps each top-level declaration so far to the local it
    declared.  ``relowered`` counts the statements this lowering
    lowered (the rest it took from an earlier one)."""

    tree: A.FuncDef
    function: ir.Function
    starts: List[int]
    locals: List[int]
    temps: List[int]
    relowered: int


@dataclass
class _FuncState:
    """Mutable per-function lowering state."""

    locals: List[Tuple[str, CType]] = field(default_factory=list)
    scopes: List[Dict[str, str]] = field(default_factory=lambda: [{}])
    used_names: set = field(default_factory=set)
    temp_count: int = 0
    # Step instructions of the innermost enclosing `for` (run on continue).
    for_step: Optional[List[ir.Instruction]] = None


class _Lowerer:
    def __init__(self, unit: A.TranslationUnit):
        self.unit = unit
        self.program = ir.Program()
        self.state = _FuncState()
        self._collect_signatures()

    # ------------------------------------------------------------- top level

    def _collect_signatures(self) -> None:
        for s in self.unit.structs:
            self.program.structs[s.name] = list(s.fields)
            if s.is_union:
                self.program.unions.add(s.name)
        for g in self.unit.globals:
            self.program.globals.append(ir.GlobalVar(g.name, g.ctype, g.loc))
        for f in self.unit.functions:
            sig = FuncType(
                ret=f.ret,
                params=tuple(p.ctype for p in f.params),
                varargs=f.varargs,
            )
            # A definition's signature wins over a prototype's only when
            # the prototype came first without annotations; in the paper's
            # workflow the annotated prototype is authoritative, so keep
            # the first signature that carries any qualifier.
            existing = self.program.signatures.get(f.name)
            if existing is None or (not _has_quals(existing) and _has_quals(sig)):
                self.program.signatures[f.name] = sig
            if not f.is_prototype or f.name not in self.program.formal_names:
                # Prototypes supply parameter names for diagnostics too;
                # a later definition's names win.
                if any(p.name for p in f.params):
                    self.program.formal_names[f.name] = [p.name for p in f.params]

    def lower(self, kept: Optional[Dict[int, object]] = None) -> ir.Program:
        # Every initializer lowers into the one __global_init__
        # function, so they share one state: temporaries stay distinct
        # and each is declared with its own type.
        init_instrs: List[ir.Instruction] = []
        self._begin_function([])
        for g in self.unit.globals:
            if g.init is not None:
                value = self._lower_expr(g.init, init_instrs, self._ctx)
                lv = ir.Lvalue(ir.VarHost(g.name))
                init_instrs.append(ir.Set(lv, value, g.loc))
        if init_instrs:
            self.program.functions.append(
                ir.Function(
                    name=ir.Program.GLOBAL_INIT,
                    ret=VoidType(),
                    formals=[],
                    locals=self.state.locals,
                    body=[ir.Instr(init_instrs)],
                )
            )
            self.program.signatures[ir.Program.GLOBAL_INIT] = FuncType(ret=VoidType())

        definitions = (f for f in self.unit.functions if not f.is_prototype)
        for index, f in enumerate(definitions):
            reuse = kept.get(index) if kept is not None else None
            lowered = self._lower_definition(f, reuse)
            if kept is not None and index in kept:
                kept[index] = lowered
            self.program.functions.append(lowered.function)
        return self.program

    def _lower_definition(self, f: A.FuncDef, reuse=None) -> Lowered:
        """Lower ``f`` statement by statement, recording a
        :class:`Lowered`.  ``reuse`` is None, or ``(old, head, tail)``:
        ``f``'s statements are ``old.tree``'s with those between the
        first ``head`` and the last ``tail`` replaced.  Then the head's
        IR is taken from ``old`` and lowering starts from the state
        before it; the tail's IR is taken too if the replaced statements
        leave the state ``old`` had before the tail, and lowered again
        otherwise."""
        formals = [
            (p.name or f"__anon{i}", p.ctype) for i, p in enumerate(f.params)
        ]
        self._begin_function(formals)
        state = self.state
        for name, _ in formals:
            state.scopes[0][name] = name
            state.used_names.add(name)
        stmts = f.body.stmts
        body: List[ir.Stmt] = []
        starts: List[int] = []
        local_counts: List[int] = []
        temps: List[int] = []
        old, first, tail = reuse or (None, 0, 0)
        rest = len(stmts) - tail if old is not None else -1
        scope: Dict[str, str] = {}
        if old is not None:
            scope = _body_scope(old, first)
            for name, ctype in old.function.locals[: old.locals[first]]:
                state.locals.append((name, ctype))
                state.used_names.add(name)
                self._ctx.var_types[name] = ctype
            state.temp_count = old.temps[first]
            body = old.function.body[: old.starts[first]]
            starts = old.starts[:first]
            local_counts = old.locals[:first]
            temps = old.temps[:first]
        state.scopes.append(scope)
        index = first
        while index < len(stmts):
            if index == rest and self._same_state(old, len(old.starts) - 1 - tail):
                k = len(old.starts) - 1 - tail
                shift = len(body) - old.starts[k]
                body.extend(old.function.body[old.starts[k] :])
                starts.extend(s + shift for s in old.starts[k:-1])
                local_counts.extend(old.locals[k:-1])
                temps.extend(old.temps[k:-1])
                state.locals.extend(old.function.locals[old.locals[k] :])
                state.temp_count = old.temps[-1]
                break
            starts.append(len(body))
            local_counts.append(len(state.locals))
            temps.append(state.temp_count)
            body.extend(self._lower_stmt(stmts[index]))
            index += 1
        starts.append(len(body))
        local_counts.append(len(state.locals))
        temps.append(state.temp_count)
        state.scopes.pop()
        function = ir.Function(
            name=f.name,
            ret=f.ret,
            formals=formals,
            locals=state.locals,
            body=body,
            varargs=f.varargs,
            loc=f.loc,
        )
        return Lowered(f, function, starts, local_counts, temps, index - first)

    def _same_state(self, old: Lowered, k: int) -> bool:
        """Is the lowering state now what ``old`` had before its
        statement ``k``?"""
        state = self.state
        return (
            state.temp_count == old.temps[k]
            and state.locals == old.function.locals[: old.locals[k]]
            and state.scopes[-1] == _body_scope(old, k)
        )

    # ----------------------------------------------------------- environment

    def _begin_function(self, formals: List[Tuple[str, CType]]) -> None:
        """Fresh per-function state.  The typing context is built once
        here, from the globals and ``formals``; each local and temporary
        is added to it as it is declared (later names shadow earlier)."""
        self.state = _FuncState()
        var_types = {g.name: g.ctype for g in self.program.globals}
        var_types.update(formals)
        self._ctx = TypingContext(var_types=var_types, structs=self.program.structs)

    def _declare_local(self, surface_name: str, ctype: CType) -> str:
        name = surface_name
        counter = 2
        while name in self.state.used_names:
            name = f"{surface_name}__{counter}"
            counter += 1
        self.state.used_names.add(name)
        self.state.scopes[-1][surface_name] = name
        self.state.locals.append((name, ctype))
        self._ctx.var_types[name] = ctype
        return name

    def _resolve(self, surface_name: str) -> str:
        for scope in reversed(self.state.scopes):
            if surface_name in scope:
                return scope[surface_name]
        return surface_name  # a global or unknown name

    def _fresh_temp(self, ctype: CType) -> ir.Lvalue:
        """A new temporary, named ``__tN`` past any name already in
        scope (a source variable may be called ``__t0`` too)."""
        name = f"__t{self.state.temp_count}"
        while name in self._ctx.var_types:
            self.state.temp_count += 1
            name = f"__t{self.state.temp_count}"
        self.state.temp_count += 1
        self.state.used_names.add(name)
        self.state.locals.append((name, ctype))
        self._ctx.var_types[name] = ctype
        return ir.Lvalue(ir.VarHost(name))

    def _return_type_of(self, func: str) -> CType:
        sig = self.program.signatures.get(func)
        if sig is not None:
            return sig.ret
        if func in ir.ALLOCATORS:
            return PointerType(pointee=VoidType())
        return IntType()

    # ------------------------------------------------------------ statements

    def _lower_block(self, block: A.Block) -> List[ir.Stmt]:
        self.state.scopes.append({})
        out: List[ir.Stmt] = []
        for stmt in block.stmts:
            out.extend(self._lower_stmt(stmt))
        self.state.scopes.pop()
        return out

    def _lower_stmt(self, stmt: A.Stmt) -> List[ir.Stmt]:
        if isinstance(stmt, A.Block):
            return self._lower_block(stmt)
        if isinstance(stmt, A.Decl):
            return self._lower_decl(stmt)
        if isinstance(stmt, A.ExprStmt):
            instrs: List[ir.Instruction] = []
            self._lower_expr(stmt.expr, instrs, self._ctx, as_statement=True)
            return [ir.Instr(instrs, stmt.loc)] if instrs else []
        if isinstance(stmt, A.If):
            instrs = []
            cond = self._lower_expr(stmt.cond, instrs, self._ctx)
            then = self._lower_block(stmt.then)
            otherwise = self._lower_block(stmt.otherwise) if stmt.otherwise else []
            out: List[ir.Stmt] = []
            if instrs:
                out.append(ir.Instr(instrs, stmt.loc))
            out.append(ir.If(cond, then, otherwise, stmt.loc))
            return out
        if isinstance(stmt, A.While):
            return [self._lower_while(stmt.cond, stmt.body, stmt.loc)]
        if isinstance(stmt, A.DoWhile):
            first = self._lower_block(stmt.body)
            loop = self._lower_while(stmt.cond, stmt.body, stmt.loc)
            return first + [loop]
        if isinstance(stmt, A.For):
            return self._lower_for(stmt)
        if isinstance(stmt, A.Switch):
            return self._lower_switch(stmt)
        if isinstance(stmt, A.Return):
            instrs = []
            value = None
            if stmt.value is not None:
                value = self._lower_expr(stmt.value, instrs, self._ctx)
            out = []
            if instrs:
                out.append(ir.Instr(instrs, stmt.loc))
            out.append(ir.Return(value, stmt.loc))
            return out
        if isinstance(stmt, A.Break):
            return [ir.Break(stmt.loc)]
        if isinstance(stmt, A.Continue):
            if self.state.for_step is not None:
                return [ir.Instr(list(self.state.for_step), stmt.loc), ir.Continue(stmt.loc)]
            return [ir.Continue(stmt.loc)]
        if isinstance(stmt, A.Goto):
            return [ir.Goto(stmt.label, stmt.loc)]
        if isinstance(stmt, A.Label):
            return [ir.Label(stmt.name, stmt.loc)]
        raise LowerError(f"cannot lower statement {stmt!r}", stmt.loc)

    def _lower_switch(self, stmt: A.Switch) -> List[ir.Stmt]:
        """Desugar ``switch`` into an if/else chain.

        C fallthrough is honoured by splicing each case's statements
        with the following cases' statements up to the first top-level
        ``break`` (which terminates the switch, not an enclosing loop).
        """
        instrs: List[ir.Instruction] = []
        scrutinee = self._lower_expr(stmt.scrutinee, instrs, self._ctx)
        temp = self._fresh_temp(IntType())
        instrs.append(ir.Set(temp, scrutinee, stmt.loc))

        def body_from(index: int) -> List[A.Stmt]:
            """The statements executed when case ``index`` is entered:
            its own statements plus fallthrough, stopping at a
            top-level break (dropped)."""
            out: List[A.Stmt] = []
            for case in stmt.cases[index:]:
                for s in case.stmts:
                    if isinstance(s, A.Break):
                        return out
                    out.append(s)
            return out

        default_body: List[A.Stmt] = []
        for i, case in enumerate(stmt.cases):
            if case.value is None:
                default_body = body_from(i)

        # Build the chain inside-out.
        saved = self.state.for_step
        self.state.for_step = None
        chain: List[ir.Stmt] = self._lower_stmt_list(default_body)
        for i in reversed(
            [k for k, c in enumerate(stmt.cases) if c.value is not None]
        ):
            case = stmt.cases[i]
            cond = ir.BinOp("==", ir.Lval(temp), ir.IntConst(case.value))
            chain = [
                ir.If(cond, self._lower_stmt_list(body_from(i)), chain, stmt.loc)
            ]
        self.state.for_step = saved
        return [ir.Instr(instrs, stmt.loc)] + chain

    def _lower_stmt_list(self, stmts: List[A.Stmt]) -> List[ir.Stmt]:
        self.state.scopes.append({})
        out: List[ir.Stmt] = []
        for s in stmts:
            out.extend(self._lower_stmt(s))
        self.state.scopes.pop()
        return out

    def _lower_decl(self, stmt: A.Decl) -> List[ir.Stmt]:
        name = self._declare_local(stmt.name, stmt.ctype)
        if stmt.init is None:
            return []
        instrs: List[ir.Instruction] = []
        lv = ir.Lvalue(ir.VarHost(name))
        self._lower_assignment(lv, stmt.init, instrs, stmt.loc)
        return [ir.Instr(instrs, stmt.loc)]

    def _lower_while(self, cond: A.Expr, body: A.Block, loc: A.Loc) -> ir.While:
        cond_instrs: List[ir.Instruction] = []
        cond_expr = self._lower_expr(cond, cond_instrs, self._ctx)
        saved = self.state.for_step
        self.state.for_step = None
        body_stmts = self._lower_block(body)
        self.state.for_step = saved
        return ir.While(cond_instrs, cond_expr, body_stmts, loc)

    def _lower_for(self, stmt: A.For) -> List[ir.Stmt]:
        out: List[ir.Stmt] = []
        self.state.scopes.append({})
        if stmt.init is not None:
            out.extend(self._lower_stmt(stmt.init))
        cond_instrs: List[ir.Instruction] = []
        if stmt.cond is not None:
            cond_expr = self._lower_expr(stmt.cond, cond_instrs, self._ctx)
        else:
            cond_expr = ir.IntConst(1)
        step_instrs: List[ir.Instruction] = []
        if stmt.step is not None:
            self._lower_expr(stmt.step, step_instrs, self._ctx, as_statement=True)
        saved = self.state.for_step
        self.state.for_step = step_instrs
        body_stmts = self._lower_block(stmt.body)
        self.state.for_step = saved
        body_stmts.append(ir.Instr(list(step_instrs), stmt.loc))
        out.append(ir.While(cond_instrs, cond_expr, body_stmts, stmt.loc))
        self.state.scopes.pop()
        return out

    # ----------------------------------------------------------- expressions

    def _lower_assignment(
        self,
        target: ir.Lvalue,
        value: A.Expr,
        instrs: List[ir.Instruction],
        loc: A.Loc,
    ) -> None:
        """Assign ``value`` to ``target``, keeping calls as Call
        instructions with their surface result cast recorded."""
        cast_type = None
        call = value
        if isinstance(value, A.Cast) and isinstance(value.operand, A.Call):
            cast_type = value.to_type
            call = value.operand
        if isinstance(call, A.Call):
            args = [self._lower_expr(a, instrs, self._ctx) for a in call.args]
            instrs.append(ir.Call(target, call.func, args, loc, result_cast=cast_type))
            return
        expr = self._lower_expr(value, instrs, self._ctx)
        instrs.append(ir.Set(target, expr, loc))

    def _lower_expr(
        self,
        expr: A.Expr,
        instrs: List[ir.Instruction],
        ctx: TypingContext,
        as_statement: bool = False,
    ) -> ir.Expr:
        loc = expr.loc
        if isinstance(expr, A.IntLit):
            return ir.IntConst(expr.value)
        if isinstance(expr, A.CharLit):
            return ir.IntConst(expr.value)
        if isinstance(expr, A.StrLit):
            return ir.StrConst(expr.value)
        if isinstance(expr, A.Name):
            if expr.ident == "NULL":
                return ir.NullConst()
            return ir.Lval(ir.Lvalue(ir.VarHost(self._resolve(expr.ident))))
        if isinstance(expr, A.Unary):
            if expr.op == "*":
                operand = self._lower_expr(expr.operand, instrs, ctx)
                return ir.Lval(ir.Lvalue(ir.MemHost(operand)))
            if expr.op == "&":
                lv = self._lower_lvalue(expr.operand, instrs, ctx)
                if isinstance(lv.host, ir.MemHost) and isinstance(lv.offset, ir.NoOffset):
                    return lv.host.addr  # &*e simplifies to e, as in CIL
                return ir.AddrOf(lv)
            operand = self._lower_expr(expr.operand, instrs, ctx)
            return ir.UnOp(expr.op, operand)
        if isinstance(expr, A.Binary):
            left = self._lower_expr(expr.left, instrs, ctx)
            right = self._lower_expr(expr.right, instrs, ctx)
            return ir.BinOp(expr.op, left, right)
        if isinstance(expr, A.Assign):
            return self._lower_assign_expr(expr, instrs, ctx, as_statement)
        if isinstance(expr, A.IncDec):
            return self._lower_incdec(expr, instrs, ctx, as_statement)
        if isinstance(expr, A.Call):
            args = [self._lower_expr(a, instrs, ctx) for a in expr.args]
            ret = self._return_type_of(expr.func)
            if as_statement or isinstance(ret, VoidType):
                instrs.append(ir.Call(None, expr.func, args, loc))
                return ir.IntConst(0)
            temp = self._fresh_temp(ret)
            instrs.append(ir.Call(temp, expr.func, args, loc))
            return ir.Lval(temp)
        if isinstance(expr, A.Index) or isinstance(expr, A.Member):
            return ir.Lval(self._lower_lvalue(expr, instrs, ctx))
        if isinstance(expr, A.Cast):
            if isinstance(expr.operand, A.Call):
                # (T)f(...) in expression position: type the temp with the
                # cast target so downstream typing sees the cast.
                args = [self._lower_expr(a, instrs, ctx) for a in expr.operand.args]
                temp = self._fresh_temp(self._return_type_of(expr.operand.func))
                instrs.append(
                    ir.Call(temp, expr.operand.func, args, loc, result_cast=expr.to_type)
                )
                return ir.CastE(expr.to_type, ir.Lval(temp))
            operand = self._lower_expr(expr.operand, instrs, ctx)
            return ir.CastE(expr.to_type, operand)
        if isinstance(expr, A.SizeofType):
            return ir.SizeOfE(expr.of_type)
        if isinstance(expr, A.Conditional):
            cond = self._lower_expr(expr.cond, instrs, ctx)
            then_instrs: List[ir.Instruction] = []
            then_val = self._lower_expr(expr.then, then_instrs, self._ctx)
            else_instrs: List[ir.Instruction] = []
            else_val = self._lower_expr(expr.otherwise, else_instrs, self._ctx)
            if then_instrs or else_instrs:
                raise LowerError(
                    "conditional expression with side-effecting branches "
                    "is outside the supported C subset",
                    loc,
                )
            return ir.CondE(cond, then_val, else_val)
        raise LowerError(f"cannot lower expression {expr!r}", loc)

    def _lower_assign_expr(
        self,
        expr: A.Assign,
        instrs: List[ir.Instruction],
        ctx: TypingContext,
        as_statement: bool,
    ) -> ir.Expr:
        target = self._lower_lvalue(expr.target, instrs, ctx)
        if expr.op == "=":
            self._lower_assignment(target, expr.value, instrs, expr.loc)
        else:
            value = self._lower_expr(expr.value, instrs, ctx)
            binop = expr.op[:-1]  # '+=' -> '+'
            current = ir.Lval(target)
            try:
                target_type = type_of_lvalue(self._ctx, target)
            except TypeError_:
                target_type = IntType()
            if is_pointer_like(target_type) and binop in ("+", "-"):
                new_value = ir.BinOp("ptradd", current, value)
            else:
                new_value = ir.BinOp(binop, current, value)
            instrs.append(ir.Set(target, new_value, expr.loc))
        return ir.Lval(target)

    def _lower_incdec(
        self,
        expr: A.IncDec,
        instrs: List[ir.Instruction],
        ctx: TypingContext,
        as_statement: bool,
    ) -> ir.Expr:
        target = self._lower_lvalue(expr.target, instrs, ctx)
        op = "+" if expr.op == "++" else "-"
        try:
            target_type = type_of_lvalue(self._ctx, target)
        except TypeError_:
            target_type = IntType()
        if is_pointer_like(target_type):
            update = ir.BinOp("ptradd", ir.Lval(target), ir.IntConst(1 if op == "+" else -1))
        else:
            update = ir.BinOp(op, ir.Lval(target), ir.IntConst(1))
        if expr.prefix or as_statement:
            instrs.append(ir.Set(target, update, expr.loc))
            return ir.Lval(target)
        temp = self._fresh_temp(target_type)
        instrs.append(ir.Set(temp, ir.Lval(target), expr.loc))
        instrs.append(ir.Set(target, update, expr.loc))
        return ir.Lval(temp)

    def _lower_lvalue(
        self, expr: A.Expr, instrs: List[ir.Instruction], ctx: TypingContext
    ) -> ir.Lvalue:
        if isinstance(expr, A.Name):
            return ir.Lvalue(ir.VarHost(self._resolve(expr.ident)))
        if isinstance(expr, A.Unary) and expr.op == "*":
            addr = self._lower_expr(expr.operand, instrs, ctx)
            return ir.Lvalue(ir.MemHost(addr))
        if isinstance(expr, A.Index):
            base_lv_expr = self._lower_expr(expr.base, instrs, ctx)
            index = self._lower_expr(expr.index, instrs, ctx)
            try:
                base_type = type_of_expr(self._ctx, base_lv_expr)
            except TypeError_:
                base_type = PointerType(pointee=IntType())
            if isinstance(base_type, ArrayType) and isinstance(base_lv_expr, ir.Lval):
                return base_lv_expr.lvalue.with_offset(ir.IndexOff(index))
            # Pointer indexing: p[i] is *(p + i); the logical memory model
            # types p + i like p.
            return ir.Lvalue(ir.MemHost(ir.BinOp("ptradd", base_lv_expr, index)))
        if isinstance(expr, A.Member):
            if expr.arrow:
                base = self._lower_expr(expr.base, instrs, ctx)
                return ir.Lvalue(ir.MemHost(base), ir.FieldOff(expr.fieldname))
            base_lv = self._lower_lvalue(expr.base, instrs, ctx)
            return base_lv.with_offset(ir.FieldOff(expr.fieldname))
        if isinstance(expr, A.Assign):
            # ((t = e)) used as an l-value target is not supported; but
            # an assignment used where an l-value is syntactically fine
            # in our subset only appears as a plain expression.
            lowered = self._lower_expr(expr, instrs, ctx)
            if isinstance(lowered, ir.Lval):
                return lowered.lvalue
        raise LowerError(f"expression is not an l-value: {expr!r}", expr.loc)


def lower_unit(
    unit: A.TranslationUnit, kept: Optional[Dict[int, object]] = None
) -> ir.Program:
    """Lower a parsed translation unit into a CIL-style :class:`Program`.

    ``kept`` maps the index of a definition (in the order of the
    definitions with a body) to None or to ``(old, head, tail)`` (see
    :meth:`_Lowerer._lower_definition`); each entry is replaced with the
    :class:`Lowered` record of that definition's lowering."""
    return _Lowerer(unit).lower(kept)


def _body_scope(old: Lowered, k: int) -> Dict[str, str]:
    """The scope of ``old``'s body before its top-level statement
    ``k``: each declaration before it names the local it declared
    first."""
    names = old.function.locals
    return {
        stmt.name: names[old.locals[i]][0]
        for i, stmt in enumerate(old.tree.body.stmts[:k])
        if isinstance(stmt, A.Decl)
    }


def _has_quals(sig: FuncType) -> bool:
    def any_quals(t: CType) -> bool:
        if t.quals:
            return True
        inner = getattr(t, "pointee", None) or getattr(t, "elem", None)
        return any_quals(inner) if inner is not None else False

    return any_quals(sig.ret) or any(any_quals(p) for p in sig.params)
