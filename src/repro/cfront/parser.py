"""Recursive-descent parser for the C subset.

Produces the surface AST of :mod:`repro.cfront.ast`.  Qualifier
annotations are accepted in two forms:

* gcc attribute syntax: ``int __attribute__((pos)) x;`` — this is what
  the paper's macros expand to;
* bare registered names: if the parser is constructed with
  ``qualifier_names={'pos'}``, then ``int pos x;`` parses directly,
  which keeps examples readable without a preprocessing step.

Postfix qualifier convention (paper section 2.1): a qualifier qualifies
the entire type written to its left, so ``int pos *`` is a pointer to
positive int, and ``int * unique`` is a unique pointer to int.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.cfront import ast as A
from repro.cfront.ctypes import (
    ArrayType,
    CType,
    FloatType,
    FuncType,
    IntType,
    PointerType,
    StructType,
    VoidType,
)
from repro.cfront.lexer import Token, tokenize
from repro.cfront.preprocess import preprocess

_TYPE_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "struct", "const",
}

_STORAGE_KEYWORDS = {"static", "extern", "register", "volatile", "inline"}

_POSTFIX_OPS = {"[", "(", ".", "->", "++", "--"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# Binary operator -> precedence level, loosest first; every level is
# left-associative.  Only punct tokens can carry these texts.
_BINARY_LEVELS = {
    op: level
    for level, ops in enumerate([
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ])
    for op in ops
}


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} at line {token.line}, column {token.col} (near {token.text!r})")
        self.token = token


class Parser:
    """``recover=True`` enables panic-mode error recovery: a syntax
    error inside a function body (or at top level) is recorded in
    ``self.errors`` and the parser synchronizes to the next ``;`` or
    ``}`` at the right nesting depth, so one run reports *every* syntax
    error in a unit instead of dying on the first.  With
    ``recover=False`` (the default) the first error raises, as before.
    """

    def __init__(
        self,
        source: str,
        qualifier_names: Iterable[str] = (),
        recover: bool = False,
        filename: str = "",
    ):
        self.tokens = tokenize(source, tolerant=recover)
        self.pos = 0
        # The Loc of the token asked for last: the nodes that start at
        # one token are built one after another, and share it.
        self._loc_index = -1
        self._last_loc = A.NO_LOC
        self.qualifier_names: Set[str] = set(qualifier_names)
        self.typedefs: dict = {}
        self.recover = recover
        self.filename = filename
        self.errors: List[ParseError] = []
        # (name, line, col of "{", line, col of "}") per definition, in
        # text order: see repro.cfront.bodies.
        self.bodies: List[Tuple[str, int, int, int, int]] = []
        self.defined: Set[str] = set()  # names of functions with a body

    # ------------------------------------------------------------ utilities

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            # _advance never moves past the eof token.
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _at(self, text: str, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.text == text and tok.kind in ("punct", "id")

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}", tok)
        return self._advance()

    def _expect_id(self) -> Token:
        tok = self._peek()
        if tok.kind != "id":
            raise ParseError("expected identifier", tok)
        return self._advance()

    def _loc(self, offset: int = 0) -> A.Loc:
        return self._loc_at(min(self.pos + offset, len(self.tokens) - 1))

    def _loc_at(self, index: int) -> A.Loc:
        if index != self._loc_index:
            tok = self.tokens[index]
            self._last_loc = A.Loc(tok.line, tok.col, self.filename)
            self._loc_index = index
        return self._last_loc

    # A literal the lexer accepts by shape but that has no value (``09``,
    # ``0x``, ``''``) is a syntax error at that token, so recovery can
    # report it and carry on.

    def _int_value(self, tok: Token) -> int:
        try:
            return tok.int_value
        except ValueError:
            raise ParseError("malformed integer constant", tok) from None

    def _char_value(self, tok: Token) -> int:
        try:
            return tok.char_value
        except ValueError:
            raise ParseError("malformed character constant", tok) from None

    # ---------------------------------------------------------- entry point

    def parse_translation_unit(self) -> A.TranslationUnit:
        unit = A.TranslationUnit()
        while self._peek().kind != "eof":
            try:
                self._parse_top_level(unit)
            except ParseError as err:
                if not self.recover:
                    raise
                self.errors.append(err)
                obs.incr("parse.recoveries")
                self._synchronize_top_level()
        unit.errors = list(self.errors)
        unit._bodies = self.bodies
        unit._typedefs = self.typedefs
        if obs.enabled():
            obs.incr("parse.units")
            obs.incr("parse.tokens", len(self.tokens))
            obs.incr("parse.functions", len(unit.functions))
        return unit

    def _parse_top_level(self, unit: A.TranslationUnit) -> None:
        if self._at(";"):
            self._advance()
            return
        self._skip_storage()
        if self._at("typedef"):
            self._parse_typedef()
            return
        if self._at("struct") and self._peek(2).text == "{":
            unit.structs.append(self._parse_struct_def())
            return
        if self._at("union") and self._peek(2).text == "{":
            unit.structs.append(self._parse_struct_def(is_union=True))
            return
        loc = self._loc()
        ctype = self._parse_type()
        name_tok = self._expect_id()
        name = name_tok.text
        if self._at("("):
            func = self._parse_function(ctype, name, loc)
            unit.functions.append(func)
            if func.body is not None:
                if name in self.defined:
                    # C11 6.9p5: one external definition per name.  The
                    # definition is complete, so record the error
                    # without resynchronizing past the next one.
                    err = ParseError(f"redefinition of function {name!r}", name_tok)
                    if not self.recover:
                        raise err
                    self.errors.append(err)
                    obs.incr("parse.recoveries")
                self.defined.add(name)
        else:
            unit.globals.extend(self._parse_global_tail(ctype, name, loc))

    def _skip_storage(self) -> None:
        while self._peek().kind == "id" and self._peek().text in _STORAGE_KEYWORDS:
            self._advance()

    # ------------------------------------------------------ panic-mode sync

    def _synchronize_statement(self) -> None:
        """After a syntax error inside a function body: skip to just
        past the next ``;`` at the current brace depth, or stop *at*
        the ``}`` that closes the enclosing block (the block loop
        consumes it).  Braces opened while skipping are matched so a
        mangled nested block does not desynchronize the parser."""
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if tok.text == "}" and depth == 0:
                return
            self._advance()
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
            elif tok.text == ";" and depth == 0:
                return

    def _synchronize_top_level(self) -> None:
        """After a syntax error at top level: skip past the next
        ``;`` outside braces or past the ``}`` closing the outermost
        open brace, whichever comes first — i.e. drop the rest of the
        broken declaration or function and resume at the next one."""
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            self._advance()
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth > 0:
                    depth -= 1
                if depth == 0:
                    return
            elif tok.text == ";" and depth == 0:
                return

    # --------------------------------------------------------------- types

    def _starts_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.kind == "id" and (
            tok.text in _TYPE_KEYWORDS
            or tok.text in _STORAGE_KEYWORDS
            or tok.text == "union"
            or tok.text in self.typedefs
        )

    def _parse_typedef(self) -> None:
        """``typedef <type> NAME;`` — the alias becomes usable as a
        base type for the rest of the translation unit."""
        self._expect("typedef")
        base = self._parse_type()
        name = self._expect_id().text
        base = self._parse_declarator_suffix(base)
        self._expect(";")
        self.typedefs[name] = base

    def _parse_type(self) -> CType:
        """Parse a type: base, then any mix of ``*``, attributes and
        registered qualifier names (postfix-qualifying)."""
        self._skip_storage()
        base = self._parse_base_type()
        return self._parse_type_suffix(base)

    def _parse_base_type(self) -> CType:
        tok = self._peek()
        if tok.kind != "id":
            raise ParseError("expected type", tok)
        if tok.text == "const":
            self._advance()
            return self._parse_base_type()
        if tok.text in ("struct", "union"):
            self._advance()
            name = self._expect_id().text
            return StructType(name=name)
        if tok.text in self.typedefs:
            self._advance()
            return self.typedefs[tok.text]
        if tok.text == "void":
            self._advance()
            return VoidType()
        if tok.text in ("float", "double"):
            self._advance()
            return FloatType(kind=tok.text)
        # Integer kinds, possibly multi-word (unsigned long, etc.).
        words = []
        while self._peek().kind == "id" and self._peek().text in (
            "unsigned", "signed", "short", "long", "int", "char",
        ):
            words.append(self._advance().text)
        if not words:
            raise ParseError("expected type", tok)
        kind = " ".join(w for w in words if w != "signed") or "int"
        return IntType(kind=kind)

    def _parse_type_suffix(self, current: CType) -> CType:
        while True:
            if self._at("*"):
                self._advance()
                current = PointerType(pointee=current)
            elif self._at("const"):
                self._advance()
            elif self._peek().text == "__attribute__":
                for q in self._parse_attribute():
                    current = current.with_quals([q])
            elif (
                self._peek().kind == "id"
                and self._peek().text in self.qualifier_names
            ):
                current = current.with_quals([self._advance().text])
            else:
                return current

    def _parse_attribute(self) -> List[str]:
        self._expect("__attribute__")
        self._expect("(")
        self._expect("(")
        names = [self._expect_id().text]
        while self._at(","):
            self._advance()
            names.append(self._expect_id().text)
        self._expect(")")
        self._expect(")")
        return names

    # -------------------------------------------------------------- structs

    def _parse_struct_def(self, is_union: bool = False) -> A.StructDef:
        loc = self._loc()
        self._expect("union" if is_union else "struct")
        name = self._expect_id().text
        self._expect("{")
        fields: List[Tuple[str, CType]] = []
        while not self._at("}"):
            ftype = self._parse_type()
            fname = self._expect_id().text
            ftype = self._parse_declarator_suffix(ftype)
            fields.append((fname, ftype))
            while self._at(","):
                self._advance()
                extra_name = self._expect_id().text
                fields.append((extra_name, ftype))
            self._expect(";")
        self._expect("}")
        self._expect(";")
        return A.StructDef(name=name, fields=fields, is_union=is_union, loc=loc)

    def _parse_declarator_suffix(self, ctype: CType) -> CType:
        """Array suffixes after a declared name: ``x[10]`` or ``x[]``."""
        while self._at("["):
            self._advance()
            size = None
            if not self._at("]"):
                size_tok = self._peek()
                if size_tok.kind != "int":
                    raise ParseError("expected constant array size", size_tok)
                size = self._int_value(self._advance())
            self._expect("]")
            ctype = ArrayType(elem=ctype, size=size)
        return ctype

    # ------------------------------------------------------------ functions

    def _parse_function(self, ret: CType, name: str, loc: A.Loc) -> A.FuncDef:
        self._expect("(")
        params: List[A.Param] = []
        varargs = False
        if not self._at(")"):
            while True:
                if self._at("..."):
                    self._advance()
                    varargs = True
                    break
                if self._at("void") and self._peek(1).text == ")":
                    self._advance()
                    break
                ptype = self._parse_type()
                pname = ""
                if self._peek().kind == "id":
                    pname = self._advance().text
                ptype = self._parse_declarator_suffix(ptype)
                params.append(A.Param(name=pname, ctype=ptype))
                if self._at(","):
                    self._advance()
                    continue
                break
        self._expect(")")
        body: Optional[A.Block] = None
        if self._at("{"):
            open_ = self._peek()
            body = self._parse_block()
            close = self.tokens[self.pos - 1]
            self.bodies.append((name, open_.line, open_.col, close.line, close.col))
        else:
            self._expect(";")
        return A.FuncDef(
            name=name, ret=ret, params=params, varargs=varargs, body=body, loc=loc
        )

    def _parse_global_tail(
        self, ctype: CType, name: str, loc: A.Loc
    ) -> List[A.GlobalDecl]:
        decls = []
        ctype = self._parse_declarator_suffix(ctype)
        init = None
        if self._at("="):
            self._advance()
            init = self._parse_assignment_expr()
        decls.append(A.GlobalDecl(name=name, ctype=ctype, init=init, loc=loc))
        while self._at(","):
            self._advance()
            extra = self._expect_id().text
            extra_type = self._parse_declarator_suffix(ctype.strip_quals().with_quals(ctype.quals))
            extra_init = None
            if self._at("="):
                self._advance()
                extra_init = self._parse_assignment_expr()
            decls.append(A.GlobalDecl(name=extra, ctype=extra_type, init=extra_init, loc=loc))
        self._expect(";")
        return decls

    # ------------------------------------------------------------ statements

    def _parse_block(self) -> A.Block:
        loc = self._loc()
        self._expect("{")
        stmts: List[A.Stmt] = []
        while not self._at("}"):
            if self._peek().kind == "eof":
                err = ParseError("unexpected end of file in block", self._peek())
                if not self.recover:
                    raise err
                self.errors.append(err)
                return A.Block(stmts=stmts, loc=loc)
            if not self.recover:
                stmts.append(self._parse_statement())
                continue
            try:
                stmts.append(self._parse_statement())
            except ParseError as err:
                self.errors.append(err)
                self._synchronize_statement()
        self._expect("}")
        return A.Block(stmts=stmts, loc=loc)

    def _parse_statement(self) -> A.Stmt:
        loc = self._loc()
        tok = self._peek()
        if tok.text == ";":  # the empty statement
            self._advance()
            return A.Block(stmts=[], loc=loc)
        if tok.text == "{":
            return self._parse_block()
        if tok.text == "if":
            return self._parse_if()
        if tok.text == "while":
            self._advance()
            self._expect("(")
            cond = self._parse_expr()
            self._expect(")")
            body = self._parse_stmt_as_block()
            return A.While(cond=cond, body=body, loc=loc)
        if tok.text == "do":
            self._advance()
            body = self._parse_stmt_as_block()
            self._expect("while")
            self._expect("(")
            cond = self._parse_expr()
            self._expect(")")
            self._expect(";")
            return A.DoWhile(cond=cond, body=body, loc=loc)
        if tok.text == "for":
            return self._parse_for()
        if tok.text == "switch":
            return self._parse_switch()
        if tok.text == "return":
            self._advance()
            value = None
            if not self._at(";"):
                value = self._parse_expr()
            self._expect(";")
            return A.Return(value=value, loc=loc)
        if tok.text == "break":
            self._advance()
            self._expect(";")
            return A.Break(loc=loc)
        if tok.text == "continue":
            self._advance()
            self._expect(";")
            return A.Continue(loc=loc)
        if tok.text == "goto":
            self._advance()
            label = self._expect_id().text
            self._expect(";")
            return A.Goto(label=label, loc=loc)
        if (
            tok.kind == "id"
            and self._peek(1).text == ":"
            and self._peek(1).kind == "punct"
            and not self._starts_type()
        ):
            name = self._advance().text
            self._advance()  # ':'
            return A.Label(name=name, loc=loc)
        if self._starts_type():
            return self._parse_decl_statement()
        expr = self._parse_expr()
        self._expect(";")
        return A.ExprStmt(expr=expr, loc=loc)

    def _parse_stmt_as_block(self) -> A.Block:
        stmt = self._parse_statement()
        if isinstance(stmt, A.Block):
            return stmt
        return A.Block(stmts=[stmt], loc=stmt.loc)

    def _parse_if(self) -> A.If:
        loc = self._loc()
        self._expect("if")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then = self._parse_stmt_as_block()
        otherwise = None
        if self._at("else"):
            self._advance()
            otherwise = self._parse_stmt_as_block()
        return A.If(cond=cond, then=then, otherwise=otherwise, loc=loc)

    def _parse_for(self) -> A.For:
        loc = self._loc()
        self._expect("for")
        self._expect("(")
        init: Optional[A.Stmt] = None
        if not self._at(";"):
            if self._starts_type():
                init = self._parse_decl_statement()
            else:
                init = A.ExprStmt(expr=self._parse_expr(), loc=loc)
                self._expect(";")
        else:
            self._advance()
        cond = None
        if not self._at(";"):
            cond = self._parse_expr()
        self._expect(";")
        step = None
        if not self._at(")"):
            step = self._parse_expr()
        self._expect(")")
        body = self._parse_stmt_as_block()
        return A.For(init=init, cond=cond, step=step, body=body, loc=loc)

    def _parse_switch(self) -> A.Switch:
        loc = self._loc()
        self._expect("switch")
        self._expect("(")
        scrutinee = self._parse_expr()
        self._expect(")")
        self._expect("{")
        cases: list = []
        while not self._at("}"):
            if self._at("case"):
                self._advance()
                sign = 1
                if self._at("-"):
                    self._advance()
                    sign = -1
                value_tok = self._peek()
                if value_tok.kind == "int":
                    value = sign * self._int_value(self._advance())
                elif value_tok.kind == "char":
                    value = sign * self._char_value(self._advance())
                else:
                    raise ParseError("expected constant case label", value_tok)
                self._expect(":")
            elif self._at("default"):
                self._advance()
                self._expect(":")
                value = None
            else:
                raise ParseError("expected case or default label", self._peek())
            stmts: list = []
            while not (self._at("case") or self._at("default") or self._at("}")):
                stmts.append(self._parse_statement())
            cases.append(A.SwitchCase(value=value, stmts=stmts))
        self._expect("}")
        return A.Switch(scrutinee=scrutinee, cases=cases, loc=loc)

    def _parse_decl_statement(self) -> A.Stmt:
        loc = self._loc()
        ctype = self._parse_type()
        name = self._expect_id().text
        ctype = self._parse_declarator_suffix(ctype)
        init = None
        if self._at("="):
            self._advance()
            init = self._parse_assignment_expr()
        decls = [A.Decl(name=name, ctype=ctype, init=init, loc=loc)]
        while self._at(","):
            self._advance()
            extra = self._expect_id().text
            extra_type = self._parse_declarator_suffix(ctype)
            extra_init = None
            if self._at("="):
                self._advance()
                extra_init = self._parse_assignment_expr()
            decls.append(A.Decl(name=extra, ctype=extra_type, init=extra_init, loc=loc))
        self._expect(";")
        if len(decls) == 1:
            return decls[0]
        return A.Block(stmts=decls, loc=loc)

    # ----------------------------------------------------------- expressions

    def _parse_expr(self) -> A.Expr:
        expr = self._parse_assignment_expr()
        while self._at(","):
            self._advance()
            expr = self._parse_assignment_expr()
        return expr

    def _parse_assignment_expr(self) -> A.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            loc = self._loc()
            self._advance()
            right = self._parse_assignment_expr()
            return A.Assign(op=tok.text, target=left, value=right, loc=loc)
        return left

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(0)
        if self._at("?"):
            loc = self._loc()
            self._advance()
            then = self._parse_expr()
            self._expect(":")
            otherwise = self._parse_assignment_expr()
            return A.Conditional(cond=cond, then=then, otherwise=otherwise, loc=loc)
        return cond

    def _parse_binary(self, min_level: int) -> A.Expr:
        """Precedence climbing: fold operators of level >= ``min_level``
        into ``left``; each right operand takes only tighter ones."""
        left = self._parse_unary()
        while True:
            tok = self.tokens[self.pos]
            level = _BINARY_LEVELS.get(tok.text, -1)
            if level < min_level:
                return left
            loc = self._loc_at(self.pos)
            self.pos += 1
            right = self._parse_binary(level + 1)
            left = A.Binary(op=tok.text, left=left, right=right, loc=loc)

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        loc = self._loc_at(self.pos)
        if tok.kind == "punct" and tok.text in ("-", "!", "~", "*", "&", "+"):
            self._advance()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return A.Unary(op=tok.text, operand=operand, loc=loc)
        if tok.kind == "punct" and tok.text in ("++", "--"):
            self._advance()
            target = self._parse_unary()
            return A.IncDec(op=tok.text, target=target, prefix=True, loc=loc)
        if tok.kind == "id" and tok.text == "sizeof":
            self._advance()
            self._expect("(")
            if self._starts_type():
                of_type = self._parse_type()
                self._expect(")")
                return A.SizeofType(of_type=of_type, loc=loc)
            inner = self._parse_expr()
            self._expect(")")
            # sizeof(expr): treat as an opaque integer; the value is
            # irrelevant to qualifier checking.
            del inner
            return A.SizeofType(of_type=None, loc=loc)
        if tok.text == "(" and self._starts_type(1):
            self._advance()
            to_type = self._parse_type()
            self._expect(")")
            operand = self._parse_unary()
            return A.Cast(to_type=to_type, operand=operand, loc=loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.text not in _POSTFIX_OPS:
                return expr
            loc = self._loc()
            if tok.text == "[":
                self._advance()
                index = self._parse_expr()
                self._expect("]")
                expr = A.Index(base=expr, index=index, loc=loc)
            elif tok.text == "(" and isinstance(expr, A.Name):
                self._advance()
                args: List[A.Expr] = []
                if not self._at(")"):
                    args.append(self._parse_assignment_expr())
                    while self._at(","):
                        self._advance()
                        args.append(self._parse_assignment_expr())
                self._expect(")")
                expr = A.Call(func=expr.ident, args=args, loc=expr.loc)
            elif tok.text == "." or tok.text == "->":
                self._advance()
                fieldname = self._expect_id().text
                expr = A.Member(
                    base=expr, fieldname=fieldname, arrow=tok.text == "->", loc=loc
                )
            elif tok.text == "++" or tok.text == "--":
                self._advance()
                expr = A.IncDec(op=tok.text, target=expr, prefix=False, loc=loc)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._peek()
        loc = self._loc_at(self.pos)
        if tok.kind == "int":
            self._advance()
            return A.IntLit(value=self._int_value(tok), loc=loc)
        if tok.kind == "char":
            self._advance()
            return A.CharLit(value=self._char_value(tok), loc=loc)
        if tok.kind == "string":
            self._advance()
            # Adjacent string literals concatenate, as in C.
            value = tok.string_value
            while self._peek().kind == "string":
                value += self._advance().string_value
            return A.StrLit(value=value, loc=loc)
        if tok.kind == "id":
            self._advance()
            return A.Name(ident=tok.text, loc=loc)
        if tok.text == "(":
            self._advance()
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise ParseError("expected expression", tok)


def parse_c(
    source: str,
    qualifier_names: Iterable[str] = (),
    run_preprocessor: bool = True,
    recover: bool = False,
    filename: str = "",
) -> A.TranslationUnit:
    """Parse C source into a :class:`TranslationUnit`.

    When ``run_preprocessor`` is true, object-like macros are expanded
    first, so qualifier macros (``#define pos __attribute__((pos))``)
    work exactly as in the paper's setup.

    With ``recover=True``, syntax errors do not raise: the parser
    panic-mode-synchronizes past each one and the returned unit carries
    every diagnostic in ``unit.errors`` — so a single ``check`` run can
    report all syntax errors in a file, not just the first.
    """
    if run_preprocessor:
        source = preprocess(source).text
    parser = Parser(
        source, qualifier_names=qualifier_names, recover=recover, filename=filename
    )
    return parser.parse_translation_unit()
