"""Parser for the qualifier-definition language.

The concrete syntax is exactly that of the paper's figures 1, 3, 4, 5,
7 and 12; those figures parse verbatim (see the library module, which
stores them as source text).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cfront.lexer import Token, tokenize
from repro.core.qualifiers import ast as Q

_BLOCK_KEYWORDS = {"case", "restrict", "assign", "disallow", "ondecl", "invariant"}
_CMP_OPS = {">", "<", ">=", "<=", "==", "!="}
_PATTERN_BINOPS = {"+", "-", "*", "/", "%", "<<", ">>", "&", "^",
                   "==", "!=", "<", ">", "<=", ">=", "&&"}
_PATTERN_UNOPS = {"-", "!", "~"}
_BASE_TYPES = {"int", "char", "long", "short", "unsigned", "void"}


class QualParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(
            f"{message} at line {token.line}, column {token.col} (near {token.text!r})"
        )
        self.token = token


class _QualParser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    # ------------------------------------------------------------- helpers

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            # _advance never moves past the eof token.
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _at(self, text: str, offset: int = 0) -> bool:
        return self._peek(offset).text == text

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._peek()
        if tok.text != text:
            raise QualParseError(f"expected {text!r}", tok)
        return self._advance()

    def _expect_id(self) -> Token:
        tok = self._peek()
        if tok.kind != "id":
            raise QualParseError("expected identifier", tok)
        return self._advance()

    def _int_value(self, tok: Token) -> int:
        try:
            return tok.int_value
        except ValueError:
            raise QualParseError("malformed integer constant", tok) from None

    def _at_def_start(self) -> bool:
        return self._peek().text in ("value", "ref") and self._at("qualifier", 1)

    # --------------------------------------------------------------- types

    def _parse_dtype(self) -> Q.DType:
        tok = self._expect_id()
        if tok.text in _BASE_TYPES:
            if tok.text == "void":
                base: Q.DType = Q.DVoid()
            else:
                base = Q.DInt(kind=tok.text)
        else:
            base = Q.DTypeVar(name=tok.text)
        while self._at("*"):
            self._advance()
            base = Q.DPtr(inner=base)
        return base

    # ------------------------------------------------------------ toplevel

    def parse_all(self) -> List[Q.QualifierDef]:
        defs = []
        while self._peek().kind != "eof":
            defs.append(self.parse_definition())
        return defs

    def parse_definition(self) -> Q.QualifierDef:
        start = self.pos
        kind_tok = self._advance()
        if kind_tok.text not in ("value", "ref"):
            raise QualParseError("expected 'value' or 'ref'", kind_tok)
        self._expect("qualifier")
        name = self._expect_id().text
        self._expect("(")
        dtype = self._parse_dtype()
        classifier_tok = self._expect_id()
        try:
            classifier = Q.Classifier(classifier_tok.text)
        except ValueError:
            raise QualParseError(
                "expected classifier (Expr, Const, LValue, Var)", classifier_tok
            ) from None
        var = self._expect_id().text
        self._expect(")")

        qdef = Q.QualifierDef(
            name=name,
            kind=kind_tok.text,
            dtype=dtype,
            classifier=classifier,
            var=var,
        )
        while not self._at_def_start() and self._peek().kind != "eof":
            self._parse_block(qdef)
        end = self.pos
        qdef.source = " ".join(t.text for t in self.tokens[start:end])
        self._validate(qdef, kind_tok)
        return qdef

    def _validate(self, qdef: Q.QualifierDef, tok: Token) -> None:
        if qdef.is_value and (qdef.assigns or qdef.disallow or qdef.ondecl):
            raise QualParseError(
                f"value qualifier {qdef.name!r} may not use assign/disallow/ondecl",
                tok,
            )
        if qdef.is_ref and (qdef.cases or qdef.restricts):
            raise QualParseError(
                f"ref qualifier {qdef.name!r} may not use case/restrict blocks",
                tok,
            )
        if qdef.is_ref and qdef.classifier not in (
            Q.Classifier.LVALUE,
            Q.Classifier.VAR,
        ):
            raise QualParseError(
                f"ref qualifier {qdef.name!r} must apply to LValue or Var",
                tok,
            )

    # ---------------------------------------------------------------- blocks

    def _parse_block(self, qdef: Q.QualifierDef) -> None:
        tok = self._peek()
        if tok.text == "case":
            self._advance()
            subject = self._expect_id().text
            if subject != qdef.var:
                raise QualParseError(
                    f"case subject {subject!r} must be the qualifier variable {qdef.var!r}",
                    tok,
                )
            self._expect("of")
            qdef.cases.extend(
                Q.CaseClause(*c) for c in self._parse_clause_list(qdef)
            )
        elif tok.text == "restrict":
            self._advance()
            qdef.restricts.extend(
                Q.RestrictClause(*c) for c in self._parse_clause_list(qdef)
            )
        elif tok.text == "assign":
            self._advance()
            subject = self._expect_id().text
            if subject != qdef.var:
                raise QualParseError(
                    f"assign subject {subject!r} must be the qualifier variable {qdef.var!r}",
                    tok,
                )
            qdef.assigns.extend(
                Q.AssignClause(*c) for c in self._parse_clause_list(qdef)
            )
        elif tok.text == "disallow":
            self._advance()
            qdef.disallow = self._parse_disallow(qdef)
        elif tok.text == "ondecl":
            self._advance()
            qdef.ondecl = True
        elif tok.text == "invariant":
            self._advance()
            qdef.invariant = self._parse_iformula()
        else:
            raise QualParseError("expected a qualifier block", tok)

    def _parse_disallow(self, qdef: Q.QualifierDef) -> Q.DisallowClause:
        forbid_ref = False
        forbid_addr = False
        while True:
            if self._at("&"):
                self._advance()
                name = self._expect_id().text
                if name != qdef.var:
                    raise QualParseError(
                        f"disallow must mention the qualifier variable {qdef.var!r}",
                        self._peek(),
                    )
                forbid_addr = True
            else:
                name = self._expect_id().text
                if name != qdef.var:
                    raise QualParseError(
                        f"disallow must mention the qualifier variable {qdef.var!r}",
                        self._peek(),
                    )
                forbid_ref = True
            if self._at("|"):
                self._advance()
                continue
            break
        return Q.DisallowClause(
            forbid_reference=forbid_ref, forbid_address_of=forbid_addr
        )

    # --------------------------------------------------------------- clauses

    def _parse_clause_list(
        self, qdef: Q.QualifierDef
    ) -> List[Tuple[Tuple[Q.VarDecl, ...], Q.Pattern, Q.Pred]]:
        clauses = [self._parse_clause(qdef)]
        while self._at("|"):
            self._advance()
            clauses.append(self._parse_clause(qdef))
        return clauses

    def _parse_clause(
        self, qdef: Q.QualifierDef
    ) -> Tuple[Tuple[Q.VarDecl, ...], Q.Pattern, Q.Pred]:
        decls: List[Q.VarDecl] = []
        if self._at("decl"):
            self._advance()
            decls.extend(self._parse_decl_group())
            while self._at(","):
                # Either another name sharing the previous dtype, or a new
                # dtype group.  Disambiguate by what follows the name.
                self._advance()
                if self._looks_like_decl_group():
                    decls.extend(self._parse_decl_group())
                else:
                    name = self._expect_id().text
                    decls.append(
                        Q.VarDecl(name, decls[-1].dtype, decls[-1].classifier)
                    )
            self._expect(":")
        pattern = self._parse_pattern(qdef, decls)
        predicate: Q.Pred = Q.PredTrue()
        if self._at(","):
            self._advance()
            self._expect("where")
            predicate = self._parse_pred()
        return tuple(decls), pattern, predicate

    def _looks_like_decl_group(self) -> bool:
        """After a comma in a decl list: is this ``<type> <Classifier> <name>``?"""
        offset = 0
        if self._peek(offset).kind != "id":
            return False
        offset += 1
        while self._at("*", offset):
            offset += 1
        tok = self._peek(offset)
        return tok.kind == "id" and tok.text in (c.value for c in Q.Classifier)

    def _parse_decl_group(self) -> List[Q.VarDecl]:
        dtype = self._parse_dtype()
        classifier_tok = self._expect_id()
        try:
            classifier = Q.Classifier(classifier_tok.text)
        except ValueError:
            raise QualParseError("expected classifier", classifier_tok) from None
        names = [self._expect_id().text]
        # Further names after commas are handled by the caller (it must
        # disambiguate new decl groups), so parse only one name here; the
        # common form `decl int Expr E1, E2` is completed by the caller.
        return [Q.VarDecl(n, dtype, classifier) for n in names]

    # -------------------------------------------------------------- patterns

    def _parse_pattern(
        self, qdef: Q.QualifierDef, decls: List[Q.VarDecl]
    ) -> Q.Pattern:
        tok = self._peek()
        if tok.text == "new":
            self._advance()
            return Q.PNew()
        if tok.text == "NULL":
            self._advance()
            return Q.PNull()
        if tok.text == "*":
            self._advance()
            return Q.PDeref(self._expect_id().text)
        if tok.text == "&":
            self._advance()
            return Q.PAddrOf(self._expect_id().text)
        if tok.kind == "punct" and tok.text in _PATTERN_UNOPS:
            self._advance()
            return Q.PUnop(tok.text, self._expect_id().text)
        name = self._expect_id().text
        nxt = self._peek()
        if nxt.kind == "punct" and nxt.text in _PATTERN_BINOPS:
            # Binary pattern — but a ',' (where) or block keyword also ends
            # a bare-variable pattern, and those are not in the binop set.
            self._advance()
            right = self._expect_id().text
            return Q.PBinop(nxt.text, name, right)
        return Q.PVar(name)

    # ------------------------------------------------------------ predicates

    def _parse_pred(self) -> Q.Pred:
        return self._parse_pred_or()

    def _parse_pred_or(self) -> Q.Pred:
        left = self._parse_pred_and()
        while self._at("||"):
            self._advance()
            left = Q.PredOr(left, self._parse_pred_and())
        return left

    def _parse_pred_and(self) -> Q.Pred:
        left = self._parse_pred_atom()
        while self._at("&&"):
            self._advance()
            left = Q.PredAnd(left, self._parse_pred_atom())
        return left

    def _parse_pred_atom(self) -> Q.Pred:
        tok = self._peek()
        if tok.text == "!":
            self._advance()
            return Q.PredNot(self._parse_pred_atom())
        if tok.text == "(":
            # Could be a parenthesized predicate or an arithmetic group;
            # try predicate first and fall back to comparison.
            save = self.pos
            try:
                self._advance()
                inner = self._parse_pred()
                self._expect(")")
                return inner
            except QualParseError:
                self.pos = save
                return self._parse_cmp()
        if tok.kind == "id" and self._at("(", 1):
            qual = self._advance().text
            self._expect("(")
            var = self._expect_id().text
            self._expect(")")
            return Q.PredQual(qual, var)
        return self._parse_cmp()

    def _parse_cmp(self) -> Q.Pred:
        left = self._parse_aexpr()
        tok = self._peek()
        if tok.text not in _CMP_OPS:
            raise QualParseError("expected comparison operator", tok)
        self._advance()
        right = self._parse_aexpr()
        return Q.PredCmp(tok.text, left, right)

    def _parse_aexpr(self) -> Q.AExpr:
        left = self._parse_aterm()
        while self._peek().text in ("+", "-"):
            op = self._advance().text
            left = Q.ABin(op, left, self._parse_aterm())
        return left

    def _parse_aterm(self) -> Q.AExpr:
        left = self._parse_afactor()
        while self._peek().text in ("*", "/", "%"):
            op = self._advance().text
            left = Q.ABin(op, left, self._parse_afactor())
        return left

    def _parse_afactor(self) -> Q.AExpr:
        tok = self._peek()
        if tok.kind == "int":
            self._advance()
            return Q.ANum(self._int_value(tok))
        if tok.text == "NULL":
            self._advance()
            return Q.ANull()
        if tok.text == "-":
            self._advance()
            if self._peek().kind == "int":
                # Fold ``-k`` into one number: ``0 - k`` reaches the
                # prover as a subtraction term, which refuted ``C != -1``.
                return Q.ANum(-self._int_value(self._advance()))
            inner = self._parse_afactor()
            return Q.ABin("-", Q.ANum(0), inner)
        if tok.text == "(":
            self._advance()
            inner = self._parse_aexpr()
            self._expect(")")
            return inner
        if tok.kind == "id":
            self._advance()
            return Q.AVar(tok.text)
        raise QualParseError("expected arithmetic operand", tok)

    # ------------------------------------------------------------ invariants

    def _parse_iformula(self) -> Q.IFormula:
        return self._parse_implies()

    def _parse_implies(self) -> Q.IFormula:
        left = self._parse_ior()
        if self._at("=") and self._at(">", 1) and self._adjacent(0, 1):
            self._advance()
            self._advance()
            return Q.IImplies(left, self._parse_implies())
        return left

    def _adjacent(self, i: int, j: int) -> bool:
        a, b = self._peek(i), self._peek(j)
        return a.line == b.line and a.col + len(a.text) == b.col

    def _parse_ior(self) -> Q.IFormula:
        left = self._parse_iand()
        while self._at("||"):
            self._advance()
            left = Q.IOr(left, self._parse_iand())
        return left

    def _parse_iand(self) -> Q.IFormula:
        left = self._parse_iatom()
        while self._at("&&"):
            self._advance()
            left = Q.IAnd(left, self._parse_iatom())
        return left

    def _parse_iatom(self) -> Q.IFormula:
        tok = self._peek()
        if tok.text == "!":
            self._advance()
            return Q.INot(self._parse_iatom())
        if tok.text == "forall":
            self._advance()
            dtype = self._parse_dtype()
            var = self._expect_id().text
            self._expect(":")
            body = self._parse_implies()
            return Q.IForall(var, dtype, body)
        if tok.text == "isHeapLoc":
            self._advance()
            self._expect("(")
            term = self._parse_iterm()
            self._expect(")")
            return Q.IIsHeapLoc(term)
        if tok.text == "(":
            self._advance()
            inner = self._parse_iformula()
            self._expect(")")
            return inner
        return self._parse_icmp()

    def _parse_icmp(self) -> Q.IFormula:
        left = self._parse_iarith()
        tok = self._peek()
        op = tok.text
        if op == "=" and not (self._at(">", 1) and self._adjacent(0, 1)):
            op = "=="
            self._advance()
        elif op in _CMP_OPS:
            self._advance()
        else:
            raise QualParseError("expected comparison in invariant", tok)
        right = self._parse_iarith()
        return Q.ICmp(op, left, right)

    def _parse_iarith(self) -> Q.ITerm:
        left = self._parse_iarith_term()
        while self._peek().text in ("+", "-"):
            op = self._advance().text
            left = Q.IBin(op, left, self._parse_iarith_term())
        return left

    def _parse_iarith_term(self) -> Q.ITerm:
        left = self._parse_iterm()
        while self._peek().text in ("*", "/", "%"):
            # `*` only binds as multiplication when something follows on
            # the same construct; dereference `*P` is prefix and handled
            # in _parse_iterm, so an infix `*` here is unambiguous.
            op = self._advance().text
            left = Q.IBin(op, left, self._parse_iterm())
        return left

    def _parse_iterm(self) -> Q.ITerm:
        tok = self._peek()
        if tok.text == "value" and self._at("(", 1):
            self._advance()
            self._expect("(")
            var = self._expect_id().text
            self._expect(")")
            return Q.IValue(var)
        if tok.text == "location" and self._at("(", 1):
            self._advance()
            self._expect("(")
            var = self._expect_id().text
            self._expect(")")
            return Q.ILocation(var)
        if tok.text == "*":
            self._advance()
            return Q.IDeref(self._parse_iterm())
        if tok.text == "NULL":
            self._advance()
            return Q.INull()
        if tok.kind == "int":
            self._advance()
            return Q.INum(self._int_value(tok))
        if tok.text == "-" and self._peek(1).kind == "int":
            self._advance()
            return Q.INum(-self._int_value(self._advance()))
        if tok.kind == "id":
            self._advance()
            return Q.IVar(tok.text)
        raise QualParseError("expected invariant term", tok)


def parse_qualifier(source: str) -> Q.QualifierDef:
    """Parse exactly one qualifier definition."""
    parser = _QualParser(source)
    qdef = parser.parse_definition()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise QualParseError("unexpected trailing input", trailing)
    return qdef


def parse_qualifiers(source: str) -> List[Q.QualifierDef]:
    """Parse a sequence of qualifier definitions."""
    return _QualParser(source).parse_all()
