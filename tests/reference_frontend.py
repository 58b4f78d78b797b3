"""The C front end's previous lexer and expression parser, kept only as
test oracles.

``ReferenceLexer`` is the character-stepping lexer that the
compiled-regex ``repro.cfront.lexer.Lexer`` replaced;
``ReferenceParser`` is ``repro.cfront.parser.Parser`` driven by that
lexer, with the per-level binary-operator recursion and the postfix
loop that precedence climbing replaced.  ``tests/test_lexer_differential.py``
checks that the current front end produces the same tokens, positions,
``LexError``s and ASTs.  ``reference_expand`` is the preprocessor's
macro expansion before the defined-names alternation replaced its
callback on every word (``tests/test_preprocess.py``).  Do not use
these outside the tests.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.cfront import ast as A
from repro.cfront.lexer import LexError, Token
from repro.cfront.parser import Parser
from repro.cfront.preprocess import preprocess

# Longest-match-first punctuation table.
_PUNCTS = [
    "<<=", ">>=", "...",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":", "#",
]


class ReferenceLexer:
    """Tokenize ``source`` into a list of :class:`Token`.

    Comments (``//`` and ``/* */``) are skipped.  Preprocessor lines are
    *not* handled here; run :func:`repro.cfront.preprocess.preprocess`
    first (a stray ``#`` becomes a punct token and will be rejected by
    the parser).
    """

    def __init__(self, source: str, tolerant: bool = False):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        # Tolerant mode (used by panic-mode parsing): a malformed token
        # — stray byte, unterminated literal — is emitted as a punct
        # token instead of raising, so the parser can flag it as a
        # syntax error, synchronize, and keep going.
        self.tolerant = tolerant

    def tokens(self) -> List[Token]:
        toks = []
        while True:
            try:
                tok = self._next()
            except LexError:
                if not self.tolerant:
                    raise
                line, col = self.line, self.col
                ch = self._peek() or ";"
                self._advance()
                tok = Token("punct", ch, line, col)
            toks.append(tok)
            if tok.kind == "eof":
                return toks

    # -- internals ---------------------------------------------------

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    def _next(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        if self.pos >= len(self.source):
            return Token("eof", "", line, col)
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            start = self.pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            return Token("id", self.source[start : self.pos], line, col)

        if ch.isdigit():
            start = self.pos
            if ch == "0" and self._peek(1) in ("x", "X"):
                self._advance(2)
                while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                    self._advance()
            else:
                while self._peek().isdigit():
                    self._advance()
            # Swallow integer suffixes (u/l combinations).  The explicit
            # truthiness check matters: '"" in "uUlL"' is True in Python.
            while self._peek() and self._peek() in "uUlL":
                self._advance()
            text = self.source[start : self.pos]
            text = text.rstrip("uUlL")
            return Token("int", text, line, col)

        if ch == '"':
            start = self.pos
            self._advance()
            while self._peek() and self._peek() != '"':
                if self._peek() == "\\":
                    self._advance()
                self._advance()
            if not self._peek():
                raise self._error("unterminated string literal")
            self._advance()
            return Token("string", self.source[start : self.pos], line, col)

        if ch == "'":
            start = self.pos
            self._advance()
            while self._peek() and self._peek() != "'":
                if self._peek() == "\\":
                    self._advance()
                self._advance()
            if not self._peek():
                raise self._error("unterminated character constant")
            self._advance()
            return Token("char", self.source[start : self.pos], line, col)

        for punct in _PUNCTS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token("punct", punct, line, col)

        raise self._error(f"unexpected character {ch!r}")


def reference_tokenize(source: str, tolerant: bool = False) -> List[Token]:
    return ReferenceLexer(source, tolerant=tolerant).tokens()


class ReferenceParser(Parser):
    def __init__(self, source: str, qualifier_names=(), recover: bool = False,
                 filename: str = ""):
        super().__init__(source, qualifier_names, recover, filename)
        self.tokens = reference_tokenize(source, tolerant=recover)

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    _BINARY_LEVELS = [
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
    ]

    def _parse_binary(self, level: int) -> A.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        ops = self._BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self._peek().kind == "punct" and self._peek().text in ops:
            tok = self._advance()
            right = self._parse_binary(level + 1)
            left = A.Binary(
                op=tok.text, left=left, right=right, loc=A.Loc(tok.line, tok.col, self.filename)
            )
        return left

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            loc = A.Loc(tok.line, tok.col, self.filename)
            if self._at("["):
                self._advance()
                index = self._parse_expr()
                self._expect("]")
                expr = A.Index(base=expr, index=index, loc=loc)
            elif self._at("(") and isinstance(expr, A.Name):
                self._advance()
                args: List[A.Expr] = []
                if not self._at(")"):
                    args.append(self._parse_assignment_expr())
                    while self._at(","):
                        self._advance()
                        args.append(self._parse_assignment_expr())
                self._expect(")")
                expr = A.Call(func=expr.ident, args=args, loc=expr.loc)
            elif self._at("."):
                self._advance()
                fieldname = self._expect_id().text
                expr = A.Member(base=expr, fieldname=fieldname, arrow=False, loc=loc)
            elif self._at("->"):
                self._advance()
                fieldname = self._expect_id().text
                expr = A.Member(base=expr, fieldname=fieldname, arrow=True, loc=loc)
            elif self._at("++") or self._at("--"):
                op = self._advance().text
                expr = A.IncDec(op=op, target=expr, prefix=False, loc=loc)
            else:
                return expr


def reference_parse_c(source: str, qualifier_names=(), recover: bool = False,
                      filename: str = "") -> A.TranslationUnit:
    """``parse_c`` through the reference lexer and expression parser."""
    source = preprocess(source).text
    parser = ReferenceParser(source, qualifier_names, recover, filename)
    return parser.parse_translation_unit()


def reference_expand(line: str, defines: Dict[str, str],
                     active: frozenset = frozenset()) -> str:
    """Expand object-like macros on one line, calling back on every
    word; a macro is not re-expanded inside its own replacement."""

    def repl(match: "re.Match[str]") -> str:
        name = match.group(0)
        if name in defines and name not in active:
            return reference_expand(defines[name], defines, active | {name})
        return name

    return re.sub(r"\b\w+\b", repl, line)
