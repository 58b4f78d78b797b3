"""A regex-driven lexer for the C subset and for the qualifier DSL.

Both languages share token shapes (identifiers, integer/char/string
constants, multi-character punctuation), so one lexer serves both; the
parsers decide which identifiers are keywords.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple


class LexError(Exception):
    """Raised on malformed input, with line/column context."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    # A tuple, not a dataclass: the lexer builds one per token, and a
    # tuple is built about twice as fast.
    kind: str  # 'id', 'int', 'char', 'string', 'punct', 'eof'
    text: str
    line: int
    col: int

    @property
    def int_value(self) -> int:
        if self.kind != "int":
            raise ValueError(f"token {self.text!r} is not an integer")
        text = self.text
        if text.lower().startswith("0x"):
            return int(text, 16)
        if text.startswith("0") and len(text) > 1 and text.isdigit():
            return int(text, 8)
        return int(text)

    @property
    def string_value(self) -> str:
        if self.kind not in ("string", "char"):
            raise ValueError(f"token {self.text!r} is not a string/char")
        return _unescape(self.text[1:-1])

    @property
    def char_value(self) -> int:
        if self.kind != "char":
            raise ValueError(f"token {self.text!r} is not a char constant")
        body = _unescape(self.text[1:-1])
        if len(body) != 1:
            raise ValueError(f"bad char constant {self.text!r}")
        return ord(body)


# Longest-match-first punctuation table.
_PUNCTS = [
    "<<=", ">>=", "...",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":", "#",
]

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}


def _unescape(body: str) -> str:
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Lexer:
    """Tokenize ``source`` into a list of :class:`Token`.

    Comments (``//`` and ``/* */``) are skipped.  Preprocessor lines are
    *not* handled here; run :func:`repro.cfront.preprocess.preprocess`
    first (a stray ``#`` becomes a punct token and will be rejected by
    the parser).

    One compiled regex matches the next trivia run or token; line and
    column come from the newlines inside the trivia and literals
    crossed so far, not from stepping characters.
    """

    def __init__(self, source: str, tolerant: bool = False):
        self.source = source
        # Tolerant mode (used by panic-mode parsing): a malformed token
        # — stray byte, unterminated literal — is emitted as a punct
        # token instead of raising, so the parser can flag it as a
        # syntax error, synchronize, and keep going.
        self.tolerant = tolerant

    def tokens(self) -> List[Token]:
        source = self.source
        n = len(source)
        match = _TOKEN_RE.match
        toks: List[Token] = []
        append = toks.append
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of ``line``
        while pos < n:
            m = match(source, pos)
            kind = m.lastgroup
            start, pos = pos, m.end()
            col = start - line_start + 1
            if kind == "id" or kind == "punct":
                append(Token(kind, m.group(), line, col))
                continue
            if kind == "int":
                append(Token(kind, m.group().rstrip("uUlL"), line, col))
                continue
            if kind == "other":
                pos = self._other(toks, m.group(), start, line, col)
                continue
            if kind == "string" or kind == "char":
                append(Token(kind, m.group(), line, col))
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, pos) + 1
            if kind in _UNTERMINATED:
                # The match ran to the end of input, or stopped one short
                # at a lone backslash, which "escapes" the end of input
                # and so is reported one column further on.
                err_pos = n + (pos < n)
                pos = self._error(
                    toks, _UNTERMINATED[kind], err_pos, line, err_pos - line_start + 1
                )
        append(Token("eof", "", line, pos - line_start + 1))
        return toks

    def _other(self, toks: List[Token], ch: str, pos: int, line: int, col: int) -> int:
        """A character the regex leaves to ``str``'s Unicode classes: a
        letter starts an identifier, a digit an integer (a decimal run
        that meets a non-ASCII character lands here, since that may be
        a digit like '²' which ``\\d`` rejects); anything else is an
        error.  Returns the offset to resume at."""
        source = self.source
        if ch.isalpha():
            end = _WORD_RE.match(source, pos + 1).end()
            toks.append(Token("id", source[pos:end], line, col))
            return end
        if ch.isdigit():
            end = pos + 1
            while end < len(source) and source[end].isdigit():
                end += 1
            toks.append(Token("int", source[pos:end], line, col))
            return _SUFFIX_RE.match(source, end).end()
        return self._error(toks, f"unexpected character {ch!r}", pos, line, col)

    def _error(self, toks: List[Token], message: str, pos: int, line: int, col: int) -> int:
        """Raise, or in tolerant mode emit the offending character (``;``
        at end of input) as a punct token and return the offset to
        resume at."""
        if not self.tolerant:
            raise LexError(message, line, col)
        toks.append(Token("punct", self.source[pos : pos + 1] or ";", line, col))
        return pos + 1


_UNTERMINATED = {
    "comment": "unterminated block comment",
    "badstring": "unterminated string literal",
    "badchar": "unterminated character constant",
}

_TOKEN_RE = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<comment>/\*.*)"
    r"|(?P<id>[A-Za-z_]\w*)"
    # A decimal run may not stop at a digit or a non-ASCII character
    # (see _other); the lookahead keeps it all-or-nothing.
    r"|(?P<int>(?:0[xX][0-9a-fA-F]*|\d+(?!\d|[^\x00-\x7f]))[uUlL]*)"
    r'|(?P<string>"(?:[^"\\]|\\.)*")'
    r"|(?P<char>'(?:[^'\\]|\\.)*')"
    r'|(?P<badstring>"(?:[^"\\]|\\.)*)'
    r"|(?P<badchar>'(?:[^'\\]|\\.)*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCTS)) + ")"
    r"|(?P<other>.)",
    re.S,
)
_WORD_RE = re.compile(r"\w*")
_SUFFIX_RE = re.compile(r"[uUlL]*")


def tokenize(source: str, tolerant: bool = False) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source, tolerant=tolerant).tokens()
