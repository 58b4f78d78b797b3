"""Differential tests: the compiled-regex lexer and the precedence-
climbing parser against the front end they replaced
(``tests/reference_frontend.py``).

Tokens are compared as ``(kind, text, line, col)`` tuples and lexing
errors as ``(message, line, col)``, in strict and tolerant mode; ASTs
are compared by ``repr`` (which includes every node's ``Loc``).
"""

import glob
import os
import random
import re

import pytest

from repro.cfront import lexer
from repro.cfront.lexer import LexError, tokenize
from repro.cfront.parser import parse_c
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.qualifiers.parser import parse_qualifiers
from repro.corpus import (
    generate_bftpd,
    generate_dfa_module,
    generate_identd,
    generate_mingetty,
)
from repro.difftest.generator import generate_case

from tests.reference_frontend import reference_parse_c, reference_tokenize

EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.c"))
)

# Fragments random inputs are drawn from: every punctuation token,
# quotes, escapes, comment openers/closers, line endings, integer
# prefixes/suffixes, identifier characters and non-ASCII characters
# that str classifies differently (letter, non-decimal digit, numeric
# non-digit, decimal digit).
FRAGMENTS = [
    "<<=", ">>=", "...", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":", "#",
    '"', "'", "\\", "/*", "*/", "//", "\n", "\r", "\t", " ", " ",
    "u", "U", "l", "L", "x", "X", "0", "0x", "7", "09", "a", "F", "_", "id",
    "@", "$", "\x0b", "é", "²", "½", "٣",
]


def test_lexer_regexes_use_no_syntax_newer_than_python_3_10():
    # pyproject allows 3.10, whose ``re`` rejects possessive quantifiers
    # (``x*+ x++ x?+ x{m}+``) and atomic groups (``(?>``).  The lexer
    # compiles its patterns at import, so either would break every
    # import of the front end there.
    for regex in (lexer._TOKEN_RE, lexer._WORD_RE, lexer._SUFFIX_RE):
        assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", regex.pattern), regex.pattern


def _lex(tokenizer, source, tolerant):
    try:
        return [
            (t.kind, t.text, t.line, t.col)
            for t in tokenizer(source, tolerant=tolerant)
        ]
    except LexError as err:
        return ("LexError", str(err), err.line, err.col)


def _random_source(rng):
    return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 30)))


@pytest.mark.parametrize("tolerant", [False, True], ids=["strict", "tolerant"])
def test_random_strings_lex_like_the_reference(tolerant):
    rng = random.Random(0x1E7E5)
    mismatches = []
    for _ in range(4000):
        source = _random_source(rng)
        got = _lex(tokenize, source, tolerant)
        want = _lex(reference_tokenize, source, tolerant)
        if got != want:
            mismatches.append((source, got, want))
    assert not mismatches, mismatches[:3]


@pytest.mark.parametrize(
    "source, message, line, col",
    [
        ('x = "abc', "unterminated string literal", 1, 9),
        ('"ab\\', "unterminated string literal", 1, 6),
        ("'\n", "unterminated character constant", 2, 1),
        ("a\n/* open\n  ", "unterminated block comment", 3, 3),
        ("a ½", "unexpected character '½'", 1, 3),
    ],
)
def test_lex_errors_report_the_reference_position(source, message, line, col):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert (str(info.value), info.value.line, info.value.col) == (
        f"{message} at line {line}, column {col}", line, col
    )
    assert _lex(tokenize, source, False) == _lex(reference_tokenize, source, False)
    assert _lex(tokenize, source, True) == _lex(reference_tokenize, source, True)


def _assert_same(got, want):
    # Report only the first difference: pytest's own diff of two
    # multi-megabyte reprs would take minutes.
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        pytest.fail(f"differs at {i}: {got[i - 60:i + 60]!r} != {want[i - 60:i + 60]!r}")


def _assert_same_ast(source, qualifier_names=()):
    _assert_same(
        repr(_lex(tokenize, source, True)), repr(_lex(reference_tokenize, source, True))
    )
    _assert_same(
        repr(parse_c(source, qualifier_names=qualifier_names, filename="u.c")),
        repr(reference_parse_c(source, qualifier_names=qualifier_names, filename="u.c")),
    )


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_examples_parse_to_the_reference_ast(path):
    with open(path) as handle:
        _assert_same_ast(handle.read(), standard_qualifiers().names)


@pytest.mark.parametrize(
    "source",
    [
        generate_dfa_module(seed=3),
        generate_bftpd(),
        generate_mingetty(),
        generate_identd(),
    ],
    ids=["dfa", "bftpd", "mingetty", "identd"],
)
def test_corpus_parses_to_the_reference_ast(source):
    _assert_same_ast(source, standard_qualifiers().names)


BINARY_OPS = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
              "<<", ">>", "+", "-", "*", "/", "%"]


def _random_expr(rng, depth=0):
    if depth > 4 or rng.random() < 0.2:
        return rng.choice(["a", "b", "p", "7", "0x1f", "'c'", '"s"'])
    sub = lambda: _random_expr(rng, depth + 1)  # noqa: E731
    shape = rng.randrange(10)
    if shape < 4:
        return f"{sub()} {rng.choice(BINARY_OPS)} {sub()}"
    if shape == 4:
        return f"{rng.choice(['-', '!', '~', '*', '&', '+', '++', '--'])}{sub()}"
    if shape == 5:
        return rng.choice(["p[{}]", "f({}, b)", "s.x + {}", "p->y - {}", "({})++", "({})--"]
                          ).format(sub())
    if shape == 6:
        return f"{sub()} ? {sub()} : {sub()}"
    if shape == 7:
        return f"a {rng.choice(['=', '+=', '<<=', '|='])} {sub()}"
    if shape == 8:
        return f"(int) {sub()} , sizeof(int)"
    return f"({sub()})"


def test_random_expressions_parse_to_the_reference_ast():
    rng = random.Random(0xE9)
    body = "\n".join(f"  x = {_random_expr(rng)};" for _ in range(400))
    _assert_same_ast(f"void g() {{\n{body}\n}}\n")


def test_difftest_programs_parse_to_the_reference_ast():
    std = list(standard_qualifiers().names)
    for index in range(200):
        case = generate_case(0, index)
        names = std + [d.name for d in parse_qualifiers(case.qual_source)]
        _assert_same_ast(case.c_source, names)
