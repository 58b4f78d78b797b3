"""Unit tests for the mini-preprocessor."""

from repro.cfront.preprocess import preprocess


def test_object_macro_expansion():
    result = preprocess("#define N 4\nint a[N];")
    assert "int a[4];" in result.text
    assert result.defines == {"N": "4"}


def test_macro_word_boundaries():
    result = preprocess("#define N 4\nint NN = N;")
    assert "int NN = 4;" in result.text  # NN untouched, N expanded


def test_self_referential_macro_stops():
    result = preprocess("#define pos __attribute__((pos))\nint pos x;")
    assert "int __attribute__((pos)) x;" in result.text


def test_nested_macros():
    result = preprocess(
        "#define A B\n#define B 7\nint v = A;"
    )
    assert "int v = 7;" in result.text


def test_includes_recorded_and_skipped():
    result = preprocess('#include <stdio.h>\n#include "local.h"\nint x;')
    assert result.includes == ["stdio.h", "local.h"]
    assert "include" not in result.text


def test_line_numbers_preserved():
    src = "#define N 1\n\nint x = N;"
    result = preprocess(src)
    # The define line becomes empty but still occupies line 1.
    assert result.text.splitlines()[2] == "int x = 1;"


def test_ifdef_true_branch():
    result = preprocess("#define F\n#ifdef F\nint x;\n#endif\nint y;")
    assert "int x;" in result.text and "int y;" in result.text


def test_ifdef_false_branch():
    result = preprocess("#ifdef F\nint x;\n#endif\nint y;")
    assert "int x;" not in result.text and "int y;" in result.text


def test_ifndef_and_else():
    result = preprocess(
        "#ifndef F\nint a;\n#else\nint b;\n#endif"
    )
    assert "int a;" in result.text and "int b;" not in result.text


def test_nested_conditionals():
    src = """#define A
#ifdef A
#ifdef B
int x;
#endif
int y;
#endif
"""
    result = preprocess(src)
    assert "int x;" not in result.text and "int y;" in result.text


def test_predefined_macros():
    result = preprocess("int v = K;", predefined={"K": "9"})
    assert "int v = 9;" in result.text


def test_defines_inside_inactive_region_ignored():
    result = preprocess("#ifdef NOPE\n#define X 1\n#endif\nint v = X;")
    assert "int v = X;" in result.text


def test_unknown_directive_dropped():
    result = preprocess("#pragma once\nint x;")
    assert "pragma" not in result.text and "int x;" in result.text


# ------------------------------------------------ differential expansion
#
# The preprocessor expands only the defined names, through one compiled
# alternation; ``reference_expand`` is the expansion it replaced, which
# called back on every word.  Both must give the same text for every
# line and macro table.

import glob  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402

from repro.corpus import generate_bftpd, generate_dfa_module  # noqa: E402
from repro.difftest.generator import generate_case  # noqa: E402

from tests.reference_frontend import reference_expand  # noqa: E402

# The module, not the package attribute of the same name (the function).
pp = importlib.import_module("repro.cfront.preprocess")

_EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.c"))
)


def _corpus_texts():
    texts = []
    for path in _EXAMPLES:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    texts.append(generate_dfa_module(2, 2, 2, 2, 4, seed=3))
    texts.append(generate_bftpd(3, 2, 2))
    texts.extend(generate_case(11, i).c_source for i in range(6))
    return texts


def _random_table(rng: random.Random, words):
    """Defined names drawn from the text's own words, with prefixes of
    them, and replacements that mention other defined names (chains,
    cycles, self-reference) or nothing at all."""
    names = set(rng.sample(words, min(len(words), rng.randint(1, 8))))
    for word in list(names):
        if len(word) > 1 and rng.random() < 0.5:
            names.add(word[: rng.randint(1, len(word) - 1)])
    names = sorted(names)
    table = {}
    for name in names:
        parts = []
        for _ in range(rng.randint(0, 3)):
            choice = rng.random()
            if choice < 0.4:
                parts.append(rng.choice(names))
            elif choice < 0.5:
                parts.append(name)
            else:
                parts.append(rng.choice(["1", "(x)", "__attribute__((pos))", "+", "q_"]))
        table[name] = " ".join(parts)
    return table


def test_expand_matches_reference_on_corpus_with_random_tables():
    rng = random.Random(7)
    compared = 0
    for text in _corpus_texts():
        lines = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
        words = sorted(set(re.findall(r"\b\w+\b", text)))
        for _ in range(12):
            table = _random_table(rng, words)
            names = pp._names_pattern(table)
            for line in rng.sample(lines, min(len(lines), 40)):
                assert pp._expand(line, table, names) == reference_expand(line, table), (
                    line, table)
                compared += 1
    assert compared > 2000


def test_expand_edge_cases_match_reference():
    cases = [
        ("int NN = N + N1 + xN;", {"N": "4", "NN": "N"}),
        ("a ab abc b", {"a": "ab", "ab": "abc", "abc": "a"}),
        ("int pos x;", {"pos": "__attribute__((pos))"}),
        ("A B", {"A": "B", "B": "A"}),
        ("f(x) x1 1x _x x_", {"x": "x x", "1": "one"}),
        ("héllo é", {"é": "e", "h": "H"}),
        ("K", {"K": ""}),
    ]
    for line, table in cases:
        assert pp._expand(line, table, pp._names_pattern(table)) == reference_expand(
            line, table
        )


def test_whole_file_preprocess_matches_reference_expansion():
    """``#define`` lines spread through a file: each line expands under
    the table in effect at that line."""
    rng = random.Random(11)
    for text in _corpus_texts()[:6]:
        words = sorted(set(re.findall(r"\b\w+\b", text)))
        table = _random_table(rng, words)
        lines = text.splitlines()
        source_lines, expected, current = [], [], {}
        for line in lines:
            if line.lstrip().startswith("#"):
                line = ""
            if table and rng.random() < 0.05:
                name = rng.choice(sorted(table))
                source_lines.append(f"#define {name} {table[name]}")
                current[name] = table[name].strip()
                expected.append("")
            source_lines.append(line)
            expected.append(reference_expand(line, current) if current else line)
        assert pp.preprocess("\n".join(source_lines)).text == "\n".join(expected)


def test_non_word_predefined_name_never_matches():
    # The word scan the alternation replaced could only ever see whole
    # words, so a predefined name with other characters never expands.
    result = preprocess("int v = a-b;", predefined={"a-b": "1", "v": "w"})
    assert result.text == "int w = a-b;"
