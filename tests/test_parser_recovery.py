"""Panic-mode error recovery in the C parser (parse_c(recover=True)):
every syntax error in a unit is reported, not just the first, and the
well-formed remainder still parses."""

import pytest

from repro.cfront.parser import ParseError, parse_c


def test_default_mode_still_raises_on_first_error():
    with pytest.raises(ParseError):
        parse_c("int f( { }")


def test_recover_collects_multiple_errors():
    unit = parse_c(
        """
        int f( { }
        int g(int x) { return x  }
        int ok(int x) { return x; }
        """,
        recover=True,
    )
    assert len(unit.errors) == 2
    assert [f.name for f in unit.functions] == ["g", "ok"]


def test_recover_reports_every_statement_error_in_one_body():
    unit = parse_c(
        "void h() { int y = ; y = 3; bad bad bad; y = 4; }",
        recover=True,
    )
    assert len(unit.errors) == 2
    (func,) = unit.functions
    # The two well-formed assignments around the bad statements survive.
    assert len(func.body.stmts) == 2


def test_recovery_synchronizes_past_nested_braces():
    unit = parse_c(
        """
        void broken() { if (1) { int z = ; } }
        int fine() { return 1; }
        """,
        recover=True,
    )
    assert len(unit.errors) == 1
    assert [f.name for f in unit.functions] == ["broken", "fine"]


def test_truncated_source_reports_eof_not_hang():
    unit = parse_c("int f() { int x = 1;", recover=True)
    assert any("end of file" in str(e) for e in unit.errors)
    assert [f.name for f in unit.functions] == ["f"]


def test_garbage_between_functions():
    unit = parse_c(
        """
        int a() { return 1; }
        $$$ %% what even is this;
        int b() { return 2; }
        """,
        recover=True,
    )
    assert unit.errors
    assert [f.name for f in unit.functions] == ["a", "b"]


def test_second_definition_of_a_function_is_an_error():
    source = (
        "int f() { return 1; }\n"
        "int f();\n"
        "int f() { return 2; }\n"
        "int g() { return 3; }"
    )
    with pytest.raises(ParseError, match="redefinition of function 'f'"):
        parse_c(source)
    unit = parse_c(source, recover=True)
    (err,) = unit.errors
    assert (err.token.line, err.token.col) == (3, 5)
    # The definition was whole: nothing after it is skipped.
    assert [f.name for f in unit.functions] == ["f", "f", "f", "g"]


def test_clean_source_has_no_errors():
    unit = parse_c("int f(int x) { return x; }", recover=True)
    assert unit.errors == []
    assert [f.name for f in unit.functions] == ["f"]


def test_error_locations_are_preserved():
    unit = parse_c("void f() {\n  int x = ;\n}", recover=True)
    (err,) = unit.errors
    assert err.token.line == 2


def test_recovery_never_loops_on_stray_close_brace():
    unit = parse_c("} } } int f() { return 0; }", recover=True)
    assert [f.name for f in unit.functions] == ["f"]
    assert unit.errors


@pytest.mark.parametrize(
    "literal, message",
    [
        ("09", "malformed integer constant"),
        ("08", "malformed integer constant"),
        ("0x", "malformed integer constant"),
        ("''", "malformed character constant"),
    ],
)
def test_malformed_literal_is_a_recovered_diagnostic(literal, message):
    unit = parse_c(
        f"void f() {{\n  int x = {literal};\n  y = ;\n}}\n"
        f"int g() {{ return {literal}; }}\n"
        "int ok() { return 1; }",
        recover=True,
    )
    first, second, third = unit.errors
    assert (first.token.line, first.token.col) == (2, 11)
    assert str(first).startswith(f"{message} at line 2, column 11")
    # Later errors in the same body and in later functions still count.
    assert second.token.line == 3
    assert (third.token.line, third.token.col) == (5, 18)
    assert [f.name for f in unit.functions] == ["f", "g", "ok"]


@pytest.mark.parametrize(
    "source",
    ["int a[09];", "void f(int v) { switch (v) { case 0x: ; } }", "int c = '';"],
)
def test_malformed_literal_raises_parse_error_in_strict_mode(source):
    with pytest.raises(ParseError):
        parse_c(source)
