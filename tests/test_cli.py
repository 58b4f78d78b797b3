"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def lcm_file(tmp_path):
    path = tmp_path / "lcm.c"
    path.write_text(
        """
        int pos gcd(int pos n, int pos m);
        int pos lcm(int pos a, int pos b) {
          int pos d = gcd(a, b);
          int pos prod = a * b;
          return (int pos) (prod / d);
        }
        """
    )
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("void f() { int pos x = -1; }")
    return str(path)


def test_check_clean(lcm_file, capsys):
    assert main(["check", lcm_file]) == 0
    out = capsys.readouterr().out
    assert "0 qualifier warning(s)" in out
    assert "runtime check(s)" in out


def test_check_reports_errors(bad_file, capsys):
    assert main(["check", bad_file]) == 1
    out = capsys.readouterr().out
    assert "pos" in out


def test_check_flow_sensitive_flag(tmp_path, capsys):
    path = tmp_path / "guarded.c"
    path.write_text(
        "int f(int* p) { int x = 0; if (p != NULL) { x = *p; } return x; }"
    )
    assert main(["check", str(path)]) == 1
    assert main(["check", str(path), "--flow-sensitive"]) == 0


def test_prove_good_qualifier(tmp_path, capsys):
    path = tmp_path / "even.qual"
    path.write_text(
        """
        value qualifier even2(int Expr E)
          case E of
            decl int Const C:
              C, where C % 2 == 0
          invariant value(E) % 2 == 0
        """
    )
    assert main(["prove", str(path)]) == 0
    assert "SOUND" in capsys.readouterr().out


def test_prove_bad_qualifier(tmp_path, capsys):
    path = tmp_path / "bad.qual"
    path.write_text(
        """
        value qualifier sketchy(int Expr E)
          case E of
            decl int Const C:
              C, where C >= 0
          invariant value(E) > 0
        """
    )
    assert main(["prove", str(path)]) == 1
    assert "POTENTIALLY UNSOUND" in capsys.readouterr().out


def test_run_program(tmp_path, capsys):
    path = tmp_path / "hello.c"
    path.write_text(
        """
        int printf(char* fmt, ...);
        int main() { printf("hi %d\\n", 42); return 7; }
        """
    )
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "hi 42" in out and "[exit value: 7]" in out


def test_run_traps_violation(tmp_path, capsys):
    path = tmp_path / "boom.c"
    path.write_text("int main() { int x = -3; int pos y = (int pos)x; return y; }")
    assert main(["run", str(path)]) == 2
    assert "runtime check failed" in capsys.readouterr().err


def test_show_ir(lcm_file, capsys):
    assert main(["show-ir", lcm_file]) == 0
    out = capsys.readouterr().out
    assert "lcm" in out and "int pos" in out


def test_infer(tmp_path, capsys):
    path = tmp_path / "m.c"
    path.write_text("int f(void) { int a = 2; int b = a * a; return b; }")
    assert main(["infer", str(path), "--qualifier", "pos"]) == 0
    out = capsys.readouterr().out
    assert "inferred" in out


def test_custom_qualifier_file_used_by_check(tmp_path, capsys):
    qual = tmp_path / "defs.qual"
    qual.write_text(
        """
        value qualifier even2(int Expr E)
          case E of
            decl int Const C:
              C, where C % 2 == 0
          invariant value(E) % 2 == 0
        """
    )
    good = tmp_path / "good.c"
    good.write_text("void f() { int even2 x = 4; }")
    bad = tmp_path / "bad.c"
    bad.write_text("void f() { int even2 x = 3; }")
    assert main(["check", str(good), "--quals", str(qual)]) == 0
    assert main(["check", str(bad), "--quals", str(qual)]) == 1


def test_missing_file_is_an_error(capsys):
    assert main(["check", "/nonexistent/nowhere.c"]) == 2


def test_parse_error_is_reported(tmp_path, capsys):
    path = tmp_path / "syntax.c"
    path.write_text("int f( { }")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_json_reports_carry_tool_version(lcm_file, capsys):
    import json

    import repro

    assert main(["check", lcm_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == repro.__version__


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "a.c", "b.c", "--flow-sensitive", "--keep-going",
         "--jobs", "2", "--quals", "x.qual", "--quals", "y.qual"],
        ["prove", "d.qual", "--qualifier", "pos", "--time-limit", "2.5",
         "--retries", "1", "--no-cache", "--unit-timeout", "9"],
        ["infer", "a.c", "--qualifier", "nonnull", "--trust-constants"],
    ],
)
def test_in_process_request_is_the_served_one(argv):
    # The params a --server run sends decode, on the daemon's side, to
    # the very config and request the in-process run builds.
    from repro import api, cli
    from repro.serve import protocol

    args = cli.build_parser().parse_args(argv)
    op = args.command
    config, request = cli._config_params(args), cli._request_params(args, op)
    params = json.loads(json.dumps({**config, **request}))
    assert protocol.config_from_params(params) == api.SessionConfig(**config)
    assert protocol.batch_request(op, params) == cli._REQUESTS[op](**request)
