"""Fault-path tests for the CLI: exit-code taxonomy, batch isolation,
clean messages for inputs that used to produce raw tracebacks."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text("int id(int x) { return x; }")
    return str(path)


@pytest.fixture
def warn_file(tmp_path):
    path = tmp_path / "warn.c"
    path.write_text("void f() { int pos x = -1; int pos y = 0; }")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text("int f( { }\nvoid g() { int y = ; }")
    return str(path)


class TestCheckConsistency:
    """The printed warning count and the exit status key off the same
    quantity (satellite: they used to use different expressions)."""

    def test_warning_count_matches_exit_status(self, warn_file, capsys):
        assert main(["check", warn_file]) == 1
        out = capsys.readouterr().out
        assert "2 qualifier warning(s)" in out
        assert out.count("Q101") == 2

    def test_clean_file_is_exit_zero(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        assert "0 qualifier warning(s)" in capsys.readouterr().out


class TestCleanErrorsNotTracebacks:
    def test_deeply_nested_expression_is_input_error(self, tmp_path, capsys):
        deep = "(" * 40000 + "1" + ")" * 40000
        path = tmp_path / "deep.c"
        path.write_text(f"int f() {{ return {deep}; }}")
        assert main(["check", str(path)]) == 2
        assert "nested" in capsys.readouterr().err

    def test_directory_as_input_is_os_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_non_utf8_source_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.c"
        path.write_bytes(b"int x = 1; /* caf\xe9 */\xff\xfe")
        assert main(["check", str(path)]) == 2

    def test_missing_file_still_exit_2(self, capsys):
        assert main(["check", "/nonexistent/nowhere.c"]) == 2

    def test_run_command_nested_input(self, tmp_path, capsys):
        deep = "(" * 40000 + "1" + ")" * 40000
        path = tmp_path / "deep.c"
        path.write_text(f"int main() {{ return {deep}; }}")
        assert main(["run", str(path)]) == 2
        assert "nested" in capsys.readouterr().err


class TestMalformedQualFiles:
    def test_prove_malformed_qual(self, tmp_path, capsys):
        path = tmp_path / "bad.qual"
        path.write_text("value qualifier oops(int Expr E)\n  case E of THIS IS NOT VALID")
        assert main(["prove", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_with_malformed_quals_flag(self, tmp_path, clean_file, capsys):
        path = tmp_path / "bad.qual"
        path.write_text("this is not the qualifier language")
        assert main(["check", clean_file, "--quals", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_truncated_c_source(self, tmp_path, capsys):
        path = tmp_path / "trunc.c"
        path.write_text("int f() { int x = 1;")
        assert main(["check", str(path)]) == 2
        assert "end of file" in capsys.readouterr().err


class TestBatchCheck:
    def test_keep_going_checks_files_after_a_broken_one(
        self, broken_file, warn_file, clean_file, capsys
    ):
        code = main(
            ["check", broken_file, warn_file, clean_file, "--keep-going"]
        )
        captured = capsys.readouterr()
        assert code == 2  # worst unit: input error; no crash
        # Files 2 and 3 were still checked.
        assert "Q101" in captured.out
        assert "0 qualifier warning(s)" in captured.out

    def test_without_keep_going_later_units_are_skipped(
        self, broken_file, clean_file, capsys
    ):
        assert main(["check", broken_file, clean_file]) == 2
        assert "skipped" in capsys.readouterr().out

    def test_json_report_structure(
        self, broken_file, warn_file, clean_file, capsys
    ):
        code = main(
            [
                "check", broken_file, warn_file, clean_file,
                "--keep-going", "--format", "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 2
        assert data["exit_code"] == 2
        verdicts = [u["verdict"] for u in data["units"]]
        assert verdicts == ["ERROR", "WARNINGS", "OK"]
        broken = data["units"][0]
        assert any(d["code"] == "Q001" for d in broken["diagnostics"])
        warn = data["units"][1]
        assert any(d["code"] == "Q101" for d in warn["diagnostics"])
        assert all("elapsed" in u for u in data["units"])

    def test_parallel_jobs_match_sequential_verdicts(
        self, broken_file, warn_file, clean_file, capsys
    ):
        code = main(
            [
                "check", broken_file, warn_file, clean_file,
                "--keep-going", "--jobs", "2", "--format", "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [u["verdict"] for u in data["units"]] == [
            "ERROR", "WARNINGS", "OK",
        ]


class TestBatchProve:
    """Acceptance: a 3-unit batch where one unit raises a parse error
    and one exceeds the prover deadline completes with structured
    verdicts (ERROR/TIMEOUT/OK) and the documented exit code."""

    @pytest.fixture
    def qual_trio(self, tmp_path):
        broken = tmp_path / "broken.qual"
        broken.write_text(
            "value qualifier oops(int Expr E)\n  case E of THIS IS NOT VALID"
        )
        hard = tmp_path / "hard.qual"
        hard.write_text(
            """
            value qualifier even2(int Expr E)
              case E of
                decl int Const C:
                  C, where C % 2 == 0
              invariant value(E) % 2 == 0
            """
        )
        # No invariant: every obligation is trivially sound, so this
        # unit is OK even under a microscopic time limit.
        ok = tmp_path / "ok.qual"
        ok.write_text(
            """
            value qualifier tagged(int Expr E)
              case E of
                decl int Const C:
                  C, where C > 0
            """
        )
        return [str(broken), str(hard), str(ok)]

    def test_mixed_prove_batch_structured_verdicts(self, qual_trio, capsys):
        code = main(
            [
                # --no-cache: the timeout is simulated via a tiny
                # budget, so a warm proof cache would (correctly!)
                # replay the settled verdict and defeat the simulation.
                "prove", *qual_trio,
                "--keep-going", "--time-limit", "0.001",
                "--no-cache", "--format", "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert [u["verdict"] for u in data["units"]] == [
            "ERROR", "TIMEOUT", "OK",
        ]
        assert "CRASH" not in data["counts"]
        assert code == 2 and data["exit_code"] == 2

    def test_prove_timeout_unit_reports_reason(self, qual_trio, capsys):
        main(
            [
                "prove", qual_trio[1],
                "--time-limit", "0.001", "--no-cache", "--format", "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        (unit,) = data["units"]
        assert unit["verdict"] == "TIMEOUT"
        obligations = unit["detail"]["qualifiers"][0]["obligations"]
        assert any(o["verdict"] == "TIMEOUT" for o in obligations)

    def test_prove_retries_flag_accepted(self, qual_trio, capsys):
        # Retrying cannot rescue a parse error; exit code is stable.
        assert (
            main(
                [
                    "prove", qual_trio[0],
                    "--retries", "2", "--time-limit", "1",
                ]
            )
            == 2
        )


class TestBudgetKnobs:
    """Budget flags mean what they say: values that would silently mean
    "unbounded" (NaN) or "never try" (negative) are usage errors."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--retries", "-1"),
            ("--time-limit", "nan"),
            ("--time-limit", "-1"),
            ("--unit-timeout", "nan"),
            ("--unit-timeout", "-1"),
        ],
    )
    def test_bad_budget_is_usage_error(self, tmp_path, capsys, flag, value):
        qual = tmp_path / "defs.qual"
        qual.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(["prove", str(qual), "--no-cache", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}" in err

    def test_unit_timeout_checked_for_every_batch_command(
        self, clean_file, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", clean_file, "--unit-timeout", "nan"])
        assert exit_info.value.code == 2

    def test_zero_and_infinite_budgets_accepted(self, tmp_path, capsys):
        qual = tmp_path / "defs.qual"
        qual.write_text("")
        assert main(
            [
                "prove", str(qual), "--no-cache", "--retries", "0",
                "--time-limit", "inf", "--unit-timeout", "inf",
            ]
        ) == 0

    def test_retry_policy_needs_one_attempt(self):
        from repro.harness.watchdog import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestBatchInfer:
    def test_infer_multiple_files_keep_going(
        self, tmp_path, broken_file, capsys
    ):
        good = tmp_path / "m.c"
        good.write_text("int f(void) { int a = 2; int b = a * a; return b; }")
        code = main(
            [
                "infer", broken_file, str(good),
                "--qualifier", "pos", "--keep-going", "--format", "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [u["verdict"] for u in data["units"]] == ["ERROR", "OK"]
        assert "inferred" in data["units"][1]["detail"]["summary"]
