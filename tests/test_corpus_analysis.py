"""Tests for the synthetic corpus and the annotation workflows."""

import pytest

from repro.analysis.annotate import annotate_nonnull, annotate_untainted
from repro.analysis.stats import count_dereferences, count_lines, count_printf_calls
from repro.cfront.parser import parse_c
from repro.cil.lower import lower_unit
from repro.corpus import (
    generate_bftpd,
    generate_dfa_module,
    generate_identd,
    generate_mingetty,
)
from repro.core.checker.typecheck import check_program
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.library import NONNULL, UNIQUE


def compile_c(src):
    return lower_unit(parse_c(src))


# ----------------------------------------------------------------- corpus


def test_dfa_module_parses_and_lowers():
    prog = compile_c(generate_dfa_module())
    assert prog.function("dfa_match") is not None
    assert prog.function("dfa_compile") is not None


def test_dfa_module_scale_matches_paper():
    src = generate_dfa_module()
    prog = compile_c(src)
    lines = count_lines(src)
    derefs = count_dereferences(prog)
    # Paper: 2287 lines, 1072 dereferences.  Synthetic corpus is
    # calibrated to the same scale (within ~15%).
    assert 1900 <= lines <= 2700, lines
    assert 900 <= derefs <= 1250, derefs


def test_dfa_module_deterministic():
    assert generate_dfa_module() == generate_dfa_module()
    assert generate_dfa_module(seed=1) != generate_dfa_module(seed=2)


def test_servers_scale_matches_paper():
    cases = [
        (generate_bftpd(), ("sendstrf", "log_event"), 750, 134),
        (generate_mingetty(), ("error",), 293, 23),
        (generate_identd(), (), 228, 21),
    ]
    for src, wrappers, lines_target, calls_target in cases:
        prog = compile_c(src)
        lines = count_lines(src)
        calls = count_printf_calls(prog, wrappers)
        assert abs(lines - lines_target) <= lines_target * 0.2
        assert abs(calls - calls_target) <= max(4, calls_target * 0.15)


def test_bftpd_contains_planted_vulnerability():
    src = generate_bftpd()
    assert "sendstrf(sess->sock, entry->d_name);" in src


def test_dfa_module_executes():
    """The synthetic corpus is real code: compile it to IR and run it."""
    from repro.semantics.csem import CInterpreter

    prog = compile_c(generate_dfa_module())
    interp = CInterpreter(prog)
    interp.run("dfa_compile", [4])
    total = interp.run("dfa_global_reset")
    assert total == 4


# ------------------------------------------------------- nonnull workflow


@pytest.fixture(scope="module")
def nonnull_result():
    return annotate_nonnull(compile_c(generate_dfa_module()))


def test_nonnull_workflow_reaches_zero_errors(nonnull_result):
    assert nonnull_result.errors == 0, nonnull_result.report.summary()


def test_nonnull_workflow_counts_in_paper_range(nonnull_result):
    # Paper: 114 annotations, 59 casts.  Same order of magnitude, with
    # annotations ≈ 10-15% of dereference sites and casts below
    # annotations.
    assert 90 <= nonnull_result.annotations <= 180
    assert 40 <= nonnull_result.casts <= 110
    assert nonnull_result.casts < nonnull_result.annotations


def test_nonnull_annotated_program_checks_clean(nonnull_result):
    report = check_program(nonnull_result.program, QualifierSet([NONNULL]))
    assert report.ok


def test_unannotated_dfa_module_fails_nonnull():
    prog = compile_c(generate_dfa_module())
    report = check_program(prog, QualifierSet([NONNULL]))
    # Every one of the ~1000 dereferences errors without annotations.
    assert report.error_count > 500


# ------------------------------------------------------ untainted workflow


def test_untainted_bftpd_matches_paper_exactly():
    result = annotate_untainted(compile_c(generate_bftpd()))
    assert result.annotations == 2
    assert result.casts == 0
    assert result.errors == 1
    assert any("d_name" in str(d) for d in result.report.diagnostics)


def test_untainted_mingetty_matches_paper_exactly():
    result = annotate_untainted(compile_c(generate_mingetty()))
    assert (result.annotations, result.casts, result.errors) == (1, 0, 0)


def test_untainted_identd_matches_paper_exactly():
    result = annotate_untainted(compile_c(generate_identd()))
    assert (result.annotations, result.casts, result.errors) == (0, 0, 0)


def test_untainted_without_const_rule_needs_casts():
    # Section 2.1.4: without the constants-are-untainted clause, every
    # literal format string needs a cast.
    result = annotate_untainted(compile_c(generate_identd()), trust_constants=False)
    assert result.casts > 0
    assert result.errors == 0


def test_fixing_bftpd_vulnerability():
    """Replacing the d_name format with a literal removes the error —
    the fix the paper's diagnosis implies."""
    src = generate_bftpd().replace(
        'sendstrf(sess->sock, entry->d_name);',
        'sendstrf(sess->sock, "%s", entry->d_name);',
    )
    result = annotate_untainted(compile_c(src))
    assert result.errors == 0


# ---------------------------------------------------------- uniqueness


def test_uniqueness_experiment():
    from repro.analysis.experiments import uniqueness_experiment

    result = uniqueness_experiment()
    assert result["errors"] == 0, result["error_messages"]
    # Paper: 49 validated references.
    assert 35 <= result["validated_references"] <= 60


def test_unique_global_passed_to_procedure_fails():
    """Section 6.2: passing the unique global as an argument violates
    the disallow clause."""
    src = generate_dfa_module() + """
    int consume(struct dfa_obj* d);
    int leak_global(void) { return consume(dfa); }
    """
    prog = compile_c(src)
    for g in prog.globals:
        if g.name == "dfa":
            g.ctype = g.ctype.with_quals(["unique"])
    report = check_program(prog, QualifierSet([UNIQUE]))
    assert any(d.kind == "disallow" for d in report.diagnostics)


# -------------------------------------------------------------- scaling


@pytest.mark.slow
def test_checking_time_grows_subquadratically():
    """The checker is one pass with memoized qualifier judgments: a dfa
    module about four times larger costs well under the square of that
    in checking time (best of three runs at each size)."""
    import time

    from repro.core.checker.typecheck import QualifierChecker
    from repro.core.qualifiers.library import standard_qualifiers

    quals = standard_qualifiers()
    points = []
    for kwargs in (
        dict(
            n_transition_helpers=8, n_analysis_helpers=8, n_guarded_helpers=7,
            n_builders=5, n_scalar_helpers=26,
        ),
        dict(
            n_transition_helpers=34, n_analysis_helpers=30,
            n_guarded_helpers=28, n_builders=20, n_scalar_helpers=104,
        ),
    ):
        source = generate_dfa_module(**kwargs)
        prog = compile_c(source)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            QualifierChecker(prog, quals).check()
            times.append(time.perf_counter() - start)
        points.append((count_lines(source), min(times)))
    (small_lines, small_s), (large_lines, large_s) = points
    size_ratio = large_lines / small_lines
    assert size_ratio > 3
    assert large_s / small_s < size_ratio ** 2
