"""Regenerate EXPERIMENTS.md from live experiment runs.

Usage:  python tools/generate_experiments_md.py
"""

from __future__ import annotations

import io
import sys

from repro.analysis.experiments import (
    soundness_timings,
    table1_nonnull,
    table2_untainted,
    typecheck_timings,
    uniqueness_experiment,
)
from repro.core.qualifiers.library import POS_SOURCE, UNIQUE_SOURCE, standard_qualifiers
from repro.core.qualifiers.parser import parse_qualifier
from repro.core.soundness.checker import check_soundness


def main() -> str:
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs. measured\n\n")
    w("All numbers regenerated by `python tools/generate_experiments_md.py`\n")
    w("on this machine; the test named in each heading holds the same\n")
    w("numbers to the paper's shape or exact columns, and the e2e benchmark\n")
    w("(`benchmarks/e2e`) times the pipeline.  The corpus substitutes\n")
    w("synthetic programs for the paper's open-source subjects (DESIGN.md\n")
    w("§2), so size columns match in scale and the result columns must\n")
    w("match in shape (Table 1) or exactly (Table 2).\n\n")

    # ------------------------------------------------------------- table 1
    w("## Table 1 — nonnull on grep's dfa.c (tests/test_experiments_module.py)\n\n")
    t1 = table1_nonnull()
    w("| | paper | measured |\n|---|---:|---:|\n")
    for key in ("lines", "dereferences", "annotations", "casts", "errors"):
        w(f"| {key} | {t1['paper'][key]} | {t1[key]} |\n")
    w("\nThe workflow (automated in `repro.analysis.annotate`) reproduces the\n")
    w("paper's iterative process: dereferenced pointers are annotated; casts\n")
    w("are inserted where flow-insensitive rules cannot prove non-nullness\n")
    w("(the NULL-guard idiom quoted in §6.1) and where nullable globals are\n")
    w("dereferenced.  Shape check: annotations ≈ 10–15 % of dereference\n")
    w("sites, casts below annotations, zero residual errors — all hold.\n\n")

    # ------------------------------------------------------------- table 2
    w("## Table 2 — untainted format strings (tests/test_experiments_module.py)\n\n")
    t2 = table2_untainted()
    w("| program | lines (paper/ours) | printf calls (paper/ours) | "
      "annotations (paper/ours) | casts | errors (paper/ours) |\n")
    w("|---|---:|---:|---:|---:|---:|\n")
    for name in ("bftpd", "mingetty", "identd"):
        row = t2[name]
        p = row["paper"]
        w(
            f"| {name} | {p['lines']}/{row['lines']} "
            f"| {p['printf_calls']}/{row['printf_calls']} "
            f"| {p['annotations']}/{row['annotations']} "
            f"| {p['casts']}/{row['casts']} "
            f"| {p['errors']}/{row['errors']} |\n"
        )
    w("\nThe annotations/casts/errors columns match the paper exactly.  The\n")
    w("single bftpd error is the paper's exploitable call:\n\n")
    for msg in t2["bftpd"]["error_messages"]:
        w(f"    {msg}\n")
    w("\n")

    # -------------------------------------------------------- section 6.2
    w("## Section 6.2 — uniqueness of the dfa global (tests/test_experiments_module.py)\n\n")
    u = uniqueness_experiment()
    w("| | paper | measured |\n|---|---:|---:|\n")
    w(f"| validated references | {u['paper']['validated_references']} "
      f"| {u['validated_references']} |\n")
    w(f"| errors | {u['paper']['errors']} | {u['errors']} |\n\n")
    w("`dfa = xmalloc(...)` matches the `new` assign rule; `dfa = NULL`\n")
    w("matches `NULL`; every other use dereferences the global, which\n")
    w("`disallow L` permits.  Passing the global to a procedure (the idiom\n")
    w("the paper's other globals failed on) is correctly rejected — see\n")
    w("`test_unique_global_passed_to_procedure_fails`.\n\n")

    # ---------------------------------------------------------- section 4
    w("## Section 4 — automated soundness proofs (tests/test_soundness.py)\n\n")
    w("Paper: each value qualifier proven sound in < 1 s, each reference\n")
    w("qualifier in < 30 s (Simplify, 2005 hardware).  Ours is a pure-\n")
    w("Python prover; the shape to preserve is value ≪ ref, both within\n")
    w("the (generous) bounds.\n\n")
    st = soundness_timings()
    w("| qualifier | kind | sound | seconds | paper bound |\n")
    w("|---|---|---|---:|---:|\n")
    for name, row in st.items():
        w(
            f"| {name} | {row['kind']} | {'yes' if row['sound'] else 'NO'} "
            f"| {row['seconds']:.2f} | < {row['paper_bound_seconds']:.0f} s |\n"
        )
    w("\n### Negative controls (sections 2.1.3, 2.2.3)\n\n")
    quals = standard_qualifiers()
    bad_pos = parse_qualifier(POS_SOURCE.replace("E1 * E2", "E1 - E2"))
    bad_pos_report = check_soundness(bad_pos, quals, time_limit=20)
    bad_unique = parse_qualifier(UNIQUE_SOURCE.replace("disallow L", ""))
    bad_unique_report = check_soundness(bad_unique, quals, time_limit=20)
    w(f"* `pos` with pattern `E1 - E2`: "
      f"{'REFUTED' if not bad_pos_report.sound else 'missed!'} "
      f"(failing rule: {bad_pos_report.failures[0].obligation.rule})\n")
    w(f"* `unique` without `disallow L`: "
      f"{'REFUTED' if not bad_unique_report.sound else 'missed!'} "
      f"(failing rule: {bad_unique_report.failures[0].obligation.rule})\n\n")

    # ---------------------------------------------------------- section 6
    w("## Section 6 — qualifier-checking time (tests/test_experiments_module.py)\n\n")
    w('Paper: "the extra compile time for performing qualifier checking in\n')
    w('CIL is under one second."\n\n')
    tt = typecheck_timings()
    w("| program | lines | seconds |\n|---|---:|---:|\n")
    for name, row in tt.items():
        w(f"| {name} | {row['lines']} | {row['seconds']:.3f} |\n")
    w("\n")

    # ---------------------------------------------------------- extensions
    w("## Extension ablations (section 8 future work, implemented)\n\n")
    from repro.analysis.annotate import annotate_nonnull
    from repro.analysis.infer import infer_value_qualifier
    from repro.analysis.experiments import compile_corpus
    from repro.core.qualifiers.ast import QualifierSet
    from repro.core.qualifiers.library import NONNULL
    from repro.corpus import generate_dfa_module

    program = compile_corpus(generate_dfa_module())
    fi = annotate_nonnull(program)
    fs = annotate_nonnull(program, flow_sensitive=True)
    w("**Flow-sensitive guard refinement** (tests/test_flow_sensitive.py): the\n")
    w("paper attributes its Table 1 casts chiefly to flow-insensitivity\n")
    w("(§6.1) and plans flow-sensitivity as future work.  Measured effect\n")
    w("on the Table 1 corpus:\n\n")
    w("| | annotations | casts | errors |\n|---|---:|---:|---:|\n")
    w(f"| flow-insensitive (paper's system) | {fi.annotations} | {fi.casts} | {fi.errors} |\n")
    w(f"| + guard refinement | {fs.annotations} | {fs.casts} | {fs.errors} |\n\n")
    reduction = 100 * (fi.casts - fs.casts) / max(1, fi.casts)
    w(f"The NULL-guard idiom casts disappear: {reduction:.0f}% fewer casts.\n\n")

    inferred = infer_value_qualifier(program, NONNULL, QualifierSet([NONNULL]))
    w("**Qualifier inference** (§8; CQUAL had it): the greatest cast-free\n")
    w(f"annotation finds {inferred.count} nonnull sites automatically\n")
    w(f"({len(inferred.demoted)} demoted) in {inferred.iterations} fixpoint "
      f"iteration(s) —\n")
    w("see `examples/infer_annotations.py`.\n\n")

    # ------------------------------------------------------------- thm 5.1
    w("## Theorem 5.1 — preservation (tests/test_preservation_property.py)\n\n")
    w("Property-based tests over the §5 calculus: randomly generated\n")
    w("programs are typechecked with the full qualifier library, evaluated\n")
    w("by the big-step semantics, and the result checked against the\n")
    w("semantic-conformance relation of figure 11.  The complementary\n")
    w("negative test shows the `E1 - E2` mutation of pos — which the\n")
    w("soundness checker rejects — indeed breaks conformance at run time.\n\n")

    # ------------------------------------------------------------ figures
    w("## Figures 1, 3, 4, 5, 7, 12 — qualifier definitions\n\n")
    w("Each figure's definition is stored verbatim in\n")
    w("`repro/core/qualifiers/library.py` and parsed by the rule-language\n")
    w("parser at import time; `tests/test_qual_parser.py` pins their ASTs\n")
    w("and `tests/test_soundness.py` proves each sound.  Figure 2 (lcm),\n")
    w("figure 6 (make_array) and the §2 code snippets appear as checker\n")
    w("tests in `tests/test_checker_value.py` / `tests/test_checker_ref.py`.\n")

    return out.getvalue()


if __name__ == "__main__":
    content = main()
    with open("EXPERIMENTS.md", "w") as f:
        f.write(content)
    sys.stdout.write(content)
