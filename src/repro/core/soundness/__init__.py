"""The automated soundness checker (paper section 4).

Takes a qualifier definition, generates one proof obligation per type
rule (case clauses for value qualifiers; assign/ondecl establishment
plus a preservation obligation for reference qualifiers), and
discharges them with the Simplify-style prover.  A rule whose
obligation cannot be proven is reported as potentially unsound — e.g.
the paper's ``E1 - E2`` mutation of ``pos``, or ``unique`` without its
``disallow`` clause.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.core.soundness.axioms": ("semantics_axioms",),
    "repro.core.soundness.checker": (
        "Obligation", "ObligationResult", "SoundnessReport", "check_soundness",
        "check_all_soundness",
    ),
    "repro.core.soundness.obligations": ("generate_obligations",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
