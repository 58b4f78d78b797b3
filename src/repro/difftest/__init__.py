"""Differential and metamorphic testing of the qualifier pipeline.

The pipeline carries three independent implementations of "what a
qualifier means": the soundness *prover* (logic + axioms), the static
*checker/instrumenter* (dataflow over CIL), and the *interpreter*
(``csem``'s native invariant evaluation).  The paper's preservation
theorem (5.1) says they must agree on every program; this package makes
that claim executable over generated corpora.

Modules:

* :mod:`generator` — deterministic, seed-driven generation of
  well-formed C-subset programs and ``.qual`` definition files.
* :mod:`shadow`    — an independent "shadow" semantics for generated
  value-qualifier rules: brute-force evaluation over a bounded integer
  box, used as ground truth against prover verdicts.
* :mod:`audit`     — an interpreter subclass that re-checks declared
  qualifier invariants after every store (dynamic Thm. 5.1).
* :mod:`oracles`   — the four differential oracles (prover vs.
  enumeration, static vs. dynamic preservation, metamorphic prover
  invariance, forest vs. ddmin conflict cores).
* :mod:`minimize`  — ddmin-style shrinking of failing cases.
* :mod:`runner`    — per-case orchestration, artifact files, and the
  batch worker the CLI rides.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.difftest.runner": ("ARTIFACT_DIR", "run_case"),
    "repro.difftest.oracles": ("Finding",),
    "repro.difftest.generator": ("GenConfig", "GeneratedCase", "generate_case"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
