"""A Simplify-style automatic theorem prover.

The original system discharged its proof obligations with Simplify, the
Nelson–Oppen prover from ESC/Java.  This package reimplements the
fragment those obligations need:

* a DPLL SAT core over the boolean structure (lazy SMT),
* congruence closure for equality with uninterpreted functions,
* Fourier–Motzkin integer linear arithmetic (with tightening),
* Nelson–Oppen-style equality exchange between the two theories,
* sign/zero lemmas for nonlinear products (Simplify used comparable
  heuristics for multiplication), and
* trigger-based E-matching instantiation of universally quantified
  axioms.

The top-level entry point is :class:`Prover`: add axioms (possibly
quantified), then ``prove(goal)``.  Like Simplify, a failed proof means
"not proven" — the obligation may be invalid or merely beyond the
prover; the soundness checker reports it as a potential unsoundness
either way.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.prover.terms": (
        "And", "Eq", "Exists", "FALSE", "ForAll", "Formula", "Iff", "Implies",
        "Int", "Le", "Lt", "Not", "Or", "Pr", "TRUE", "Term", "TInt", "TApp",
        "TVar", "fn",
    ),
    "repro.prover.prover": ("Prover", "ProofResult"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
