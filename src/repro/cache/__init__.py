"""Content-addressed proof cache (see docs/caching.md).

The prover re-proves byte-identical obligations on every invocation;
at corpus scale that is the hot path.  This package memoizes settled
verdicts — ``PROVED``/``REFUTED``, never budget-dependent outcomes —
keyed by a canonical fingerprint of the obligation and everything it
was proved under, so warm re-checks skip the prover entirely and
edited definitions invalidate themselves.
"""

from repro import _lazy_exports

#: Default on-disk location of the proof cache.  Defined here, not in
#: :mod:`repro.cache.store`, so naming the default (every CLI parser
#: and request does) does not load sqlite.
DEFAULT_CACHE_DIR = ".repro-cache"

_EXPORTS = {
    "repro.cache.fingerprint": (
        "PROVER_SALT", "ProofKey", "canonical_formula", "canonical_term",
        "environment_key", "obligation_key", "proof_key",
    ),
    "repro.cache.store": ("CACHE_FORMAT", "CACHEABLE_VERDICTS", "ProofCache"),
}

_exported, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [*_exported, "DEFAULT_CACHE_DIR"]
