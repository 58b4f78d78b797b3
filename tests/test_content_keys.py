"""Content keys are pinned byte for byte.

Proof-cache keys (obligation and environment digests) and per-function
check fingerprints address persisted state: the on-disk proof cache,
a warm workspace's replay store and the serve daemon's.  A change in
how any of them renders, for example ``qualifier_env_digest`` falling
back to ``repr(qdef)``, silently invalidates every stored entry.  This
test recomputes both kinds of key for the standard library,
``examples/*.qual`` and ``examples/*.c``, plus the qualifier
environment digest of source-less definitions, and compares them with
``tests/golden/keys.json``.

Regenerate the golden only for a deliberate format change (and bump
the matching salt in ``repro.cache.fingerprint``):

    PYTHONPATH=src python tests/test_content_keys.py --write
"""

from __future__ import annotations

import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "keys.json")


def _rel(path: str) -> str:
    return os.path.relpath(path, ROOT).replace(os.sep, "/")


def _proof_keys(defs, quals, axioms) -> dict:
    """``{qualifier: [[obligation key, environment key], ...]}``."""
    from repro.cache.fingerprint import environment_key, obligation_key
    from repro.core.soundness.obligations import generate_obligations

    out = {}
    for qdef in defs:
        env = environment_key(list(axioms), context=qdef.source)
        out[qdef.name] = [
            [obligation_key(obligation.goal), env]
            for obligation in generate_obligations(qdef, quals)
        ]
    return out


def compute_keys() -> dict:
    from repro.cache.fingerprint import (
        qualifier_env_digest,
        unit_function_fingerprints,
    )
    from repro.cfront.parser import parse_c
    from repro.cil.lower import lower_unit
    from repro.core.qualifiers.ast import QualifierSet
    from repro.core.qualifiers import library
    from repro.core.qualifiers.library import standard_qualifiers
    from repro.core.qualifiers.parser import parse_qualifier, parse_qualifiers
    from repro.core.soundness.axioms import semantics_axioms

    axioms = semantics_axioms()
    std = standard_qualifiers()
    proofs = {"<standard>": _proof_keys(list(std), std, axioms)}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.qual"))):
        with open(path) as fh:
            defs = parse_qualifiers(fh.read())
        # Composed as ``repro prove`` composes a file with the library.
        quals = QualifierSet(
            list(std) + [d for d in defs if d.name not in std.names]
        )
        proofs[_rel(path)] = _proof_keys(defs, quals, axioms)

    env = qualifier_env_digest(std)
    functions = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.c"))):
        with open(path) as fh:
            source = fh.read()
        program = lower_unit(
            parse_c(source, qualifier_names=std.names, filename=_rel(path))
        )
        functions[_rel(path)] = {
            mode: unit_function_fingerprints(
                program, env, flow_sensitive=(mode == "flow")
            )
            for mode in ("noflow", "flow")
        }
    # Every shipped definition carries its source text, so the digest
    # above never reaches its ``repr(qdef)`` fallback; pin that too, on
    # fresh parses (the library's definitions are shared singletons).
    bare = QualifierSet(
        [
            parse_qualifier(getattr(library, name.upper() + "_SOURCE"))
            for name in sorted(std.names)
        ]
    )
    for qdef in bare:
        qdef.source = ""
    return {
        "proof_keys": proofs,
        "function_fingerprints": functions,
        "qualifier_env_by_repr": qualifier_env_digest(bare),
    }


def test_content_keys_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    fresh = compute_keys()
    assert fresh["proof_keys"].keys() == golden["proof_keys"].keys()
    for unit, keys in golden["proof_keys"].items():
        assert fresh["proof_keys"][unit] == keys, unit
    assert fresh["function_fingerprints"] == golden["function_fingerprints"]
    assert fresh["qualifier_env_by_repr"] == golden["qualifier_env_by_repr"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_content_keys.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(compute_keys(), fh, indent=1, sort_keys=True)
        fh.write("\n")
