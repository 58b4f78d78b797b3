"""Canonical fingerprints for proof obligations.

A cache entry is addressed by *content*, never by file name or rule
position: two keys identify it —

* the **obligation key**: a SHA-256 over a canonical S-expression
  rendering of the goal formula plus any per-obligation extra axioms.
  Renaming a ``.qual`` file or reordering its clauses leaves the key
  unchanged; editing a predicate, an invariant, or a referenced
  qualifier's definition (whose invariant is inlined into the goal)
  changes it.
* the **environment key**: a SHA-256 over the prover's axiom set, an
  arbitrary context string (the soundness checker passes the qualifier
  definition's normalized source text), and the prover version salt.
  Bumping the salt, changing the dynamic-semantics axioms, or editing
  the definition text invalidates every entry proved under the old
  environment — those entries are detected as *stale* and purged.

The canonical rendering is a deliberate, versioned format (not
``repr``/``pickle``): every constructor of the term/formula language is
spelled out below, including quantifier triggers, which affect what the
prover can prove and therefore belong in the identity.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from repro.prover.terms import Formula, Term


#: Salt mixed into every environment key.  Bump the trailing integer
#: whenever the prover's search behaviour changes in a way that could
#: flip a verdict (new lemma schemas, different instantiation strategy,
#: fixed unsoundness) — every cached result proved by the old prover
#: then reads as stale instead of being trusted.
PROVER_SALT = "repro-prover/1"


class ProofKey(NamedTuple):
    """The two-part content address of one proof obligation."""

    obligation: str  # hex digest of the goal (+ extra axioms)
    environment: str  # hex digest of (axioms, context, salt)

    def __str__(self) -> str:
        return f"{self.obligation[:12]}@{self.environment[:12]}"


# ------------------------------------------------------- canonical rendering


_terms_loaded = False


def _load_terms() -> None:
    """Bind the term classes the renderers dispatch on as module
    globals, on the first render: a check loads this module for its
    function fingerprints and never renders a term, so it never loads
    ``repro.prover.terms``.  Import per rendered formula, never per
    node (docs/architecture.md, "Import layering")."""
    global _terms_loaded
    global And, Eq, Exists, FFalse, ForAll, FTrue, Iff, Implies, Le, Lt
    global Not, Or, Pr, TApp, TInt, TVar
    if _terms_loaded:
        return
    from repro.prover.terms import (
        And,
        Eq,
        Exists,
        FFalse,
        ForAll,
        FTrue,
        Iff,
        Implies,
        Le,
        Lt,
        Not,
        Or,
        Pr,
        TApp,
        TInt,
        TVar,
    )

    _terms_loaded = True


def canonical_term(t: Term) -> str:
    _load_terms()
    return _term(t)


def canonical_formula(f: Formula) -> str:
    _load_terms()
    return _formula(f)


def _term(t: Term) -> str:
    if isinstance(t, TVar):
        return f"(v {t.name})"
    if isinstance(t, TInt):
        return f"(i {t.value})"
    if isinstance(t, TApp):
        if not t.args:
            return f"(a {t.fname})"
        args = " ".join(_term(a) for a in t.args)
        return f"(a {t.fname} {args})"
    raise TypeError(f"unknown term {t!r}")


def _formula(f: Formula) -> str:
    if isinstance(f, FTrue):
        return "(true)"
    if isinstance(f, FFalse):
        return "(false)"
    if isinstance(f, Eq):
        return f"(= {_term(f.left)} {_term(f.right)})"
    if isinstance(f, Le):
        return f"(<= {_term(f.left)} {_term(f.right)})"
    if isinstance(f, Lt):
        return f"(< {_term(f.left)} {_term(f.right)})"
    if isinstance(f, Pr):
        args = " ".join(_term(a) for a in f.args)
        return f"(pr {f.name} {args})"
    if isinstance(f, Not):
        return f"(not {_formula(f.operand)})"
    if isinstance(f, And):
        return "(and " + " ".join(_formula(c) for c in f.conjuncts) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(_formula(d) for d in f.disjuncts) + ")"
    if isinstance(f, Implies):
        return f"(=> {_formula(f.left)} {_formula(f.right)})"
    if isinstance(f, Iff):
        return f"(<=> {_formula(f.left)} {_formula(f.right)})"
    if isinstance(f, ForAll):
        trig = " ".join(
            "(trigger " + " ".join(_term(p) for p in pattern) + ")"
            for pattern in f.triggers
        )
        return (
            f"(forall ({' '.join(f.vars)}) "
            + (f"{trig} " if trig else "")
            + _formula(f.body)
            + ")"
        )
    if isinstance(f, Exists):
        return f"(exists ({' '.join(f.vars)}) {_formula(f.body)})"
    raise TypeError(f"unknown formula {f!r}")


# ------------------------------------------------------------------ hashing


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")  # unambiguous part separator
    return h.hexdigest()


def obligation_key(goal: Formula, extra_axioms: Iterable[Formula] = ()) -> str:
    """Content hash of one obligation: the goal and its local axioms."""
    return _digest(
        ["goal", canonical_formula(goal)]
        + [canonical_formula(ax) for ax in extra_axioms]
    )


def environment_key(
    axioms: Iterable[Formula], context: str = "", salt: str = PROVER_SALT
) -> str:
    """Content hash of everything an obligation is proved *under*."""
    return _digest(
        ["env", salt, context] + [canonical_formula(ax) for ax in axioms]
    )


def proof_key(
    goal: Formula,
    axioms: Iterable[Formula],
    extra_axioms: Iterable[Formula] = (),
    context: str = "",
    salt: str = PROVER_SALT,
) -> ProofKey:
    """The full two-part cache key for one proof attempt."""
    return ProofKey(
        obligation=obligation_key(goal, extra_axioms),
        environment=environment_key(axioms, context=context, salt=salt),
    )


# ------------------------------------------------- function granularity
#
# Obligation keys address *prover* work; the fingerprints below address
# *checker* work at function granularity, so a warm workspace (see
# ``repro.api.Workspace`` and ``repro serve``) can re-check only the
# functions an edit actually touched and replay the cached per-function
# verdicts for everything else.
#
# A function's fingerprint covers everything its check verdict depends
# on:
#
# * its own lowered body, rendered canonically (so whitespace and
#   comment edits in the original source change nothing);
# * the *interface digest* of its translation unit — every declared
#   signature, struct/union layout, and global type.  This is a sound
#   over-approximation of "referenced definitions": editing a function
#   body invalidates only that function, while editing any signature or
#   type invalidates the whole unit;
# * the *qualifier environment digest* — the normalized source text of
#   every loaded qualifier definition (the checker's axiom
#   environment), so editing a ``.qual`` file re-checks everything;
# * the checker mode flags that change what is reported
#   (``flow_sensitive``).
#
# Source locations are deliberately **excluded**: an edit that only
# shifts later functions down the file replays their verdicts
# unchanged.  Replayed diagnostics therefore carry the spans recorded
# when the function was last checked (see docs/serve.md).

#: Salt mixed into every function fingerprint.  Bump when the checker's
#: behaviour changes in a way that could alter a verdict, so warm
#: workspaces re-check instead of replaying stale verdicts.
CHECKER_SALT = "repro-checker/1"


def prove_environment_digest(
    axioms: Iterable[Formula],
    quals,
    time_limit: float,
    retries: int,
    qualifier: "str | None" = None,
) -> str:
    """Content hash of everything a unit's *prove report* depends on
    beyond its own source text: the dynamic-semantics axioms, the
    composed qualifier environment (standard definitions can shadow or
    be shadowed), the proof budgets (they can flip ``GAVE_UP`` /
    ``TIMEOUT`` verdicts), and the ``--qualifier`` filter.  A warm
    workspace replays a unit's stored prove report only while this
    digest and the unit's source digest both match."""
    return _digest(
        [
            "proveenv",
            PROVER_SALT,
            qualifier_env_digest(quals),
            f"limit={time_limit!r}",
            f"retries={retries}",
            f"only={qualifier or ''}",
        ]
        + [canonical_formula(ax) for ax in axioms]
    )


def source_digest(text: str) -> str:
    """Content hash of one translation unit's raw source text (the
    cheapest whole-unit change test — a match skips even the parse)."""
    return _digest(["src", CHECKER_SALT, text])


def qualifier_env_digest(quals) -> str:
    """Content hash of a composed qualifier set — the checker's axiom
    environment.  Order-insensitive over the *composed* set: what
    matters is which definitions won, not how they were loaded."""
    parts = ["qualenv", CHECKER_SALT]
    for qdef in sorted(quals, key=lambda d: d.name):
        parts.append(qdef.name)
        parts.append(qdef.source or repr(qdef))
    return _digest(parts)


def interface_digest(program) -> str:
    """Content hash of one unit's declared surface: every signature,
    formal parameter name, struct/union layout, and global type.
    Folded into every function fingerprint in the unit, so an interface
    edit re-checks them all (a call's diagnostics name the callee's
    formals)."""
    from repro.cil.printer import type_to_str

    parts = ["iface", CHECKER_SALT]
    for name in sorted(program.structs):
        kind = "union" if name in program.unions else "struct"
        fields = ";".join(
            f"{fname}:{type_to_str(ftype)}"
            for fname, ftype in program.structs[name]
        )
        parts.append(f"{kind} {name} {{{fields}}}")
    for g in sorted(program.globals, key=lambda g: g.name):
        parts.append(f"global {g.name}:{type_to_str(g.ctype)}")
    for name in sorted(program.signatures):
        parts.append(f"sig {name}:{type_to_str(program.signatures[name])}")
    for name in sorted(program.formal_names):
        parts.append(f"formals {name}:{','.join(program.formal_names[name])}")
    return _digest(parts)


def function_fingerprint(
    func,
    interface: str,
    env: str,
    flow_sensitive: bool = False,
) -> str:
    """The content fingerprint one function's check verdict is keyed
    by: canonical body + unit interface + qualifier environment +
    checker mode.  This prints the function whole; the workspace
    derives the same digest from its text in parts
    (:func:`unit_function_fingerprints`)."""
    from repro.cil.printer import function_to_c

    return _digest(
        [
            "fn",
            CHECKER_SALT,
            func.name,
            function_to_c(func),
            interface,
            env,
            "flow" if flow_sensitive else "noflow",
        ]
    )


class FunctionText(NamedTuple):
    """A function's :func:`repro.cil.printer.function_to_c` text in
    parts, UTF-8 encoded: the header (signature and locals) and one
    entry per top-level statement of its body (empty for a statement
    that renders no line)."""

    header: bytes
    statements: "list[bytes]"


def function_text(func, earlier=None) -> FunctionText:
    """``func``'s text in parts.  ``earlier`` is None or ``(function,
    text)`` for an earlier lowering of it: a top-level statement that is
    the same object as one of ``function``'s keeps that one's text
    instead of being printed again (a statement prints the same
    wherever it stands)."""
    from repro.cil.printer import function_header, statement_text

    known = {}
    if earlier is not None:
        old, text = earlier
        known = {id(stmt): part for stmt, part in zip(old.body, text.statements)}
    get = known.get
    return FunctionText(
        function_header(func).encode("utf-8"),
        [
            part if part is not None else statement_text(stmt).encode("utf-8")
            for stmt in func.body
            for part in (get(id(stmt)),)
        ],
    )


def text_fingerprint(
    name: str,
    text: FunctionText,
    interface: str,
    env: str,
    flow_sensitive: bool = False,
) -> str:
    """:func:`function_fingerprint` of the function named ``name`` whose
    text is ``text``: the hash is fed the same bytes, without printing
    the function again."""
    body = b"\n".join([text.header, *filter(None, text.statements), b"}"])
    h = hashlib.sha256()
    for part in ("fn", CHECKER_SALT, name):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    h.update(body)
    h.update(b"\x00")
    for part in (interface, env, "flow" if flow_sensitive else "noflow"):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def unit_function_fingerprints(
    program,
    env: str,
    flow_sensitive: bool = False,
    interface: str = "",
    functions=None,
    texts=None,
    earlier=None,
) -> "dict[str, str]":
    """Fingerprint every function in a lowered unit (name -> digest),
    or only those named in ``functions``.  ``interface`` is the unit's
    :func:`interface_digest` when the caller already has it.

    Each digest is derived from the function's :class:`FunctionText`
    (:func:`text_fingerprint`); with a ``texts`` dict, that text is
    stored in it under the function's name.  ``earlier`` maps a name to
    the ``earlier`` argument of :func:`function_text` for it."""
    interface = interface or interface_digest(program)
    out = {}
    for f in program.functions:
        if functions is not None and f.name not in functions:
            continue
        text = function_text(f, earlier.get(f.name) if earlier else None)
        if texts is not None:
            texts[f.name] = text
        out[f.name] = text_fingerprint(
            f.name, text, interface, env, flow_sensitive=flow_sensitive
        )
    return out
