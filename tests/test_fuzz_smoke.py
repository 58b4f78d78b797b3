"""Fuzz smoke test: seeded random mutations of the example C sources
must flow through parse -> lower -> check producing a diagnostic or a
clean report — never an uncaught exception.

This is the robustness contract the batch harness relies on: input
badness surfaces as ``ParseError``/``LexError``/``LowerError`` (or as
recovered diagnostics on the unit), everything else is a bug.
"""

import glob
import os
import random

from repro.cfront.lexer import LexError
from repro.cfront.parser import ParseError, parse_c
from repro.cil.lower import LowerError, lower_unit
from repro.core.checker.typecheck import QualifierChecker
from repro.core.qualifiers.library import standard_qualifiers
from repro.harness.watchdog import recursion_guard

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "*.c")
MUTANTS = 200
PUNCT = "{}();*&=+-<>,![]\"'%/"
# Literals that lex but have no value: recovery must report them as
# parse diagnostics, not crash.
MALFORMED_LITERALS = ["09", "08", "0x", "''"]


def _seed_sources():
    paths = sorted(glob.glob(EXAMPLES))
    assert paths, "examples/*.c are the fuzz corpus; none found"
    out = []
    for path in paths:
        with open(path) as handle:
            out.append(handle.read())
    return out


def _mutate(rng: random.Random, src: str) -> str:
    for _ in range(rng.randint(1, 4)):
        if not src:
            break
        op = rng.randrange(6)
        i = rng.randrange(len(src))
        j = min(len(src), i + rng.randint(1, 12))
        if op == 0:
            src = src[:i] + src[j:]  # delete a span
        elif op == 1:
            src = src[:i] + src[i:j] + src[i:]  # duplicate a span
        elif op == 2:
            src = src[:i] + rng.choice(PUNCT) + src[i:]  # insert punct
        elif op == 3:
            src = src[:i] + src[i:j][::-1] + src[j:]  # reverse a span
        elif op == 4:
            # add a malformed literal operand to the next statement
            k = src.find(";", i)
            if k >= 0:
                src = src[:k] + " + " + rng.choice(MALFORMED_LITERALS) + src[k:]
        else:
            src = src[: rng.randrange(len(src) + 1)]  # truncate
    return src


def _pipeline(source: str, quals) -> None:
    """parse -> lower -> typecheck; recovered parse errors are
    diagnostics, the rest of the pipeline must cope with whatever
    (possibly partial) unit recovery produced."""
    unit = parse_c(source, qualifier_names=quals.names, recover=True)
    program = lower_unit(unit)
    QualifierChecker(program, quals).check()


def test_fuzz_mutants_never_crash_the_pipeline():
    quals = standard_qualifiers()
    seeds = _seed_sources()
    rng = random.Random(0xC0FFEE)
    failures = []
    for index in range(MUTANTS):
        source = _mutate(rng, rng.choice(seeds))
        try:
            with recursion_guard():
                _pipeline(source, quals)
        except (ParseError, LexError, LowerError):
            pass  # a diagnostic, not a crash
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append((index, f"{type(exc).__name__}: {exc}", source))
    assert not failures, (
        f"{len(failures)}/{MUTANTS} mutants crashed; first: "
        f"{failures[0][1]}\nsource:\n{failures[0][2][:400]}"
    )


def test_fuzz_is_deterministic_for_a_fixed_seed():
    rng_a, rng_b = random.Random(42), random.Random(42)
    seeds = _seed_sources()
    assert [_mutate(rng_a, seeds[0]) for _ in range(5)] == [
        _mutate(rng_b, seeds[0]) for _ in range(5)
    ]


def test_strict_mode_mutants_raise_only_parse_errors():
    """Without recovery the same corpus may raise — but only the
    documented input-error types."""
    quals = standard_qualifiers()
    seeds = _seed_sources()
    rng = random.Random(1337)
    raised = 0
    for _ in range(50):
        source = _mutate(rng, rng.choice(seeds))
        try:
            with recursion_guard():
                unit = parse_c(source, qualifier_names=quals.names)
                QualifierChecker(lower_unit(unit), quals).check()
        except (ParseError, LexError, LowerError):
            raised += 1
    assert raised > 0  # the mutator does produce broken inputs
