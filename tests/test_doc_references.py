"""The prose names only what exists.

Every ``python -m repro <sub>`` in README.md, DESIGN.md and docs/*.md
must be a subcommand of the CLI's parser, and every ``benchmarks/*.py``
or ``BENCH_*.json`` path they name must exist, so a deleted command or
benchmark file cannot linger in the docs.
"""

import argparse
import glob
import os
import re

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "DESIGN.md"] + sorted(
    os.path.relpath(p, ROOT) for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))
)

SUBCOMMAND = re.compile(r"python3? -m repro\s+([a-z][\w-]*)")
BENCH_PATH = re.compile(r"benchmarks/[\w/.-]*\.py|BENCH_\w+\.json")


def _subcommands():
    (sub,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(sub.choices)


def _read(doc):
    with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("doc", DOCS)
def test_named_subcommands_exist(doc):
    known = _subcommands()
    named = set(SUBCOMMAND.findall(_read(doc)))
    assert not named - known, f"{doc} names unknown subcommands"


@pytest.mark.parametrize("doc", DOCS)
def test_named_benchmark_files_exist(doc):
    missing = sorted(
        path
        for path in set(BENCH_PATH.findall(_read(doc)))
        if not os.path.exists(os.path.join(ROOT, path))
    )
    assert not missing, f"{doc} names missing files"


def test_the_patterns_see_the_docs():
    """Guard the guard: the docs do name subcommands and benchmark
    files, so an empty match means a broken pattern, not clean docs."""
    text = "".join(_read(doc) for doc in DOCS)
    assert {"check", "prove", "serve"} <= set(SUBCOMMAND.findall(text))
    assert "benchmarks/bench_prover.py" in BENCH_PATH.findall(text)
