"""A prove report does not depend on ``PYTHONHASHSEED``.

String hashes, and with them the iteration order of sets of terms,
differ between interpreters.  A choice the prover makes by set order
(which variable Fourier–Motzkin eliminates among equal costs, which
class member equalities are paired with) changes the search, and so
the conflict and instance counts a report prints.  Each test here runs
the same work in interpreters with different hash seeds and compares
the output byte for byte.
"""

import os
import random
import subprocess
import sys

from repro.core.qualifiers.library import UNTAINTED_WITH_CONSTS, standard_qualifiers
from repro.difftest.generator import GenConfig, QualGenerator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Generated value files whose reports moved with the hash seed when
#: the elimination variable was chosen by set order.
GENERATED = (30, 39, 43)

PROVE_SCRIPT = r"""
import json, re, sys
from repro import api

TIME = re.compile(r"\d+\.\d+ m?s\b")

def scrub(x):
    if isinstance(x, dict):
        return {k: scrub(v) for k, v in x.items() if k not in ("elapsed", "timings")}
    if isinstance(x, list):
        return [scrub(v) for v in x]
    if isinstance(x, float):
        return "<float>"
    if isinstance(x, str):
        return TIME.sub("<time>", x)
    return x

with api.Workspace() as ws:
    for path in sys.argv[1:]:
        report = ws.prove(api.ProveRequest(files=(path,), cache=False, jobs=1))
        print(json.dumps(scrub(report.to_dict()["units"]), sort_keys=True))
"""

PROPAGATE_SCRIPT = r"""
from repro.prover.combine import _propagate
from repro.prover.euf import CongruenceClosure
from repro.prover.linarith import make_le
from repro.prover.terms import fn

terms = [fn(f"x{i}") for i in range(6)]
cc = CongruenceClosure()
for t in terms:
    cc.add_term(t)
for t in terms[1:]:
    cc.assert_eq(terms[0], t)
constraints = [make_le(t, fn("k"), strict=False) for t in terms]
_propagate(cc, constraints, [])
print([repr(c) for c in constraints])
"""


def _run(script, args, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _qual_files(tmp_path):
    files = []

    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        files.append(str(path))

    write("std.qual", "\n".join(d.source for d in standard_qualifiers()))
    write("std_consts.qual", UNTAINTED_WITH_CONSTS.source)
    for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
        if name.endswith(".qual"):
            files.append(os.path.join(ROOT, "examples", name))
    for index in GENERATED:
        text, _names = QualGenerator(
            random.Random(f"hashseed:{index}"), GenConfig(n_qualifiers=4)
        ).generate()
        write(f"g{index:03d}.qual", text)
    return files


def test_prove_reports_are_identical_under_two_hash_seeds(tmp_path):
    files = _qual_files(tmp_path)
    first = _run(PROVE_SCRIPT, files, 0)
    assert first.count("\n") == len(files)
    assert "PROVED" in first and "REFUTED" in first
    assert _run(PROVE_SCRIPT, files, 3) == first


def test_propagation_pairs_class_members_in_insertion_order():
    # One class of six arithmetic terms: the equalities handed to the
    # arithmetic side pair its first-inserted member with each other
    # one, whatever order a set of the members would iterate in.
    outputs = {_run(PROPAGATE_SCRIPT, [], seed) for seed in range(4)}
    assert len(outputs) == 1
    (output,) = outputs
    assert "1*x0 + -1*x1 + 0 = 0" in output
