"""Import layering: a one-shot run loads only the layers it uses.

Each case runs in a fresh interpreter and inspects ``sys.modules``
afterwards (see docs/architecture.md, "Import layering").  The
forbidden lists are shared with the CLI stage of ``tools/ci_check.sh``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NONNULL_C = os.path.join(ROOT, "examples", "nonnull.c")
POSNEG_QUAL = os.path.join(ROOT, "examples", "posneg.qual")

#: What a check must not load: the prover (its term language included),
#: the soundness checker, the interpreters, the difftest oracles, the
#: daemon, the proof cache's sqlite and the process pool.
CHECK_FORBIDDEN = (
    "repro.prover.prover",
    "repro.prover.terms",
    "repro.core.soundness",
    "repro.semantics",
    "repro.difftest",
    "repro.serve",
    "sqlite3",
    "multiprocessing",
)

#: What a prove with the proof cache off must not load: the C front end
#: past its lexer, the IR, the checker, the interpreters and sqlite.
PROVE_FORBIDDEN = (
    "repro.cfront.parser",
    "repro.cil",
    "repro.core.checker",
    "repro.semantics",
    "sqlite3",
)


def offenders(modules, forbidden):
    """The loaded modules that are, or live under, a forbidden one."""
    return sorted(
        name
        for name in modules
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    )


def modules_after(code: str) -> set:
    """Run ``code`` in a fresh interpreter; the modules it left loaded."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_repro_loads_no_submodule():
    loaded = modules_after("import repro")
    assert "repro" in loaded
    assert offenders(loaded, ("repro",)) == ["repro"]


def test_oneshot_check_loads_no_prover_or_daemon():
    loaded = modules_after(
        "import repro\n"
        "with repro.Workspace(incremental=False) as ws:\n"
        f"    report = ws.check(repro.CheckRequest(files=({NONNULL_C!r},)))\n"
        "assert report.exit_code == 0, report.to_dict()\n"
    )
    assert "repro.cfront.parser" in loaded  # the check really ran
    assert offenders(loaded, CHECK_FORBIDDEN) == []


def test_uncached_prove_loads_no_c_front_end():
    loaded = modules_after(
        "import repro\n"
        "with repro.Workspace(incremental=False) as ws:\n"
        "    report = ws.prove(\n"
        f"        repro.ProveRequest(files=({POSNEG_QUAL!r},), cache=False)\n"
        "    )\n"
        "assert report.exit_code == 0, report.to_dict()\n"
    )
    assert "repro.prover.prover" in loaded  # the prove really ran
    assert offenders(loaded, PROVE_FORBIDDEN) == []
