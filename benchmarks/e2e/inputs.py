"""Seeded inputs for the four end-to-end workloads.

Every input is a pure function of ``(workload, seed, scale)``: the
parent process writes it into a fresh directory before any child
starts, and the child only reads it (edited files are materialized
into the child's own run directory, see :func:`materialize`).  The
generators are the repository's own: :mod:`repro.corpus` (the dfa.c
and bftpd/mingetty/identd stand-ins), :mod:`repro.difftest.generator`
(C programs and ``.qual`` files) and the paper's definitions in
:mod:`repro.core.qualifiers.library`.

Each workload's mix is a fixed repeating pattern whose slots are
filled from the seed, so every seed loads the system the same way
(same share of heavy units, same share of ref-qualifier proofs) while
the texts differ.  That keeps run-to-run spread across seeds small.

An editable file is stored as *segments*: the text split around its
editable integer literals, ``text = s[0] + v[0] + s[1] + v[1] + ...``.
An edit replaces one literal, so edits never move a line.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Dict, List, Tuple

from repro.core.qualifiers import library
from repro.corpus import (
    generate_bftpd,
    generate_dfa_module,
    generate_identd,
    generate_mingetty,
)
from repro.difftest.generator import GenConfig, ProgramGenerator, QualGenerator

#: check_cold draws its units from one fixed pool, so the pinned
#: expected results in ``expected/check_cold-pool.json`` cover every
#: seed.  Each kind of unit comes in size classes; a unit's slot in the
#: run fixes its kind and class, and the seed picks which variant of
#: that class fills it.  Every seed therefore checks the same sizes in
#: the same order, and only the texts differ.
GEN_SIZES = (50, 75, 100, 125, 150, 175, 200, 225, 250, 275)  # statements
DFA_SCALES = (0.3, 0.45, 0.6, 0.75, 0.9)   # of grep's dfa.c calibration
SERVERS = ("bftpd", "mingetty", "identd")
POOL_VARIANTS = {"gen": 50, "dfa": 10, "srv": 16}
POOL_CLASSES = {"gen": len(GEN_SIZES), "dfa": len(DFA_SCALES),
                "srv": len(SERVERS)}

#: One period of the check_cold mix: 10 generated programs, two dfa.c
#: stand-ins, one server stand-in.  With 2 of 13 units large, p90 lands
#: inside one dfa.c size class rather than on the edge between kinds.
CHECK_COLD_PATTERN = ("gen",) * 5 + ("dfa",) + ("gen",) * 5 + ("dfa", "srv")
CHECK_COLD_UNITS = 300

#: One period of the prove_cold mix: 10 generated value-qualifier files
#: and 3 renamed ref-qualifier files (about 500 : 150 over a run).
PROVE_COLD_PATTERN = ("value",) * 4 + ("ref",) + ("value",) * 3 + (
    "ref",) + ("value",) * 3 + ("ref",)
PROVE_COLD_FILES = 650

CHECK_EDIT_EDITS = 1500   # pre-generated per client; runs cycle past the end
PROVE_EDIT_EDITS = 2000

#: Clause kinds of the generated qualifiers in the prove_edit library,
#: three qualifiers of each: every seed's library has the same
#: structure, so the same share of edits lands on costly qualifiers.
#: No two of them share an invariant.  Two qualifiers with the same
#: invariant and the same clause have the same obligation, and a proof
#: cache miss purges that obligation's entries under other definitions,
#: so each re-prove of the library would evict the other's entry and
#: prove both again.
LIBRARY_SHAPES = (
    ("const",), ("const", "pvar"), ("addsub", "const"), ("const", "uminus"),
    ("const", "const"), ("const", "mult"), ("addsub", "const", "pvar"),
    ("const", "const", "uminus"),
)

#: The library spans this many files of generated qualifiers, one of
#: each shape per file, plus a file with the renamed ref qualifiers.
#: An edit touches one file, so every re-prove also replays the
#: unchanged files whole (the workspace's unit replay).
LIBRARY_FILES = 3

#: Rule constants of prove_edit stay within this magnitude: the
#: generator draws them from [-2, 2], and the brute-force box of
#: repro.difftest.shadow (half-width 9) witnesses any counterexample
#: that close to zero.
CONST_LIMIT = 3

#: The prover refutes valid rules whose where-condition compares the
#: constant for disequality with a negative number (``C != -1`` with
#: ``invariant value(E) != -1``): the condition's ``-1`` reaches it as
#: the term ``0 - 1``, which the disequality keeps out of linear
#: arithmetic.  Generated rules stay out of that fragment, so every
#: timed proof has a known answer the prover can reach.
_NEGATIVE_DISEQUALITY = re.compile(r"C != -(\d+)")


def _known_fragment(qual_text: str) -> str:
    return _NEGATIVE_DISEQUALITY.sub(r"C != \1", qual_text)


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ------------------------------------------------------------- check_cold


def pool_unit(kind: str, size_class: int, variant: int) -> Tuple[str, bool]:
    """Source of one check_cold pool unit and whether it is checked
    flow-sensitively (the generated programs are, as in difftest)."""
    rng = random.Random(f"check_cold:{kind}:{size_class}:{variant}")
    if kind == "dfa":
        return _dfa(rng, DFA_SCALES[size_class]), False
    if kind == "srv":
        return _server(rng, SERVERS[size_class]), False
    config = GenConfig(size=GEN_SIZES[size_class], n_qualifiers=0)
    return ProgramGenerator(rng, config, []).generate(), True


def pool_units():
    """Every ``(kind, size class, variant)`` of the check_cold pool."""
    return [
        (kind, size_class, variant)
        for kind, classes in POOL_CLASSES.items()
        for size_class in range(classes)
        for variant in range(POOL_VARIANTS[kind])
    ]


def _dfa(rng: random.Random, scale: float) -> str:
    return generate_dfa_module(
        n_transition_helpers=_scaled(17, scale),
        n_analysis_helpers=_scaled(15, scale),
        n_guarded_helpers=_scaled(14, scale),
        n_builders=_scaled(10, scale),
        n_scalar_helpers=_scaled(52, scale),
        seed=rng.randrange(1 << 30),
    )


def _server(rng: random.Random, which: str) -> str:
    """A server stand-in at its default size, give or take a sixth."""
    def near(n: int) -> int:
        return max(1, n + rng.randint(-n // 6, n // 6))

    if which == "bftpd":
        return generate_bftpd(near(15), near(11), near(12))
    if which == "mingetty":
        return generate_mingetty(near(9), near(3))
    return generate_identd(near(6), near(5))


def _check_cold(seed: int, out: str, scale: float) -> dict:
    rng = random.Random(f"check_cold:{seed}")
    variants = {
        (kind, size_class): rng.sample(
            range(POOL_VARIANTS[kind]), POOL_VARIANTS[kind]
        )
        for kind, classes in POOL_CLASSES.items()
        for size_class in range(classes)
    }
    taken = {kind: 0 for kind in POOL_CLASSES}
    units = []
    for position in range(_scaled(CHECK_COLD_UNITS, scale, floor=12)):
        kind = CHECK_COLD_PATTERN[position % len(CHECK_COLD_PATTERN)]
        size_class = taken[kind] % POOL_CLASSES[kind]
        order = variants[(kind, size_class)]
        variant = order[taken[kind] // POOL_CLASSES[kind] % len(order)]
        taken[kind] += 1
        text, flow = pool_unit(kind, size_class, variant)
        path = f"u{position:03d}.c"
        _write(os.path.join(out, path), text)
        units.append({
            "path": path,
            "id": f"{kind}-{size_class}-{variant}",
            "flow_sensitive": flow,
        })
    return {"units": units}


# ------------------------------------------------------------- check_edit

_FUNC_HEADER = re.compile(r"^[A-Za-z_].*\)\s*\{\s*$")
_STRING_OR_COMMENT = re.compile(r'"(?:[^"\\]|\\.)*"|/\*.*?\*/|//.*$')
_INT_LITERAL = re.compile(r"(?<![\w.])[1-9][0-9]*(?![\w.])")


def c_segments(text: str) -> Tuple[List[str], List[str]]:
    """Split C source around the nonzero integer literals inside
    function bodies (never in strings, comments, globals or struct
    declarations)."""
    segments: List[str] = []
    values: List[str] = []
    pending: List[str] = []
    in_body = False
    for line in text.split("\n"):
        cut = 0
        if in_body and line != "}":
            blanked = _STRING_OR_COMMENT.sub(
                lambda m: " " * len(m.group(0)), line
            )
            for match in _INT_LITERAL.finditer(blanked):
                pending.append(line[cut:match.start()])
                segments.append("".join(pending))
                pending = []
                values.append(match.group(0))
                cut = match.end()
        pending.append(line[cut:] + "\n")
        if _FUNC_HEADER.match(line):
            in_body = True
        elif line == "}":
            in_body = False
    tail = "".join(pending)
    segments.append(tail[:-1])  # the split added one "\n" too many
    return segments, values


def join_segments(segments: List[str], values: List[str]) -> str:
    parts = [segments[0]]
    for value, segment in zip(values, segments[1:]):
        parts.append(value)
        parts.append(segment)
    return "".join(parts)


def _bump_c_literal(rng: random.Random, old: str) -> str:
    """A different literal with the same digit count and no zero."""
    value = int(old)
    low, high = max(1, 10 ** (len(old) - 1)), 10 ** len(old) - 1
    options = [v for v in (value - 1, value + 1) if low <= v <= high]
    return str(rng.choice(options))


#: Statement counts of the three generated programs in a project.
PROJECT_GEN_SIZES = (200, 230, 260)


def _project(rng: random.Random) -> List[str]:
    """About 4k lines in five units: one dfa.c stand-in, the bftpd
    stand-in and three generated programs."""
    texts = [_dfa(rng, 0.6), generate_bftpd()]
    for size in PROJECT_GEN_SIZES:
        config = GenConfig(size=size, n_qualifiers=0)
        texts.append(ProgramGenerator(rng, config, []).generate())
    return texts


def _check_edit(seed: int, out: str, scale: float) -> dict:
    clients = []
    for number, config in enumerate(({}, {"trust_constants": True})):
        rng = random.Random(f"check_edit:{seed}:{number}")
        files = []
        current = []
        for index, text in enumerate(_project(rng)):
            segments, values = c_segments(text)
            files.append({
                "path": f"p{number}/unit{index}.c",
                "segments": segments,
                "values": values,
            })
            current.append(list(values))
        edits = []
        for count in range(_scaled(CHECK_EDIT_EDITS, scale, floor=50)):
            # Files take turns, so every run edits the same mix of
            # large and small units; the seed picks the literal.
            file_index = count % len(files)
            literal = rng.randrange(len(current[file_index]))
            new = _bump_c_literal(rng, current[file_index][literal])
            current[file_index][literal] = new
            edits.append([file_index, literal, new])
        clients.append({"config": config, "files": files, "edits": edits})
    return {"clients": clients, "snapshot_every": 50, "snapshots": 3}


# ------------------------------------------------------------- prove_cold


def renamed(source: str, old: str, new: str) -> str:
    """A paper definition under another name (only the header names it)."""
    header = re.compile(rf"qualifier {old}\(")
    renamed_text, count = header.subn(f"qualifier {new}(", source, count=1)
    if count != 1:
        raise ValueError(f"no definition of {old!r} to rename")
    return renamed_text


#: The paper's two unsound mutants (§4) as (source, qualifier, bound):
#: pos closed under subtraction, and unique without its disallow
#: clause.  They sit at fixed early slots so even a short run proves
#: both.
MUTANT_SLOTS = {
    1: (
        library.POS_SOURCE.replace(
            "E1 * E2, where pos(E1) && pos(E2)",
            "E1 - E2, where pos(E1) && pos(E2)",
        ),
        "pos",
        "value",
    ),
    6: (library.UNIQUE_SOURCE.replace("  disallow L\n", ""), "unique", "ref"),
}


_REF_DEFINITIONS = (("unique", library.UNIQUE_SOURCE),
                    ("unaliased", library.UNALIASED_SOURCE))


def _ref_copy(rng: random.Random, number: int) -> Tuple[str, str]:
    """The ``number``-th renamed ref qualifier: unique and unaliased
    take turns, the seed picks the name."""
    base, source = _REF_DEFINITIONS[number % 2]
    name = f"{base}_{rng.randrange(1 << 20):05x}_{number}"
    return renamed(source, base, name), name


def _prove_cold(seed: int, out: str, scale: float) -> dict:
    rng = random.Random(f"prove_cold:{seed}")
    files = []
    refs = 0
    for position in range(_scaled(PROVE_COLD_FILES, scale, floor=13)):
        path = f"q{position:03d}.qual"
        if position in MUTANT_SLOTS:
            text, qualifier, bound = MUTANT_SLOTS[position]
            files.append({"path": path, "kind": "mutant", "bound": bound,
                          "qualifiers": [qualifier]})
        else:
            kind = PROVE_COLD_PATTERN[position % len(PROVE_COLD_PATTERN)]
            if kind == "value":
                text, names = QualGenerator(
                    rng, GenConfig(n_qualifiers=4)
                ).generate()
                text = _known_fragment(text)
            else:
                text, name = _ref_copy(rng, refs)
                refs += 1
                names = [name]
            files.append({"path": path, "kind": kind, "bound": kind,
                          "qualifiers": names})
        _write(os.path.join(out, path), text)
    return {"files": files}


# ------------------------------------------------------------- prove_edit

_RULE_CONSTANT = re.compile(r"C (==|!=|<=|>=|<|>) (-?\d+)")


def qual_segments(text: str) -> Tuple[List[str], List[str]]:
    """Split a ``.qual`` file around the constants of its ``where C op
    k`` rule conditions (never the invariants, whose thresholds decide
    which clauses the prover's fragment covers)."""
    segments, values, cut = [], [], 0
    for match in _RULE_CONSTANT.finditer(text):
        segments.append(text[cut:match.start(2)])
        values.append(match.group(2))
        cut = match.end(2)
    segments.append(text[cut:])
    return segments, values


def _bump_rule_constant(rng: random.Random, old: str, op: str) -> str:
    value = int(old)
    low = 0 if op == "!=" else -CONST_LIMIT
    options = [v for v in (value - 1, value + 1) if low <= v <= CONST_LIMIT]
    return str(rng.choice(options))


_CLAUSE = re.compile(r"^ {8}(\S.*?), where (.*)$", re.M)
_INVARIANT = re.compile(r"^  invariant (.*)$", re.M)
_CLAUSE_KINDS = {"C": "const", "E1": "pvar", "-E1": "uminus",
                 "E1 + E2": "addsub", "E1 - E2": "addsub", "E1 * E2": "mult"}


def _shaped_qualifier(rng: random.Random, shape: Tuple[str, ...],
                      name: str, taken: set) -> str:
    """A generated value qualifier whose case clauses have exactly the
    kinds in ``shape``, each constant clause with one condition, and
    whose invariant is not in ``taken`` (which it joins)."""
    while True:
        text, _ = QualGenerator(rng, GenConfig(n_qualifiers=1)).generate()
        clauses = _CLAUSE.findall(text)
        kinds = tuple(sorted(_CLAUSE_KINDS[pattern] for pattern, _ in clauses))
        invariant = _INVARIANT.search(text).group(1)
        if kinds == shape and invariant not in taken and not any(
            "&&" in cond for pattern, cond in clauses if pattern == "C"
        ):
            taken.add(invariant)
            return renamed(_known_fragment(text), "g0", name)


def _prove_edit(seed: int, out: str, scale: float) -> dict:
    rng = random.Random(f"prove_edit:{seed}")
    slots = [
        (file_index, shape)
        for file_index in range(LIBRARY_FILES)
        for shape in LIBRARY_SHAPES
    ]
    # Qualifiers with a product clause need a sign-form invariant
    # (threshold 0, the fragment the prover decides), so they choose
    # their invariants first.
    order = sorted(range(len(slots)), key=lambda i: "mult" not in slots[i][1])
    taken: set = set()
    texts = {
        i: _shaped_qualifier(rng, slots[i][1], f"g{i}", taken) for i in order
    }
    library = []
    for file_index in range(LIBRARY_FILES):
        mine = [i for i, slot in enumerate(slots) if slot[0] == file_index]
        segments, values = qual_segments("\n".join(texts[i] for i in mine))
        library.append({
            "path": f"library{file_index}.qual",
            "segments": segments,
            "values": values,
            "qualifiers": [f"g{i}" for i in mine],
        })
    refs, ref_names = [], []
    for base, source in _REF_DEFINITIONS:
        name = f"{base}_{rng.randrange(1 << 20):05x}"
        refs.append(renamed(source, base, name))
        ref_names.append(name)
    library.append({"path": "refs.qual", "segments": ["\n".join(refs)],
                    "values": [], "qualifiers": ref_names, "refs": True})
    constants = [
        (file_index, slot)
        for file_index, entry in enumerate(library)
        for slot in range(len(entry["values"]))
    ]
    ops = {
        file_index: [m.group(1) for m in _RULE_CONSTANT.finditer(
            join_segments(entry["segments"], entry["values"])
        )]
        for file_index, entry in enumerate(library)
    }
    current = [list(entry["values"]) for entry in library]
    edits = []
    for _ in range(_scaled(PROVE_EDIT_EDITS, scale, floor=50)):
        file_index, slot = rng.choice(constants)
        value = _bump_rule_constant(
            rng, current[file_index][slot], ops[file_index][slot]
        )
        current[file_index][slot] = value
        edits.append([file_index, slot, value])
    return {"library": library, "edits": edits}


# ------------------------------------------------------------------ entry

_MAKERS = {
    "check_cold": _check_cold,
    "check_edit": _check_edit,
    "prove_cold": _prove_cold,
    "prove_edit": _prove_edit,
}


def make_inputs(workload: str, seed: int, out: str, scale: float = 1.0) -> dict:
    """Write one workload's inputs under ``out`` and return its manifest
    (also written as ``out/manifest.json``)."""
    os.makedirs(out, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "scale": scale}
    manifest.update(_MAKERS[workload](seed, out, scale))
    _write(os.path.join(out, "manifest.json"), json.dumps(manifest))
    return manifest


def materialize(manifest: dict, run_dir: str) -> Dict[str, object]:
    """Write the editable files of an edit workload into ``run_dir`` in
    their initial state; returns the live state the edit loop mutates."""
    if manifest["workload"] == "check_edit":
        projects = []
        for client in manifest["clients"]:
            files = []
            for entry in client["files"]:
                path = os.path.join(run_dir, entry["path"])
                os.makedirs(os.path.dirname(path), exist_ok=True)
                _write(path, join_segments(entry["segments"], entry["values"]))
                files.append({"path": path, "segments": entry["segments"],
                              "values": list(entry["values"])})
            projects.append(files)
        return {"projects": projects}
    files = []
    for entry in manifest["library"]:
        path = os.path.join(run_dir, entry["path"])
        _write(path, join_segments(entry["segments"], entry["values"]))
        files.append({**entry, "path": path, "values": list(entry["values"])})
    return {"library": files}
