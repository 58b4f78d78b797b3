"""Edit sequences through one warm incremental workspace.

An edit inside function bodies re-parses a reduced copy of the unit
with every untouched body blanked, and an edit inside a body whose tree
the last reduced parse kept re-parses only the statements it touches
(``repro.cfront.bodies``); any other edit falls back to a full parse.
Seeded edit sequences run over the examples, the dfa and bftpd corpus
units, difftest programs and a probe unit, and after every edit the
incremental report is compared with:

* the same workspace with the reduced parse switched off (the full
  incremental path): equal in every field but timings, including the
  ``incremental`` block;
* a cold one-shot check: equal in every field but timings and
  incremental bookkeeping, diagnostic locations included (replayed
  diagnostics move with the text);
* the path the workspace counters say ran, for every edit whose path
  is determined;
* the function fingerprints of a full parse and lower printed whole:
  the stored ones, derived from per-statement texts, are equal.

Edits that add a temporary or a local, drop a statement, or move a
statement with a diagnostic exercise the statement-level re-lower and
re-check, and the same sequence runs through a process-mode daemon
with two workers against cold checks.  Random edits to lines of equal
statements check that a statement's stored results go only to the
statement at its place.
"""

import copy
import glob
import os
import random
import re

import pytest

from repro import api
from repro.cache import fingerprint
from repro.cfront import bodies
from repro.cfront.parser import parse_c
from repro.cfront.preprocess import preprocess
from repro.cil.lower import lower_unit
from repro.core.qualifiers.library import standard_qualifiers
from repro.corpus import generate_bftpd, generate_dfa_module
from repro.difftest.generator import GenConfig, ProgramGenerator
from repro.serve import connect
from tests.test_serve_multiproc import _strip_volatile, procdaemon  # noqa: F401

EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.c"))
)
NAMES = standard_qualifiers().names

#: A unit whose last function sits past the reach of the declarations
#: it depends on: only the interface guard notices when ``next``'s
#: prototype or ``limit``'s type loses its ``pos``, and only the typedef
#: guard when ``count_t`` gains one.
PROBE = """\
typedef int count_t;
int pos limit = 4;
int pos next(int pos a);

int first(int a) {
  return a + 1;
}

int pos twice(int pos a) {
  int pos b = next(a);
  count_t c = a - 5;
  limit = c;
  return b;
}
"""

#: The paths a re-check can take: a reduced parse that spliced
#: statements into a kept body, one that blanked only whole bodies, a
#: guard's fallback to the full parse, and a full parse with nothing
#: stored to reduce against.  PARTIAL is either reduced path.
SPLICE, BODY, FALLBACK, FULL = "splice", "body", "fallback", "full"
PARTIAL = "partial"


def _sources():
    out = []
    for path in EXAMPLES:
        with open(path, encoding="utf-8") as handle:
            out.append((os.path.basename(path), handle.read(), False))
    out.append(("dfa.c", generate_dfa_module(3, 3, 3, 2, 8, seed=5), False))
    out.append(("bftpd.c", generate_bftpd(4, 3, 3), False))
    for index in range(2):
        text = ProgramGenerator(
            random.Random(f"edit-sequence:{index}"),
            GenConfig(size=40, n_qualifiers=0),
            [],
        ).generate()
        out.append((f"gen{index}.c", text, True))
    out.append(("probe.c", PROBE, False))
    return out


# ------------------------------------------------------------------ edits

_LITERAL = re.compile(r"(?<![\w.'\"])\d+(?![\w.])")
_GLOBAL = re.compile(r"^int (pos )?(\w+)( = [^;]*)?;$")
_FUNC_HEAD = re.compile(r"^int (pos )?(\w+)\(")
_PARAM = re.compile(r"\(int (\w+)([,)])")
#: A line holding one simple statement, and one holding two.
_SIMPLE = re.compile(r"  [^ {};][^{};]*;")
_TWO = re.compile(r"  [^ {};][^{};]*; [^ {};][^{};]*;")


class Editor:
    """Seeded edits of one C text.  Each edits ``text`` and returns the
    path the re-check should take, or None where that depends on the
    edit's content."""

    def __init__(self, text: str, rng: random.Random):
        self.text = text
        self.rng = rng
        self.serial = 0
        self.added = []  # names of functions this editor appended
        self.last = None  # the function whose body was edited last

    # -- where things are ---------------------------------------------------

    def _lines(self):
        return self.text.split("\n")

    def _bodies(self):
        """(first interior line, last interior line + 1) of every
        body, 0-based, from a parse of the current text."""
        return list(self._named().values())

    def _named(self):
        """``_bodies`` by function name."""
        unit = parse_c(self.text, qualifier_names=NAMES, recover=True)
        return {
            name: (ol, cl - 1)
            for name, ol, _oc, cl, _cc in unit._bodies
            if cl - 1 > ol
        }

    def _last_body(self):
        """The body edited last, or a random one."""
        named = self._named()
        if self.last not in named:
            self.last = self.rng.choice(sorted(named))
        return named[self.last]

    def _top_level_lines(self):
        inside = set()
        for first, end in self._bodies():
            inside.update(range(first - 1, end + 1))
        return [i for i in range(len(self._lines())) if i not in inside]

    def _fresh(self, stem: str) -> str:
        self.serial += 1
        return f"__{stem}{self.serial}"

    # -- in-body edits ------------------------------------------------------

    def _literal_in(self, body, where=lambda line: True):
        lines = self._lines()
        spots = [
            (i, m)
            for i in range(*body)
            if "case" not in lines[i] and where(lines[i])
            for m in _LITERAL.finditer(lines[i])
        ]
        if not spots:
            return False
        i, m = self.rng.choice(spots)
        new = str(self.rng.randrange(1, 60))
        lines[i] = lines[i][: m.start()] + new + lines[i][m.end():]
        self.text = "\n".join(lines)
        return True

    def _insert_in(self, body):
        lines = self._lines()
        first, end = body
        spots = [
            i
            for i in range(first, end + 1)
            if lines[i - 1].rstrip().endswith((";", "{", "}"))
            and not lines[i].lstrip().startswith(("else", "while", "case", "default"))
        ]
        if not spots:
            return False
        name = self._fresh("e")
        line = self.rng.choice([
            f"  int pos {name} = -{self.rng.randrange(1, 9)};",
            f"  int {name} = {self.rng.randrange(0, 9)};",
            "  ;",
            "",
            "  /* a comment */",
        ])
        lines.insert(self.rng.choice(spots), line)
        self.text = "\n".join(lines)
        return True

    def literal(self):
        bodies = list(self._named().items())
        self.rng.shuffle(bodies)
        for name, body in bodies:
            if self._literal_in(body):
                self.last = name
                return PARTIAL
        self.last = bodies[0][0]
        self._insert_in(bodies[0][1])
        return PARTIAL

    def again(self):
        """Another literal edit in the body edited last: the loop an
        editor runs in one long body.  Once a reduced parse kept that
        body's tree, it splices."""
        if not self._literal_in(self._last_body()):
            return self.literal()
        return PARTIAL

    def nested(self):
        """A literal inside a nested ``if``, ``switch`` or loop (a line
        indented past the body's own statements): the splice re-parses
        the whole top-level statement around it."""
        nested = re.compile(r"    ").match
        if not self._literal_in(self._last_body(), nested):
            return self.again()
        return PARTIAL

    def after_decl(self):
        """A literal in a statement that follows a local declaration of
        its body: the declaration is kept, so lowering the spliced body
        must still see it."""
        first, end = self._last_body()
        lines = self._lines()
        decls = [i for i in range(first, end) if lines[i].startswith("  int ")]
        if not decls or not self._literal_in((decls[0] + 1, end)):
            return self.again()
        return PARTIAL

    def _append_to_statement(self, text):
        """Append ``text`` to a simple statement line of the body edited
        last: the newline count stays, so the edit can splice."""
        first, end = self._last_body()
        lines = self._lines()
        spots = [i for i in range(first, end) if _SIMPLE.fullmatch(lines[i])]
        if not spots:
            return False
        i = self.rng.choice(spots)
        lines[i] += " " + text
        self.text = "\n".join(lines)
        return True

    def temporary(self):
        """A call inside an expression after a statement: lowering adds
        a temporary, so every later temporary of the body is renamed,
        and the locals (the function's header) grow."""
        name = self._fresh("g")
        if not self._append_to_statement(f"{name}(2) + 1;"):
            return self.again()
        return PARTIAL

    def local(self):
        """A local declared after a statement, or one in a block whose
        name some local or parameter of the body already has (it is
        lowered as ``name__2``)."""
        first, end = self._last_body()
        lines = self._lines()
        head = lines[first - 1]
        taken = [
            name
            for name in re.findall(r"\bint (?:pos )?(\w+)", "\n".join([head, *lines[first:end]]))
            if name not in NAMES
        ]
        if taken and self.rng.random() < 0.6:
            text = f"{{ int {self.rng.choice(taken)} = 2; }}"
        else:
            text = f"int pos {self._fresh('e')} = -{self.rng.randrange(1, 9)};"
        if not self._append_to_statement(text):
            return self.again()
        return PARTIAL

    def drop(self):
        """Delete a top-level statement of the body edited last, keeping
        its line (so the edit can splice)."""
        first, end = self._last_body()
        lines = self._lines()
        spots = [
            i for i in range(first, end)
            if _SIMPLE.fullmatch(lines[i]) and not re.match(r"  (int|else)\b", lines[i])
        ]
        if not spots:
            return self.again()
        lines[self.rng.choice(spots)] = ""
        self.text = "\n".join(lines)
        return PARTIAL

    def condition(self):
        """A literal in a loop's or an ``if``'s condition."""
        if not self._literal_in(
            self._last_body(), lambda line: re.search(r"\b(while|for|if) \(", line)
        ):
            return self.nested()
        return PARTIAL

    def move(self):
        """Move a statement that has a diagnostic (an inserted ``int
        pos`` local) down a line, and edit a literal above it in the
        same body: the body is checked again, and the moved statement's
        diagnostic moves with it.  With no such statement, add one."""
        first, end = self._last_body()
        lines = self._lines()
        spots = [i for i in range(first, end) if "int pos __e" in lines[i]]
        if not spots:
            return self.local()
        i = self.rng.choice(spots)
        lines.insert(i, "")
        self.text = "\n".join(lines)
        self._literal_in((first, i))
        return PARTIAL

    def one_line(self):
        """Two statements on one line: join two simple statement lines
        of the body edited last (a newline goes, so no splice), or, once
        such a line exists, edit a literal in it."""
        first, end = self._last_body()
        if self._literal_in((first, end), _TWO.fullmatch):
            return PARTIAL
        lines = self._lines()
        spots = [
            i
            for i in range(first, end - 1)
            if _SIMPLE.fullmatch(lines[i]) and _SIMPLE.fullmatch(lines[i + 1])
            and not lines[i + 1].startswith("  else")
        ]
        if not spots:
            return self.again()
        i = self.rng.choice(spots)
        lines[i : i + 2] = [lines[i] + " " + lines[i + 1].strip()]
        self.text = "\n".join(lines)
        return BODY

    def newline(self):
        """Add a line break inside the body edited last, after one of
        its statements: a splice needs the newline count kept, so this
        takes the body-level path."""
        first, end = self._last_body()
        lines = self._lines()
        spots = [i for i in range(first, end) if lines[i].rstrip().endswith(";")]
        if not spots:
            return self.again()
        i = self.rng.choice(spots)
        lines[i] = lines[i].rstrip() + "\n"
        self.text = "\n".join(lines)
        return BODY

    def insert(self):
        self._insert_in(self.rng.choice(self._bodies()))
        return PARTIAL

    def delete(self):
        lines = self._lines()
        ours = [i for i, line in enumerate(lines) if "__e" in line]
        blank = [
            i
            for first, end in self._bodies()
            for i in range(first, end)
            if not lines[i].strip()
        ]
        if ours or blank:
            del lines[self.rng.choice(ours or blank)]
            self.text = "\n".join(lines)
        return PARTIAL

    def two_bodies(self):
        bodies = self._bodies()
        if len(bodies) < 2:
            return self.literal()
        # Edit the later body first so the earlier one's lines stay put.
        first, second = sorted(self.rng.sample(bodies, 2))
        for body in (second, first):
            if not self._literal_in(body):
                self._insert_in(body)
        return PARTIAL

    def param(self):
        """Rename a parameter in a definition's header only: the body
        is untouched, but now reads an unbound name.  Formal names are
        part of the interface (a call's diagnostics name them), so the
        reduced parse falls back."""
        lines = self._lines()
        heads = [first - 1 for first, _end in self._bodies()]
        spots = [i for i in heads if _PARAM.search(lines[i])]
        if not spots:
            return PARTIAL
        i = self.rng.choice(spots)
        lines[i] = _PARAM.sub(r"(int \1_renamed\2", lines[i], count=1)
        self.text = "\n".join(lines)
        return FALLBACK

    # -- interface and order edits -----------------------------------------

    def typedef(self):
        """Toggle ``pos`` on a typedef's type."""
        for old, new in (("typedef int pos ", "typedef int "), ("typedef int ", "typedef int pos ")):
            if old in self.text:
                self.text = self.text.replace(old, new, 1)
                return FALLBACK
        return FULL

    def global_(self):
        """Toggle ``pos`` on a global int, or move its initializer."""
        lines = self._lines()
        spots = [i for i in self._top_level_lines() if _GLOBAL.match(lines[i])]
        if not spots:
            return self.signature()
        i = self.rng.choice(spots)
        m = _GLOBAL.match(lines[i])
        if m.group(3) and self.rng.random() < 0.3:
            lines[i] = f"int {m.group(1) or ''}{m.group(2)} = {self.rng.randrange(1, 9)};"
            expect = PARTIAL  # only __global_init__ changes
        else:
            qual = "" if m.group(1) else "pos "
            lines[i] = f"int {qual}{m.group(2)}{m.group(3) or ''};"
            expect = FALLBACK
        self.text = "\n".join(lines)
        return expect

    def signature(self):
        """Toggle ``pos`` on a function's return type (a prototype with
        qualifiers may win over it, so the path is not fixed)."""
        lines = self._lines()
        spots = [i for i in self._top_level_lines() if _FUNC_HEAD.match(lines[i])]
        if not spots:
            return None
        i = self.rng.choice(spots)
        m = _FUNC_HEAD.match(lines[i])
        qual = "" if m.group(1) else "pos "
        lines[i] = f"int {qual}{m.group(2)}(" + lines[i][m.end():]
        self.text = "\n".join(lines)
        return None

    def add(self):
        """Append a function, with a prototype for it and for a twin
        name that ``rename`` can move it to."""
        name = self._fresh("f")
        self.added.append(name)
        k = self.rng.randrange(1, 9)
        self.text = self.text.rstrip("\n") + (
            f"\n\nint {name}(int a);\nint {name}_twin(int a);\n"
            f"int {name}(int a) {{\n  int pos r = a - {k};\n  return r;\n}}\n"
        )
        return FALLBACK

    def rename(self):
        """Rename an appended function to its twin: the interface is
        unchanged (both names have prototypes), the body is untouched,
        and only the function order differs."""
        if not self.added:
            return self.add()
        name = self.added.pop()
        self.text = self.text.replace(f"int {name}(int a) {{", f"int {name}_twin(int a) {{")
        self.added.append(f"{name}_twin")
        return FALLBACK

    def remove(self):
        """Remove an appended function's definition."""
        if not self.added:
            return self.add()
        name = self.added.pop()
        self.text = re.sub(
            rf"\nint {name}\(int a\) \{{\n.*?\n\}}\n", "\n", self.text, flags=re.S
        )
        return FALLBACK

    # -- breaking and repairing --------------------------------------------

    def _break(self, line):
        lines = self._lines()
        first, end = self.rng.choice(self._bodies())
        lines.insert(first, line)
        self.text = "\n".join(lines)
        return FALLBACK

    def local_decl(self):
        return self._break(self.rng.choice([
            f"  struct {self._fresh('s')} {{ int a; }};",
            f"  int {self._fresh('p')}(int a);",
        ]))

    def syntax(self):
        return self._break("  int = ;")

    def repair(self):
        lines = [
            line for line in self._lines()
            if line not in ("  int = ;",) and not re.match(r"  (struct __s|int __p)\d", line)
        ]
        self.text = "\n".join(lines)
        return FULL  # the broken unit's state was dropped


SEQUENCE = (
    "literal", "again", "nested", "again", "insert", "two_bodies", "global_",
    "literal", "signature", "typedef", "add", "literal", "again",
    "after_decl", "rename", "one_line", "again", "one_line", "again",
    "insert", "local_decl", "repair", "delete", "param", "syntax", "repair",
    "remove", "two_bodies", "literal", "again", "newline", "again", "again",
    "local", "again", "temporary", "again", "condition", "again", "drop",
    "again", "move", "move", "again", "nested", "condition", "temporary",
    "drop", "again",
)


# ------------------------------------------------------------- comparison


def _timeless(payload: dict) -> dict:
    out = copy.deepcopy(payload)
    for key in ("elapsed", "timings"):
        out.pop(key, None)
    out.get("dataflow", {}).pop("ms", None)
    for unit in out.get("units", ()):
        unit.pop("elapsed", None)
        dataflow = unit.get("detail", {}).get("dataflow")
        if dataflow:
            dataflow["totals"].pop("ms", None)
            for stats in dataflow["functions"].values():
                stats.pop("ms", None)
    return out


def _cold_shape(payload: dict) -> dict:
    out = _timeless(payload)
    out.pop("incremental", None)
    for unit in out.get("units", ()):
        unit.get("detail", {}).pop("incremental", None)
    return out


def _counters(ws):
    return (
        ws.counters["units_reparsed_partially"],
        ws.counters["partial_fallbacks"],
        ws.counters["bodies_spliced"],
    )


def _path(before, after):
    partial, fallback, spliced = (b - a for a, b in zip(before, after))
    assert partial + fallback <= 1 and spliced <= partial
    if partial:
        return SPLICE if spliced else BODY
    return FALLBACK if fallback else FULL


def _full_fingerprints(path, text, flow, env):
    """Each function's fingerprint, from a full parse and lower of
    ``text`` printed whole (``function_fingerprint``)."""
    unit = parse_c(
        preprocess(text).text, qualifier_names=NAMES, run_preprocessor=False,
        recover=True, filename=path,
    )
    program = lower_unit(unit)
    interface = fingerprint.interface_digest(program)
    return {
        f.name: fingerprint.function_fingerprint(f, interface, env, flow_sensitive=flow)
        for f in program.functions
    }


def _run_sequences(tmp_path, seeds):
    ws = api.Workspace(incremental=True)
    full = api.Workspace(incremental=True)
    full._reduced_parse = lambda *args: None  # today's full path only
    paths_seen = set()
    try:
        for seed in seeds:
            for name, text, flow in _sources():
                rng = random.Random(f"{seed}:{name}")
                path = str(tmp_path / name)
                request = api.CheckRequest(files=(path,), flow_sensitive=flow)
                editor = Editor(text, rng)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                ws.invalidate(path)
                full.invalidate(path)
                ws.check(request)
                full.check(request)
                stored = True  # the workspace holds the unit's state
                for step, kind in enumerate(SEQUENCE):
                    previous = editor.text
                    expect = getattr(editor, kind)()
                    if editor.text == previous:
                        expect = FULL  # an unchanged file replays whole
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(editor.text)
                    before = _counters(ws)
                    warm = ws.check(request).to_dict()
                    took = _path(before, _counters(ws))
                    reference = full.check(request).to_dict()
                    with api.Workspace() as cold_ws:
                        cold = cold_ws.check(request).to_dict()
                    where = f"seed {seed}, {name}, step {step} ({kind})"
                    assert _timeless(warm) == _timeless(reference), where
                    assert _cold_shape(warm) == _cold_shape(cold), where
                    state = ws._units.get((path, flow))
                    if state is not None:
                        # The stored digests, derived from kept
                        # statement texts, are a full print's.
                        digests = {n: r.fingerprint for n, r in state.functions.items()}
                        assert digests == _full_fingerprints(
                            path, editor.text, flow, ws._env_digest
                        ), where
                    broken = cold["units"][0]["verdict"] == "ERROR"
                    if broken and expect in (PARTIAL, BODY):
                        expect = FALLBACK
                    if not stored and expect is not None:
                        expect = FULL  # nothing stored to reduce against
                    stored = not broken
                    if expect == PARTIAL:
                        assert took in (SPLICE, BODY), where
                    elif expect is not None:
                        assert took == expect, where
                    paths_seen.add(took)
        # Some edits re-lowered and re-checked single statements.
        assert ws.counters["statements_relowered"] > 0
        assert ws.counters["statements_rechecked"] > 0
    finally:
        ws.close()
        full.close()
    return paths_seen


def test_edit_sequences_match_full_and_cold_checks(tmp_path):
    assert _run_sequences(tmp_path, seeds=(0, 1)) == {SPLICE, BODY, FALLBACK, FULL}


def test_served_edit_sequence_matches_cold_checks(procdaemon, tmp_path):
    """The edit sequence through a process-mode daemon with two
    workers, the units taking turns between two configurations (so
    both workers serve): after every step the served report equals a
    cold one-shot check of the same text."""
    sock, server = procdaemon
    configs = ({}, {"trust_constants": True})
    with connect(sock) as client:
        for number, (name, text, flow) in enumerate(_sources()):
            config = configs[number % 2]
            path = str(tmp_path / name)
            params = {"files": [path], "flow_sensitive": flow, **config}
            request = api.CheckRequest(files=(path,), flow_sensitive=flow)
            editor = Editor(text, random.Random(f"served:{name}"))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            client.request("check", params)
            for step, kind in enumerate(SEQUENCE):
                getattr(editor, kind)()
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(editor.text)
                served = client.request("check", params)["report"]
                with api.Workspace(api.SessionConfig(**config)) as cold_ws:
                    cold = cold_ws.check(request).to_dict()
                where = f"{name}, step {step} ({kind})"
                assert _strip_volatile(served) == _strip_volatile(cold), where
        status = client.status()
    assert len({block["worker"]["pid"] for block in status["workspaces"]}) == 2
    totals = {
        key: sum(block["counters"][key] for block in status["workspaces"])
        for key in ("bodies_spliced", "statements_relowered", "statements_rechecked")
    }
    assert all(totals.values()), totals
    assert server.counters["workers_crashed"] == 0


def test_counters_reach_workspace_stats(tmp_path):
    path = tmp_path / "u.c"
    path.write_text(PROBE, encoding="utf-8")
    with api.Workspace(incremental=True) as ws:
        request = api.CheckRequest(files=(str(path),))
        ws.check(request)
        path.write_text(PROBE.replace("a + 1", "a + 2"), encoding="utf-8")
        ws.check(request)
        path.write_text(
            PROBE.replace("a + 1", "a + 2").replace("int pos next", "int next"),
            encoding="utf-8",
        )
        report = ws.check(request)
        counters = ws.stats()["counters"]
    assert counters["units_reparsed_partially"] == 1
    assert counters["partial_fallbacks"] == 1
    assert report.results[0].verdict == "WARNINGS"


def test_renamed_formal_is_reported_under_its_new_name(tmp_path):
    """A call's diagnostic names the callee's formal, so renaming one
    in a prototype re-checks the caller instead of replaying it."""
    text = (
        "void sink(int * nonnull a);\n"
        "void caller(int *p) {\n"
        "  sink(p);\n"
        "}\n"
    )
    path = tmp_path / "u.c"
    path.write_text(text, encoding="utf-8")
    request = api.CheckRequest(files=(str(path),))

    def messages(report):
        return [d["message"] for d in report.to_dict()["units"][0]["diagnostics"]]

    with api.Workspace(incremental=True) as ws:
        assert any("argument 'a' of sink" in m for m in messages(ws.check(request)))
        path.write_text(text.replace("nonnull a", "nonnull b"), encoding="utf-8")
        warm = messages(ws.check(request))
    with api.Workspace() as cold_ws:
        cold = messages(cold_ws.check(request))
    assert any("argument 'b' of sink" in m for m in cold)
    assert warm == cold


def test_a_function_defined_twice_is_broken_warm_and_cold(tmp_path):
    """Functions are keyed by name, so a unit defining one twice could
    replay the verdict of the wrong definition after an edit.  C allows
    one definition per name: the second is a parse error, and the
    broken unit is checked in full every time."""
    text = (
        "void f() { int pos x = -1; }\n"
        "void g() { }\n"
        "void f() { int pos z = -3; }\n"
    )
    path = tmp_path / "u.c"
    path.write_text(text, encoding="utf-8")
    request = api.CheckRequest(files=(str(path),))
    with api.Workspace(incremental=True) as ws:
        first = ws.check(request).results[0]
        path.write_text(text.replace("x = -1", "x = 1"), encoding="utf-8")
        warm = ws.check(request).to_dict()
    with api.Workspace() as cold_ws:
        cold = cold_ws.check(request).to_dict()
    assert first.verdict == "ERROR"
    assert first.diagnostics[0]["message"].startswith(
        "redefinition of function 'f' at line 3"
    )
    warm_texts = [d["text"] for d in warm["units"][0]["diagnostics"]]
    assert not any("x requires pos" in text for text in warm_texts)
    assert _cold_shape(warm) == _cold_shape(cold)


def test_a_second_edit_in_one_body_splices(tmp_path):
    """The first edit in ``twice`` blanks the other bodies and keeps
    its tree; the second splices the statement it touches between the
    kept ones; a signature edit then falls back to the full parse."""
    path = tmp_path / "u.c"
    path.write_text(PROBE, encoding="utf-8")
    request = api.CheckRequest(files=(str(path),))
    # (old, new, counters after the edit, functions re-checked)
    steps = [
        ("a - 5", "a - 6", (1, 0, 0), 1),
        ("a - 6", "a - 7", (2, 0, 1), 1),
        ("int pos next", "int next", (2, 1, 1), 3),
    ]
    text = PROBE
    with api.Workspace(incremental=True) as ws:
        ws.check(request)
        for old, new, counters, rechecked in steps:
            text = text.replace(old, new)
            path.write_text(text, encoding="utf-8")
            warm = ws.check(request).to_dict()
            with api.Workspace() as cold_ws:
                cold = cold_ws.check(request).to_dict()
            assert _cold_shape(warm) == _cold_shape(cold), new
            assert _counters(ws) == counters, new
            inc = warm["units"][0]["detail"]["incremental"]
            assert inc["rechecked"] == rechecked, new
        assert ws.stats()["counters"]["bodies_spliced"] == 1


@pytest.mark.parametrize(
    "edits, rechecked",
    [
        # Two lines on top: every replayed diagnostic moves down.
        ([("void f()", "\n\nvoid f()")], 0),
        # Whitespace inside a body: same fingerprint, moved columns.
        ([("void f() { int", "void f() {   int")], 0),
        # An edit in g moves h, on the same line, to the right.
        ([("z = 1;", "z = 100;")], 1),
        # Edits in g and k: h lies inside the changed span, but its
        # body is unchanged, so its diagnostic moves with it.
        ([("z = 1;", "z = 100;"), ("w = 3;", "w = 300;")], 2),
    ],
)
def test_replayed_diagnostics_move_with_the_text(tmp_path, edits, rechecked):
    text = (
        "void f() { int pos x = -1; }\n"
        "void g() { int z = 1; } void h() { int pos y = -2; }"
        " void k() { int w = 3; }\n"
    )
    path = tmp_path / "u.c"
    path.write_text(text, encoding="utf-8")
    request = api.CheckRequest(files=(str(path),))
    with api.Workspace(incremental=True) as ws:
        ws.check(request)
        for old, new in edits:
            text = text.replace(old, new, 1)
        path.write_text(text, encoding="utf-8")
        warm = ws.check(request).to_dict()
    with api.Workspace() as cold_ws:
        cold = cold_ws.check(request).to_dict()
    assert len(cold["units"][0]["diagnostics"]) == 2
    assert _cold_shape(warm) == _cold_shape(cold)
    assert warm["units"][0]["detail"]["incremental"]["rechecked"] == rechecked


STATEMENTS = """\
int pos twice(int pos a) {
  int pos b = a + 1;
  int c = 3;
  c = c + 4;
  int pos d = -5;
  return b;
}
"""


@pytest.mark.parametrize(
    "edits, work",
    [
        # A literal twice: the first edit re-checks one statement; the
        # second also splices it, so lowers only it.
        ([("c + 4", "c + 5"), ("c + 5", "c + 6")], [(0, 1), (1, 1)]),
        # A literal edit, then one that adds a line after its
        # statement: d moves down, and its diagnostic moves with it,
        # without a check.
        ([("c + 4", "c + 5"), ("c = 3;\n", "c = 2;\n\n")], [(0, 1), (0, 1)]),
        # A call in an expression adds a temporary: the locals (the
        # function's header) change, so the body is checked whole; the
        # next edit splices both statements of that line back in, and
        # finds the same header, so re-checks one statement.
        (
            [("c = c + 4;", "c = c + 4; g(1) + 1;"), ("c + 4", "c + 5")],
            [(0, 0), (2, 1)],
        ),
        # A block declaring another b (lowered as b__2): same.
        (
            [("c = c + 4;", "c = c + 4; { int b = 1; }"), ("c + 4", "c + 5")],
            [(0, 0), (2, 1)],
        ),
        # A statement dropped: nothing is left to lower or check.
        ([("c + 4", "c + 5"), ("c = c + 5;", "")], [(0, 1), (0, 0)]),
        # Two equal statements with a diagnostic each, then a third
        # appended to the first one's line: the texts alone would take
        # the new middle statement for the old second one and replay
        # its diagnostic at the old place.  Only the new one is checked.
        (
            [
                ("  return b;", "  d = -5;\n  d = -5;\n  return b;"),
                ("  d = -5;\n", "  d = -5; d = -5;\n"),
            ],
            [(0, 2), (2, 1)],
        ),
    ],
)
def test_a_statement_edit_redoes_only_that_statement(tmp_path, edits, work):
    """(statements re-lowered, statements re-checked) per edit, and
    every report equals a cold one."""
    path = tmp_path / "u.c"
    text = STATEMENTS
    path.write_text(text, encoding="utf-8")
    request = api.CheckRequest(files=(str(path),))
    done = []
    with api.Workspace(incremental=True) as ws:
        ws.check(request)
        for old, new in edits:
            text = text.replace(old, new, 1)
            path.write_text(text, encoding="utf-8")
            before = dict(ws.counters)
            warm = ws.check(request).to_dict()
            with api.Workspace() as cold_ws:
                cold = cold_ws.check(request).to_dict()
            assert _cold_shape(warm) == _cold_shape(cold), new
            done.append(tuple(
                ws.counters[key] - before[key]
                for key in ("statements_relowered", "statements_rechecked")
            ))
    assert cold["units"][0]["diagnostics"], "d's initializer is reported"
    assert done == work


#: Statements for :func:`test_repeated_statements_match_cold_checks`,
#: most of them reported and several equal, so the same statement text
#: stands at more than one place.
REPEATED = [
    "d = -5;", "d = -5;", "c = c + 4;", "d = 3;", "c = -1;",
    "{ int pos e = -2; }", "if (c) d = -5;", "g(1) + 1;", "",
]


def _repeated_unit(lines) -> str:
    body = "".join(f"  {line}\n" for line in lines)
    return (
        "int g(int x);\nint pos f(int pos a) {\n  int pos d = 1;\n"
        f"  int c = 3;\n{body}  return d;\n}}\n"
    )


@pytest.mark.parametrize("seed", range(8))
def test_repeated_statements_match_cold_checks(tmp_path, seed):
    """Lines of equal statements: append a statement to a line, insert,
    delete, replace or join lines, and after each edit the report
    equals a cold one.  Equal statement texts at different places must
    not share their results."""
    rng = random.Random(seed)
    lines = [rng.choice(REPEATED) for _ in range(6)]
    path = tmp_path / "u.c"
    path.write_text(_repeated_unit(lines), encoding="utf-8")
    request = api.CheckRequest(files=(str(path),))
    with api.Workspace(incremental=True) as ws:
        ws.check(request)
        for _ in range(30):
            roll, i = rng.random(), rng.randrange(len(lines))
            if roll < 0.3:
                lines[i] = f"{lines[i]} {rng.choice(REPEATED)}".strip()
            elif roll < 0.5:
                lines.insert(i, rng.choice(REPEATED))
            elif roll < 0.65 and len(lines) > 1:
                del lines[i]
            elif roll < 0.8 or i + 1 == len(lines):
                lines[i] = rng.choice(REPEATED)
            else:
                lines[i : i + 2] = [f"{lines[i]} {lines[i + 1]}".strip()]
            path.write_text(_repeated_unit(lines), encoding="utf-8")
            warm = ws.check(request).to_dict()
            with api.Workspace() as cold_ws:
                cold = cold_ws.check(request).to_dict()
            assert _cold_shape(warm) == _cold_shape(cold), lines
    assert ws.counters["statements_rechecked"] > 0


@pytest.mark.parametrize("kind", ["literal", "two_bodies"])
def test_in_body_edit_rechecks_only_the_edited_functions(tmp_path, kind):
    text = generate_bftpd(4, 3, 3)
    path = tmp_path / "bftpd.c"
    path.write_text(text, encoding="utf-8")
    editor = Editor(text, random.Random(kind))
    with api.Workspace(incremental=True) as ws:
        request = api.CheckRequest(files=(str(path),))
        ws.check(request)
        getattr(editor, kind)()
        path.write_text(editor.text, encoding="utf-8")
        inc = ws.check(request).results[0].detail["incremental"]
    assert ws.counters["units_reparsed_partially"] == 1
    assert 1 <= inc["rechecked"] <= 2 < inc["functions"]


# ---------------------------------------------------- the pure functions


def test_changed_span_rebuilds_the_new_text():
    rng = random.Random(3)
    for _ in range(300):
        old = "".join(rng.choice("ab\n{}") for _ in range(rng.randrange(0, 30)))
        new = list(old)
        for _ in range(rng.randrange(0, 4)):
            pos = rng.randrange(0, len(new) + 1)
            if new and rng.random() < 0.5:
                del new[min(pos, len(new) - 1)]
            else:
                new.insert(pos, rng.choice("ab\n{}"))
        new = "".join(new)
        start, old_end, new_end = bodies.changed_span(old, new)
        assert start <= old_end and start <= new_end
        assert old[:start] + new[start:new_end] + old[old_end:] == new
        assert len(old) - old_end == len(new) - new_end


def test_reduced_text_keeps_every_line_and_column():
    old = generate_bftpd(4, 3, 3)
    unit = parse_c(old, qualifier_names=NAMES)
    extents = bodies.body_extents(old, unit._bodies)
    editor = Editor(old, random.Random(5))
    editor.two_bodies()
    new = editor.text
    reduced = bodies.reduce_text(old, new, extents)
    assert len(reduced.text) == len(new)
    assert bodies.line_starts(reduced.text) == bodies.line_starts(new)
    assert 0 < len(reduced.blanked) <= len(extents) - 2
    blank = set()
    for open_, close in reduced.blanked:
        assert (reduced.text[open_], reduced.text[close]) == ("{", "}")
        assert not reduced.text[open_ + 1 : close].strip()
        blank.update(range(open_ + 1, close))
    assert all(
        reduced.text[i] == new[i] for i in range(len(new)) if i not in blank
    )
    parsed = parse_c(reduced.text, qualifier_names=NAMES)
    found = bodies.blanked_functions(reduced.text, parsed._bodies, reduced.blanked)
    assert found is not None
    _extents, names = found
    assert len(names) == len(reduced.blanked)


def test_a_blanked_body_the_parse_did_not_find_rejects_the_reduced_parse():
    text = "int f(void) {\n  return 1;\n}\n"
    unit = parse_c(text)
    (extent,) = bodies.body_extents(text, unit._bodies)
    assert bodies.blanked_functions(text, unit._bodies, [extent]) == ([extent], {"f"})
    moved = (extent[0] + 1, extent[1])
    assert bodies.blanked_functions(text, unit._bodies, [moved]) is None


def _trees(text):
    """A parse of ``text``, its body extents, its definitions and where
    each definition's top-level statements start."""
    unit = parse_c(text, qualifier_names=NAMES, run_preprocessor=False, filename="u.c")
    extents = bodies.body_extents(text, unit._bodies)
    defs = [f for f in unit.functions if f.body is not None]
    starts = {
        i: bodies.statement_starts(text, extents[i][0], f.body.stmts)
        for i, f in enumerate(defs)
    }
    return unit, extents, defs, starts


def test_a_spliced_body_equals_a_full_parse():
    """Seeded in-body edits of every source: wherever ``reduce_text``
    splices, the spliced ``FuncDef`` equals a full parse's, ``loc``s
    included, and statement starts agree with a fresh parse's."""
    spliced = 0
    for name, text, _flow in _sources():
        rng = random.Random(f"splice:{name}")
        editor = Editor(text, rng)
        for _ in range(12):
            old = preprocess(editor.text).text
            _unit, extents, defs, starts = _trees(old)
            getattr(editor, rng.choice(["again", "nested", "one_line", "after_decl"]))()
            new = preprocess(editor.text).text
            reduced = bodies.reduce_text(old, new, extents, starts)
            if reduced.splice is None:
                continue
            index = reduced.splice.index
            parsed, found, parsed_defs, _starts = _trees(reduced.text)
            func = parsed_defs[index]
            assert found[index] == reduced.splice.extent
            assert bodies.splice_statements(
                reduced.text, reduced.splice, func, defs[index]
            )
            full, _extents, full_defs, full_starts = _trees(new)
            assert func == full_defs[index], (name, func.name)
            assert bodies.statement_starts(
                new, found[index][0], func.body.stmts
            ) == full_starts[index]
            spliced += 1
    assert spliced >= 40


def test_a_relowered_body_equals_a_full_lowering():
    """Seeded in-body edits of every source, literal edits and ones that
    add a temporary or a local or drop a statement: wherever the splice
    holds, lowering only the spliced statements from the kept lowering
    gives the function, and the per-statement record, that lowering the
    full parse does."""
    relowered = reused = 0
    for name, text, _flow in _sources():
        rng = random.Random(f"relower:{name}")
        editor = Editor(text, rng)
        for _ in range(12):
            old = preprocess(editor.text).text
            old_unit, extents, defs, starts = _trees(old)
            getattr(editor, rng.choice(
                ["again", "nested", "temporary", "local", "drop", "condition"]
            ))()
            new = preprocess(editor.text).text
            reduced = bodies.reduce_text(old, new, extents, starts)
            if reduced.splice is None:
                continue
            splice = reduced.splice
            index = splice.index
            kept = {index: None}
            lower_unit(old_unit, kept=kept)
            last = kept[index]
            parsed, _found, parsed_defs, _starts = _trees(reduced.text)
            if not bodies.splice_statements(
                reduced.text, splice, parsed_defs[index], defs[index]
            ):
                continue
            kept = {index: (last, splice.head, splice.tail)}
            lower_unit(parsed, kept=kept)
            spliced = kept[index]
            full, _extents, _full_defs, _full_starts = _trees(new)
            fresh = {index: None}
            lower_unit(full, kept=fresh)
            assert spliced.function == fresh[index].function, (name, spliced.function.name)
            assert (spliced.starts, spliced.locals, spliced.temps) == (
                fresh[index].starts, fresh[index].locals, fresh[index].temps
            ), name
            relowered += 1
            tail = len(last.function.body) - last.starts[-1 - splice.tail]
            reused += bool(splice.tail) and (
                spliced.function.body[-tail:] == last.function.body[-tail:]
                and spliced.function.body[-1] is last.function.body[-1]
            )
    assert relowered >= 40
    assert 0 < reused < relowered


def test_a_splice_declines_edits_it_cannot_stand_for():
    body = "int f(int a) {\n  int b = a;\n  if (b) b = 1;\n  b = 2;\n  return b;\n}\n"
    _unit, extents, _defs, starts = _trees(body)

    def splice(new):
        return bodies.reduce_text(body, new, extents, starts).splice

    edited = splice(body.replace("b = 2", "b = 3"))
    assert edited is not None and (edited.head, edited.tail) == (2, 1)
    # A newline more: the kept statements' lines would move.
    assert splice(body.replace("b = 2;", "b =\n 2;")) is None
    # Outside the body: nothing to splice into.
    assert splice(body.replace("int a", "int c")) is None
    # The last kept statement before the edit is an if, and the edit
    # makes the text after it an else branch: only the reduced parse
    # of the touched statement can tell, so the splice is refused there.
    else_text = body.replace("  b = 2;", "  else;")
    reduced = bodies.reduce_text(body, else_text, extents, starts)
    parsed, _found, parsed_defs, _starts = _trees(reduced.text)
    assert not bodies.splice_statements(
        reduced.text, reduced.splice, parsed_defs[0], _defs[0]
    )


def test_lowering_and_checking_leave_the_tree_as_parsed():
    """A spliced body shares statements with the tree kept from the
    last parse, so nothing downstream may mutate the tree."""
    quals = standard_qualifiers()
    from repro.core.checker.typecheck import QualifierChecker

    for _name, text, flow in _sources():
        unit = parse_c(text, qualifier_names=NAMES, filename="u.c")
        before = copy.deepcopy((unit.structs, unit.globals, unit.functions))
        program = lower_unit(unit)
        QualifierChecker(program, quals, flow_sensitive=flow).check()
        assert (unit.structs, unit.globals, unit.functions) == before
