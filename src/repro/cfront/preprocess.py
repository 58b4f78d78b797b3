"""A light preprocessor for the C subset.

Handles exactly what the paper's experiments need:

* ``#define NAME replacement`` — object-like macros, used for qualifier
  annotations (``#define nonnull __attribute__((nonnull))``).
* ``#include <...>`` / ``#include "..."`` — recorded and skipped; library
  signatures are supplied separately (section 3.3 of the paper uses
  alternate header signatures the same way).
* ``#ifdef/#ifndef/#endif`` — evaluated against defined macro names only.

Macro replacement is token-ish (word-boundary) rather than a full
re-lex; qualifier macros are single identifiers so this is sufficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class PreprocessResult:
    text: str
    defines: Dict[str, str] = field(default_factory=dict)
    includes: List[str] = field(default_factory=list)


_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)(?:\s+(.*))?$")
_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+[<"]([^>"]+)[>"]')
_IFDEF_RE = re.compile(r"^\s*#\s*(ifdef|ifndef)\s+(\w+)")
_ENDIF_RE = re.compile(r"^\s*#\s*endif")
_ELSE_RE = re.compile(r"^\s*#\s*else")
_WORD_RE = re.compile(r"\w+")


def preprocess(source: str, predefined: Dict[str, str] | None = None) -> PreprocessResult:
    """Expand macros and strip preprocessor lines from ``source``."""
    defines: Dict[str, str] = dict(predefined or {})
    includes: List[str] = []
    out_lines: List[str] = []
    # Stack of booleans: is the current conditional region active?
    active_stack: List[bool] = []
    # Matches any defined name as a whole word; rebuilt when a
    # ``#define`` changes the table (None while it is empty).
    names = _names_pattern(defines)

    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            m = _IFDEF_RE.match(line)
            if m:
                want_defined = m.group(1) == "ifdef"
                is_def = m.group(2) in defines
                active_stack.append(is_def if want_defined else not is_def)
                out_lines.append("")
                continue
            if _ELSE_RE.match(line):
                if active_stack:
                    active_stack[-1] = not active_stack[-1]
                out_lines.append("")
                continue
            if _ENDIF_RE.match(line):
                if active_stack:
                    active_stack.pop()
                out_lines.append("")
                continue
            if active_stack and not all(active_stack):
                out_lines.append("")
                continue
            m = _DEFINE_RE.match(line)
            if m:
                defines[m.group(1)] = (m.group(2) or "").strip()
                names = _names_pattern(defines)
                out_lines.append("")
                continue
            m = _INCLUDE_RE.match(line)
            if m:
                includes.append(m.group(1))
                out_lines.append("")
                continue
            # Unknown directive: drop it (matches gcc -fsyntax-only laxity
            # for the subset we care about).
            out_lines.append("")
            continue

        if active_stack and not all(active_stack):
            out_lines.append("")
            continue
        out_lines.append(line if names is None else _expand(line, defines, names))

    return PreprocessResult("\n".join(out_lines), defines, includes)


def _names_pattern(defines: Dict[str, str]) -> "re.Pattern[str] | None":
    """One alternation of the defined names, each matched only as a
    whole word (as ``\\b\\w+\\b`` would find it)."""
    words = [name for name in defines if _WORD_RE.fullmatch(name)]
    if not words:
        return None
    return re.compile(r"\b(?:" + "|".join(map(re.escape, words)) + r")\b")


def _expand(
    line: str,
    defines: Dict[str, str],
    names: "re.Pattern[str]",
    active: frozenset = frozenset(),
) -> str:
    """Expand object-like macros on one line.

    As in C, a macro is not re-expanded inside its own replacement text
    (``active`` tracks the macros currently being expanded), so
    ``#define pos __attribute__((pos))`` works.
    """

    def repl(match: "re.Match[str]") -> str:
        name = match.group(0)
        if name in active:
            return name
        return _expand(defines[name], defines, names, active | {name})

    return names.sub(repl, line)
