"""Function-body extents and reduced re-parses for in-body edits.

An editor re-checks a unit after changing a few characters, most often
inside one function body.  The parser records where each definition's
body starts and ends (``TranslationUnit._bodies``: the line and column
of its ``{`` and ``}``) and the typedefs it saw (``_typedefs``).  From that record and the text last parsed,
the functions here build a *reduced* copy of the new text: every body
that lies wholly outside the changed span keeps its braces but has
every other character blanked to a space, newlines kept, so every
line and column in the copy is where it is in the full text.  Parsing
the copy costs about as much as parsing the unit's declarations plus
the edited bodies.

All offsets are into the preprocessed text.  These are pure functions;
the guards that decide whether a reduced parse may stand in for a full
one live with the caller (``repro.api.Workspace``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

#: A body extent: the offsets of its ``{`` and of its ``}``.
Extent = Tuple[int, int]


class Reduced(NamedTuple):
    """A reduced copy of a new text and what was blanked in it."""

    text: str
    #: Extents, in the new text, of the bodies whose interior was
    #: blanked; a parse of ``text`` must find a body at each of them.
    blanked: List[Extent]


def line_starts(text: str) -> List[int]:
    """The offset of the first character of every line of ``text``."""
    starts = [0]
    find = text.find
    pos = find("\n")
    while pos >= 0:
        starts.append(pos + 1)
        pos = find("\n", pos + 1)
    return starts


def body_extents(text: str, bodies: Sequence[tuple]) -> List[Extent]:
    """Offsets of the body extents a parse of ``text`` recorded, one
    per ``(name, open_line, open_col, close_line, close_col)`` entry."""
    starts = line_starts(text)
    return [
        (starts[ol - 1] + oc - 1, starts[cl - 1] + cc - 1)
        for _name, ol, oc, cl, cc in bodies
    ]


def changed_span(old: str, new: str) -> Tuple[int, int, int]:
    """``(start, old_end, new_end)`` such that
    ``new == old[:start] + new[start:new_end] + old[old_end:]``, with the
    longest common prefix and then the longest common suffix that does
    not overlap it."""
    start = _common_prefix(old, new)
    tail = _common_suffix(old, new, min(len(old), len(new)) - start)
    return start, len(old) - tail, len(new) - tail


def _common_prefix(a: str, b: str) -> int:
    # Bisect on slice equality: each comparison runs in C, and the
    # slices compared sum to about the length of the shorter text.
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _common_suffix(a: str, b: str, limit: int) -> int:
    la, lb = len(a), len(b)
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[la - mid : la - lo] == b[lb - mid : lb - lo]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _blank(segment: str) -> str:
    return "\n".join(" " * len(line) for line in segment.split("\n"))


def reduce_text(old: str, new: str, extents: Sequence[Extent]) -> Reduced:
    """Blank, in ``new``, the interior of every body of ``old`` (given
    by its ``extents``, in text order) that the edit did not touch.

    A function's *reach* runs from just after the previous body's ``}``
    (or the start of the text) to its own ``}``: it holds the
    function's header, whose parameter names its body reads, and any
    declarations in front of it.  A body is kept whole when the changed
    span overlaps or borders its reach, and blanked otherwise."""
    start, old_end, new_end = changed_span(old, new)
    delta = new_end - old_end
    pieces: List[str] = []
    blanked: List[Extent] = []
    pos = 0
    reach = 0
    for open_, close in extents:
        touched = start <= close and reach <= old_end
        reach = close + 1
        if touched:
            continue
        shift = 0 if close < start else delta
        open_, close = open_ + shift, close + shift
        pieces.append(new[pos : open_ + 1])
        pieces.append(_blank(new[open_ + 1 : close]))
        pos = close
        blanked.append((open_, close))
    pieces.append(new[pos:])
    return Reduced("".join(pieces), blanked)


def blanked_functions(
    text: str, bodies: Sequence[tuple], blanked: Sequence[Extent]
) -> Optional[Tuple[List[Extent], set]]:
    """After a parse of a reduced ``text`` that recorded ``bodies``:
    its body extents and the names of the functions whose body was
    blanked, or None if the parse did not find a body at every blanked
    extent (the edit changed how the text around a blanked body lexes
    or parses)."""
    extents = body_extents(text, bodies)
    wanted = set(blanked)
    if not wanted <= set(extents):
        return None
    names = {
        entry[0] for entry, extent in zip(bodies, extents) if extent in wanted
    }
    return extents, names
