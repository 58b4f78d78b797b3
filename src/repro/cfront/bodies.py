"""Function-body extents and reduced re-parses for in-body edits.

An editor re-checks a unit after changing a few characters, most often
inside one function body.  The parser records where each definition's
body starts and ends (``TranslationUnit._bodies``: the line and column
of its ``{`` and ``}``) and the typedefs it saw (``_typedefs``).  From
that record and the text last parsed, the functions here build a
*reduced* copy of the new text, at one of two granularities:

* *body blanking*: every body that lies wholly outside the changed span
  keeps its braces but has every other character blanked to a space,
  newlines kept, so every line and column in the copy is where it is
  in the full text.  Parsing the copy costs about as much as parsing
  the unit's declarations plus the edited bodies.
* *statement splice*: when the caller kept the parsed tree of a body
  (with the offset where each of its top-level statements starts) and
  the edit lies inside that body without changing its newline count,
  every top-level statement the edit does not touch is blanked too.
  A statement's extent runs from its ``loc`` to the next statement's
  ``loc`` (the last one's to the ``}``).  One before the change keeps
  every character; one that starts on a line after the change's last
  line keeps its line and column.  So the kept statements' trees,
  ``loc`` included, are what a full parse would build, and
  :func:`splice_statements` puts them back around the re-parsed ones.

The coarsest granularity lives with the caller: a unit whose text did
not change replays whole.  A :class:`Relocation` maps a position in
the old text to the same character's position in the new one, so
replayed diagnostics move with the text.

All offsets are into the preprocessed text.  These are pure functions;
the guards that decide whether a reduced parse may stand in for a full
one live with the caller (``repro.api.Workspace``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (
    TYPE_CHECKING, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    from repro.cfront.ast import FuncDef

#: A body extent: the offsets of its ``{`` and of its ``}``.
Extent = Tuple[int, int]


class Splice(NamedTuple):
    """One body of a reduced text re-parsed statement by statement."""

    #: The body, by its position in the extents.
    index: int
    #: How many of its statements were kept before and after the
    #: re-parsed range.
    head: int
    tail: int
    #: Offsets, in the new text, of the re-parsed range and of the
    #: body's braces; a parse must find the body at ``extent``.
    span: Extent
    extent: Extent


class Reduced(NamedTuple):
    """A reduced copy of a new text and what was blanked in it."""

    text: str
    #: Extents, in the new text, of the bodies whose interior was
    #: blanked; a parse of ``text`` must find a body at each of them.
    blanked: List[Extent]
    #: The body re-parsed statement by statement, if any.
    splice: Optional[Splice]


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


def reduce_text(
    old: str,
    new: str,
    extents: Sequence[Extent],
    statements: Optional[Mapping[int, Sequence[int]]] = None,
) -> Reduced:
    """Blank, in ``new``, the interior of every body of ``old`` (given
    by its ``extents``, in text order) that the edit did not touch.

    A function's *reach* runs from just after the previous body's ``}``
    (or the start of the text) to its own ``}``: it holds the
    function's header, whose parameter names its body reads, and any
    declarations in front of it.  A body is kept whole when the changed
    span overlaps or borders its reach, and blanked otherwise.

    ``statements`` maps the index of a body whose parsed tree the
    caller kept to the offsets, in ``old``, where its top-level
    statements start.  If the edit lies inside such a body, the
    untouched statements of that body are blanked too (see
    :class:`Splice`)."""
    start, old_end, new_end = changed_span(old, new)
    delta = new_end - old_end
    splice = None
    if statements and old.count("\n", start, old_end) == new.count(
        "\n", start, new_end
    ):
        splice = _splice(new, (start, old_end, delta), extents, statements)
    pieces: List[str] = []
    blanked: List[Extent] = []
    pos = 0
    reach = 0
    for index, (open_, close) in enumerate(extents):
        touched = start <= close and reach <= old_end
        reach = close + 1
        if touched:
            if splice is not None and index == splice.index:
                (lo, hi), end = splice.span, splice.extent[1]
                pieces.append(new[pos : open_ + 1])
                pieces.append(_blank(new[open_ + 1 : lo]))
                pieces.append(new[lo:hi])
                pieces.append(_blank(new[hi:end]))
                pos = end
            continue
        shift = 0 if close < start else delta
        open_, close = open_ + shift, close + shift
        pieces.append(new[pos : open_ + 1])
        pieces.append(_blank(new[open_ + 1 : close]))
        pos = close
        blanked.append((open_, close))
    pieces.append(new[pos:])
    return Reduced("".join(pieces), blanked, splice)


def _splice(
    new: str,
    change: Tuple[int, int, int],
    extents: Sequence[Extent],
    statements: Mapping[int, Sequence[int]],
) -> Optional[Splice]:
    """The statement splice for an edit that keeps its newline count:
    the body in ``statements`` holding the change, its statements that
    end at or before the change's start (``head``) and those that start
    on a line after the change's end (``tail``).  None if no such body
    holds the change, no statement is kept, or the first kept statement
    after the change starts with ``else`` (in the full text the
    re-parsed statement before it could take it as its else branch)."""
    start, old_end, delta = change
    for index, starts in statements.items():
        open_, close = extents[index]
        if open_ < start and old_end <= close:
            break
    else:
        return None
    bounds = list(starts) + [close]
    head = bisect_right(bounds, start, 1) - 1
    # The first newline at or after the change's end, in new-text
    # offsets: statements starting past it keep their line and column.
    newline = new.find("\n", old_end + delta)
    tail = 0
    if newline >= 0:
        tail = len(starts) - bisect_right(starts, newline - delta)
    if not head + tail:
        return None
    lo = bounds[head] if head else open_ + 1
    hi = bounds[len(starts) - tail] + delta
    if tail and _starts_else(new, hi):
        return None
    return Splice(index, head, tail, (lo, hi), (open_, close + delta))


def _starts_else(text: str, pos: int) -> bool:
    end = pos + 4
    return text.startswith("else", pos) and not (
        text[end : end + 1].isalnum() or text[end : end + 1] == "_"
    )


def statement_starts(text: str, anchor: int, stmts: Sequence) -> List[int]:
    """The offset in ``text`` of each statement's ``loc``, for
    statements in text order that all lie on or after the line holding
    offset ``anchor``."""
    line = text.count("\n", 0, anchor) + 1
    begin = text.rfind("\n", 0, anchor) + 1
    out = []
    for stmt in stmts:
        loc = stmt.loc
        while line < loc.line:
            begin = text.index("\n", begin) + 1
            line += 1
        out.append(begin + loc.col - 1)
    return out


def splice_statements(
    text: str, splice: Splice, func: "FuncDef", kept: "FuncDef"
) -> bool:
    """Complete ``func``, parsed from a reduced ``text`` built with
    ``splice``, with the statements of ``kept`` (the tree of the same
    body in the old text) that the splice blanked.  False, leaving
    ``func`` as it is, if the two are not the same function, a
    re-parsed statement lies outside the re-parsed range, or the first
    starts with ``else`` (in the full text a kept statement before it
    could take it as its else branch)."""
    if func.name != kept.name:
        return False
    lo, hi = splice.span
    stmts = func.body.stmts
    starts = statement_starts(text, splice.extent[0], stmts)
    if not all(lo <= pos < hi for pos in starts):
        return False
    if starts and _starts_else(text, starts[0]):
        return False
    old = kept.body.stmts
    func.body.stmts = old[: splice.head] + stmts + old[len(old) - splice.tail :]
    return True


def _place(text: str, pos: int) -> Tuple[int, int]:
    """The 1-based line and column of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class Relocation:
    """Where each character of an ``old`` text went in a ``new`` one.
    Called with a character's 1-based ``(line, column)`` in ``old``, it
    returns the same character's in ``new``, or None for a character
    inside the changed span (:func:`changed_span`): one before the span
    keeps its place, and one after it moves by the span's change in
    lines, and in columns on the span's last line."""

    def __init__(self, old: str, new: str):
        self.old, self.new = old, new
        start, old_end, new_end = changed_span(old, new)
        self._first = _place(old, start)
        self._last = _place(old, old_end)
        line, col = _place(new, new_end)
        self._lines = line - self._last[0]
        self._cols = col - self._last[1]

    def __call__(self, line: int, col: int) -> Optional[Tuple[int, int]]:
        if (line, col) < self._first:
            return line, col
        if (line, col) < self._last:
            return None
        return line + self._lines, col + self._cols if line == self._last[0] else col

    def moved(self, before: Extent, after: Extent):
        """For a body at extent ``before`` in the old text and ``after``
        in the new one, a map like this one for the characters inside
        that body (None for any other), or None if its text changed."""
        (open_, close), (new_open, new_close) = before, after
        if self.old[open_ : close + 1] != self.new[new_open : new_close + 1]:
            return None
        first, last = _place(self.old, open_), _place(self.old, close)
        line, col = _place(self.new, new_open)
        lines, cols = line - first[0], col - first[1]

        def where(line: int, col: int) -> Optional[Tuple[int, int]]:
            if not first <= (line, col) <= last:
                return None
            return line + lines, col + cols if line == first[0] else col

        return where


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
