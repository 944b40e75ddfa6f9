"""S-expression reader/writer for KiCad documents.

KiCad's board format (``.kicad_pcb``) is one large s-expression:
parenthesised lists of bare atoms and double-quoted strings.  This
module parses such a document into a node tree while recording the
*byte offsets* of every node in the source text.  The offsets are what
make lossless editing possible: :mod:`repro.io.kicad` never
re-serialises the whole tree — it splices new expressions into the
original text (and removes only the expressions it wrote earlier), so
every byte it did not touch survives export verbatim.

The writer half (:func:`format_expr`, :func:`quote_string`) renders new
expressions in KiCad's own conventions (quoted strings, trimmed
decimals) for the spliced content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Union

from repro.io.registry import InputError

#: KiCad keeps every length as a signed 32-bit count of nanometres, so no
#: number in a board file is larger than this in magnitude.
MAX_NUMBER = 2.0**31


class SExpError(InputError):
    """The text is not a well-formed s-expression document."""

    def __init__(self, message: str, offset: int = -1) -> None:
        if offset >= 0:
            message = f"offset {offset}: {message}"
        super().__init__(message)
        self.offset = offset


@dataclass
class Atom:
    """A bare token or quoted string, with its source byte range."""

    value: str  #: decoded value (quotes and escapes resolved)
    start: int  #: offset of the first source character
    end: int  #: offset one past the last source character
    quoted: bool = False


@dataclass
class SList:
    """A parenthesised list, with its source byte range."""

    items: List[Union[Atom, "SList"]] = field(default_factory=list)
    start: int = 0  #: offset of the opening ``(``
    end: int = 0  #: offset one past the closing ``)``

    @property
    def tag(self) -> str:
        """The leading atom's value, or '' for an empty/headless list."""
        if self.items and isinstance(self.items[0], Atom):
            return self.items[0].value
        return ""

    def find(self, tag: str) -> Optional["SList"]:
        """The first child list with the given tag, if any."""
        for item in self.items:
            if isinstance(item, SList) and item.tag == tag:
                return item
        return None

    def find_all(self, tag: str) -> Iterator["SList"]:
        """Every child list with the given tag, in document order."""
        for item in self.items:
            if isinstance(item, SList) and item.tag == tag:
                yield item

    def atoms(self) -> List[str]:
        """Values of the direct atom children (the tag included)."""
        return [item.value for item in self.items if isinstance(item, Atom)]

    def atom(self, index: int) -> Optional[str]:
        """The value of the index-th direct atom child, if present.

        Index 0 is the tag; ``atom(1)`` is the first operand.  Returns
        None when the list has fewer atoms (child lists don't count).
        """
        seen = 0
        for item in self.items:
            if isinstance(item, Atom):
                if seen == index:
                    return item.value
                seen += 1
        return None

    def number(self, index: int, kind: Callable = float) -> float:
        """The index-th direct atom child (see :meth:`atom`) as a
        ``float`` or, with ``kind=int``, an ``int``.

        Raises :class:`SExpError` when that atom is missing, is not a
        number of that kind, or is larger than :data:`MAX_NUMBER` in
        magnitude (NaN and the infinities included).
        """
        text = self.atom(index)
        try:
            value = kind(text)
        except (TypeError, ValueError):
            value = None
        if value is None or not abs(value) <= MAX_NUMBER:
            found = "nothing" if text is None else repr(text)
            raise SExpError(
                f"({self.tag} ...) operand {index}: expected a number, "
                f"found {found}",
                self.start,
            )
        return value

    def value_of(self, tag: str, index: int = 1) -> Optional[str]:
        """Shorthand: ``find(tag)`` then that child's ``atom(index)``."""
        child = self.find(tag)
        if child is None:
            return None
        return child.atom(index)


_DELIMS = "()"
_WHITESPACE = " \t\r\n"


def _decode_quoted(text: str, start: int) -> tuple:
    """Decode a double-quoted string starting at ``start``.

    Returns ``(value, end)`` with ``end`` one past the closing quote.
    KiCad escapes ``\\`` and ``"`` with a backslash and writes literal
    ``\\n``/``\\t`` pairs for control characters.
    """
    out: List[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\" and i + 1 < n:
            escape = text[i + 1]
            out.append({"n": "\n", "t": "\t", "r": "\r"}.get(escape, escape))
            i += 2
            continue
        out.append(ch)
        i += 1
    raise SExpError("unterminated quoted string", start)


def parse(text: str) -> SList:
    """Parse one top-level s-expression; raises on trailing content."""
    node, end = _parse_one(text, _skip_ws(text, 0))
    rest = _skip_ws(text, end)
    if rest != len(text):
        raise SExpError("trailing content after top-level expression", rest)
    if not isinstance(node, SList):
        raise SExpError("top level must be a list", node.start)
    return node


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i] in _WHITESPACE:
        i += 1
    return i


def _parse_one(text: str, i: int) -> tuple:
    n = len(text)
    if i >= n:
        raise SExpError("unexpected end of input", i)
    ch = text[i]
    if ch == "(":
        node = SList(start=i)
        i += 1
        while True:
            i = _skip_ws(text, i)
            if i >= n:
                raise SExpError("unterminated list", node.start)
            if text[i] == ")":
                node.end = i + 1
                return node, i + 1
            child, i = _parse_one(text, i)
            node.items.append(child)
    if ch == ")":
        raise SExpError("unbalanced ')'", i)
    if ch == '"':
        value, end = _decode_quoted(text, i)
        return Atom(value=value, start=i, end=end, quoted=True), end
    # Bare atom: runs to whitespace or a delimiter.
    j = i
    while j < n and text[j] not in _WHITESPACE and text[j] not in _DELIMS:
        j += 1
    return Atom(value=text[i:j], start=i, end=j), j


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------

_BARE_SAFE = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789._-+*/:%"
)


def quote_string(value: str) -> str:
    """Render a string the way KiCad writes it (quoted when needed)."""
    if value and all(ch in _BARE_SAFE for ch in value):
        return value
    escaped = (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
    )
    return f'"{escaped}"'


def format_mm(value: float) -> str:
    """A millimetre coordinate in KiCad's trimmed-decimal style.

    Six decimal places — enough that re-importing and rounding to the
    routing grid always recovers the exact grid index — with trailing
    zeros (and a trailing dot) removed, as KiCad itself writes numbers.
    """
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def format_expr(*parts: object) -> str:
    """One flat expression: ``format_expr('net', 3, 'GND')`` -> ``(net 3 GND)``.

    Strings are quoted when KiCad would quote them; floats go through
    :func:`format_mm`; nested pre-rendered expressions pass through as
    raw text when wrapped in :class:`Raw`.
    """
    rendered: List[str] = []
    for part in parts:
        if isinstance(part, Raw):
            rendered.append(part.text)
        elif isinstance(part, bool):
            rendered.append("yes" if part else "no")
        elif isinstance(part, float):
            rendered.append(format_mm(part))
        elif isinstance(part, int):
            rendered.append(str(part))
        else:
            rendered.append(quote_string(str(part)))
    return "(" + " ".join(rendered) + ")"


@dataclass(frozen=True)
class Raw:
    """Pre-rendered text passed through :func:`format_expr` untouched."""

    text: str


def splice(text: str, removals: List[tuple], insert_at: int, insert: str) -> str:
    """Edit a document: delete byte ranges, insert new text at an offset.

    ``removals`` is a list of ``(start, end)`` ranges (non-overlapping;
    any order).  Each range is widened to swallow the whitespace run
    immediately before it up to and including the previous newline, so
    removing an expression this module previously spliced in restores
    the surrounding text byte-for-byte.  ``insert`` is placed at
    ``insert_at`` *of the original text* after removals are applied.
    """
    spans = sorted(removals)
    for i in range(1, len(spans)):
        if spans[i][0] < spans[i - 1][1]:
            raise ValueError("overlapping removal ranges")
    out: List[str] = []
    cursor = 0
    inserted = False

    def emit_upto(limit: int) -> None:
        nonlocal cursor, inserted
        if not inserted and cursor <= insert_at <= limit:
            out.append(text[cursor:insert_at])
            out.append(insert)
            out.append(text[insert_at:limit])
            inserted = True
        else:
            out.append(text[cursor:limit])
        cursor = limit

    for start, end in spans:
        # Widen backwards over indentation to the previous newline.
        widened = start
        while widened > cursor and text[widened - 1] in " \t":
            widened -= 1
        if widened > cursor and text[widened - 1] == "\n":
            widened -= 1
        emit_upto(widened)
        cursor = end
    emit_upto(len(text))
    if not inserted:
        raise ValueError("insert offset inside a removed range")
    return "".join(out)
