"""HTML scanner.

Turns markup text into a stream of scan items: start tags (with attributes
and a self-closing flag), end tags (which, unusually, may carry attributes
-- ESCUDO's markup randomisation puts a ``nonce`` attribute on closing
``div`` tags), text runs, comments and doctypes.

The scanner is lenient in the way browsers are: malformed constructs
degrade to text rather than raising, and attribute values may be unquoted,
single-quoted or double-quoted.  Raw-text elements (``script``, ``style``,
``title``, ``textarea``) switch the scanner into a mode that swallows
everything up to the matching end tag (found ASCII-case-insensitively in
the original text), so markup-looking characters inside scripts do not
confuse the tree builder.

Tags are matched by compiled patterns rather than character loops.  A
well-formed tag -- an ASCII-letter name, attributes separated by spaces,
tabs or line breaks, each value quoted or unquoted up to a separator -- is
matched whole by one pattern.  Anything else (a non-ASCII name, attributes
run together, an unterminated quote, a stray ``/``) goes through a
per-attribute step pattern that applies the same lenient rules one
attribute at a time, so both routes read every tag the same way.

:func:`scan` yields plain tuples, which
:meth:`~repro.html.parser.TreeBuilder.build` consumes directly;
:func:`tokenize` wraps the same scan in :class:`Token` objects for callers
that want them.  Tag names, attribute names and attribute values are
lower-cased (names) and interned as they are scanned, so the many parses of
one page template share their strings and the tree builder can store them
as they are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from sys import intern
from typing import Iterator

from repro.dom.element import RAW_TEXT_ELEMENTS

from .entities import decode_entities

#: Scan item kinds: the first field of every tuple :func:`scan` yields.
#: ``(TEXT | RAW_TEXT | COMMENT | DOCTYPE, data, None)`` and
#: ``(START | SELF_CLOSING | END, name, attributes)``.
TEXT, RAW_TEXT, COMMENT, DOCTYPE, START, SELF_CLOSING, END = range(7)

# A whole well-formed tag.  Every name and unquoted value this pattern
# takes is followed by a separator the step pattern also ends it at, so a
# tag this pattern matches reads the same as the step route would read it.
_TAG = re.compile(
    r"<(/?)([A-Za-z][\w:-]*)"
    r"((?:[ \t\r\n]+[^\s\"'<=/>]+"
    r"(?:[ \t\r\n]*=[ \t\r\n]*(?:\"[^\"]*\"|'[^']*'|[^\s\"'<=>`]+))?)*)"
    r"[ \t\r\n]*(/?)>"
)
# One attribute of a tag that ``_TAG`` matched; the value keeps its quotes.
_TAG_ATTRIBUTE = re.compile(
    r"[ \t\r\n]+([^\s\"'<=/>]+)"
    r"(?:[ \t\r\n]*=[ \t\r\n]*(\"[^\"]*\"|'[^']*'|[^\s\"'<=>`]+))?"
)
# The lenient route: a tag name (any letters or digits, ``-``, ``_``,
# ``:``), then one step per attribute.  A step skips whitespace and reads
# the tag's end (``>``), a ``/`` (``/>`` ends a self-closing tag), or one
# attribute: a name up to ``=``, ``/``, ``>`` or a space, tab or line
# break, and an optional value -- quoted up to the closing quote (or the end
# of the text), else up to ``>`` or a space, tab or line break.
_NAME = re.compile(r"[\w:-]*")
_ATTRIBUTE_STEP = re.compile(
    r"\s*(?:(>)|(/)(>)?|([^=/> \t\r\n]*)\s*"
    r"(?:=\s*(?:\"([^\"]*)\"?|'([^']*)'?|([^> \t\r\n]*)))?)"
)
#: Where each raw-text element's content ends.
_RAW_TEXT_END = {name: re.compile("</" + name, re.I | re.A) for name in RAW_TEXT_ELEMENTS}


def scan(markup: str) -> Iterator[tuple]:
    """Yield the scan items of ``markup`` in document order."""
    text = markup
    length = len(text)
    find = text.find
    match_tag = _TAG.match
    find_attributes = _TAG_ATTRIBUTE.findall
    pos = 0
    while pos < length:
        lt = find("<", pos)
        if lt == -1:
            yield TEXT, decode_entities(text[pos:]), None
            return
        if lt > pos:
            yield TEXT, decode_entities(text[pos:lt]), None
            pos = lt
        match = match_tag(text, pos)
        if match is not None:
            end_tag, name, attribute_text, slash = match.groups()
            name = intern(name.lower())
            attributes: dict[str, str] = {}
            if attribute_text:
                # An absent value reads as "": a present one is quoted or
                # non-empty.
                for spelling, value in find_attributes(attribute_text):
                    if value[:1] in ("\"", "'"):
                        value = value[1:-1]
                    attributes[intern(spelling.lower())] = intern(decode_entities(value))
            pos = match.end()
            if end_tag:
                yield END, name, attributes
                continue
            if slash:
                yield SELF_CLOSING, name, attributes
                continue
            item = (START, name, attributes)
        else:
            item, pos = _scan_markup(text, pos)
            if item is None:
                # Lone '<' that does not open anything: emit as text.
                yield TEXT, "<", None
                pos += 1
                continue
        yield item
        if item[0] == START and item[1] in RAW_TEXT_ELEMENTS:
            found = _RAW_TEXT_END[item[1]].search(text, pos)
            end = length if found is None else found.start()
            if end > pos:
                yield RAW_TEXT, text[pos:end], None
                pos = end


def _scan_markup(text: str, pos: int) -> tuple[tuple | None, int]:
    """The construct at ``text[pos] == "<"`` that ``_TAG`` did not match.

    Returns the scan item and the position after it, or ``None`` and
    ``pos`` when the ``<`` opens nothing.
    """
    if text.startswith("<!--", pos):
        end = text.find("-->", pos + 4)
        if end == -1:
            return (COMMENT, text[pos + 4 :], None), len(text)
        return (COMMENT, text[pos + 4 : end], None), end + 3
    if text.startswith("<!", pos):
        end = text.find(">", pos + 2)
        if end == -1:
            return (DOCTYPE, text[pos + 2 :].strip(), None), len(text)
        return (DOCTYPE, text[pos + 2 : end].strip(), None), end + 1
    if text.startswith("</", pos):
        return _scan_tag(text, pos, pos + 2, END)
    if text[pos + 1 : pos + 2].isalpha():
        return _scan_tag(text, pos, pos + 1, START)
    return None, pos


def _scan_tag(text: str, pos: int, name_start: int, kind: int) -> tuple[tuple | None, int]:
    """A tag through the per-attribute step pattern."""
    name_end = _NAME.match(text, name_start).end()
    if name_end == name_start:
        return None, pos
    name = intern(text[name_start:name_end].lower())
    attributes: dict[str, str] = {}
    step = _ATTRIBUTE_STEP.match
    length = len(text)
    pos = name_end
    while pos < length:
        match = step(text, pos)
        pos = match.end()
        close, slash, slash_close, attribute, double, single, unquoted = match.groups()
        if close or slash_close:
            if slash_close and kind == START:
                kind = SELF_CLOSING
            break
        if attribute:
            value = double if double is not None else single if single is not None else unquoted
            attributes[intern(attribute.lower())] = intern(decode_entities(value or ""))
    return (kind, name, attributes), pos


# -- token objects ---------------------------------------------------------------------


@dataclass
class Token:
    """Base class for every token."""


@dataclass
class StartTagToken(Token):
    """``<name attr=value ...>`` or ``<name ... />``."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass
class EndTagToken(Token):
    """``</name>`` -- possibly with attributes (``</div nonce=...>``)."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class TextToken(Token):
    """A run of character data (entities already decoded)."""

    data: str


@dataclass
class RawTextToken(Token):
    """Content of a raw-text element (``script`` bodies are not entity-decoded)."""

    data: str


@dataclass
class CommentToken(Token):
    """``<!-- ... -->``."""

    data: str


@dataclass
class DoctypeToken(Token):
    """``<!DOCTYPE ...>``."""

    data: str


def tokenize(markup: str) -> Iterator[Token]:
    """Yield :class:`Token` objects for ``markup`` (a view of :func:`scan`)."""
    for kind, value, attributes in scan(markup):
        if kind == START:
            yield StartTagToken(value, attributes)
        elif kind == SELF_CLOSING:
            yield StartTagToken(value, attributes, self_closing=True)
        elif kind == END:
            yield EndTagToken(value, attributes)
        else:
            yield _DATA_TOKENS[kind](value)


_DATA_TOKENS = {TEXT: TextToken, RAW_TEXT: RawTextToken, COMMENT: CommentToken, DOCTYPE: DoctypeToken}
