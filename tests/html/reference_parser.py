"""Frozen reference HTML parser: the test oracle for :mod:`repro.html`.

This is the character-by-character tokenizer and the token-consuming tree
builder that :mod:`repro.html.tokenizer` and :mod:`repro.html.parser`
replaced, kept verbatim apart from one fix shared with the compiled
scanner: the raw-text end tag is searched in the original text,
ASCII-case-insensitively (searching a lower-cased copy drifted whenever
lower-casing changed a string's length, e.g. ``"İ".lower()``).  The
property tests in ``test_html_properties.py`` check that the compiled
scanner builds the same tree as this reference on every input.  Do not
optimise this module: its value is that it is obviously the old rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.nonce import NONCE_ATTRIBUTE, NonceValidator
from repro.dom.document import Document
from repro.dom.element import RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Element
from repro.dom.node import CommentNode, Node, TextNode
from repro.html.entities import decode_entities

_SELF_NESTING_CLOSERS = frozenset({"p", "li", "option", "tr", "td", "th"})


@dataclass
class Token:
    """Base class for every token."""


@dataclass
class StartTagToken(Token):
    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass
class EndTagToken(Token):
    name: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class TextToken(Token):
    data: str


@dataclass
class RawTextToken(Token):
    data: str


@dataclass
class CommentToken(Token):
    data: str


@dataclass
class DoctypeToken(Token):
    data: str


def reference_tokenize(markup: str) -> Iterator[Token]:
    """Yield the reference tokens for ``markup``."""
    return _Tokenizer(markup).tokens()


class _Tokenizer:
    def __init__(self, markup: str) -> None:
        self._text = markup
        self._pos = 0
        self._length = len(markup)

    def tokens(self) -> Iterator[Token]:
        while self._pos < self._length:
            lt = self._text.find("<", self._pos)
            if lt == -1:
                yield TextToken(decode_entities(self._text[self._pos :]))
                break
            if lt > self._pos:
                yield TextToken(decode_entities(self._text[self._pos : lt]))
                self._pos = lt
            token = self._consume_markup()
            if token is None:
                yield TextToken("<")
                self._pos += 1
                continue
            yield token
            if isinstance(token, StartTagToken) and not token.self_closing \
                    and token.name in RAW_TEXT_ELEMENTS:
                raw = self._consume_raw_text(token.name)
                if raw is not None:
                    yield raw

    def _consume_markup(self) -> Token | None:
        text = self._text
        pos = self._pos
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end == -1:
                data = text[pos + 4 :]
                self._pos = self._length
            else:
                data = text[pos + 4 : end]
                self._pos = end + 3
            return CommentToken(data)
        if text.startswith("<!", pos):
            end = text.find(">", pos + 2)
            if end == -1:
                self._pos = self._length
                return DoctypeToken(text[pos + 2 :].strip())
            self._pos = end + 1
            return DoctypeToken(text[pos + 2 : end].strip())
        if text.startswith("</", pos):
            return self._consume_tag(pos + 2, end_tag=True)
        if pos + 1 < self._length and (text[pos + 1].isalpha()):
            return self._consume_tag(pos + 1, end_tag=False)
        return None

    def _consume_tag(self, name_start: int, *, end_tag: bool) -> Token | None:
        text = self._text
        pos = name_start
        while pos < self._length and (text[pos].isalnum() or text[pos] in "-_:"):
            pos += 1
        name = text[name_start:pos].lower()
        if not name:
            return None
        attributes, pos, self_closing = self._consume_attributes(pos)
        self._pos = pos
        if end_tag:
            return EndTagToken(name=name, attributes=attributes)
        return StartTagToken(name=name, attributes=attributes, self_closing=self_closing)

    def _consume_attributes(self, pos: int) -> tuple[dict[str, str], int, bool]:
        text = self._text
        attributes: dict[str, str] = {}
        self_closing = False
        while pos < self._length:
            while pos < self._length and text[pos].isspace():
                pos += 1
            if pos >= self._length:
                break
            ch = text[pos]
            if ch == ">":
                pos += 1
                return attributes, pos, self_closing
            if ch == "/":
                pos += 1
                if pos < self._length and text[pos] == ">":
                    return attributes, pos + 1, True
                continue
            name_start = pos
            while pos < self._length and text[pos] not in "=/> \t\r\n":
                pos += 1
            attr_name = text[name_start:pos].lower()
            while pos < self._length and text[pos].isspace():
                pos += 1
            value = ""
            if pos < self._length and text[pos] == "=":
                pos += 1
                while pos < self._length and text[pos].isspace():
                    pos += 1
                if pos < self._length and text[pos] in "\"'":
                    quote = text[pos]
                    pos += 1
                    close = text.find(quote, pos)
                    if close == -1:
                        value = text[pos:]
                        pos = self._length
                    else:
                        value = text[pos:close]
                        pos = close + 1
                else:
                    value_start = pos
                    while pos < self._length and text[pos] not in "> \t\r\n":
                        pos += 1
                    value = text[value_start:pos]
            if attr_name:
                attributes[attr_name] = decode_entities(value)
        return attributes, pos, self_closing

    def _consume_raw_text(self, tag_name: str) -> RawTextToken | None:
        match = re.compile(f"</{tag_name}", re.I | re.A).search(self._text, self._pos)
        end = self._length if match is None else match.start()
        data = self._text[self._pos : end]
        self._pos = end
        if data == "":
            return None
        return RawTextToken(data)


class ReferenceTreeBuilder:
    """The token-consuming tree builder, with public-API node insertion."""

    def __init__(
        self,
        url: str = "about:blank",
        nonce_validator: NonceValidator | None = None,
    ) -> None:
        self.document = Document(url=url)
        self.nonce_validator = nonce_validator
        self._stack: list[Element] = []
        self.ignored_end_tags = 0

    def build(self, tokens: Iterable[Token]) -> Document:
        for token in tokens:
            self._process(token)
        return self.document

    def _current(self) -> Node:
        return self._stack[-1] if self._stack else self.document

    def _process(self, token: Token) -> None:
        if isinstance(token, DoctypeToken):
            self.document.doctype = token.data
        elif isinstance(token, CommentToken):
            self._current().append_child(CommentNode(token.data))
        elif isinstance(token, (TextToken, RawTextToken)):
            if token.data:
                self._current().append_child(TextNode(token.data))
        elif isinstance(token, StartTagToken):
            name = token.name
            if name in _SELF_NESTING_CLOSERS and self._stack and self._stack[-1].tag_name == name:
                self._stack.pop()
            element = Element(name, token.attributes)
            element.owner_document = self.document
            self._current().append_child(element)
            if not (token.self_closing or name in VOID_ELEMENTS):
                self._stack.append(element)
        elif isinstance(token, EndTagToken):
            self._handle_end_tag(token)

    def _handle_end_tag(self, token: EndTagToken) -> None:
        name = token.name
        index = None
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i].tag_name == name:
                index = i
                break
        if index is None:
            return
        candidate = self._stack[index]
        if name == "div":
            opening = candidate.get_attribute(NONCE_ATTRIBUTE)
            closing = token.attributes.get(NONCE_ATTRIBUTE)
            if opening is not None:
                if self.nonce_validator is not None:
                    ok = closing == opening or self.nonce_validator.matches(
                        opening, closing, context=f"</div> closing {candidate.scope_path}"
                    )
                else:
                    ok = closing == opening
                if not ok:
                    self.ignored_end_tags += 1
                    return
        del self._stack[index:]


def reference_parse(
    markup: str, nonce_validator: NonceValidator | None = None
) -> ReferenceTreeBuilder:
    """Parse ``markup`` with the reference pipeline and return its builder."""
    builder = ReferenceTreeBuilder(nonce_validator=nonce_validator)
    builder.build(reference_tokenize(markup))
    return builder
