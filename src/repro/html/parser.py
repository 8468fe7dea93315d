"""HTML tree builder.

Turns the token stream from :mod:`repro.html.tokenizer` into a
:class:`~repro.dom.document.Document`.  Two pieces of ESCUDO-specific
behaviour live here because they *must* happen during tree construction:

* **Nonce-checked ``</div>`` handling** -- when the page uses markup
  randomisation, a closing ``div`` may only close an AC ``div`` whose nonce
  it repeats.  A mismatching terminator is ignored entirely, which is what
  defeats node-splitting attacks (Section 5 of the paper).  The caller
  passes a :class:`~repro.core.nonce.NonceValidator`; without one, nonces
  are still matched when present (the safe default) but mismatches are not
  recorded anywhere.

* **Implied end tags** -- a small amount of browser-style error recovery
  (``<p>``/``<li>`` auto-closing, stray end tags ignored) so that the
  synthetic applications' markup and the attack corpus parse predictably.

Security labelling is *not* done here: the tree builder produces an
unlabelled DOM, and :mod:`repro.browser.labeler` walks it afterwards to
assign security contexts.  Keeping the two phases separate mirrors the
paper's "extract, then track, then enforce" structure and lets the overhead
benchmark time them independently.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.nonce import NONCE_ATTRIBUTE, NonceValidator
from repro.dom.document import Document
from repro.dom.element import Element, VOID_ELEMENTS
from repro.dom.node import CommentNode, Node, TextNode

from .tokenizer import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    RawTextToken,
    StartTagToken,
    TextToken,
    Token,
    tokenize,
)

#: Tags that implicitly close an open element with the same name.
_SELF_NESTING_CLOSERS = frozenset({"p", "li", "option", "tr", "td", "th"})


class TreeBuilder:
    """Stateful builder consuming tokens and growing a document tree."""

    def __init__(
        self,
        url: str = "about:blank",
        nonce_validator: NonceValidator | None = None,
    ) -> None:
        self.document = Document(url=url)
        self.nonce_validator = nonce_validator
        self._stack: list[Element] = []
        self._ignored_end_tags = 0

    # -- public API -----------------------------------------------------------------

    def build(self, tokens: Iterable[Token]) -> Document:
        """Consume every token and return the finished document."""
        for token in tokens:
            self._process(token)
        return self.document

    @property
    def ignored_end_tags(self) -> int:
        """Number of end tags dropped by nonce validation (attack attempts)."""
        return self._ignored_end_tags

    # -- token handling ----------------------------------------------------------------

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
            self._handle_start_tag(token)
        elif isinstance(token, EndTagToken):
            self._handle_end_tag(token)

    def _handle_start_tag(self, token: StartTagToken) -> None:
        name = token.name
        if name in _SELF_NESTING_CLOSERS and self._stack and self._stack[-1].tag_name == name:
            self._stack.pop()
        element = Element(name, token.attributes)
        element.owner_document = self.document
        self._current().append_child(element)
        if token.self_closing or name in VOID_ELEMENTS:
            return
        self._stack.append(element)

    def _handle_end_tag(self, token: EndTagToken) -> None:
        name = token.name
        if not self._stack:
            return
        # Find the nearest open element with this tag name.
        index = None
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i].tag_name == name:
                index = i
                break
        if index is None:
            return  # Stray end tag: ignored.

        candidate = self._stack[index]
        if name == "div":
            opening_nonce = candidate.get_attribute(NONCE_ATTRIBUTE)
            closing_nonce = token.attributes.get(NONCE_ATTRIBUTE)
            if not self._nonce_ok(opening_nonce, closing_nonce, candidate):
                # The terminator does not legitimately close this AC tag.
                # Per the paper it is ignored outright, so injected content
                # stays confined inside the scope it was inserted into.
                self._ignored_end_tags += 1
                return
        # Close the candidate (and anything opened after it).
        del self._stack[index:]

    def _nonce_ok(self, opening: str | None, closing: str | None, element: Element) -> bool:
        if opening is None:
            return True
        if self.nonce_validator is not None:
            # The descriptive context (used in mismatch reports) is only built
            # when the nonces actually disagree; the common matching case must
            # stay cheap because it runs for every AC-tag terminator.
            if closing is not None and closing == opening:
                return True
            return self.nonce_validator.matches(
                opening, closing, context=f"</div> closing {element.scope_path}"
            )
        return closing == opening


def parse_document(
    markup: str,
    url: str = "about:blank",
    nonce_validator: NonceValidator | None = None,
) -> Document:
    """Parse a full HTML document."""
    builder = TreeBuilder(url=url, nonce_validator=nonce_validator)
    return builder.build(tokenize(markup))


def parse_document_with_stats(
    markup: str,
    url: str = "about:blank",
    nonce_validator: NonceValidator | None = None,
) -> tuple[Document, TreeBuilder]:
    """Parse a document and also return the builder (for its counters)."""
    builder = TreeBuilder(url=url, nonce_validator=nonce_validator)
    document = builder.build(tokenize(markup))
    return document, builder


def parse_fragment(
    markup: str,
    owner: Document | None = None,
    nonce_validator: NonceValidator | None = None,
) -> list[Node]:
    """Parse an HTML fragment (e.g. an ``innerHTML`` assignment).

    Returns the top-level nodes of the fragment, owned by ``owner`` when one
    is given.  Nonce validation applies here too: injected terminators inside
    dynamically written markup are just as ignored as in static markup.
    """
    builder = TreeBuilder(url=owner.url if owner is not None else "about:blank",
                          nonce_validator=nonce_validator)
    document = builder.build(tokenize(markup))
    children = list(document.children)
    for child in children:
        document.remove_child(child)
        if owner is not None:
            _reown(child, owner)
    # The emptied scratch document still owns itself; cut that cycle too.
    document.release()
    return children


def _reown(node: Node, owner: Document) -> None:
    node.owner_document = owner
    for child in node.children:
        _reown(child, owner)
