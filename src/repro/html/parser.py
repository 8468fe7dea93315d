"""HTML tree builder.

Turns the scan of :mod:`repro.html.tokenizer` into a
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

from repro.core.nonce import NONCE_ATTRIBUTE, NonceValidator
from repro.dom.document import Document
from repro.dom.element import Element, VOID_ELEMENTS
from repro.dom.node import CommentNode, Node, TextNode

from .tokenizer import COMMENT, DOCTYPE, END, START, scan

#: Tags that implicitly close an open element with the same name.
_SELF_NESTING_CLOSERS = frozenset({"p", "li", "option", "tr", "td", "th"})


class TreeBuilder:
    """Stateful builder consuming the scan of one markup string."""

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

    def build(self, markup: str) -> Document:
        """Parse ``markup`` into the builder's document and return it.

        Nodes are created without their constructors and linked straight
        into their parent's child list: a freshly created node has no
        parent to detach from and no subtree to re-own, the scanner has
        already lower-cased and interned every name, and the document has
        no load manifest to invalidate until the parse is over.
        """
        document = self.document
        stack = self._stack
        new = object.__new__
        for kind, value, attributes in scan(markup):
            if kind == END:
                self._handle_end_tag(value, attributes)
                continue
            if kind == DOCTYPE:
                document.doctype = value
                continue
            if kind >= START:
                if value in _SELF_NESTING_CLOSERS and stack and stack[-1].tag_name == value:
                    stack.pop()
                node = new(Element)
                node.tag_name = value
                node._attributes = attributes
                node._security_context = None
            else:
                node = new(CommentNode if kind == COMMENT else TextNode)
                node.data = value
            parent: Node = stack[-1] if stack else document
            node.parent = parent
            node.children = []
            node.owner_document = document
            parent.children.append(node)
            if kind == START and value not in VOID_ELEMENTS:
                stack.append(node)
        return document

    @property
    def ignored_end_tags(self) -> int:
        """Number of end tags dropped by nonce validation (attack attempts)."""
        return self._ignored_end_tags

    # -- end tags -------------------------------------------------------------------

    def _handle_end_tag(self, name: str, attributes: dict[str, str]) -> None:
        stack = self._stack
        # Find the nearest open element with this tag name.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].tag_name == name:
                break
        else:
            return  # Stray end tag: ignored.

        candidate = stack[index]
        if name == "div":
            opening_nonce = candidate.get_attribute(NONCE_ATTRIBUTE)
            closing_nonce = attributes.get(NONCE_ATTRIBUTE)
            if not self._nonce_ok(opening_nonce, closing_nonce, candidate):
                # The terminator does not legitimately close this AC tag.
                # Per the paper it is ignored outright, so injected content
                # stays confined inside the scope it was inserted into.
                self._ignored_end_tags += 1
                return
        # Close the candidate (and anything opened after it).
        del stack[index:]

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
    return builder.build(markup)


def parse_document_with_stats(
    markup: str,
    url: str = "about:blank",
    nonce_validator: NonceValidator | None = None,
) -> tuple[Document, TreeBuilder]:
    """Parse a document and also return the builder (for its counters)."""
    builder = TreeBuilder(url=url, nonce_validator=nonce_validator)
    document = builder.build(markup)
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
    document = builder.build(markup)
    children = list(document.children)
    for child in children:
        document.remove_child(child)
        if owner is not None:
            # Iterative: a deeply nested fragment must not exhaust the
            # interpreter's recursion limit.
            child.owner_document = owner
            for node in child.descendants():
                node.owner_document = owner
    # The emptied scratch document still owns itself; cut that cycle too.
    document.release()
    return children
