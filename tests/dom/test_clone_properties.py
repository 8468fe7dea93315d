"""Clone fidelity properties (hypothesis).

The HTML template cache's guarantee rests on three properties of
:meth:`Document.clone`:

* **Equivalence** -- for any generated document, the clone serialises to
  exactly the markup a fresh parse of the original's serialisation yields
  (clone == reparse, via the serializer round-trip);
* **Isolation** -- the clone and the original share no mutable state: deep
  mutation of the clone (structure, attributes, text) leaves the cached
  template byte-identical, and vice versa;
* **Manifest soundness** -- a clone arrives with a load manifest that shares
  its shape index with the template.  Under any sequence of mutations the
  id, tag-name and script queries still equal a brute-force walk, and the
  template's and a sibling clone's answers never move.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.node import CommentNode, Node, TextNode
from repro.html.parser import parse_document
from repro.html.serializer import serialize

tag_names = st.sampled_from(
    ["div", "span", "section", "article", "em", "strong", "ul", "aside", "form", "a"]
)
# No "nonce": the serializer does not repeat nonces on terminators, so nonced
# AC divs deliberately do not survive a serialize -> reparse round trip (the
# reparsed terminator is ignored).  Nonce replay fidelity is covered by the
# template-cache tests instead.
attr_names = st.sampled_from(["id", "class", "ring", "r", "w", "x", "href", "data-k"])
attr_values = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" -_."),
    min_size=0,
    max_size=12,
)
texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" "),
    min_size=0,
    max_size=20,
)


@st.composite
def element_trees(draw, max_depth: int = 3):
    """A random element subtree with attributes, text and comment leaves."""
    attributes = draw(
        st.dictionaries(attr_names, attr_values, min_size=0, max_size=3)
    )
    element = Element(draw(tag_names), attributes)
    n_children = draw(st.integers(min_value=0, max_value=3)) if max_depth > 0 else 0
    for _ in range(n_children):
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0 and max_depth > 0:
            element.append_child(draw(element_trees(max_depth=max_depth - 1)))
        elif kind == 1:
            element.append_child(TextNode(draw(texts)))
        else:
            element.append_child(CommentNode(draw(texts)))
    return element


@st.composite
def documents(draw):
    """A random document with an <html> root."""
    document = Document(url="http://prop.example.com/page")
    root = document.create_element("html")
    document.append_child(root)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        root.append_child(draw(element_trees()))
    return document


class TestCloneEquivalence:
    @given(documents())
    @settings(max_examples=80)
    def test_clone_serialises_identically(self, document: Document):
        assert serialize(document.clone()) == serialize(document)

    @given(documents())
    @settings(max_examples=80)
    def test_clone_equals_reparse_round_trip(self, document: Document):
        """clone() == reparse: both reproduce the original's serialisation."""
        markup = serialize(document)
        assert serialize(document.clone()) == serialize(parse_document(markup))

    @given(documents())
    @settings(max_examples=60)
    def test_clone_shares_no_nodes_and_owns_itself(self, document: Document):
        clone = document.clone()
        originals = {id(node) for node in document.descendants()}
        for node in clone.descendants():
            assert id(node) not in originals
            assert node.owner_document is clone
        assert clone.url == document.url and clone.doctype == document.doctype


def _mutate_deeply(document: Document) -> None:
    """Mutate structure, attributes and text at every level of the tree."""
    for element in list(document.elements()):
        element.set_attribute("data-mutated", "yes")
        element.set_attribute("id", "rewritten")
        element.append_child(TextNode("INJECTED"))
    for node in list(document.descendants()):
        if isinstance(node, TextNode):
            node.data = "SCRUBBED"
    root = document.document_element
    if root is not None:
        first = root.first_child
        if first is not None:
            root.remove_child(first)
        root.append_child(Element("div", {"id": "grafted"}))


class TestCloneIsolation:
    @given(documents())
    @settings(max_examples=60)
    def test_mutating_the_clone_leaves_the_template_byte_identical(self, document: Document):
        before = serialize(document)
        clone = document.clone()
        _mutate_deeply(clone)
        assert serialize(document) == before

    @given(documents())
    @settings(max_examples=60)
    def test_mutating_the_template_leaves_the_clone_byte_identical(self, document: Document):
        clone = document.clone()
        before = serialize(clone)
        _mutate_deeply(document)
        assert serialize(clone) == before

    @given(documents())
    @settings(max_examples=40)
    def test_clone_id_lookups_resolve_within_the_clone(self, document: Document):
        clone = document.clone()
        for element in clone.elements():
            eid = element.id
            if eid is None:
                continue
            found = clone.get_element_by_id(eid)
            assert found is not None
            assert found.owner_document is clone
            # The match must be a clone-side node, never the template's.
            assert all(found is not orig for orig in document.elements())
            break


# -- manifest soundness under mutation ------------------------------------------------

#: Tags of the elements the mutations insert; ``script`` exercises ``scripts()``.
NEW_TAGS = ("div", "span", "script", "img", "form")
#: A small id pool, so duplicate ids (first-in-document-order wins) are common.
IDS = ("a", "b", "c")
QUERIED_TAGS = (*NEW_TAGS, "html", "section", "article", "em", "strong", "ul", "aside", "a")


def _answers(document: Document) -> dict:
    """The manifest-backed query results for every probed id and tag."""
    return {
        "ids": {eid: document.get_element_by_id(eid) for eid in IDS},
        "tags": {tag: document.get_elements_by_tag_name(tag) for tag in QUERIED_TAGS},
        "scripts": document.scripts(),
    }


def _brute_force(document: Document) -> dict:
    """The same answers from a plain ``descendants()`` walk."""
    elements = [node for node in document.descendants() if isinstance(node, Element)]
    first_by_id: dict[str, Element] = {}
    for element in elements:
        if element.id is not None:
            first_by_id.setdefault(element.id, element)
    return {
        "ids": {eid: first_by_id.get(eid) for eid in IDS},
        "tags": {tag: [el for el in elements if el.tag_name == tag] for tag in QUERIED_TAGS},
        "scripts": [el for el in elements if el.tag_name == "script"],
    }


def _with_ids(document: Document) -> Document:
    """Give some of ``document``'s elements ids from the shared pool."""
    for index, element in enumerate(list(document.elements())):
        if index % 2:
            element.set_attribute("id", IDS[index % len(IDS)])
    return document


class ManifestMutations(RuleBasedStateMachine):
    """Random mutation sequences applied to one clone of a template."""

    @initialize(template=documents(), foreign=documents())
    def build(self, template, foreign):
        self.template = _with_ids(template)
        self.clone = self.template.clone()
        self.sibling = self.template.clone()
        self.foreign = _with_ids(foreign)
        # The sibling asks first, so the template reads shape indexes that
        # a clone computed -- the template cache's serving pattern.
        self.sibling_answers = _answers(self.sibling)
        self.template_answers = _answers(self.template)

    # -- helpers ------------------------------------------------------------------------

    def _nodes(self, document: Document) -> list:
        return list(document.descendants())

    def _containers(self, document: Document) -> list:
        return [document, *document.elements()]

    def _new_element(self, data) -> Element:
        element = self.clone.create_element(data.draw(st.sampled_from(NEW_TAGS)))
        if data.draw(st.booleans()):
            element.set_attribute("id", data.draw(st.sampled_from(IDS)))
        return element

    def _movable_into(self, data, parent) -> Node:
        """A fresh element, or an existing clone node that is not ``parent``'s ancestor."""
        candidates = [
            node for node in self._nodes(self.clone)
            if node is not parent and not parent._is_ancestor(node)
        ]
        if candidates and data.draw(st.booleans()):
            return data.draw(st.sampled_from(candidates))
        return self._new_element(data)

    # -- mutations ----------------------------------------------------------------------

    @rule(data=st.data())
    def append_child(self, data):
        parent = data.draw(st.sampled_from(self._containers(self.clone)))
        parent.append_child(self._movable_into(data, parent))

    @rule(data=st.data())
    def insert_before(self, data):
        parent = data.draw(st.sampled_from(self._containers(self.clone)))
        reference = data.draw(st.sampled_from([None, *parent.children]))
        child = self._movable_into(data, parent)
        if child is reference:
            reference = None
        parent.insert_before(child, reference)

    @precondition(lambda self: self.clone.children)
    @rule(data=st.data())
    def remove_child(self, data):
        node = data.draw(st.sampled_from(self._nodes(self.clone)))
        node.parent.remove_child(node)

    @rule(data=st.data())
    def replace_children(self, data):
        element = data.draw(st.sampled_from(self._containers(self.clone)))
        fresh = [self._new_element(data) for _ in range(data.draw(st.integers(0, 3)))]
        element.replace_children(fresh)

    @rule(data=st.data())
    def set_id(self, data):
        elements = list(self.clone.elements())
        if elements:
            element = data.draw(st.sampled_from(elements))
            element.set_attribute("id", data.draw(st.sampled_from(IDS)))

    @rule(data=st.data())
    def remove_id(self, data):
        elements = list(self.clone.elements())
        if elements:
            data.draw(st.sampled_from(elements)).remove_attribute("id")

    @rule(data=st.data())
    def adopt_from_foreign_document(self, data):
        nodes = self._nodes(self.foreign)
        if nodes:
            node = data.draw(st.sampled_from(nodes))
            parent = data.draw(st.sampled_from(self._containers(self.clone)))
            parent.append_child(node)

    @rule(data=st.data())
    def adopt_into_foreign_document(self, data):
        nodes = self._nodes(self.clone)
        if nodes:
            node = data.draw(st.sampled_from(nodes))
            data.draw(st.sampled_from(self._containers(self.foreign))).append_child(node)

    # -- the property -------------------------------------------------------------------

    @invariant()
    def queries_match_a_brute_force_walk(self):
        for document in (self.clone, self.foreign, self.template, self.sibling):
            assert _answers(document) == _brute_force(document)
        assert _answers(self.template) == self.template_answers
        assert _answers(self.sibling) == self.sibling_answers


ManifestMutations.TestCase.settings = settings(
    max_examples=60, stateful_step_count=15, deadline=None
)
TestManifestTracksMutations = ManifestMutations.TestCase
