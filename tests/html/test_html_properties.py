"""Property-based tests for the HTML substrate (hypothesis).

The parser properties compare :mod:`repro.html` with the frozen reference
parser in ``reference_parser.py``; ``HYPOTHESIS_PROFILE=ci`` (see
``tests/conftest.py``) runs the generated-markup properties with a larger
example budget.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nonce import NonceValidator
from repro.dom.element import Element
from repro.dom.node import CommentNode, TextNode
from repro.html.entities import decode_entities, escape_attribute, escape_text
from repro.html.parser import TreeBuilder, parse_document, parse_document_with_stats
from repro.html.serializer import serialize
from repro.html.tokenizer import tokenize

from .reference_parser import reference_parse, reference_tokenize

#: Text without markup-significant characters, for building random documents.
plain_text = st.text(
    alphabet=st.characters(blacklist_characters="<>&\0", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=40,
)

tag_names = st.sampled_from(["div", "p", "span", "b", "i", "section", "li"])
attr_names = st.sampled_from(["class", "id", "title", "data-x", "ring", "r", "w", "x"])
attr_values = st.text(
    alphabet=st.characters(blacklist_characters='<>&"\0', blacklist_categories=("Cs",)),
    max_size=20,
)


@st.composite
def random_markup(draw, depth=2):
    """Generate well-formed HTML fragments."""
    if depth == 0:
        return escape_text(draw(plain_text))
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        tag = draw(tag_names)
        attributes = draw(st.dictionaries(attr_names, attr_values, max_size=2))
        attr_text = "".join(f' {name}="{escape_attribute(value)}"' for name, value in attributes.items())
        inner = draw(random_markup(depth=depth - 1))
        pieces.append(f"<{tag}{attr_text}>{inner}</{tag}>")
    pieces.append(escape_text(draw(plain_text)))
    return "".join(pieces)


@settings(max_examples=60, deadline=None)
@given(text=plain_text)
def test_escape_then_decode_is_identity(text):
    assert decode_entities(escape_text(text)) == text


@settings(max_examples=60, deadline=None)
@given(markup=random_markup())
def test_parse_never_crashes_and_serialization_is_stable(markup):
    document = parse_document(f"<html><body>{markup}</body></html>")
    first = serialize(document)
    second = serialize(parse_document(first))
    assert first == second


@settings(max_examples=60, deadline=None)
@given(markup=random_markup())
def test_text_content_preserved_through_round_trip(markup):
    document = parse_document(f"<html><body>{markup}</body></html>")
    round_tripped = parse_document(serialize(document))
    assert document.body.text_content == round_tripped.body.text_content


@settings(max_examples=40, deadline=None)
@given(junk=st.text(max_size=80))
def test_parser_is_total_on_arbitrary_input(junk):
    """The tree builder is lenient: arbitrary text never raises."""
    document = parse_document(junk)
    assert document is not None


# -- the compiled scanner against the frozen reference parser ---------------------------


def _tree_signature(document) -> list[tuple]:
    """Every node of ``document`` in order, with its parent's position."""
    nodes = [document, *document.descendants()]
    position = {id(node): index for index, node in enumerate(nodes)}
    signature: list[tuple] = [("document", document.doctype)]
    for node in nodes[1:]:
        assert node.owner_document is document
        parent = position[id(node.parent)]
        if isinstance(node, Element):
            signature.append((parent, "element", node.tag_name, tuple(node.attributes.items())))
        elif isinstance(node, TextNode):
            signature.append((parent, "text", node.data))
        else:
            assert isinstance(node, CommentNode)
            signature.append((parent, "comment", node.data))
    return signature


def _mismatches(validator: NonceValidator) -> list[tuple]:
    return [(m.expected, m.found, m.context) for m in validator.mismatches]


def assert_parses_like_reference(markup: str) -> None:
    """The tree builder and the frozen reference agree on ``markup``."""
    for recording in (True, False):
        validator = NonceValidator() if recording else None
        document, builder = parse_document_with_stats(markup, nonce_validator=validator)
        reference_validator = NonceValidator() if recording else None
        reference = reference_parse(markup, nonce_validator=reference_validator)
        assert _tree_signature(document) == _tree_signature(reference.document), markup
        assert builder.ignored_end_tags == reference.ignored_end_tags, markup
        if recording:
            assert _mismatches(validator) == _mismatches(reference_validator), markup


def _served_markup() -> tuple[list[str], list[str]]:
    """Every markup string parsed while the apps warm up and 40 seed-1
    scenarios run, and while every corpus attack runs under both models."""
    from repro.attacks.harness import APP_KEYS, registered_attacks
    from repro.scenarios.generator import ScenarioGenerator
    from repro.scenarios.runner import ScenarioRunner

    seen: list[str] = []
    build = TreeBuilder.build

    def recording_build(builder, markup):
        seen.append(markup)
        return build(builder, markup)

    with mock.patch.object(TreeBuilder, "build", recording_build):
        runner = ScenarioRunner()
        runner.warm_for(APP_KEYS)
        generator = ScenarioGenerator(seed=1)
        for index in range(40):
            runner.run(generator.scenario(index))
        scenario_markup = list(dict.fromkeys(seen))
        seen.clear()
        for attack in registered_attacks():
            for model in ("escudo", "sop"):
                attack.run(model)
    return scenario_markup, list(dict.fromkeys(seen))


@pytest.fixture(scope="module")
def served_markup() -> tuple[list[str], list[str]]:
    return _served_markup()


def test_every_served_body_parses_like_the_reference(served_markup):
    scenario_markup, _attack_markup = served_markup
    assert len(scenario_markup) > 50
    for markup in scenario_markup:
        assert_parses_like_reference(markup)


def test_every_attack_page_parses_like_the_reference(served_markup):
    _scenario_markup, attack_markup = served_markup
    assert any("<script>" in markup for markup in attack_markup)
    for markup in attack_markup:
        assert_parses_like_reference(markup)


#: Whitespace the scanner tells apart: space, tab and line breaks end a
#: name or an unquoted value; form feed, vertical tab and no-break space
#: are skipped between attributes but belong to a name or value.
_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", "\f", "\v", "\xa0"])
_TAG_NAMES = st.sampled_from(
    ["div", "DIV", "p", "li", "b", "br", "img", "script", "SCRIPT", "style", "title",
     "textarea", "é", "İ", "x-y:z", "h1", "1", ""]
)
_ATTRIBUTE_NAMES = st.sampled_from(
    ["ring", "nonce", "id", "R", "w", "a-b", "é", "x:y", '"q', "'", "`", "<", "=", "/", ""]
)
_ATTRIBUTE_VALUES = st.one_of(
    st.sampled_from(
        ['"n1"', "'n1'", "n1", '"a > b"', "'it\"s'", "x/", "a&amp;b", '"&lt;"', '"open',
         "'open", '""', "İ", "a=b", "`v`"]
    ),
    st.text(alphabet="<>/=\"' \t\f\xa0&;aZ1İ", max_size=4),
)


@st.composite
def _generated_tag(draw) -> str:
    """One tag, well-formed or not: attributes with every kind of spacing,
    quoting and terminator, and sometimes no end at all."""
    parts = [draw(st.sampled_from(["<", "</"])), draw(_TAG_NAMES)]
    for _ in range(draw(st.integers(0, 3))):
        parts += [draw(_SPACES), draw(_ATTRIBUTE_NAMES)]
        if draw(st.booleans()):
            parts += [draw(_SPACES), "=", draw(_SPACES), draw(_ATTRIBUTE_VALUES)]
    parts += [draw(_SPACES), draw(st.sampled_from([">", ">", "/>", "/ >", "/", ""]))]
    return "".join(parts)


#: Pieces of markup between the tags: nonced ``div``s, raw-text end tags,
#: entities, comments, doctypes, non-ASCII letters (``İ`` changes length
#: when lower-cased) and short runs of markup punctuation and whitespace.
_MARKUP_PIECES = st.one_of(
    _generated_tag(),
    st.sampled_from(
        [
            '<div ring="1" nonce="n1">', '</div nonce="n1">', "</div nonce=n2>", "</div>",
            "</script>", "</SCRIPT", "</TiTlE>", "</textarea >", "<br/>", "</", "<", ">",
            "&amp;", "&lt;", "&#65;", "&#x42;", "&bogus;", "&", "<!--", "-->",
            "<!DOCTYPE html>", "<!x", "İ", "é", "ß", "text",
        ]
    ),
    st.text(alphabet="<>/=\"' \t\r\n\f\v\xa0&;#aZ1İé", min_size=1, max_size=3),
)
_GENERATED_MARKUP = st.lists(_MARKUP_PIECES, max_size=30).map("".join)


@settings(deadline=None)
@given(markup=_GENERATED_MARKUP)
def test_generated_markup_parses_like_the_reference(markup):
    assert_parses_like_reference(markup)


@settings(deadline=None)
@given(tags=st.lists(_generated_tag(), min_size=1, max_size=8))
def test_generated_tags_parse_like_the_reference(tags):
    assert_parses_like_reference("İ".join(tags))


def test_tokens_match_the_reference_tokens():
    markup = (
        '<!DOCTYPE html><div ring="1" nonce="n">a &amp; b<br/><script>x < y</script>'
        "<textarea>İİ</textarea><p id=a>x</p></div nonce=\"n\"><!-- c -->"
    )
    assert [(type(t).__name__, vars(t)) for t in tokenize(markup)] == [
        (type(t).__name__, vars(t)) for t in reference_tokenize(markup)
    ]
