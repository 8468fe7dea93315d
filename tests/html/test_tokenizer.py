"""Tests for the HTML tokenizer."""

from __future__ import annotations

from repro.html.tokenizer import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    RawTextToken,
    StartTagToken,
    TextToken,
    tokenize,
)


def tokens_of(markup: str):
    return list(tokenize(markup))


class TestBasicTokens:
    def test_simple_element(self):
        tokens = tokens_of("<p>hello</p>")
        assert isinstance(tokens[0], StartTagToken) and tokens[0].name == "p"
        assert isinstance(tokens[1], TextToken) and tokens[1].data == "hello"
        assert isinstance(tokens[2], EndTagToken) and tokens[2].name == "p"

    def test_tag_names_lowercased(self):
        tokens = tokens_of("<DIV></DIV>")
        assert tokens[0].name == "div"
        assert tokens[1].name == "div"

    def test_doctype(self):
        tokens = tokens_of("<!DOCTYPE html><html></html>")
        assert isinstance(tokens[0], DoctypeToken)
        assert tokens[0].data.lower() == "doctype html"

    def test_comment(self):
        tokens = tokens_of("before<!-- a comment -->after")
        assert isinstance(tokens[1], CommentToken)
        assert tokens[1].data == " a comment "

    def test_unterminated_comment_consumes_rest(self):
        tokens = tokens_of("<!-- never closed <p>x</p>")
        assert isinstance(tokens[0], CommentToken)
        assert len(tokens) == 1

    def test_text_only(self):
        tokens = tokens_of("just text, no tags")
        assert len(tokens) == 1 and tokens[0].data == "just text, no tags"

    def test_lone_less_than_becomes_text(self):
        tokens = tokens_of("a < b")
        assert "".join(t.data for t in tokens if isinstance(t, TextToken)) == "a < b"


class TestAttributes:
    def test_double_quoted(self):
        token = tokens_of('<div class="post body" id="x1">')[0]
        assert token.attributes == {"class": "post body", "id": "x1"}

    def test_single_quoted_and_unquoted(self):
        token = tokens_of("<div class='a' ring=2>")[0]
        assert token.attributes == {"class": "a", "ring": "2"}

    def test_valueless_attribute(self):
        token = tokens_of("<input disabled>")[0]
        assert token.attributes == {"disabled": ""}

    def test_attribute_names_lowercased(self):
        token = tokens_of('<div RING="1" R="0">')[0]
        assert token.attributes == {"ring": "1", "r": "0"}

    def test_entities_decoded_in_attribute_values(self):
        token = tokens_of('<a title="Tom &amp; Jerry">')[0]
        assert token.attributes["title"] == "Tom & Jerry"

    def test_self_closing_tag(self):
        token = tokens_of('<img src="x.png"/>')[0]
        assert token.self_closing
        assert token.attributes["src"] == "x.png"

    def test_whitespace_tolerance(self):
        token = tokens_of('<div  ring = "2"   r ="1" >')[0]
        assert token.attributes == {"ring": "2", "r": "1"}


class TestEndTagAttributes:
    def test_closing_div_may_carry_a_nonce(self):
        tokens = tokens_of('<div ring="2" nonce="abc">x</div nonce="abc">')
        closing = tokens[-1]
        assert isinstance(closing, EndTagToken)
        assert closing.attributes == {"nonce": "abc"}

    def test_plain_end_tag_has_no_attributes(self):
        closing = tokens_of("<div>x</div>")[-1]
        assert closing.attributes == {}


class TestRawText:
    def test_script_content_is_raw(self):
        tokens = tokens_of("<script>if (a < b && c > d) { run(); }</script>")
        raw = [t for t in tokens if isinstance(t, RawTextToken)]
        assert len(raw) == 1
        assert "a < b && c > d" in raw[0].data

    def test_markup_inside_script_not_tokenized(self):
        tokens = tokens_of("<script>var s = '<div ring=0>';</script><p>x</p>")
        names = [t.name for t in tokens if isinstance(t, StartTagToken)]
        assert names == ["script", "p"]

    def test_style_and_textarea_are_raw(self):
        tokens = tokens_of("<style>p > span { color: red; }</style>")
        assert any(isinstance(t, RawTextToken) for t in tokens)

    def test_unclosed_script_consumes_rest(self):
        tokens = tokens_of("<script>var x = 1;")
        assert isinstance(tokens[-1], RawTextToken)

    def test_end_tag_found_after_text_that_lower_cases_longer(self):
        # "İ".lower() is two code points: searching a lower-cased copy of the
        # markup found the end tag at a drifted offset in the original.
        tokens = tokens_of("<textarea>İİ</textarea><p id=a>x</p>")
        assert isinstance(tokens[1], RawTextToken) and tokens[1].data == "İİ"
        assert isinstance(tokens[2], EndTagToken) and tokens[2].name == "textarea"
        assert isinstance(tokens[3], StartTagToken) and tokens[3].attributes == {"id": "a"}

    def test_end_tag_is_matched_case_insensitively(self):
        tokens = tokens_of("<script>x</ScRiPt><p>y</p>")
        assert [type(t).__name__ for t in tokens] == [
            "StartTagToken", "RawTextToken", "EndTagToken", "StartTagToken", "TextToken", "EndTagToken"
        ]

    def test_entities_not_decoded_in_raw_text(self):
        raw = [t for t in tokens_of("<script>a &amp;&amp; b</script>") if isinstance(t, RawTextToken)]
        assert raw[0].data == "a &amp;&amp; b"


class TestEntitiesInText:
    def test_named_entities_decoded(self):
        tokens = tokens_of("<p>fish &amp; chips &lt;3</p>")
        assert tokens[1].data == "fish & chips <3"

    def test_numeric_entities_decoded(self):
        tokens = tokens_of("<p>&#65;&#x42;</p>")
        assert tokens[1].data == "AB"

    def test_unknown_entities_left_alone(self):
        tokens = tokens_of("<p>&unknown; &;</p>")
        assert tokens[1].data == "&unknown; &;"
