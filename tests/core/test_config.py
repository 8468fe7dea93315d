"""Tests for configuration extraction (AC tags and HTTP headers)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acl import parse_acl_attributes
from repro.core.config import (
    API_POLICY_HEADER,
    COOKIE_POLICY_HEADER,
    RINGS_HEADER,
    AcTagLabel,
    PageConfiguration,
    ResourcePolicy,
    extract_ac_label,
    format_policy_header,
    is_ac_tag,
    parse_policy_header,
)
from repro.core.errors import ConfigurationError
from repro.core.rings import Ring, RingSet


class TestAcTagExtraction:
    def test_paper_example_attributes(self):
        label = extract_ac_label({"ring": "2", "r": "1", "w": "0", "x": "2", "nonce": "abc"})
        assert label.declared_ring == Ring(2)
        assert label.acl.read == Ring(1)
        assert label.acl.write == Ring(0)
        assert label.acl.use == Ring(2)
        assert label.nonce == "abc"
        assert label.is_labelled

    def test_ring_only(self):
        label = extract_ac_label({"ring": "3"})
        assert label.declared_ring == Ring(3)
        assert label.acl is None
        assert label.nonce is None

    def test_no_escudo_attributes(self):
        label = extract_ac_label({"class": "post", "id": "x"})
        assert not label.is_labelled
        assert label.declared_ring is None

    def test_malformed_ring_treated_as_absent(self):
        assert extract_ac_label({"ring": "zero"}).declared_ring is None
        assert extract_ac_label({"ring": "-1"}).declared_ring is None
        assert extract_ac_label({"ring": ""}).declared_ring is None

    def test_ring_clamped_to_universe(self):
        label = extract_ac_label({"ring": "9"}, RingSet(3))
        assert label.declared_ring == Ring(3)

    def test_attribute_names_case_insensitive(self):
        label = extract_ac_label({"RING": "1", "R": "0"})
        assert label.declared_ring == Ring(1)
        assert label.acl.read == Ring(0)

    def test_long_form_acl_names(self):
        label = extract_ac_label({"ring": "2", "read": "1", "write": "1", "use": "2"})
        assert label.acl.read == Ring(1) and label.acl.use == Ring(2)

    def test_acl_label_without_ring(self):
        label = extract_ac_label({"w": "1"})
        assert label.declared_ring is None
        assert label.acl.write == Ring(1)
        assert label.is_labelled


_ACL_NAMES = ("r", "w", "x", "read", "write", "use")
_ACL_VALUES = st.one_of(
    st.integers(min_value=0, max_value=9).map(str),  # digits, in and out of range
    st.integers(min_value=0, max_value=9).map(lambda n: f" {n} "),  # padded
    st.integers(min_value=10, max_value=10**6).map(str),  # far out of range
    st.sampled_from(["", "-1", "+1", "1.5", "abc", "٣", "１", "²", "0x1", "1 2"]),  # junk
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_ACL_NAMES), _ACL_VALUES, max_size=6))
def test_fast_acl_path_agrees_with_the_general_parser(attributes):
    """Short, long and mixed ACL names parse the same on both paths."""
    assert extract_ac_label(attributes).acl == parse_acl_attributes(attributes)


class TestIsAcTag:
    def test_div_with_ring_is_ac_tag(self):
        assert is_ac_tag("div", {"ring": "2"})
        assert is_ac_tag("DIV", {"nonce": "x"})

    def test_long_acl_names_make_an_ac_tag(self):
        assert is_ac_tag("div", {"read": "2"})
        assert is_ac_tag("div", {"USE": "1"})

    def test_div_without_escudo_attributes_is_not(self):
        assert not is_ac_tag("div", {"class": "post"})

    def test_non_div_is_never_an_ac_tag(self):
        assert not is_ac_tag("span", {"ring": "2"})


class TestPolicyHeaders:
    def test_parse_single_entry(self):
        policies = parse_policy_header("sid; ring=1; r=1; w=1; x=1")
        assert policies["sid"].ring == Ring(1)
        assert policies["sid"].acl.use == Ring(1)

    def test_ring_only_entry_defaults_acl_to_ring(self):
        policies = parse_policy_header("sid; ring=2")
        assert policies["sid"].acl.read == Ring(2)
        assert policies["sid"].acl.write == Ring(2)

    def test_partial_acl_defaults_remaining_operations_to_ring(self):
        policies = parse_policy_header("XMLHttpRequest; ring=1; x=1")
        policy = policies["XMLHttpRequest"]
        assert policy.acl.use == Ring(1)
        assert policy.acl.read == Ring(1)

    def test_multiple_entries(self):
        policies = parse_policy_header("a; ring=1, b; ring=2; w=0 , c")
        assert set(policies) == {"a", "b", "c"}
        assert policies["c"].ring == Ring(0)
        assert policies["b"].acl.write == Ring(0)

    def test_round_trip_through_format(self):
        policies = {"sid": ResourcePolicy.uniform(1), "data": ResourcePolicy.uniform(2)}
        parsed = parse_policy_header(format_policy_header(policies))
        assert parsed["sid"].ring == Ring(1)
        assert parsed["data"].acl.read == Ring(2)

    def test_format_rejects_names_with_separators(self):
        with pytest.raises(ConfigurationError):
            format_policy_header({"bad;name": ResourcePolicy.ring_zero()})


class TestPageConfiguration:
    def test_legacy_configuration(self):
        config = PageConfiguration.legacy()
        assert not config.escudo_enabled
        assert config.rings.count == 1

    def test_defaults_are_ring_zero(self):
        config = PageConfiguration()
        assert config.cookie_policy("unknown").ring == Ring(0)
        assert config.api_policy("XMLHttpRequest").ring == Ring(0)

    def test_from_headers_detects_escudo(self):
        config = PageConfiguration.from_headers({RINGS_HEADER: "3"})
        assert config.escudo_enabled
        assert config.rings.highest_level == 3

    def test_from_headers_without_escudo_headers(self):
        config = PageConfiguration.from_headers({"Content-Type": "text/html"})
        assert not config.escudo_enabled

    def test_from_headers_parses_cookie_and_api_policies(self):
        headers = {
            RINGS_HEADER: "3",
            COOKIE_POLICY_HEADER: "sid; ring=1",
            API_POLICY_HEADER: "XMLHttpRequest; ring=1; x=1",
        }
        config = PageConfiguration.from_headers(headers)
        assert config.cookie_policy("sid").ring == Ring(1)
        assert config.api_policy("XMLHttpRequest").acl.use == Ring(1)

    def test_from_headers_is_case_insensitive(self):
        config = PageConfiguration.from_headers({RINGS_HEADER.lower(): "2"})
        assert config.rings.highest_level == 2

    def test_malformed_rings_header_falls_back_to_default(self):
        assert PageConfiguration.from_headers({RINGS_HEADER: "many"}).rings.highest_level == 3
        assert PageConfiguration.from_headers({RINGS_HEADER: "-2"}).rings.highest_level == 3

    def test_to_headers_round_trip(self):
        config = PageConfiguration(rings=RingSet(3))
        config.cookie_policies["sid"] = ResourcePolicy.uniform(1)
        config.api_policies["XMLHttpRequest"] = ResourcePolicy.uniform(1)
        parsed = PageConfiguration.from_headers(config.to_headers())
        assert parsed.escudo_enabled
        assert parsed.cookie_policy("sid").ring == Ring(1)
        assert parsed.api_policy("XMLHttpRequest").ring == Ring(1)

    def test_legacy_to_headers_is_empty(self):
        assert PageConfiguration.legacy().to_headers() == {}


class TestAcTagLabelValue:
    def test_is_labelled_flags(self):
        assert AcTagLabel(declared_ring=Ring(1), acl=None, nonce=None).is_labelled
        assert AcTagLabel(declared_ring=None, acl=None, nonce="n").is_labelled
        assert not AcTagLabel(declared_ring=None, acl=None, nonce=None).is_labelled
