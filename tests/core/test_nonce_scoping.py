"""Tests for markup randomisation (nonces) and the scoping rule."""

from __future__ import annotations

import pytest

from repro.core.errors import NonceError
from repro.core.nonce import NonceGenerator, NonceValidator
from repro.core.rings import Ring
from repro.core.scoping import effective_ring, is_violation


class TestNonceGenerator:
    def test_seeded_generator_is_deterministic(self):
        first = [NonceGenerator(seed=7).next_nonce() for _ in range(3)]
        second = [NonceGenerator(seed=7).next_nonce() for _ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        assert NonceGenerator(seed=1).next_nonce() != NonceGenerator(seed=2).next_nonce()

    def test_successive_nonces_differ(self):
        generator = NonceGenerator(seed="page")
        assert generator.next_nonce() != generator.next_nonce()

    def test_unseeded_generator_produces_unique_values(self):
        generator = NonceGenerator()
        values = {generator.next_nonce() for _ in range(20)}
        assert len(values) == 20

    def test_iteration_protocol(self):
        generator = iter(NonceGenerator(seed=3))
        assert next(generator) != next(generator)


class TestNonceValidator:
    def test_matching_nonce_accepted(self):
        validator = NonceValidator()
        assert validator.matches("abc", "abc")
        assert validator.rejected_count == 0

    def test_mismatching_nonce_rejected_and_recorded(self):
        validator = NonceValidator()
        assert not validator.matches("abc", "zzz", context="</div> in reply")
        assert validator.rejected_count == 1
        assert "zzz" in str(validator.mismatches[0])

    def test_missing_closing_nonce_rejected_when_opening_has_one(self):
        validator = NonceValidator()
        assert not validator.matches("abc", None)

    def test_unlabelled_scope_accepts_any_terminator(self):
        validator = NonceValidator()
        assert validator.matches(None, None)
        assert validator.matches(None, "whatever")

    def test_strict_mode_raises(self):
        with pytest.raises(NonceError):
            NonceValidator(strict=True).matches("abc", "nope")

    def test_reset_clears_mismatches(self):
        validator = NonceValidator()
        validator.matches("a", "b")
        validator.reset()
        assert validator.rejected_count == 0

    def test_length_difference_is_a_mismatch(self):
        assert not NonceValidator().matches("abcd", "abc")


class TestScopingRule:
    def test_child_cannot_exceed_parent_privilege(self):
        assert effective_ring(Ring(0), Ring(2)) == Ring(2)
        assert effective_ring(1, 3) == Ring(3)

    def test_child_may_be_less_privileged(self):
        assert effective_ring(Ring(3), Ring(1)) == Ring(3)

    def test_missing_declaration_inherits_scope(self):
        assert effective_ring(None, Ring(2)) == Ring(2)

    def test_is_violation(self):
        assert is_violation(Ring(0), Ring(2))
        assert not is_violation(Ring(2), Ring(2))
        assert not is_violation(None, Ring(1))
