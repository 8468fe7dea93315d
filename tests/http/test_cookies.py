"""Tests for cookies, Set-Cookie parsing and the cookie jar."""

from __future__ import annotations

from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.http.cookies import Cookie, CookieJar, format_cookie_header, parse_set_cookie

FORUM = Origin.parse("http://forum.example.com")
OTHER = Origin.parse("http://other.example.net")
SECURE = Origin.parse("https://bank.example.com")


class TestCookieValue:
    def test_defaults_to_ring_zero_fail_safe(self):
        cookie = Cookie(name="sid", value="abc", origin=FORUM)
        assert cookie.ring == Ring(0)
        assert cookie.acl == Acl.uniform(0)

    def test_security_context_carries_origin_ring_and_acl(self):
        cookie = Cookie(name="sid", value="abc", origin=FORUM, ring=Ring(1), acl=Acl.uniform(1))
        context = cookie.security_context
        assert context.origin == FORUM
        assert context.ring == Ring(1)
        assert context.acl == Acl.uniform(1)
        assert "sid" in context.label

    def test_security_context_is_built_once_per_cookie(self):
        cookie = Cookie(name="sid", value="abc", origin=FORUM, ring=Ring(1), acl=Acl.uniform(1))
        assert cookie.security_context is cookie.security_context
        relabelled = cookie.with_policy(ResourcePolicy.uniform(2))
        assert relabelled.security_context.ring == Ring(2)
        assert cookie.security_context.ring == Ring(1)
        assert cookie.with_value("def").security_context is not cookie.security_context
        assert cookie.with_value("def").security_context == cookie.security_context

    def test_with_policy_relabels_without_changing_value(self):
        cookie = Cookie(name="sid", value="abc", origin=FORUM)
        relabelled = cookie.with_policy(ResourcePolicy.uniform(2))
        assert relabelled.value == "abc"
        assert relabelled.ring == Ring(2)
        assert cookie.ring == Ring(0), "original cookie is immutable"

    def test_with_value_keeps_labels(self):
        cookie = Cookie(name="sid", value="abc", origin=FORUM, ring=Ring(1))
        updated = cookie.with_value("def")
        assert updated.value == "def"
        assert updated.ring == Ring(1)

    def test_header_pair(self):
        assert Cookie(name="sid", value="abc", origin=FORUM).header_pair() == "sid=abc"

    def test_path_matching(self):
        cookie = Cookie(name="sid", value="x", origin=FORUM, path="/forum")
        assert cookie.matches_path("/forum")
        assert cookie.matches_path("/forum/viewtopic")
        assert not cookie.matches_path("/forums")
        assert not cookie.matches_path("/admin")

    def test_root_path_matches_everything(self):
        cookie = Cookie(name="sid", value="x", origin=FORUM)
        assert cookie.matches_path("/anything/at/all")


class TestSetCookieParsing:
    def test_parse_name_value(self):
        cookie = parse_set_cookie("phpbb2mysql_sid=deadbeef", FORUM)
        assert cookie.name == "phpbb2mysql_sid"
        assert cookie.value == "deadbeef"
        assert cookie.origin == FORUM

    def test_parse_attributes(self):
        cookie = parse_set_cookie("sid=1; Path=/app; Secure; HttpOnly", FORUM)
        assert cookie.path == "/app"
        assert cookie.secure is True
        assert cookie.http_only is True

    def test_parse_is_lenient_about_whitespace_and_case(self):
        cookie = parse_set_cookie("  sid = 1 ;  path=/x ; SECURE ", FORUM)
        assert cookie.name == "sid"
        assert cookie.value == "1"
        assert cookie.path == "/x"
        assert cookie.secure is True

    def test_parsed_cookie_defaults_to_ring_zero(self):
        cookie = parse_set_cookie("sid=1", FORUM)
        assert cookie.ring == Ring(0)

    def test_path_without_leading_slash_falls_back_to_default(self):
        # RFC 6265 §5.2.4: a path value not starting with "/" is ignored.
        cookie = parse_set_cookie("sid=1; Path=app", FORUM)
        assert cookie.path == "/"
        assert cookie.matches_path("/anything")

    def test_empty_path_falls_back_to_default(self):
        assert parse_set_cookie("sid=1; Path=", FORUM).path == "/"
        assert parse_set_cookie("sid=1; Path=   ", FORUM).path == "/"

    def test_bare_path_attribute_falls_back_to_default(self):
        assert parse_set_cookie("sid=1; Path", FORUM).path == "/"

    def test_relative_path_does_not_shadow_a_scope(self):
        # A `Path=admin` cookie must behave like a default-path cookie, not
        # silently vanish from every request (nor match only "/admin").
        cookie = parse_set_cookie("evil=x; Path=admin", FORUM)
        assert cookie.matches_path("/")
        assert cookie.matches_path("/admin")

    def test_valid_path_with_trailing_slash_is_kept(self):
        cookie = parse_set_cookie("sid=1; Path=/app/", FORUM)
        assert cookie.path == "/app/"
        assert cookie.matches_path("/app/page")
        assert not cookie.matches_path("/application")

    def test_format_cookie_header(self):
        cookies = [Cookie(name="a", value="1", origin=FORUM), Cookie(name="b", value="2", origin=FORUM)]
        assert format_cookie_header(cookies) == "a=1; b=2"


class TestCookieJar:
    def test_set_and_get(self):
        jar = CookieJar()
        jar.set(Cookie(name="sid", value="abc", origin=FORUM))
        assert jar.get(FORUM, "sid").value == "abc"
        assert jar.get(OTHER, "sid") is None

    def test_set_overwrites_same_origin_and_name(self):
        jar = CookieJar()
        jar.set(Cookie(name="sid", value="old", origin=FORUM))
        jar.set(Cookie(name="sid", value="new", origin=FORUM))
        assert len(jar) == 1
        assert jar.get(FORUM, "sid").value == "new"

    def test_cookies_are_partitioned_by_origin(self):
        jar = CookieJar()
        jar.set(Cookie(name="sid", value="forum", origin=FORUM))
        jar.set(Cookie(name="sid", value="other", origin=OTHER))
        assert [c.value for c in jar.cookies_for(FORUM)] == ["forum"]
        assert [c.value for c in jar.cookies_for(OTHER)] == ["other"]

    def test_cookies_for_respects_path(self):
        jar = CookieJar()
        jar.set(Cookie(name="admin", value="1", origin=FORUM, path="/admin"))
        jar.set(Cookie(name="sid", value="2", origin=FORUM))
        assert [c.name for c in jar.cookies_for(FORUM, "/viewtopic")] == ["sid"]
        assert [c.name for c in jar.cookies_for(FORUM, "/admin/panel")] == ["admin", "sid"]

    def test_secure_cookie_not_sent_over_plain_http(self):
        jar = CookieJar()
        jar.set(Cookie(name="token", value="s3cret", origin=SECURE, secure=True))
        assert jar.cookies_for(SECURE) != []
        assert jar.cookies_for(SECURE, secure_channel=False) == []

    def test_delete_and_clear(self):
        jar = CookieJar()
        jar.set(Cookie(name="a", value="1", origin=FORUM))
        jar.set(Cookie(name="b", value="2", origin=FORUM))
        jar.delete(FORUM, "a")
        assert jar.get(FORUM, "a") is None
        jar.clear()
        assert len(jar) == 0

    def test_contains_and_iter(self):
        jar = CookieJar()
        cookie = Cookie(name="a", value="1", origin=FORUM)
        jar.set(cookie)
        assert (FORUM, "a") in jar
        assert list(jar) == [cookie]


class TestStoreFromResponse:
    def test_store_without_configuration_keeps_ring_zero_default(self):
        jar = CookieJar()
        stored = jar.store_from_response(FORUM, ["sid=abc; Path=/"])
        assert stored[0].ring == Ring(0)

    def test_store_with_escudo_policy_labels_cookie(self):
        configuration = PageConfiguration()
        configuration.cookie_policies["sid"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
        jar = CookieJar()
        stored = jar.store_from_response(FORUM, ["sid=abc", "theme=dark"], configuration)
        by_name = {c.name: c for c in stored}
        assert by_name["sid"].ring == Ring(1)
        # Unconfigured cookies keep the paper's ring-0 fail-safe default.
        assert by_name["theme"].ring == Ring(0)

    def test_store_ignores_policy_when_escudo_disabled(self):
        configuration = PageConfiguration.legacy()
        configuration.cookie_policies["sid"] = ResourcePolicy.uniform(2)
        jar = CookieJar()
        stored = jar.store_from_response(FORUM, ["sid=abc"], configuration)
        assert stored[0].ring == Ring(0)

    def test_store_multiple_responses_accumulate(self):
        jar = CookieJar()
        jar.store_from_response(FORUM, ["a=1"])
        jar.store_from_response(FORUM, ["b=2"])
        assert {c.name for c in jar.cookies_for(FORUM)} == {"a", "b"}

    def test_a_stored_cookie_equals_the_parsed_cookie_relabelled(self):
        escudo = PageConfiguration()
        escudo.cookie_policies["sid"] = ResourcePolicy(ring=Ring(1), acl=Acl(read=Ring(1), write=Ring(2), use=Ring(1)))
        legacy = PageConfiguration.legacy()
        legacy.cookie_policies["sid"] = ResourcePolicy.uniform(2)
        raw = ["sid=abc; Path=/forum; Secure; HttpOnly", " theme = dark ; path=nope"]
        for configuration in (escudo, legacy, None):
            stored = CookieJar().store_from_response(SECURE, raw, configuration)
            expected = [parse_set_cookie(value, SECURE) for value in raw]
            if configuration is not None and configuration.escudo_enabled:
                expected = [c.with_policy(configuration.cookie_policy(c.name)) for c in expected]
            assert stored == expected
            assert [(c.ring, c.acl) for c in stored] == [(c.ring, c.acl) for c in expected]
        assert stored[0].ring == Ring(0)


def _scan(jar: CookieJar, origin: Origin, path: str) -> list[Cookie]:
    """The jar's former full scan: every cookie of ``origin``, in name order."""
    https = origin.scheme == "https"
    eligible = [c for c in jar if c.origin == origin and (https or not c.secure) and c.matches_path(path)]
    return sorted(eligible, key=lambda c: c.name)


class TestJarBuckets:
    ORIGINS = [Origin.parse(f"{scheme}://site{n}.example.com") for n in range(25) for scheme in ("http", "https")]

    def full_jar(self) -> CookieJar:
        jar = CookieJar()
        for n, origin in enumerate(self.ORIGINS):
            for name in ("z", "sid", "a", f"c{n}"):
                path = "/admin" if name == "a" else "/"
                jar.set(Cookie(name=name, value=str(n), origin=origin, path=path, secure=name == "z"))
        return jar

    def test_fifty_origins_answer_as_the_full_scan_did(self):
        jar = self.full_jar()
        assert len(jar) == 200 and len(jar.all_cookies()) == 200
        for origin in self.ORIGINS:
            for path in ("/", "/admin/panel"):
                assert jar.cookies_for(Origin.parse(str(origin)), path) == _scan(jar, origin, path)
        assert jar.cookies_for(Origin.parse("http://unknown.example.com")) == []

    def test_a_request_compares_no_other_origin(self, monkeypatch):
        jar = self.full_jar()
        compared = []
        equal = Origin.__eq__

        def counting(self, other):
            compared.append((self, other))
            return equal(self, other)

        monkeypatch.setattr(Origin, "__eq__", counting)
        target = Origin.parse("https://site7.example.com")
        cookies = jar.cookies_for(target, "/admin/x")
        assert [c.name for c in cookies] == ["a", "c15", "sid", "z"]
        monkeypatch.undo()
        # At most the bucket lookup's one comparison of two equal origins.
        assert len(compared) <= 1
        assert all(a == b for a, b in compared)

    def test_membership_iteration_and_deletion(self):
        jar = self.full_jar()
        first = self.ORIGINS[0]
        assert (first, "sid") in jar and (first, "nope") not in jar
        assert (Origin.parse("http://unknown.example.com"), "sid") not in jar
        for name in ("z", "sid", "a", "c0"):
            jar.delete(first, name)
        jar.delete(first, "sid")
        assert len(jar) == 196 and jar.cookies_for(first) == [] and jar.get(first, "sid") is None
        assert [c.origin for c in jar][:4] == [self.ORIGINS[1]] * 4
        jar.clear()
        assert len(jar) == 0 and list(jar) == []
