"""The compile-cache stack: warm loads must be observably identical to cold.

Covers the three layers (HTML templates, script ASTs, the shared decision
cache) through the loader and the full browser, plus the correctness edges:
clone isolation between pages, nonce-mismatch replay, generation
invalidation on relabels, parse-error memoisation, and the response memo's
session/state keying.
"""

from __future__ import annotations

import pytest

from repro.browser.compile_cache import CompileCaches, TemplateCache
from repro.browser.loader import LoaderOptions, load_page
from repro.core.config import PageConfiguration
from repro.html.serializer import serialize
from repro.http.messages import HttpRequest, HttpResponse
from repro.http.network import Network
from repro.scripting.cache import ScriptAstCache, ScriptCodeCache
from repro.scripting.compiler import CodeObject
from repro.scripting.errors import ParseError
from repro.scripting.interpreter import Interpreter
from repro.scripting.vm import VirtualMachine

ORIGIN = "http://cache.example.com"
PAGE_URL = f"{ORIGIN}/page"

ESCUDO_BODY = (
    "<!DOCTYPE html><html><head><title>t</title></head><body>"
    '<div ring="1" r="1" w="1" x="1" nonce="abcd1234abcd1234">'
    '<p id="chrome">chrome</p></div nonce="abcd1234abcd1234">'
    '<div ring="3" r="3" w="3" x="3"><p id="content">content</p></div>'
    "</body></html>"
)

#: A node-splitting attempt: the injected terminator carries no nonce, so it
#: must be ignored (and recorded) exactly like in the cold pipeline.
SPLIT_BODY = (
    "<html><body>"
    '<div ring="2" r="2" w="2" x="2" nonce="feedfacefeedface">'
    "before</div>after"
    '</div nonce="feedfacefeedface">'
    "</body></html>"
)


def _pages(body: str, *, model: str = "escudo", loads: int = 3):
    """The same body through a cold load and ``loads`` warm loads."""
    options = LoaderOptions(model=model)
    cold = load_page(body, PAGE_URL, options=options)
    caches = CompileCaches.build()
    warm = [load_page(body, PAGE_URL, options=options, caches=caches) for _ in range(loads)]
    return cold, warm, caches


class TestWarmLoadsMatchCold:
    def test_dom_labels_and_stats_identical(self):
        cold, warm_pages, caches = _pages(ESCUDO_BODY)
        for warm in warm_pages:
            assert serialize(warm.document) == serialize(cold.document)
            assert warm.ring_histogram() == cold.ring_histogram()
            assert warm.labeling.__dict__ == cold.labeling.__dict__
            assert warm.rendering == cold.rendering
            assert warm.escudo_enabled == cold.escudo_enabled
            assert warm.configuration.fingerprint() == cold.configuration.fingerprint()
        # One parse served every load.
        assert caches.templates.misses == 1
        assert caches.templates.hits == len(warm_pages) - 1

    def test_labelled_contexts_match_cold(self):
        cold, warm_pages, _ = _pages(ESCUDO_BODY)
        warm = warm_pages[-1]
        for cold_el, warm_el in zip(cold.document.elements(), warm.document.elements()):
            assert cold_el.tag_name == warm_el.tag_name
            cold_ctx, warm_ctx = cold_el.security_context, warm_el.security_context
            assert (cold_ctx is None) == (warm_ctx is None)
            if cold_ctx is not None:
                assert cold_ctx == warm_ctx

    def test_nonce_mismatches_replay_per_page(self):
        cold, warm_pages, _ = _pages(SPLIT_BODY)
        assert cold.ignored_end_tags == 1
        assert cold.nonce_validator.rejected_count == 1
        for warm in warm_pages:
            assert warm.ignored_end_tags == 1
            assert warm.nonce_validator.rejected_count == 1
            assert (
                warm.nonce_validator.mismatches[0].expected
                == cold.nonce_validator.mismatches[0].expected
            )
        # Each page owns its validator: resetting one must not drain others.
        warm_pages[0].nonce_validator.reset()
        assert warm_pages[1].nonce_validator.rejected_count == 1

    def test_legacy_model_gets_an_empty_validator(self):
        cold, warm_pages, _ = _pages(SPLIT_BODY, model="sop")
        assert cold.nonce_validator.rejected_count == 0
        for warm in warm_pages:
            # Tree shape (the ignored terminator) is identical either way;
            # only the ESCUDO pipeline records the mismatch.
            assert warm.ignored_end_tags == 1
            assert warm.nonce_validator.rejected_count == 0
            assert serialize(warm.document) == serialize(cold.document)

    def test_one_template_serves_both_protection_models(self):
        caches = CompileCaches.build()
        escudo = load_page(
            ESCUDO_BODY, PAGE_URL, options=LoaderOptions(model="escudo"), caches=caches
        )
        sop = load_page(ESCUDO_BODY, PAGE_URL, options=LoaderOptions(model="sop"), caches=caches)
        assert caches.templates.misses == 1 and caches.templates.hits == 1
        assert escudo.escudo_enabled and not sop.escudo_enabled
        assert serialize(escudo.document) == serialize(sop.document)


class TestCloneIsolationAcrossLoads:
    def test_mutating_one_page_never_leaks_into_the_next(self):
        caches = CompileCaches.build()
        options = LoaderOptions()
        first = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        target = first.document.get_element_by_id("content")
        target.set_attribute("id", "poisoned")
        target.append_child(first.document.create_text_node("INJECTED"))
        second = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        assert second.document.get_element_by_id("content") is not None
        assert second.document.get_element_by_id("poisoned") is None
        assert "INJECTED" not in serialize(second.document)

    def test_pages_share_no_dom_nodes(self):
        caches = CompileCaches.build()
        options = LoaderOptions()
        first = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        second = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        first_nodes = {id(node) for node in first.document.descendants()}
        assert all(id(node) not in first_nodes for node in second.document.descendants())


class TestSharedDecisionCache:
    def test_monitors_share_verdicts_across_pages(self):
        caches = CompileCaches.build()
        options = LoaderOptions()
        first = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        chrome = first.document.get_element_by_id("chrome")
        content = first.document.get_element_by_id("content")
        first.monitor.allows(
            first.principal_context_for(content), first.principal_context_for(chrome), "read"
        )
        lookups_before = caches.decisions.info().lookups
        hits_before = caches.decisions.info().hits

        second = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        chrome2 = second.document.get_element_by_id("chrome")
        content2 = second.document.get_element_by_id("content")
        allowed = second.monitor.allows(
            second.principal_context_for(content2), second.principal_context_for(chrome2), "read"
        )
        info = caches.decisions.info()
        assert info.lookups == lookups_before + 1
        assert info.hits == hits_before + 1, "the second page must reuse the first's verdict"
        # Both monitors still record their own stats (complete mediation).
        assert first.monitor.stats.total == 1 and second.monitor.stats.total == 1
        assert isinstance(allowed, bool)

    def test_policy_swap_invalidates_the_shared_cache(self):
        caches = CompileCaches.build()
        options = LoaderOptions()
        page = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        chrome = page.document.get_element_by_id("chrome")
        content = page.document.get_element_by_id("content")
        page.monitor.allows(
            page.principal_context_for(content), page.principal_context_for(chrome), "read"
        )
        generation = caches.decisions.generation
        page.monitor.policy = LoaderOptions(model="sop").build_policy()
        assert caches.decisions.generation == generation + 1
        assert len(caches.decisions) == 0

    def test_api_relabel_invalidates_the_shared_cache(self):
        caches = CompileCaches.build()
        page = load_page(ESCUDO_BODY, PAGE_URL, options=LoaderOptions(), caches=caches)
        from repro.core.config import ResourcePolicy

        generation = caches.decisions.generation
        page.set_api_policy("XMLHttpRequest", ResourcePolicy.uniform(2))
        assert caches.decisions.generation == generation + 1


class TestScriptAstCache:
    def test_repeat_parses_hit_and_programs_are_shared(self):
        cache = ScriptAstCache()
        first = cache.parse("var x = 1; x + 1;")
        second = cache.parse("var x = 1; x + 1;")
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        result = Interpreter().run(first)
        again = Interpreter().run(first)
        assert result.value == again.value == 2.0

    def test_parse_errors_are_memoised_and_replayed(self):
        cache = ScriptAstCache()
        with pytest.raises(ParseError):
            cache.parse("var = ;")
        with pytest.raises(ParseError):
            cache.parse("var = ;")
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_bound_evicts_oldest(self):
        cache = ScriptAstCache(maxsize=2)
        cache.parse("1;")
        cache.parse("2;")
        cache.parse("1;")  # refresh
        cache.parse("3;")  # evicts "2;"
        cache.parse("2;")
        assert cache.misses == 4  # "2;" was re-parsed after eviction


class TestCachedErrorsAreFresh:
    """Regression: cache hits must re-raise *copies* of memoised errors.

    Re-raising the same exception object attaches a new ``__traceback__`` to
    the shared cache entry on every hit, chaining frames from unrelated
    executions onto it (and pinning their locals in memory).
    """

    BROKEN = "var = ;"

    def _trap(self, raiser):
        with pytest.raises(ParseError) as info:
            raiser()
        return info.value

    def test_ast_cache_hits_raise_fresh_copies(self):
        cache = ScriptAstCache()
        first = self._trap(lambda: cache.parse(self.BROKEN))
        second = self._trap(lambda: cache.parse(self.BROKEN))
        third = self._trap(lambda: cache.parse(self.BROKEN))
        assert cache.hits == 2
        assert second is not first and third is not second
        assert second.message == first.message
        assert second.line == first.line and second.column == first.column

    def test_code_cache_hits_raise_fresh_copies(self):
        cache = ScriptCodeCache()
        first = self._trap(lambda: cache.code_for(self.BROKEN))
        second = self._trap(lambda: cache.code_for(self.BROKEN))
        assert cache.hits == 1
        assert second is not first
        assert (second.message, second.line, second.column) == (
            first.message,
            first.line,
            first.column,
        )

    def test_cached_entry_traceback_does_not_accumulate(self):
        cache = ScriptAstCache()
        with pytest.raises(ParseError):
            cache.parse(self.BROKEN)
        entry = next(iter(cache._entries.values()))  # noqa: SLF001
        frames_before = _traceback_depth(entry)
        for _ in range(5):
            with pytest.raises(ParseError):
                cache.parse(self.BROKEN)
        assert _traceback_depth(entry) == frames_before


def _traceback_depth(error: BaseException) -> int:
    depth = 0
    traceback = error.__traceback__
    while traceback is not None:
        depth += 1
        traceback = traceback.tb_next
    return depth


class TestScriptCodeCache:
    def test_repeat_compiles_hit_and_code_is_shared(self):
        cache = ScriptCodeCache()
        first = cache.code_for("var x = 1; x + 1;")
        second = cache.code_for("var x = 1; x + 1;")
        assert isinstance(first, CodeObject)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert VirtualMachine().run(first).value == 2.0
        assert VirtualMachine().run(first).value == 2.0

    def test_stacks_on_the_ast_cache(self):
        ast_cache = ScriptAstCache()
        code_cache = ScriptCodeCache()
        code_cache.code_for("1 + 1;", parse=ast_cache.parse)
        # A code-cache hit must not even consult the front end again.
        code_cache.code_for("1 + 1;", parse=ast_cache.parse)
        assert ast_cache.misses == 1 and ast_cache.hits == 0
        assert code_cache.hits == 1

    def test_lru_bound_evicts_oldest(self):
        cache = ScriptCodeCache(maxsize=2)
        cache.code_for("1;")
        cache.code_for("2;")
        cache.code_for("1;")  # refresh
        cache.code_for("3;")  # evicts "2;"
        cache.code_for("2;")
        assert cache.misses == 4

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            ScriptCodeCache(0)


class TestTemplateCacheBounds:
    def test_lru_eviction_is_bounded(self):
        cache = TemplateCache(maxsize=2)
        for i in range(5):
            cache.entry(f"<html><body><p>{i}</p></body></html>", PAGE_URL)
        assert len(cache) == 2
        assert cache.misses == 5

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            TemplateCache(0)
        with pytest.raises(ValueError):
            ScriptAstCache(0)


class _CountingApp:
    """Minimal server: counts handler executions per path."""

    def __init__(self) -> None:
        self.calls = 0

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        self.calls += 1
        return HttpResponse(status=200, body=f"<html><body><p id='n'>page</p></body></html>")


class TestBrowserIntegration:
    def test_browser_with_stack_loads_pages_identically(self):
        from repro.browser.browser import Browser

        network = Network()
        network.register(ORIGIN, _CountingApp())
        cold_browser = Browser(Network(), model="escudo")
        cold_browser.network.register(ORIGIN, _CountingApp())
        warm_browser = Browser(network, model="escudo", caches=CompileCaches.build())

        cold = cold_browser.load(f"{ORIGIN}/")
        first = warm_browser.load(f"{ORIGIN}/")
        second = warm_browser.load(f"{ORIGIN}/")
        assert serialize(first.page.document) == serialize(cold.page.document)
        assert serialize(second.page.document) == serialize(cold.page.document)
        assert warm_browser.caches.templates.hits >= 1

