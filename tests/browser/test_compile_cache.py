"""The compile-cache stack: warm loads must be observably identical to cold.

Covers both layers (HTML templates and the script cache) through the loader
and the full browser, plus the correctness edges: clone isolation between
pages, nonce-mismatch replay, per-page mediation, parse-error memoisation,
and the response memo's session/state keying.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from unittest import mock

import pytest

from repro.browser.compile_cache import CompileCaches, TemplateCache
from repro.browser.loader import LoaderOptions, load_page
from repro.browser.renderer import Renderer
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.rings import RingSet
from repro.dom.document import Document
from repro.dom.node import Node
from repro.html.serializer import serialize
from repro.http.messages import HttpRequest, HttpResponse
from repro.http.network import Network
from repro.scripting.cache import ScriptCache
from repro.scripting.errors import ParseError
from repro.scripting.interpreter import Interpreter

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


class TestPerPageMediation:
    def test_pages_loaded_through_one_stack_each_record_their_own_decision(self):
        caches = CompileCaches.build()
        options = LoaderOptions()
        pages = [load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches) for _ in range(2)]
        assert pages[0].monitor is not pages[1].monitor
        verdicts = []
        for page in pages:
            chrome = page.document.get_element_by_id("chrome")
            content = page.document.get_element_by_id("content")
            verdicts.append(
                page.monitor.allows(
                    page.principal_context_for(content), page.principal_context_for(chrome), "read"
                )
            )
        assert verdicts[0] == verdicts[1]
        for page in pages:
            assert page.monitor.stats.total == 1
            assert len(page.monitor.audit) == 1

    def test_pages_under_different_models_decide_by_their_own_policy(self):
        caches = CompileCaches.build()
        verdicts = {}
        for model in ("escudo", "sop"):
            options = LoaderOptions(model=model)
            page = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
            chrome = page.document.get_element_by_id("chrome")
            content = page.document.get_element_by_id("content")
            verdicts[model] = page.monitor.allows(
                page.principal_context_for(content), page.principal_context_for(chrome), "write"
            )
        assert caches.templates.hits == 1  # one template served both models
        assert verdicts == {"escudo": False, "sop": True}

    def test_api_relabel_on_one_page_leaves_the_other_page_alone(self):
        headers = PageConfiguration(
            rings=RingSet(3), api_policies={"XMLHttpRequest": ResourcePolicy.uniform(3)}
        ).to_headers()
        caches = CompileCaches.build()
        pages = [
            load_page(
                ESCUDO_BODY,
                PAGE_URL,
                configuration=PageConfiguration.from_headers(headers),
                options=LoaderOptions(),
                caches=caches,
            )
            for _ in range(2)
        ]

        def may_use_xhr(page):
            content = page.document.get_element_by_id("content")
            return page.monitor.allows(
                page.principal_context_for(content), page.api_context("XMLHttpRequest"), "use"
            )

        assert [may_use_xhr(page) for page in pages] == [True, True]
        pages[0].set_api_policy("XMLHttpRequest", ResourcePolicy.uniform(1))
        assert [may_use_xhr(page) for page in pages] == [False, True]


class TestPerfbenchContract:
    def test_perfbench_reads_a_ratio_for_every_cache_tier(self):
        """``perfbench/run.py --trace 1`` indexes these blocks of ``as_dict()``."""
        from perfbench import layers

        caches = CompileCaches.build()
        ratios = layers.cache_ratios(caches.as_dict(), caches.as_dict())
        assert set(ratios) == set(layers.CACHE_TIERS)
        assert all(ratio == 0.0 for ratio in ratios.values())


class TestScriptCacheParse:
    def test_repeat_parses_hit_and_programs_are_shared(self):
        cache = ScriptCache()
        first = cache.parse("var x = 1; x + 1;")
        second = cache.parse("var x = 1; x + 1;")
        assert first is second
        assert cache.hits["scripts"] == 1 and cache.misses["scripts"] == 1
        result = Interpreter().run(first)
        again = Interpreter().run(first)
        assert result.value == again.value == 2.0

    def test_parse_errors_are_memoised_and_replayed(self):
        cache = ScriptCache()
        with pytest.raises(ParseError):
            cache.parse("var = ;")
        with pytest.raises(ParseError):
            cache.parse("var = ;")
        assert cache.hits["scripts"] == 1 and cache.misses["scripts"] == 1

    def test_lru_bound_evicts_oldest(self):
        cache = ScriptCache(maxsize=2)
        cache.parse("1;")
        cache.parse("2;")
        cache.parse("1;")  # refresh
        cache.parse("3;")  # evicts "2;"
        cache.parse("2;")
        assert cache.misses["scripts"] == 4  # "2;" was re-parsed after eviction
        assert len(cache) == 2

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            ScriptCache(0)


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

    def test_parse_hits_raise_fresh_copies(self):
        cache = ScriptCache()
        first = self._trap(lambda: cache.parse(self.BROKEN))
        second = self._trap(lambda: cache.parse(self.BROKEN))
        third = self._trap(lambda: cache.parse(self.BROKEN))
        assert cache.hits["scripts"] == 2
        assert second is not first and third is not second
        assert second.message == first.message
        assert second.line == first.line and second.column == first.column

    def test_cached_entry_traceback_does_not_accumulate(self):
        cache = ScriptCache()
        with pytest.raises(ParseError):
            cache.parse(self.BROKEN)
        entry = next(iter(cache._entries.values()))  # noqa: SLF001
        memoised = entry.program
        frames_before = _traceback_depth(memoised)
        for _ in range(5):
            with pytest.raises(ParseError):
                cache.parse(self.BROKEN)
        assert _traceback_depth(memoised) == frames_before


def _traceback_depth(error: BaseException) -> int:
    depth = 0
    traceback = error.__traceback__
    while traceback is not None:
        depth += 1
        traceback = traceback.tb_next
    return depth


class TestOneEntryPerSource:
    SOURCE = "var c = document.cookie; c;"

    def test_program_and_report_share_one_entry(self):
        cache = ScriptCache()
        program = cache.parse(self.SOURCE)
        report = cache.report_for(self.SOURCE)
        assert len(cache) == 1
        assert cache.parse(self.SOURCE) is program
        assert cache.report_for(self.SOURCE) is report
        assert report.digest == hashlib.sha256(self.SOURCE.encode("utf-8")).hexdigest()
        # The report was built from the one parsed program.
        assert cache.misses["scripts"] == 1

    def test_reset_counters_keeps_entries(self):
        cache = ScriptCache()
        cache.parse(self.SOURCE)
        cache.reset_counters()
        assert cache.hits == cache.misses == {"scripts": 0, "reports": 0}
        cache.parse(self.SOURCE)
        assert cache.hits["scripts"] == 1 and cache.misses["scripts"] == 0

    def test_stack_reports_every_result_under_its_own_key(self):
        caches = CompileCaches.build()
        caches.scripts.parse(self.SOURCE)
        caches.scripts.report_for(self.SOURCE)
        payload = caches.as_dict()
        assert set(payload) == {"templates", "scripts", "code", "reports", "decisions"}
        # The report was analysed from the program the parse cached.
        assert (payload["scripts"]["hits"], payload["scripts"]["misses"]) == (1, 1)
        assert (payload["reports"]["hits"], payload["reports"]["misses"]) == (0, 1)
        # perfbench still reads a ``code`` block; nothing counts into it.
        assert payload["code"] == {"hits": 0, "misses": 0}

    def test_screened_warm_execution_digests_its_source_once(self):
        from repro.analysis.soundness import StaticScreen
        from repro.browser.browser import Browser

        caches = CompileCaches.build()
        network = Network()
        network.register(ORIGIN, _CountingApp())
        browser = Browser(
            network,
            model="escudo",
            caches=caches,
            static_screen=StaticScreen(caches.scripts),
        )
        loaded = browser.load(f"{ORIGIN}/")
        browser.run_script(loaded, self.SOURCE)  # fills program and report
        # An equal but distinct string, so the digest cannot be reused by
        # object identity from the cold run.
        warm_source = self.SOURCE[:1] + self.SOURCE[1:]
        assert warm_source is not self.SOURCE

        payload = self.SOURCE.encode("utf-8")
        real_sha256 = hashlib.sha256
        digests = []

        def counting_sha256(data=b"", *args, **kwargs):
            if data == payload:
                digests.append(data)
            return real_sha256(data, *args, **kwargs)

        caches.scripts.reset_counters()
        with mock.patch("hashlib.sha256", counting_sha256):
            run = browser.run_script(loaded, warm_source)
        assert run.succeeded
        assert len(digests) == 1
        assert caches.scripts.hits == {"scripts": 1, "reports": 1}
        assert caches.scripts.misses == {"scripts": 0, "reports": 0}


class TestTemplateRenderStats:
    def test_render_stats_are_computed_once_per_template(self):
        cache = TemplateCache()
        template = cache.entry(ESCUDO_BODY, PAGE_URL)
        with mock.patch(
            "repro.browser.compile_cache.Renderer.render",
            autospec=True,
            side_effect=Renderer.render,
        ) as render:
            first = cache.render_stats(template)
            second = cache.render_stats(template)
        assert render.call_count == 1
        assert first == second == template.rendering
        # Every caller gets its own copy of the template's one slot.
        assert first is not second and first is not template.rendering
        assert first == load_page(ESCUDO_BODY, PAGE_URL).rendering


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

    def test_eviction_releases_the_pristine_trees(self):
        options = LoaderOptions(model="escudo")
        caches = CompileCaches(templates=TemplateCache(maxsize=2), scripts=ScriptCache())
        served = load_page(ESCUDO_BODY, PAGE_URL, options=options, caches=caches)
        template = caches.templates.entry(ESCUDO_BODY, PAGE_URL)
        ((labeled, _stats),) = template.variants.values()
        pristine_ref, labeled_ref = weakref.ref(template.document), weakref.ref(labeled)
        del template, labeled
        collecting = gc.isenabled()
        gc.disable()
        try:
            for i in range(2):
                caches.templates.entry(f"<html><body><p>{i}</p></body></html>", PAGE_URL)
            assert pristine_ref() is None
            assert labeled_ref() is None
        finally:
            if collecting:
                gc.enable()

        # A page served before the eviction is an independent tree.
        cold = load_page(ESCUDO_BODY, PAGE_URL, options=options)
        document = served.document
        assert serialize(document) == serialize(cold.document)
        content = document.get_element_by_id("content")
        assert content is not None and content.text_content == "content"
        assert [p.id for p in document.get_elements_by_tag_name("p")] == ["chrome", "content"]
        content.append_child(document.create_text_node(" more"))
        assert document.get_element_by_id("content").text_content == "content more"
        assert "content more" in serialize(document)


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



#: A page whose load exercises every manifest consumer: the title, a script
#: (which queries by id), an ``img`` subresource and a form submitted by id.
PRINCIPALS_BODY = (
    "<html><head><title>principals</title></head><body>"
    "<script>var form = document.getElementById('f');</script>"
    '<img src="/pixel.png">'
    '<form id="f" method="POST" action="/submit"><input name="q" value="1"></form>'
    "</body></html>"
)


class _PrincipalsApp:
    def handle_request(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(status=200, body=PRINCIPALS_BODY)


class TestWarmLoadsDoNotWalkTheDocument:
    def test_warm_load_and_form_submit_make_no_whole_document_walk(self):
        from repro.browser.browser import Browser

        network = Network()
        network.register(ORIGIN, _PrincipalsApp())
        browser = Browser(network, model="escudo", caches=CompileCaches.build())
        browser.load(f"{ORIGIN}/")  # fills the template cache

        # Every whole-document sweep -- elements(), a manifest rebuild --
        # goes through Document.descendants.
        with mock.patch.object(
            Node, "descendants", autospec=True, side_effect=Node.descendants
        ) as walks:
            loaded = browser.load(f"{ORIGIN}/")
            response = browser.submit_form(loaded, "f")

        whole_document_walks = [
            call for call in walks.call_args_list if isinstance(call.args[0], Document)
        ]
        assert whole_document_walks == []
        # The load really did the work the manifest served.
        assert loaded.subresource_requests == [f"{ORIGIN}/pixel.png"]
        assert [run.succeeded for run in loaded.page.script_runs] == [True]
        assert browser.history.entries[-1].title == "principals"
        assert response.status == 200


class TestPageTitle:
    def test_title_stranded_outside_head_is_found(self):
        from repro.browser.browser import Browser

        class _StrandedTitleApp:
            def handle_request(self, request: HttpRequest) -> HttpResponse:
                return HttpResponse(
                    status=200,
                    body="<html><head></head><body><title>stranded</title></body></html>",
                )

        network = Network()
        network.register(ORIGIN, _StrandedTitleApp())
        browser = Browser(network, model="escudo", caches=CompileCaches.build())
        browser.load(f"{ORIGIN}/")
        assert browser.history.entries[-1].title == "stranded"
