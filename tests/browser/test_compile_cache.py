"""The compile-cache stack: warm loads must be observably identical to cold.

Covers both layers (HTML templates and the script cache) through the loader
and the full browser, plus the correctness edges: clone isolation between
pages, nonce-mismatch replay, per-page mediation, parse-error memoisation,
and the response memo's session/state keying.
"""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import pytest

from repro.browser.compile_cache import CompileCaches, TemplateCache
from repro.browser.loader import LoaderOptions, load_page
from repro.browser.renderer import Renderer
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.decision import Operation
from repro.core.rings import RingSet
from repro.dom.document import Document
from repro.dom.node import Node
from repro.html.parser import TreeBuilder
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
                page.monitor.authorize(
                    page.principal_context_for(content), page.principal_context_for(chrome), Operation.READ
                ).allowed
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
            verdicts[model] = page.monitor.authorize(
                page.principal_context_for(content), page.principal_context_for(chrome), Operation.WRITE
            ).allowed
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
            return page.monitor.authorize(
                page.principal_context_for(content), page.api_context("XMLHttpRequest"), Operation.USE
            ).allowed

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
        memoised = next(iter(cache._entries.values()))  # noqa: SLF001
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

    def test_reset_counters_keeps_entries(self):
        cache = ScriptCache()
        cache.parse(self.SOURCE)
        cache.reset_counters()
        assert cache.hits == cache.misses == {"scripts": 0}
        cache.parse(self.SOURCE)
        assert cache.hits["scripts"] == 1 and cache.misses["scripts"] == 0

    def test_stack_reports_every_result_under_its_own_key(self):
        caches = CompileCaches.build()
        caches.scripts.parse(self.SOURCE)
        caches.scripts.parse(self.SOURCE)
        payload = caches.as_dict()
        assert set(payload) == {"templates", "scripts", "code", "decisions"}
        assert (payload["scripts"]["hits"], payload["scripts"]["misses"]) == (1, 1)
        # perfbench still reads a ``code`` block; nothing counts into it.
        assert payload["code"] == {"hits": 0, "misses": 0}


class TestTemplateRenderStats:
    def test_render_stats_are_computed_once_per_template(self):
        caches = CompileCaches.build()
        cache = caches.templates
        with mock.patch(
            "repro.browser.compile_cache.Renderer.render",
            autospec=True,
            side_effect=Renderer.render,
        ) as render:
            template = cache.entry(ESCUDO_BODY, PAGE_URL)
            for model in ("escudo", "sop"):
                load_page(ESCUDO_BODY, PAGE_URL, options=LoaderOptions(model=model), caches=caches)
            first = cache.render_stats(template)
            second = cache.render_stats(template)
        # One render, at parse time: neither variant nor any page re-renders.
        assert render.call_count == 1
        assert first == second == template.rendering
        # Every caller gets its own copy of the template's one slot.
        assert first is not second and first is not template.rendering
        assert first == load_page(ESCUDO_BODY, PAGE_URL).rendering


class TestOneTreePerVariant:
    def test_every_warm_template_holds_one_labelled_tree_per_variant(self):
        from repro.attacks.harness import APP_KEYS
        from repro.scenarios.runner import ScenarioRunner

        runner = ScenarioRunner()
        runner.warm_for(APP_KEYS)
        templates = list(runner.caches.templates._entries.values())  # noqa: SLF001
        assert templates
        for template in templates:
            # The parse was labelled in place: no unlabelled tree is left.
            assert template.claim_parse() is None
            trees = [tree for tree, _stats in template.variants.values()]
            assert trees and len({id(tree) for tree in trees}) == len(trees)
            for tree in trees:
                assert all(el.security_context is not None for el in tree.elements())

    def test_a_second_variant_clones_and_serves_cold_pages(self):
        caches = CompileCaches.build()
        models = ("escudo", "sop", "escudo", "sop")
        with mock.patch(
            "repro.browser.compile_cache.TreeBuilder.build",
            autospec=True,
            side_effect=TreeBuilder.build,
        ) as builds:
            pages = [
                load_page(ESCUDO_BODY, PAGE_URL, options=LoaderOptions(model=model), caches=caches)
                for model in models
            ]
        # The miss parses once; the sop variant labels a clone of the
        # escudo variant's tree, and the repeats of either model are served
        # from their variant's tree.
        assert builds.call_count == 1
        assert caches.templates.misses == 1 and caches.templates.hits == 3
        template = caches.templates.entry(ESCUDO_BODY, PAGE_URL)
        assert len(template.variants) == 2
        for model, page in zip(models, pages):
            cold = load_page(ESCUDO_BODY, PAGE_URL, options=LoaderOptions(model=model))
            assert serialize(page.document) == serialize(cold.document)
            assert page.ring_histogram() == cold.ring_histogram()
            assert page.labeling.__dict__ == cold.labeling.__dict__
            assert page.escudo_enabled == cold.escudo_enabled
            elements = list(page.document.elements())
            cold_elements = list(cold.document.elements())
            assert len(elements) == len(cold_elements)
            for element, cold_element in zip(elements, cold_elements):
                assert element.security_context == cold_element.security_context

    def test_warm_for_shares_one_entry_between_the_escudo_and_sop_columns(self):
        from repro.attacks.harness import APP_KEYS
        from repro.scenarios.runner import ScenarioRunner

        runner = ScenarioRunner()
        with mock.patch(
            "repro.browser.compile_cache.TreeBuilder.build",
            autospec=True,
            side_effect=TreeBuilder.build,
        ) as builds:
            runner.warm_for(APP_KEYS)
        templates = runner.caches.templates
        # Per app: one body both model columns share, and the ``none``
        # column's own body.
        assert builds.call_count == templates.misses == 2 * len(APP_KEYS)
        shared = [t for t in templates._entries.values() if len(t.variants) == 2]  # noqa: SLF001
        assert len(shared) == len(APP_KEYS)
        for template in shared:
            assert {escudo for (_fingerprint, escudo, _scoping) in template.variants} == {
                True,
                False,
            }

    def test_warm_cache_retains_at_most_one_tree_per_variant(self):
        """The template cache's retained heap after a full warm-up.

        Each template keeps its labelled variants and nothing else, built
        from slotted nodes with interned names; a template that also kept
        its unlabelled parse and dict-backed nodes retains about twice the
        ceiling.
        """
        import tracemalloc

        from repro.attacks.harness import APP_KEYS
        from repro.scenarios.runner import ScenarioRunner

        tracemalloc.start()
        try:
            runner = ScenarioRunner()
            runner.warm_for(APP_KEYS)
            templates = runner.caches.templates
            gc.collect()
            with_cache = tracemalloc.get_traced_memory()[0]
            for template in templates._entries.values():  # noqa: SLF001
                template.release()
            templates._entries.clear()  # noqa: SLF001
            gc.collect()
            retained = with_cache - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < retained < CACHE_RETAINED_CEILING


#: Bytes the warm template cache may retain (tracemalloc, every app warmed).
CACHE_RETAINED_CEILING = 200_000


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

    @pytest.mark.parametrize("maxsize", [1, 2, 3, 5])
    def test_the_cache_never_holds_more_than_maxsize_trees(self, maxsize):
        caches = CompileCaches(templates=TemplateCache(maxsize=maxsize), scripts=ScriptCache())
        templates = caches.templates
        bodies = [ESCUDO_BODY, SPLIT_BODY] + [
            f"<html><body><p>{i}</p></body></html>" for i in range(3)
        ]
        for _ in range(2):
            for body in bodies:
                for model in ("escudo", "sop"):
                    load_page(body, PAGE_URL, options=LoaderOptions(model=model), caches=caches)
                    held = sum(
                        len(t.variants) + (t._pending is not None)  # noqa: SLF001
                        for t in templates._entries.values()  # noqa: SLF001
                    )
                    assert held == templates.trees <= maxsize

    def test_eviction_releases_every_cached_tree(self):
        caches = CompileCaches(templates=TemplateCache(maxsize=3), scripts=ScriptCache())
        served = load_page(ESCUDO_BODY, PAGE_URL, options=LoaderOptions(model="escudo"), caches=caches)
        load_page(ESCUDO_BODY, PAGE_URL, options=LoaderOptions(model="sop"), caches=caches)
        template = caches.templates.entry(ESCUDO_BODY, PAGE_URL)
        # An entry parsed but never labelled still holds its parse.
        pending = caches.templates.entry("<html><body><p>pending</p></body></html>", PAGE_URL)
        tree_refs = [weakref.ref(tree) for tree, _stats in template.variants.values()]
        assert len(tree_refs) == 2
        tree_refs.append(weakref.ref(pending._pending))  # noqa: SLF001
        assert caches.templates.trees == 3
        del template, pending
        collecting = gc.isenabled()
        gc.disable()
        try:
            # The first new tree evicts the two-variant entry, the third
            # one the pending parse.
            for i in range(3):
                caches.templates.entry(f"<html><body><p>{i}</p></body></html>", PAGE_URL)
            assert [ref() for ref in tree_refs] == [None, None, None]
            assert caches.templates.trees == 3
        finally:
            if collecting:
                gc.enable()

        options = LoaderOptions(model="escudo")
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
