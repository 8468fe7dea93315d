"""The page-loading pipeline: parse → extract configuration → label → render.

This module is deliberately network-free: it turns a response body plus its
headers into a fully labelled, rendered :class:`~repro.browser.page.Page`.
The full browser (:mod:`repro.browser.browser`) wraps it with fetching,
cookies, script execution and events; the Figure-4 overhead benchmark calls
it directly so that exactly the activities the paper times (parsing and
rendering, with and without ESCUDO bookkeeping) are measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PageConfiguration
from repro.core.monitor import ReferenceMonitor
from repro.core.nonce import NonceValidator
from repro.core.policy import EscudoPolicy, Policy
from repro.core.sop import SameOriginPolicy
from repro.html.parser import TreeBuilder
from repro.html.tokenizer import tokenize
from repro.http.url import Url

from .compile_cache import CompileCaches
from .event_loop import EventLoop
from .labeler import PageLabeler, document_uses_escudo
from .page import Page
from .renderer import Renderer, RenderStats


@dataclass
class LoaderOptions:
    """Knobs for the loading pipeline.

    ``model`` selects the protection model ("escudo" or "sop").  With the
    SOP model, the ESCUDO-specific stages (AC-tag labelling, nonce checks)
    are skipped entirely, which is what the overhead benchmark's baseline
    ("Without Escudo" in Figure 4) requires.
    ``render`` can be switched off for parse-only measurements.
    """

    model: str = "escudo"
    render: bool = True
    viewport_width: float = 1024.0
    enforce_scoping: bool = True

    def build_policy(self) -> Policy:
        """Instantiate the policy object for this model."""
        if self.model == "sop" or self.model == "same-origin":
            return SameOriginPolicy()
        return EscudoPolicy()

    @property
    def escudo_bookkeeping(self) -> bool:
        """Whether the ESCUDO-specific pipeline stages run."""
        return self.model not in ("sop", "same-origin")


def load_page(
    body: str,
    url: Url | str,
    *,
    configuration: PageConfiguration | None = None,
    options: LoaderOptions | None = None,
    monitor: ReferenceMonitor | None = None,
    event_loop: EventLoop | None = None,
    caches: CompileCaches | None = None,
) -> Page:
    """Run the full pipeline over a response body.

    Parameters
    ----------
    body:
        The HTML text of the response.
    url:
        Where it was loaded from (decides the origin).
    configuration:
        The ESCUDO configuration extracted from the response headers.  When
        omitted, a legacy (no-ESCUDO-headers) configuration is assumed; AC
        tags in the body can still switch the page into ESCUDO mode.
    options:
        Pipeline options (protection model, rendering on/off).
    monitor:
        Reference monitor to attach to the page.  A fresh one (with the
        model chosen by ``options``) is created when omitted.
    event_loop:
        Task scheduler to attach to the page.  The browser passes a loop
        carrying its interleaving key; standalone callers get a fresh
        FIFO-ordered loop.  After the pipeline (and the caller's script
        pass) runs, the browser settles the loop's time-zero horizon so
        immediate tasks complete during load while deferred timers survive
        it.
    caches:
        Optional :class:`~repro.browser.compile_cache.CompileCaches` stack.
        When given, the parse → label → render pipeline is served from the
        template cache (the page receives an aliasing-free clone of the
        cached tree).  A warm load is observably identical to a cold one.
    """
    opts = options or LoaderOptions()
    page_url = url if isinstance(url, Url) else Url.parse(url)
    config = configuration if configuration is not None else PageConfiguration.legacy()

    if caches is not None:
        document, config, escudo_enabled, labeling_stats, render_stats, validator, ignored = (
            _compile_cached(body, page_url, config, opts, caches)
        )
    else:
        document, config, escudo_enabled, labeling_stats, render_stats, validator, ignored = (
            _compile_cold(body, page_url, config, opts)
        )

    page_monitor = monitor if monitor is not None else ReferenceMonitor(opts.build_policy())
    return Page(
        url=page_url,
        document=document,
        configuration=config,
        monitor=page_monitor,
        escudo_enabled=escudo_enabled,
        labeling=labeling_stats,
        rendering=render_stats,
        nonce_validator=validator,
        ignored_end_tags=ignored,
        event_loop=event_loop if event_loop is not None else EventLoop(),
    )


def _upgraded_for_ac_tags(config: PageConfiguration) -> PageConfiguration:
    """Upgrade a legacy header configuration for a page using AC tags.

    The page opted in purely through AC tags (the paper's "static page"
    configuration path, with no optional headers).  The header-derived
    configuration is still the legacy single-ring one at this point, so
    upgrade it to the default ring universe or every declared ring would be
    clamped to 0 and the configuration silently voided.
    """
    return PageConfiguration(
        cookie_policies=dict(config.cookie_policies),
        api_policies=dict(config.api_policies),
        escudo_enabled=True,
    )


def _compile_cold(body: str, page_url: Url, config: PageConfiguration, opts: LoaderOptions):
    """The original uncached pipeline: parse, decide, label, render."""
    # 1. Parse.  Nonce validation happens during tree construction because
    #    a rejected </div> changes the resulting tree shape.
    validator = NonceValidator()
    builder = TreeBuilder(
        url=str(page_url),
        nonce_validator=validator if opts.escudo_bookkeeping else None,
    )
    document = builder.build(tokenize(body))

    # 2. Decide whether the page is ESCUDO-enabled (headers OR AC tags).
    escudo_enabled = bool(opts.escudo_bookkeeping) and (
        config.escudo_enabled or document_uses_escudo(document)
    )
    if escudo_enabled and not config.escudo_enabled:
        config = _upgraded_for_ac_tags(config)

    # 3. Label (extract + track security contexts).
    labeler = PageLabeler(
        page_url.origin,
        config,
        escudo_enabled=escudo_enabled,
        enforce_scoping=opts.enforce_scoping,
    )
    labeling_stats = labeler.label_document(document)

    # 4. Render.
    if opts.render:
        _, render_stats = Renderer(viewport_width=opts.viewport_width).render(document)
    else:
        render_stats = RenderStats()
    return (
        document,
        config,
        escudo_enabled,
        labeling_stats,
        render_stats,
        validator,
        builder.ignored_end_tags,
    )


def _compile_cached(
    body: str,
    page_url: Url,
    config: PageConfiguration,
    opts: LoaderOptions,
    caches: CompileCaches,
):
    """The warm pipeline: same four stages, each served from the stack."""
    template = caches.templates.entry(body, str(page_url))
    escudo_enabled = bool(opts.escudo_bookkeeping) and (
        config.escudo_enabled or template.uses_escudo
    )
    if escudo_enabled and not config.escudo_enabled:
        config = _upgraded_for_ac_tags(config)
    document, labeling_stats = caches.templates.labeled_tree(
        template,
        origin=page_url.origin,
        configuration=config,
        escudo_enabled=escudo_enabled,
        enforce_scoping=opts.enforce_scoping,
    )
    if opts.render:
        render_stats = caches.templates.render_stats(
            template, viewport_width=opts.viewport_width
        )
    else:
        render_stats = RenderStats()
    return (
        document,
        config,
        escudo_enabled,
        labeling_stats,
        render_stats,
        template.make_validator(replay=bool(opts.escudo_bookkeeping)),
        template.ignored_end_tags,
    )
