"""Cross-page compile caches: parse once, label once, clone per load.

The scenario engine cold-started every page load: the same response body was
re-tokenised and re-parsed, re-labelled and re-rendered for every load.  This
module amortises that repeated *compilation* across page loads (and, through
the scenario runner, across whole scenarios):

* :class:`TemplateCache` -- keyed on ``(SHA-256 of the response body, page
  URL)``, it parses a body once and serves every load a deep
  :meth:`~repro.dom.document.Document.clone` of a labelled tree.  Whether
  nonce bookkeeping is on is deliberately *not* part of the key: the parse
  always runs with a recording validator and produces the identical tree
  either way (an unmatched terminator is ignored in both modes), so one
  entry serves both pipelines and the loader replays or withholds the
  mismatch records per page.  The render statistics come from the parse
  itself (layout does not read labels), and each labelled variant (per
  configuration fingerprint) is one tree, so a warm load skips tokenising,
  tree construction, labelling *and* layout.  The first variant labels the
  miss's parse in place; a later variant of the same body re-parses the
  body and keeps that tree, so an entry holds exactly one tree per variant
  and no unlabelled copy.  The cached trees are never handed out -- every
  consumer gets an aliasing-free clone, so page mutations cannot poison the
  cache or leak into sibling loads.  Each clone carries a
  :class:`~repro.dom.document.LoadManifest`: its own node list plus the tag,
  id and parent indexes it shares with its variant tree, so the load-time
  queries (scripts, subresources, ``getElementById``) are computed once per
  variant and never re-walk a served page.  Evicting a template releases
  every variant tree (:meth:`~repro.dom.document.Document.release`), so an
  evicted entry is freed by reference counting at once instead of waiting,
  as a cyclic DOM tree, for a full collection; clones already served are
  independent trees and are never touched.
* :class:`~repro.scripting.cache.ScriptCache` -- one entry per script
  source digest holding its parsed program and its static analysis report,
  the report built on first use from the entry's own program.

Nothing here caches a mediation verdict: every page gets its own reference
monitor, and the policy decides every access.  :class:`CompileCaches` holds
the template and script caches: what one scenario worker carries for its
whole lifetime.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.config import PageConfiguration
from repro.core.nonce import NonceMismatch, NonceValidator
from repro.core.origin import Origin
from repro.dom.document import Document
from repro.html.parser import TreeBuilder
from repro.html.tokenizer import tokenize
from repro.scripting.cache import ScriptCache

from .labeler import LabelingStats, PageLabeler, document_uses_escudo
from .renderer import Renderer, RenderStats

#: Default number of distinct page templates retained.
DEFAULT_TEMPLATE_CACHE_SIZE = 256


class CachedTemplate:
    """One parsed response body plus its derived, reusable artifacts."""

    __slots__ = (
        "url",
        "uses_escudo",
        "ignored_end_tags",
        "mismatches",
        "rendering",
        "variants",
        "_pending",
    )

    def __init__(
        self,
        url: str,
        document: Document,
        *,
        uses_escudo: bool,
        ignored_end_tags: int,
        mismatches: tuple[tuple[str | None, str | None, str], ...],
        rendering: RenderStats,
    ) -> None:
        self.url = url
        self.uses_escudo = uses_escudo
        self.ignored_end_tags = ignored_end_tags
        #: Nonce mismatches recorded during the parse, replayed into a fresh
        #: validator for every served page.
        self.mismatches = mismatches
        #: Render statistics of the parse, copied per page.
        self.rendering = rendering
        #: (config fingerprint, escudo_enabled, enforce_scoping) ->
        #: (labelled tree, labelling stats).  Never handed out -- consumers
        #: get clones.
        self.variants: dict[tuple, tuple[Document, LabelingStats]] = {}
        #: The miss's parse until the first variant labels it in place.
        self._pending: Document | None = document

    def claim_parse(self) -> Document | None:
        """Hand the unlabelled parse to the first variant (``None`` afterwards)."""
        document, self._pending = self._pending, None
        return document

    def release(self) -> None:
        """Release every tree the entry holds (eviction)."""
        document = self.claim_parse()
        if document is not None:
            document.release()
        for labeled, _stats in self.variants.values():
            labeled.release()
        self.variants.clear()

    def make_validator(self, *, replay: bool) -> NonceValidator:
        """A fresh per-page validator.

        ``replay=True`` (the ESCUDO pipeline) carries the parse's mismatch
        records; ``replay=False`` (the legacy pipeline, which parses without
        a recording validator) yields an empty one.
        """
        validator = NonceValidator()
        if replay:
            for expected, found, context in self.mismatches:
                validator.mismatches.append(
                    NonceMismatch(expected=expected, found=found, context=context)
                )
        return validator


def _parse(body: str, url: str) -> TreeBuilder:
    """Parse ``body`` with a recording validator (the cache's one parse mode)."""
    builder = TreeBuilder(url=url, nonce_validator=NonceValidator())
    builder.build(tokenize(body))
    return builder


class TemplateCache:
    """Bounded LRU of :class:`CachedTemplate` keyed by body digest."""

    def __init__(self, maxsize: int = DEFAULT_TEMPLATE_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("template cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, CachedTemplate]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- the compile pipeline ----------------------------------------------------------

    def entry(self, body: str, url: str) -> CachedTemplate:
        """Parse ``body`` once, serving repeats from the cache.

        The parse always runs with a recording validator: the resulting tree
        is identical with and without one (an unmatched nonce terminator is
        ignored either way; only the *recording* differs), so one entry
        serves both the ESCUDO and the legacy pipeline -- the loader decides
        per page whether to replay the recorded mismatches or attach an
        empty validator, exactly mirroring the cold pipeline's two modes.
        """
        key = (hashlib.sha256(body.encode("utf-8")).hexdigest(), url)
        entries = self._entries
        cached = entries.get(key)
        if cached is not None:
            self.hits += 1
            entries.move_to_end(key)
            return cached
        self.misses += 1
        builder = _parse(body, url)
        document = builder.document
        _, rendering = Renderer().render(document)
        cached = CachedTemplate(
            url,
            document,
            uses_escudo=document_uses_escudo(document),
            ignored_end_tags=builder.ignored_end_tags,
            mismatches=tuple(
                (m.expected, m.found, m.context) for m in builder.nonce_validator.mismatches
            ),
            rendering=rendering,
        )
        if len(entries) >= self.maxsize:
            entries.popitem(last=False)[1].release()
        entries[key] = cached
        return cached

    def labeled_tree(
        self,
        template: CachedTemplate,
        *,
        body: str,
        origin: Origin,
        configuration: PageConfiguration,
        escudo_enabled: bool,
        enforce_scoping: bool,
    ) -> tuple[Document, LabelingStats]:
        """A labelled clone of ``template`` plus its labelling statistics.

        The labelling pass runs once per distinct configuration fingerprint:
        the first variant labels the miss's parse in place, and a later one
        re-parses ``body`` (the body the template was looked up by) and
        labels that tree.  Every page load gets a fresh clone of the variant
        tree (security contexts are frozen values, so clones share them
        safely) and a fresh copy of the stats.  Labelling never changes the
        tree's shape, so the variant and all its clones share one manifest
        shape.  The origin is implied by the template key's URL, so it does
        not appear in the variant key.
        """
        variant_key = (configuration.fingerprint(), escudo_enabled, enforce_scoping)
        variant = template.variants.get(variant_key)
        if variant is None:
            labeled = template.claim_parse()
            if labeled is None:
                labeled = _parse(body, template.url).document
            labeler = PageLabeler(
                origin,
                configuration,
                escudo_enabled=escudo_enabled,
                enforce_scoping=enforce_scoping,
            )
            stats = labeler.label_document(labeled)
            variant = (labeled, stats)
            template.variants[variant_key] = variant
        labeled, stats = variant
        return labeled.clone(), _copy_labeling_stats(stats)

    def render_stats(self, template: CachedTemplate) -> RenderStats:
        """A copy of ``template``'s render statistics (default viewport).

        The synthetic renderer is a pure function of tree structure (labels
        do not affect layout), so the stats are computed once, on the parse.
        """
        stats = template.rendering
        return RenderStats(
            boxes=stats.boxes,
            text_runs=stats.text_runs,
            characters=stats.characters,
            document_height=stats.document_height,
            skipped_elements=stats.skipped_elements,
        )

    # -- introspection -----------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the hit/miss counters, keeping every template.

        Lets a measurement over an already-warm cache report the hit rate
        of its own traffic only.
        """
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of body parses served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        """Counters for benchmark reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def __len__(self) -> int:
        return len(self._entries)


def _copy_labeling_stats(stats: LabelingStats) -> LabelingStats:
    return LabelingStats(
        labelled_elements=stats.labelled_elements,
        ac_tags=stats.ac_tags,
        scoping_clamps=stats.scoping_clamps,
        ring_histogram=dict(stats.ring_histogram),
    )


@dataclass
class CompileCaches:
    """The per-worker cache stack: templates + scripts."""

    templates: TemplateCache
    scripts: ScriptCache

    @classmethod
    def build(cls) -> "CompileCaches":
        """A fresh stack with the default capacities."""
        return cls(templates=TemplateCache(), scripts=ScriptCache())

    def as_dict(self) -> dict[str, object]:
        """Effectiveness counters of every layer (for benchmark reports).

        ``scripts`` and ``reports`` are the script cache's front-end and
        report lookups.
        """
        return {
            "templates": self.templates.as_dict(),
            **self.scripts.as_dict(),
            # Always zero; perfbench reads both until its next contract change retires the keys.
            "code": {"hits": 0, "misses": 0},
            "decisions": {"hits": 0, "misses": 0},
        }
