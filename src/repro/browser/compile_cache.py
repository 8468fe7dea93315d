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
  mismatch records per page.  The scenario runner gives the ESCUDO and
  same-origin columns of one application the same nonce seed, so both
  columns fetch byte-identical bodies and share one entry.  The render
  statistics come from the parse itself (layout does not read labels), and
  each labelled variant (per configuration fingerprint) is one tree, so a
  warm load skips tokenising, tree construction, labelling *and* layout.
  The first variant labels the miss's parse in place; a later variant of
  the same body clones an existing variant's tree, clears its labels and
  labels the clone, so a body is parsed once whatever its variants, and an
  entry holds exactly one tree per variant and no unlabelled copy.  The
  cache's bound counts trees (variants plus parses not yet labelled), not
  bodies, so an entry serving two variants costs two slots.  The cached
  trees are never handed out -- every consumer gets an aliasing-free
  clone, so page mutations cannot poison the cache or leak into sibling
  loads.  Each clone carries a :class:`~repro.dom.document.LoadManifest`:
  its own node list plus the tag, id and parent indexes it shares with its
  variant tree, so the load-time queries (scripts, subresources,
  ``getElementById``) are computed once per variant and never re-walk a
  served page.  Evicting a template releases every variant tree
  (:meth:`~repro.dom.document.Document.release`), so an evicted entry is
  freed by reference counting at once instead of waiting, as a cyclic DOM
  tree, for a full collection; clones already served are independent trees
  and are never touched.
* :class:`~repro.scripting.cache.ScriptCache` -- one entry per script
  source digest holding its parsed program (or its front-end error).

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
from repro.dom.element import Element
from repro.html.parser import TreeBuilder
from repro.scripting.cache import ScriptCache

from .labeler import LabelingStats, PageLabeler, document_uses_escudo
from .renderer import Renderer, RenderStats

#: Default number of trees retained (labelled variants plus unlabelled parses).
DEFAULT_TEMPLATE_CACHE_SIZE = 256


class CachedTemplate:
    """One parsed response body plus its derived, reusable artifacts."""

    __slots__ = (
        "uses_escudo",
        "ignored_end_tags",
        "mismatches",
        "rendering",
        "variants",
        "_pending",
    )

    def __init__(
        self,
        document: Document,
        *,
        uses_escudo: bool,
        ignored_end_tags: int,
        mismatches: tuple[tuple[str | None, str | None, str], ...],
        rendering: RenderStats,
    ) -> None:
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

    def release(self) -> int:
        """Release every tree the entry holds (eviction); return how many."""
        trees = len(self.variants)
        document = self.claim_parse()
        if document is not None:
            document.release()
            trees += 1
        for labeled, _stats in self.variants.values():
            labeled.release()
        self.variants.clear()
        return trees

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


def _unlabelled_clone(document: Document) -> Document:
    """A clone of ``document`` with every element's security context cleared.

    The labeller assigns a context only to an element that has none, so a
    clone of a labelled tree must be cleared before it takes new labels.
    Labelling never changes the tree, so the result equals a fresh parse.
    """
    clone = document.clone()
    for node in clone._load_manifest().nodes:
        if isinstance(node, Element):
            node._security_context = None
    return clone


class TemplateCache:
    """LRU of :class:`CachedTemplate` keyed by body digest, bounded in trees.

    ``maxsize`` bounds the trees held: every labelled variant and every
    parse still waiting for its first variant counts one.  Adding a tree
    evicts least recently used entries, whole, until the bound holds.
    """

    def __init__(self, maxsize: int = DEFAULT_TEMPLATE_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("template cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, CachedTemplate]" = OrderedDict()
        #: Trees held by every entry together (never more than ``maxsize``).
        self.trees = 0
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
        builder = TreeBuilder(url=url, nonce_validator=NonceValidator())
        document = builder.build(body)
        _, rendering = Renderer().render(document)
        cached = CachedTemplate(
            document,
            uses_escudo=document_uses_escudo(document),
            ignored_end_tags=builder.ignored_end_tags,
            mismatches=tuple(
                (m.expected, m.found, m.context) for m in builder.nonce_validator.mismatches
            ),
            rendering=rendering,
        )
        entries[key] = cached
        self.trees += 1
        self._evict()
        return cached

    def labeled_tree(
        self,
        template: CachedTemplate,
        *,
        origin: Origin,
        configuration: PageConfiguration,
        escudo_enabled: bool,
        enforce_scoping: bool,
    ) -> tuple[Document, LabelingStats]:
        """A labelled clone of ``template`` plus its labelling statistics.

        ``template`` is the entry :meth:`entry` just returned.  The labelling
        pass runs once per distinct configuration fingerprint: the first
        variant labels the miss's parse in place, and a later one labels an
        unlabelled clone of an existing variant's tree (a clone costs a
        fraction of a parse).  Every page load gets a fresh clone of the variant
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
                labeled = _unlabelled_clone(next(iter(template.variants.values()))[0])
                self.trees += 1
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
        served = labeled.clone()
        # A new variant may push the cache past its bound; the clone is
        # taken first because the eviction may release this very entry.
        self._evict()
        return served, _copy_labeling_stats(stats)

    def _evict(self) -> None:
        """Release least recently used entries until the tree bound holds."""
        entries = self._entries
        while self.trees > self.maxsize:
            self.trees -= entries.popitem(last=False)[1].release()

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
            "trees": self.trees,
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
        """Effectiveness counters of every layer (for benchmark reports)."""
        return {
            "templates": self.templates.as_dict(),
            **self.scripts.as_dict(),
            # Always zero; perfbench reads both until its next contract change retires the keys.
            "code": {"hits": 0, "misses": 0},
            "decisions": {"hits": 0, "misses": 0},
        }
