"""Workload generation for the performance experiments.

Figure 4 of the paper measures parse + render time over "8 web pages
[with] varying amounts of AC tags and dynamic content", each page loaded
with and without ESCUDO, averaged over 90 executions.  This module generates
those eight scenarios synthetically and deterministically: page size, the
number of access-control scopes and the number of scripts all sweep upwards
so the benchmark exposes how ESCUDO's bookkeeping scales with the amount of
configuration on the page.

Each scenario can be rendered in two variants:

* ``escudo`` -- AC tags with ring/ACL/nonce attributes, ESCUDO headers;
* ``plain`` -- the identical content with every ESCUDO attribute stripped
  (the "Without Escudo" baseline of Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.nonce import NonceGenerator
from repro.core.rings import Ring, RingSet
from repro.webapps.templates import EscudoPageTemplate

#: Words used to synthesise text content (deterministic, no RNG needed).
_WORDS = (
    "ring", "policy", "browser", "principal", "object", "cookie", "script",
    "mediation", "origin", "privilege", "isolation", "scope", "nonce",
    "configuration", "enforcement", "granularity",
)


def _sentence(seed: int, length: int = 12) -> str:
    """A deterministic pseudo-sentence."""
    words = [_WORDS[(seed * 7 + i * 3) % len(_WORDS)] for i in range(length)]
    return " ".join(words) + "."


def _paragraph(seed: int, sentences: int = 3) -> str:
    return " ".join(_sentence(seed + i) for i in range(sentences))


@dataclass(frozen=True)
class ScenarioSpec:
    """Size parameters of one Figure-4 scenario."""

    name: str
    sections: int          # user-content sections, each in its own AC scope
    paragraphs_per_section: int
    scripts: int           # dynamic-content scripts sprinkled over the page
    tables: int            # additional static structure
    nesting: int           # depth of nested AC scopes inside each section

    @property
    def ac_tags(self) -> int:
        """Number of AC scopes the ESCUDO variant of this page carries.

        Every content section contributes ``nesting`` scopes; the chrome
        contributes one scope per table wrapper plus the page header, any
        scripts that spill over into the chrome, and the head/body scopes.
        """
        chrome_scopes = 1 + self.tables + max(0, self.scripts - self.sections)
        return self.sections * self.nesting + chrome_scopes + 2  # + head and body scopes


#: The eight scenarios: page size and configuration density both sweep up.
SCENARIOS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec("S1-static-small", sections=2, paragraphs_per_section=2, scripts=0, tables=0, nesting=1),
    ScenarioSpec("S2-static-medium", sections=6, paragraphs_per_section=3, scripts=0, tables=1, nesting=1),
    ScenarioSpec("S3-static-large", sections=14, paragraphs_per_section=4, scripts=0, tables=2, nesting=1),
    ScenarioSpec("S4-few-scripts", sections=6, paragraphs_per_section=3, scripts=3, tables=1, nesting=1),
    ScenarioSpec("S5-many-scripts", sections=10, paragraphs_per_section=3, scripts=8, tables=1, nesting=1),
    ScenarioSpec("S6-nested-scopes", sections=8, paragraphs_per_section=3, scripts=3, tables=1, nesting=2),
    ScenarioSpec("S7-deeply-nested", sections=8, paragraphs_per_section=3, scripts=5, tables=2, nesting=3),
    ScenarioSpec("S8-heavy", sections=20, paragraphs_per_section=4, scripts=10, tables=3, nesting=2),
)


@dataclass
class Workload:
    """One generated page in both variants plus its configuration."""

    spec: ScenarioSpec
    escudo_html: str
    plain_html: str
    configuration: PageConfiguration
    url: str = "http://bench.example.com/page"

    @property
    def name(self) -> str:
        return self.spec.name


def _section_markup(spec: ScenarioSpec, index: int) -> str:
    """Inner markup of one content section (identical in both variants)."""
    paragraphs = "".join(
        f'<p id="p-{index}-{p}">{_paragraph(index * 31 + p)}</p>'
        for p in range(spec.paragraphs_per_section)
    )
    return f'<h3 id="section-title-{index}">Section {index}</h3>{paragraphs}'


def _script_markup(index: int) -> str:
    """One dynamic-content script: touches the DOM the way widgets do."""
    return (
        "<script>"
        f"var target = document.getElementById('section-title-{index}');"
        "if (target != null) { target.setAttribute('data-visited', 'yes'); }"
        f"var total = 0; for (var i = 0; i < 25; i = i + 1) {{ total = total + i; }}"
        "</script>"
    )


def _table_markup(index: int, rows: int = 6, cols: int = 4) -> str:
    cells = "".join(
        "<tr>" + "".join(f"<td>cell {r}.{c}</td>" for c in range(cols)) + "</tr>"
        for r in range(rows)
    )
    return f'<table id="table-{index}">{cells}</table>'


def build_workload(spec: ScenarioSpec, *, nonce_seed: int = 42) -> Workload:
    """Generate both page variants for one scenario."""
    escudo_html = _build_page(spec, escudo=True, nonce_seed=nonce_seed)
    plain_html = _build_page(spec, escudo=False, nonce_seed=nonce_seed)

    configuration = PageConfiguration(rings=RingSet(3))
    configuration.cookie_policies["bench_session"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
    configuration.api_policies["XMLHttpRequest"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
    return Workload(spec=spec, escudo_html=escudo_html, plain_html=plain_html, configuration=configuration)


def _build_page(spec: ScenarioSpec, *, escudo: bool, nonce_seed: int) -> str:
    page = EscudoPageTemplate(
        title=f"benchmark {spec.name}",
        escudo_enabled=escudo,
        nonces=NonceGenerator(nonce_seed),
        head_ring=Ring(0),
        chrome_ring=Ring(1),
    )
    page.add_head_style("p { margin: 2px; } table { border-collapse: collapse; }")
    page.add_chrome(f'<h1 id="page-title">Benchmark page {spec.name}</h1>', element_id="chrome-header")
    for t in range(spec.tables):
        page.add_chrome(_table_markup(t), element_id=f"table-wrap-{t}")

    script_budget = spec.scripts
    for index in range(spec.sections):
        inner = _section_markup(spec, index)
        if script_budget > 0:
            inner += _script_markup(index)
            script_budget -= 1
        # Nested AC scopes: each additional nesting level wraps the content
        # in a deeper, less privileged scope.
        for depth in range(spec.nesting - 1, 0, -1):
            ring = min(3, 2 + depth)
            if escudo:
                inner = (
                    f'<div ring="{ring}" r="2" w="2" x="2">' + inner + "</div>"
                )
            else:
                inner = "<div>" + inner + "</div>"
        page.add_content(inner, ring=3, read=2, write=2, use=2, element_id=f"section-{index}")

    # Any remaining script budget lands in the trusted chrome.
    for index in range(spec.sections, spec.sections + script_budget):
        page.add_chrome(_script_markup(index % max(spec.sections, 1)), element_id=f"chrome-script-{index}")
    return page.render()


def all_workloads(*, nonce_seed: int = 42) -> list[Workload]:
    """The eight Figure-4 workloads."""
    return [build_workload(spec, nonce_seed=nonce_seed) for spec in SCENARIOS]
