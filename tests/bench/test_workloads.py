"""Tests for the Figure-4 workload generator."""

from __future__ import annotations

import pytest

from repro.bench.workloads import SCENARIOS, all_workloads, build_workload
from repro.browser.loader import LoaderOptions, load_page
from repro.core.rings import Ring


class TestScenarioSweep:
    def test_there_are_eight_scenarios_as_in_figure_4(self):
        assert len(SCENARIOS) == 8
        assert len(all_workloads()) == 8

    def test_scenario_names_are_unique_and_ordered(self):
        names = [spec.name for spec in SCENARIOS]
        assert len(set(names)) == 8
        assert names[0].startswith("S1") and names[-1].startswith("S8")

    def test_page_size_and_configuration_density_sweep_upwards(self):
        first, last = build_workload(SCENARIOS[0]), build_workload(SCENARIOS[-1])
        assert len(last.escudo_html) > len(first.escudo_html)
        assert SCENARIOS[-1].ac_tags > SCENARIOS[0].ac_tags


class TestVariantEquivalence:
    @pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: s.name)
    def test_plain_variant_strips_every_escudo_attribute(self, spec):
        workload = build_workload(spec)
        assert 'ring="' in workload.escudo_html
        assert "nonce=" in workload.escudo_html
        assert 'ring="' not in workload.plain_html
        assert "nonce=" not in workload.plain_html

    @pytest.mark.parametrize("spec", SCENARIOS[:3], ids=lambda s: s.name)
    def test_both_variants_carry_the_same_text_content(self, spec):
        workload = build_workload(spec)
        escudo_page = load_page(workload.escudo_html, workload.url, configuration=workload.configuration)
        plain_page = load_page(workload.plain_html, workload.url, options=LoaderOptions(model="sop"))
        assert escudo_page.document.text_content == plain_page.document.text_content

    def test_generation_is_deterministic(self):
        first = build_workload(SCENARIOS[4], nonce_seed=7)
        second = build_workload(SCENARIOS[4], nonce_seed=7)
        assert first.escudo_html == second.escudo_html
        assert build_workload(SCENARIOS[4], nonce_seed=8).escudo_html != first.escudo_html


class TestLoadedWorkloads:
    def test_escudo_variant_labels_match_the_spec(self):
        spec = SCENARIOS[5]  # nested scopes
        workload = build_workload(spec)
        page = load_page(workload.escudo_html, workload.url, configuration=workload.configuration)
        assert page.escudo_enabled
        assert page.labeling.ac_tags == spec.ac_tags
        histogram = page.ring_histogram()
        assert set(histogram) >= {0, 1, 3}

    def test_scripts_actually_run_when_loaded_through_the_browser(self):
        from repro.browser.browser import Browser
        from repro.http.messages import HttpResponse
        from repro.http.network import Network

        workload = build_workload(SCENARIOS[4])

        class WorkloadServer:
            def handle_request(self, request):
                response = HttpResponse.html(workload.escudo_html)
                response.apply_escudo_headers(workload.configuration)
                return response

        network = Network()
        network.register("http://bench.example.com", WorkloadServer())
        browser = Browser(network)
        loaded = browser.load(workload.url)
        assert len(loaded.page.script_runs) == SCENARIOS[4].scripts
        assert all(run.succeeded for run in loaded.page.script_runs)

    def test_plain_variant_collapses_to_a_single_ring(self):
        workload = build_workload(SCENARIOS[0])
        page = load_page(workload.plain_html, workload.url, options=LoaderOptions(model="sop"))
        assert not page.escudo_enabled
        assert set(page.ring_histogram()) == {0}
