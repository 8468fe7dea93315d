"""Tests for the repo-invariant linter.

Three layers: the shipped tree must be lint-clean (the CI gate), every rule
must demonstrably fire on a seeded violation fixture (a gate that cannot
fail is not a gate), and the suppression syntax must work.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.repolint import ALL_RULES, lint_paths, main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_BAD_WEBAPP = '''\
import pickle
import time


class Widget:
    def register(self):
        self.route("POST", "/widget", self.create_widget)

    def create_widget(self, request):
        return "ok"  # mutates nothing: missing touch_state/storage write


class WidgetCache:
    def lookup(self, key):
        try:
            return pickle.loads(key) or time.time()
        except:
            return None

    def fetch(self, key):
        attempts = 0
        while True:  # unbounded retry loop: no attempt cap
            attempts += 1
            if self.lookup(key) is not None:
                return attempts
'''


@pytest.fixture()
def bad_tree(tmp_path):
    webapps = tmp_path / "webapps"
    webapps.mkdir()
    target = webapps / "bad.py"
    target.write_text(_BAD_WEBAPP, encoding="utf-8")
    return target


def test_shipped_tree_is_lint_clean():
    assert lint_paths([REPO_SRC]) == []


def test_main_exits_zero_on_clean_tree():
    assert main([str(REPO_SRC)]) == 0


def test_main_exits_two_on_missing_path():
    assert main(["/no/such/path"]) == 2


def test_every_rule_fires_on_seeded_fixture(bad_tree):
    violations = lint_paths([bad_tree])
    fired = {violation.rule for violation in violations}
    assert fired == {rule.rule_id for rule in ALL_RULES}, (
        f"rules without a firing demonstration: "
        f"{ {rule.rule_id for rule in ALL_RULES} - fired }"
    )


def test_main_exits_one_on_violations(bad_tree):
    assert main([str(bad_tree.parent)]) == 1


def test_violations_carry_position_and_render(bad_tree):
    violations = lint_paths([bad_tree])
    for violation in violations:
        assert violation.line > 0
        rendered = str(violation)
        assert violation.rule in rendered
        assert str(violation.line) in rendered


def test_suppression_comment_silences_one_line(bad_tree):
    source = bad_tree.read_text(encoding="utf-8").replace(
        "return pickle.loads(key) or time.time()",
        "return pickle.loads(key) or time.time()  # repolint: allow[determinism]",
    )
    bad_tree.write_text(source, encoding="utf-8")
    fired = {violation.rule for violation in lint_paths([bad_tree])}
    assert "determinism" not in fired
    # Only the named rule is silenced; the others still fire on their lines.
    assert {rule.rule_id for rule in ALL_RULES} - fired == {"determinism"}


def test_pickle_is_banned_in_the_compile_cache_module(tmp_path):
    browser = tmp_path / "browser"
    browser.mkdir()
    target = browser / "compile_cache.py"
    target.write_text("import pickle\n", encoding="utf-8")
    violations = lint_paths([target])
    assert [violation.rule for violation in violations] == ["pickle-confinement"]
    assert "import pickle" in str(violations[0])


def test_syntax_error_is_reported_not_raised(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n", encoding="utf-8")
    violations = lint_paths([broken])
    assert len(violations) == 1
    assert violations[0].rule == "syntax"
