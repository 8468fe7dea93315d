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

from repro.dom.element import Element
from repro.scripting.interpreter import HostObject


class Widget:
    def register(self):
        self.route("POST", "/widget", self.create_widget)
        self.route("GET", "/widget", self.show_widget)

    def create_widget(self, request):
        return "ok"  # mutates nothing: missing storage/session write

    def show_widget(self, request):
        self.storage.update("widgets", 1, views=2)  # a GET that writes
        return "ok"


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


class WidgetBinding(HostObject):
    def js_get(self, name):  # bypasses the member table
        return getattr(self, name)


class WidgetElement(Element):  # a DOM node without __slots__
    pass
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


def test_host_members_rule_flags_only_host_subclasses(tmp_path):
    target = tmp_path / "hosts.py"
    target.write_text(
        "from repro.scripting import interpreter\n"
        "class Base(interpreter.HostObject):\n"
        "    def js_set(self, name, value):\n"
        "        pass\n"
        "class Derived(Base):\n"
        "    def js_call(self, name, args):\n"
        "        pass\n"
        "class Plain:\n"
        "    def js_get(self, name):\n"
        "        pass\n",
        encoding="utf-8",
    )
    violations = lint_paths([target])
    assert [(v.rule, v.line) for v in violations] == [("host-members", 3), ("host-members", 6)]


def test_dom_slots_rule_resolves_bases_through_imports(tmp_path):
    target = tmp_path / "nodes.py"
    target.write_text(
        "from repro.dom import node as dom_node\n"
        "from repro.scripting import ast_nodes as ast\n"
        "from repro.scripting.ast_nodes import Node\n"
        "class Slotted(dom_node.Node):\n"
        "    __slots__ = ('extra',)\n"
        "class Loose(dom_node.Node):\n"
        "    pass\n"
        "class LooseChild(Slotted):\n"
        "    pass\n"
        "class Statement(ast.Node):\n"
        "    pass\n"
        "class Expression(Node):\n"
        "    pass\n",
        encoding="utf-8",
    )
    violations = lint_paths([target])
    assert [(v.rule, v.line) for v in violations] == [("dom-slots", 6), ("dom-slots", 8)]


def test_dom_slots_rule_follows_relative_imports_inside_the_dom_package(tmp_path):
    package = tmp_path / "repro" / "dom"
    package.mkdir(parents=True)
    target = package / "widget.py"
    target.write_text(
        "from .node import TextNode\n"
        "from ..scripting.ast_nodes import Node\n"
        "class Marker(TextNode):\n"
        "    pass\n"
        "class Script(Node):\n"
        "    pass\n",
        encoding="utf-8",
    )
    violations = lint_paths([target])
    assert [(v.rule, v.line) for v in violations] == [("dom-slots", 3)]


def _webapp(tmp_path, source: str) -> Path:
    webapps = tmp_path / "webapps"
    webapps.mkdir()
    target = webapps / "app.py"
    target.write_text(source, encoding="utf-8")
    return target


def test_get_read_only_rule_follows_helpers_and_session_writes(tmp_path):
    target = _webapp(
        tmp_path,
        "class App:\n"
        "    def register_routes(self):\n"
        "        self.route('GET', '/a', self.page_a)\n"
        "        self.route('GET', '/b', self.page_b)\n"
        "        self.route('GET', '/c', self.page_c)\n"
        "        self.route('POST', '/d', self.do_d)\n"
        "    def page_a(self, context):\n"
        "        return self._count_visit()\n"
        "    def _count_visit(self):\n"
        "        self.storage.insert_many('visits', [])\n"
        "    def page_b(self, context):\n"
        "        context.session.set('seen', True)\n"
        "    def page_c(self, context):\n"
        "        context.response.headers.set('X-Read', 'only')\n"
        "        return self.storage.select('visits', who='x')\n"
        "    def do_d(self, context):\n"
        "        context.session.set('note', 'written')\n",
    )
    violations = lint_paths([target])
    # page_a writes through a helper, page_b writes session data; page_c
    # only reads, and a POST handler that writes session data complies.
    assert [(v.rule, v.line) for v in violations] == [
        ("webapps-get-read-only", 7),
        ("webapps-get-read-only", 11),
    ]
    assert "self.storage.insert_many at line 10" in str(violations[0])


def test_get_read_only_rule_applies_only_under_webapps(tmp_path):
    target = tmp_path / "app.py"
    target.write_text(
        "class App:\n"
        "    def register_routes(self):\n"
        "        self.route('GET', '/', self.index)\n"
        "    def index(self, context):\n"
        "        self.login(context, 'eve', None)\n",
        encoding="utf-8",
    )
    assert lint_paths([target]) == []
