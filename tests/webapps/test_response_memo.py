"""The shared GET-response memo.

Entries are keyed by ``(application identity, storage write digest,
path+query, resolved session id)``, so applications built from the same
constructor inputs whose storage saw the same writes share entries -- the
scenario runner's three columns, every scenario and its warm-up -- and
nothing else does.  Route-handler calls are counted to see what the memo
served.
"""

from __future__ import annotations

import pytest

from repro.attacks.harness import make_application
from repro.browser.browser import Browser
from repro.http.messages import HttpRequest, HttpResponse
from repro.http.network import Network
from repro.scenarios.runner import ScenarioRunner
from repro.webapps.blog import Blog
from repro.webapps.framework import RequestContext, ResponseMemo, WebApplication
from repro.webapps.phpbb import PhpBB

SEED = "memo-seed"


def _get(app, path: str = "/", *, sid: str | None = None) -> HttpResponse:
    request = HttpRequest(method="GET", url=f"{app.origin}{path}")
    if sid is not None:
        request.attach_cookie_header(f"{app.session_cookie_name}={sid}")
    return app.handle_request(request)


@pytest.fixture
def memo() -> ResponseMemo:
    return ResponseMemo()


class TestSharing:
    def test_same_write_history_shares_an_entry(self, memo, count_calls):
        calls = count_calls(PhpBB, "index")
        first = PhpBB(nonce_seed=SEED, response_cache=memo)
        second = PhpBB(nonce_seed=SEED, response_cache=memo)
        for app in (first, second):
            app.create_topic("alice", "shared", "same write on both")
        body = _get(first).body
        assert _get(second).body == body
        assert calls == ["index"], "the second app must be served the first one's render"

    def test_sessions_with_the_same_history_share_too(self, memo, count_calls):
        calls = count_calls(PhpBB, "view_topic")
        apps = [PhpBB(nonce_seed=SEED, response_cache=memo) for _ in range(2)]
        sids = [app.sessions.create("alice").session_id for app in apps]
        assert sids[0] == sids[1], "session ids are deterministic per store seed"
        bodies = {_get(app, "/viewtopic?t=1", sid=sid).body for app, sid in zip(apps, sids)}
        assert len(bodies) == 1 and "Logged in as alice" in bodies.pop()
        assert len(calls) == 1

    def test_a_direct_storage_write_makes_the_next_get_miss(self, memo, count_calls):
        calls = count_calls(PhpBB, "index")
        planted = PhpBB(nonce_seed=SEED, response_cache=memo)
        untouched = PhpBB(nonce_seed=SEED, response_cache=memo)
        _get(planted)
        # An attack plant writes straight into the tables, past every route.
        planted.storage.insert("phpbb_topics", {"topic_title": "<b>planted</b>",
                                                "topic_poster": "mallory"})
        assert "planted" in _get(planted).body
        assert len(calls) == 2
        assert "planted" not in _get(untouched).body
        assert len(calls) == 2, "the unplanted app still shares the pre-plant entry"

    @pytest.mark.parametrize(
        "variant",
        [
            {"escudo_enabled": False},
            {"nonce_seed": "another-seed"},
            {"input_validation": False},
            {"csrf_protection": True},
            {"markup_randomization": False},
            {"storage": "sqlite"},
            {"ad_script": "var slot = null;"},
        ],
        ids=lambda variant: next(iter(variant)),
    )
    def test_apps_differing_in_one_input_never_share(self, memo, count_calls, variant):
        calls = count_calls(Blog, "index")
        base = {"nonce_seed": SEED, "response_cache": memo}
        _get(Blog(**base))
        _get(Blog(**{**base, **variant}))
        assert len(calls) == 2

    def test_a_database_opened_over_rows_never_shares(self, memo, count_calls, tmp_path):
        path = tmp_path / "forum.db"
        PhpBB(storage=f"sqlite:{path}").close()
        calls = count_calls(PhpBB, "index")
        reopened = [PhpBB(storage=f"sqlite:{path}", nonce_seed=SEED, response_cache=memo)
                    for _ in range(2)]
        fresh = PhpBB(storage="sqlite", nonce_seed=SEED, response_cache=memo)
        bodies = {_get(app).body for app in (*reopened, fresh)}
        assert len(bodies) == 1, "same rows, same page"
        assert len(calls) == 3, "rows the writes do not describe must not share"
        for app in (*reopened, fresh):
            app.close()

    def test_closing_an_app_leaves_the_memo_intact(self, memo, count_calls):
        calls = count_calls(PhpBB, "index")
        closed = PhpBB(nonce_seed=SEED, response_cache=memo)
        _get(closed)
        closed.close()
        assert closed.response_memo is None
        _get(PhpBB(nonce_seed=SEED, response_cache=memo))
        assert calls == ["index"]

    def test_an_empty_memo_counts_as_enabled(self, count_calls):
        calls = count_calls(PhpBB, "index")
        app = PhpBB(nonce_seed=SEED, response_cache=ResponseMemo())
        assert app.response_memo is not None
        _get(app)
        _get(app)
        assert calls == ["index"]

    def test_the_memo_is_bounded(self, memo, count_calls):
        calls = count_calls(PhpBB, "view_topic")
        app = PhpBB(nonce_seed=SEED, response_cache=memo)
        for topic in range(ResponseMemo.MAXSIZE + 1):
            _get(app, f"/viewtopic?t={topic}")
        assert len(memo.entries) == ResponseMemo.MAXSIZE
        _get(app, f"/viewtopic?t={ResponseMemo.MAXSIZE}")
        assert len(calls) == ResponseMemo.MAXSIZE + 1, "the newest entry stays"
        _get(app, "/viewtopic?t=0")
        assert len(calls) == ResponseMemo.MAXSIZE + 2, "the oldest entry was evicted"


class TestRunnerMemo:
    def test_every_app_the_runner_builds_shares_its_memo(self, count_calls):
        runner = ScenarioRunner()
        runner.warm_for(["phpbb"])
        calls = count_calls(PhpBB, "index")
        for spec in runner.specs:
            kwargs = runner._app_kwargs("phpbb", spec)
            assert kwargs["response_cache"] is runner.response_memo
            app = make_application("phpbb", escudo_enabled=spec.escudo_app, **kwargs)
            _get(app)
            app.close()
        # The warm-up rendered each column's index page in environments it
        # has since closed; the entries outlived them.
        assert calls == []

    def test_cold_runner_has_no_memo(self):
        runner = ScenarioRunner(compile_caches=False)
        assert runner.response_memo is None
        assert "response_cache" not in runner._app_kwargs("phpbb", runner.specs[0])


class SearchApp(WebApplication):
    """A search page reached through a method-less (so GET) form."""

    def register_routes(self) -> None:
        self.route("GET", "/", self.index)
        self.route("GET", "/search", self.search)

    def index(self, context: RequestContext) -> HttpResponse:
        return HttpResponse.html(
            '<html><body><form id="f" action="/search?stale=1"><input name="q"></form></body></html>'
        )

    def search(self, context: RequestContext) -> HttpResponse:
        params = context.request.params
        return HttpResponse.html(
            f"<html><body>results for {params.get('q')} ({sorted(params)})</body></html>"
        )


class TestGetForms:
    ORIGIN = "http://search.example.com"

    def test_each_get_submission_gets_its_own_results(self):
        network = Network()
        network.register(self.ORIGIN, SearchApp(self.ORIGIN, nonce_seed="x", response_cache=True))
        browser = Browser(network, model="escudo")
        loaded = browser.load(f"{self.ORIGIN}/")
        apples = browser.submit_form(loaded, "f", {"q": "apples"}, as_user=True)
        pears = browser.submit_form(loaded, "f", {"q": "pears"}, as_user=True)
        assert "results for apples" in apples.body
        assert "results for pears" in pears.body
        # The fields replace the action's query; no body is sent.
        assert "['q']" in pears.body
        sent = network.request_log[-1].request
        assert sent.url.path_and_query == "/search?q=pears"
        assert sent.form == {}

    def test_a_get_with_a_form_body_is_neither_served_nor_stored(self, count_calls):
        calls = count_calls(SearchApp, "search")
        app = SearchApp(self.ORIGIN, nonce_seed="x", response_cache=True)

        def search(form):
            request = HttpRequest(method="GET", url=f"{self.ORIGIN}/search", form=form)
            return app.handle_request(request).body

        assert "apples" in search({"q": "apples"})
        assert "pears" in search({"q": "pears"})
        assert "results for None" in search({})
        assert len(calls) == 3
