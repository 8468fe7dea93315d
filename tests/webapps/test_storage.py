"""The storage backends: CRUD parity, write digests, SQLite durability.

The dict and SQLite backends must be observationally identical -- same ids,
same row ordering, same write digests for the same writes -- because the scenario
oracle's digests are computed over views of these tables and must be
byte-identical under ``--backend sqlite``.  Every behavioural test here is
therefore parametrised over both implementations.
"""

from __future__ import annotations

import pytest

from repro.webapps.blog import Blog
from repro.webapps.phpbb import PhpBB
from repro.webapps.phpcalendar import PhpCalendar
from repro.webapps.storage import (
    BACKEND_KINDS,
    DictBackend,
    SqliteBackend,
    StorageBackend,
    TableSpec,
    make_backend,
)

SPEC = TableSpec("posts", ("post_id", "subject", "body"), indexes=("subject",))
OTHER = TableSpec("visits", ("visit_id", "who"))


@pytest.fixture(params=BACKEND_KINDS)
def backend(request) -> StorageBackend:
    built = make_backend(request.param)
    built.create_table(SPEC)
    yield built
    built.close()


class TestCrud:
    def test_insert_assigns_sequential_ids(self, backend):
        assert backend.insert("posts", {"subject": "a", "body": "1"}) == 1
        assert backend.insert("posts", {"subject": "b", "body": "2"}) == 2
        assert backend.count("posts") == 2

    def test_get_round_trips_the_row(self, backend):
        row_id = backend.insert("posts", {"subject": "s", "body": "b"})
        assert backend.get("posts", row_id) == {"post_id": row_id, "subject": "s", "body": "b"}
        assert backend.get("posts", 999) is None

    def test_all_returns_primary_key_order(self, backend):
        for n in range(3):
            backend.insert("posts", {"subject": f"s{n}", "body": ""})
        assert [row["post_id"] for row in backend.all("posts")] == [1, 2, 3]

    def test_select_filters_on_equality(self, backend):
        backend.insert("posts", {"subject": "dup", "body": "x"})
        backend.insert("posts", {"subject": "uniq", "body": "y"})
        backend.insert("posts", {"subject": "dup", "body": "z"})
        matches = backend.select("posts", subject="dup")
        assert [row["post_id"] for row in matches] == [1, 3]
        assert backend.select("posts", subject="missing") == []

    def test_update_and_delete_report_existence(self, backend):
        row_id = backend.insert("posts", {"subject": "s", "body": "old"})
        assert backend.update("posts", row_id, body="new") is True
        assert backend.get("posts", row_id)["body"] == "new"
        assert backend.update("posts", 999, body="x") is False
        assert backend.delete("posts", row_id) is True
        assert backend.delete("posts", row_id) is False
        assert backend.count("posts") == 0

    def test_ids_are_never_reused_after_delete(self, backend):
        first = backend.insert("posts", {"subject": "a", "body": ""})
        backend.delete("posts", first)
        second = backend.insert("posts", {"subject": "b", "body": ""})
        assert second == first + 1, "a deleted id must never be reassigned"

    def test_reads_return_copies(self, backend):
        row_id = backend.insert("posts", {"subject": "s", "body": "b"})
        backend.get("posts", row_id)["body"] = "mutated"
        backend.all("posts")[0]["body"] = "mutated"
        assert backend.get("posts", row_id)["body"] == "b"

    def test_explicit_ids_are_honoured_and_advance_the_counter(self, backend):
        assert backend.insert("posts", {"post_id": 10, "subject": "s", "body": ""}) == 10
        assert backend.insert("posts", {"subject": "next", "body": ""}) == 11


class TestSchema:
    def test_redeclaring_the_same_shape_is_idempotent(self, backend):
        backend.create_table(SPEC)
        assert backend.spec("posts") is SPEC or backend.spec("posts") == SPEC

    def test_conflicting_shape_is_rejected(self, backend):
        with pytest.raises(ValueError, match="different shape"):
            backend.create_table(TableSpec("posts", ("post_id", "other")))

    def test_unknown_table_raises(self, backend):
        with pytest.raises(KeyError, match="unknown table"):
            backend.all("nope")

    def test_unknown_column_raises_on_update_and_select(self, backend):
        row_id = backend.insert("posts", {"subject": "s", "body": ""})
        with pytest.raises(KeyError, match="unknown column"):
            backend.update("posts", row_id, bogus="x")
        with pytest.raises(KeyError, match="unknown column"):
            backend.select("posts", bogus="x")
        with pytest.raises(KeyError, match="unknown column"):
            backend.count("posts", bogus="x")

    def test_lookups_accept_only_the_key_and_declared_indexes(self, backend):
        row_id = backend.insert("posts", {"subject": "s", "body": "b"})
        with pytest.raises(KeyError, match="not indexed"):
            backend.select("posts", body="b")
        with pytest.raises(KeyError, match="not indexed"):
            backend.count("posts", body="b")
        with pytest.raises(ValueError, match="use all"):
            backend.select("posts")
        with pytest.raises(ValueError, match="one column=value filter"):
            backend.select("posts", post_id=row_id, subject="s")
        assert backend.select("posts", post_id=row_id) == [backend.get("posts", row_id)]
        assert backend.select("posts", post_id=999) == []
        assert backend.count("posts", subject="s") == 1

    def test_primary_key_is_not_updatable(self, backend):
        row_id = backend.insert("posts", {"subject": "s", "body": ""})
        with pytest.raises(KeyError, match="read-only"):
            backend.update("posts", row_id, post_id=99)

    def test_duplicate_explicit_id_is_rejected(self, backend):
        backend.insert("posts", {"post_id": 3, "subject": "s", "body": ""})
        with pytest.raises(ValueError, match="duplicate id 3"):
            backend.insert("posts", {"post_id": 3, "subject": "t", "body": ""})
        assert backend.select("posts", subject="s") == [backend.get("posts", 3)]


class TestWriteDigest:
    def test_every_write_changes_the_digest(self, backend):
        seen = [backend.write_digest()]
        row_id = backend.insert("posts", {"subject": "s", "body": ""})
        seen.append(backend.write_digest())
        backend.update("posts", row_id, body="b")
        seen.append(backend.write_digest())
        backend.delete("posts", row_id)
        seen.append(backend.write_digest())
        assert len(set(seen)) == 4
        assert all(len(digest) == 16 for digest in seen)

    def test_missed_writes_leave_the_digest(self, backend):
        before = backend.write_digest()
        backend.update("posts", 999, body="x")
        backend.delete("posts", 999)
        assert backend.insert_many("posts", []) == 0
        assert backend.write_digest() == before

    def test_insert_many_is_one_change(self, backend):
        before = backend.write_digest()
        n = backend.insert_many(
            "posts", [{"subject": f"s{i}", "body": ""} for i in range(50)]
        )
        assert n == 50
        assert backend.count("posts") == 50
        assert backend._writes == [], "a batch is folded when written"
        assert backend.write_digest() != before

    def test_an_unread_digest_keeps_a_bounded_queue(self, backend):
        reader = make_backend(backend.kind)
        reader.create_table(SPEC)
        for n in range(300):
            for target in (backend, reader):
                target.insert("posts", {"subject": f"s{n}", "body": ""})
            reader.write_digest()
            assert len(backend._writes) < 256
        assert backend.write_digest() == reader.write_digest()
        reader.close()

    def test_equal_writes_give_equal_digests_on_both_backends(self):
        def drive(backend, *, read_between: bool):
            for spec in (SPEC, OTHER):
                backend.create_table(spec)
            row_id = backend.insert("posts", {"subject": "s", "body": "b"})
            if read_between:
                backend.write_digest()
            backend.insert("visits", {"who": "alice"})
            backend.update("posts", row_id, body="edited")
            if read_between:
                backend.write_digest()
            backend.insert_many("posts", [{"subject": "t", "body": ""}])
            backend.delete("visits", 1)
            digest = backend.write_digest()
            backend.close()
            return digest

        digests = {
            drive(make_backend(kind), read_between=read_between)
            for kind in BACKEND_KINDS
            for read_between in (False, True)
        }
        assert len(digests) == 1, "the digest depends only on the writes"

    def test_fresh_backends_start_from_one_fixed_value(self):
        on_dict, on_sql = DictBackend(), SqliteBackend()
        assert on_dict.write_digest() == on_sql.write_digest()
        on_sql.close()

    def test_a_passed_in_instance_starts_from_a_unique_value(self):
        fresh = DictBackend().write_digest()
        first, second = make_backend(DictBackend()), make_backend(DictBackend())
        assert len({fresh, first.write_digest(), second.write_digest()}) == 3


class TestSqliteDurability:
    def test_file_backed_database_uses_wal(self, tmp_path):
        db = SqliteBackend(str(tmp_path / "app.db"))
        mode = db._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        db.close()

    def test_rows_and_id_counter_survive_reopen(self, tmp_path):
        path = str(tmp_path / "app.db")
        db = SqliteBackend(path)
        assert db.write_digest() == DictBackend().write_digest(), "a new file starts empty"
        db.create_table(SPEC)
        db.insert("posts", {"subject": "kept", "body": "b"})
        doomed = db.insert("posts", {"subject": "doomed", "body": ""})
        db.delete("posts", doomed)
        digest = db.write_digest()
        db.close()

        reopened = SqliteBackend(path)
        reopened.create_table(SPEC)
        assert [row["subject"] for row in reopened.all("posts")] == ["kept"]
        # The reopened rows are not described by this backend's writes, so
        # its digest starts from a value no other backend reports.
        assert reopened.write_digest() not in (digest, DictBackend().write_digest())
        assert reopened.insert("posts", {"subject": "new", "body": ""}) == doomed + 1
        reopened.close()
        again = SqliteBackend(path)
        assert again.write_digest() != reopened.write_digest()
        again.close()

    def test_application_reopen_does_not_reseed(self, tmp_path):
        path = str(tmp_path / "forum.db")
        forum = PhpBB(storage=f"sqlite:{path}")
        seeded = len(forum.state.topics)
        forum.create_topic("alice", "extra", "body")
        forum.storage.close()

        reopened = PhpBB(storage=f"sqlite:{path}")
        assert len(reopened.state.topics) == seeded + 1
        titles = [topic.title for topic in reopened.state.topics]
        assert titles.count(reopened.state.topics[0].title) == 1
        reopened.storage.close()


class TestMakeBackend:
    def test_default_and_dict(self):
        assert make_backend(None).kind == "dict"
        assert make_backend("dict").kind == "dict"

    def test_sqlite_memory_and_file(self, tmp_path):
        assert make_backend("sqlite").path == ":memory:"
        path = str(tmp_path / "x.db")
        assert make_backend(f"sqlite:{path}").path == path

    def test_instance_passes_through(self):
        instance = DictBackend()
        assert make_backend(instance) is instance

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            make_backend("redis")


class TestDigestParity:
    """Direct domain operations must digest identically on both backends."""

    @staticmethod
    def _drive(app):
        if isinstance(app, PhpBB):
            topic = app.create_topic("alice", "parity", "first post")
            app.add_reply(topic.topic_id, "bob", "a reply")
            app.edit_post(topic.posts[0].post_id, "edited body")
            app.send_private_message("alice", "bob", "subj", "body")
            app.sessions.create("alice")
        elif isinstance(app, PhpCalendar):
            event = app.create_event("alice", "2010-04-20", "parity", "desc")
            app.storage.update("phpc_events", event.event_id, event_description="edited")
            app.storage.delete("phpc_events", 1)
        else:
            post = app.publish("parity", "body")
            app.add_comment(post.post_id, "eve", "hi")

    @pytest.mark.parametrize("app_cls", [PhpBB, PhpCalendar, Blog])
    def test_state_digest_matches_across_backends(self, app_cls):
        on_dict = app_cls(storage="dict")
        on_sql = app_cls(storage="sqlite")
        assert on_dict.state_digest() == on_sql.state_digest()
        self._drive(on_dict)
        self._drive(on_sql)
        assert on_dict.snapshot_state() == on_sql.snapshot_state()
        assert on_dict.state_digest() == on_sql.state_digest()
        on_sql.storage.close()
