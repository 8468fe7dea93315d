"""Dict-vs-SQLite parity as a Hypothesis state machine.

Every step applies the same operation to a :class:`DictBackend` and a
:class:`SqliteBackend` -- inserts with explicit ids out of order, auto-id
inserts, ``insert_many`` batches mixing auto and explicit ids, updates that
move a row between index buckets, and deletes -- and the invariant compares what both backends
return from ``all``/``select``/``count``/``get`` afterwards.  Rows must come
back in primary-key order and be equal on both sides; an index bucket must
hold exactly the rows a full scan would filter to.  Both backends must also
report the same write digest after every step, rejected writes included.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, multiple, rule

from repro.webapps.storage import DictBackend, SqliteBackend, TableSpec

SPEC = TableSpec("items", ("item_id", "bucket", "label"), indexes=("bucket",))
BUCKETS = ("a", "b", "c", None)
bucket_values = st.sampled_from(BUCKETS)
labels = st.text(alphabet="xyz", max_size=3)


class BackendParity(RuleBasedStateMachine):
    ids = Bundle("ids")

    def __init__(self) -> None:
        super().__init__()
        self.backends = (DictBackend(), SqliteBackend())
        for backend in self.backends:
            backend.create_table(SPEC)
        self.live: set[int] = set()

    def _both(self, method: str, *args, **kwargs):
        on_dict, on_sql = (getattr(b, method)(*args, **kwargs) for b in self.backends)
        assert on_dict == on_sql, f"{method}{args}{kwargs}: dict {on_dict!r} != sqlite {on_sql!r}"
        return on_dict

    @rule(target=ids, item_id=st.integers(1, 60), bucket=bucket_values, label=labels)
    def insert_explicit(self, item_id, bucket, label):
        row = {"item_id": item_id, "bucket": bucket, "label": label}
        if item_id in self.live:
            for backend in self.backends:
                try:
                    backend.insert("items", row)
                except ValueError:
                    continue
                raise AssertionError(f"{backend.kind} accepted duplicate id {item_id}")
            return multiple()
        self._both("insert", "items", row)
        self.live.add(item_id)
        return item_id

    @rule(target=ids, bucket=bucket_values, label=labels)
    def insert_auto(self, bucket, label):
        item_id = self._both("insert", "items", {"bucket": bucket, "label": label})
        self.live.add(item_id)
        return item_id

    @rule(
        target=ids,
        batch=st.lists(st.tuples(st.none() | st.integers(1, 60), bucket_values, labels), max_size=4),
    )
    def insert_many(self, batch):
        """A batch mixing auto and explicit ids; a duplicate id fails on both."""
        before = {row["item_id"] for row in self.backends[0].all("items")}
        rows = [
            {"bucket": bucket, "label": label} | ({} if item_id is None else {"item_id": item_id})
            for item_id, bucket, label in batch
        ]
        outcomes = []
        for backend in self.backends:
            try:
                outcomes.append(backend.insert_many("items", rows))
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1], f"insert_many({rows}): dict {outcomes[0]!r} != sqlite {outcomes[1]!r}"
        added = sorted({row["item_id"] for row in self.backends[0].all("items")} - before)
        self.live.update(added)
        return multiple(*added)

    @rule(item_id=ids, bucket=bucket_values, label=labels)
    def update(self, item_id, bucket, label):
        moved = self._both("update", "items", item_id, bucket=bucket, label=label)
        assert moved == (item_id in self.live)

    @rule(item_id=ids)
    def delete(self, item_id):
        assert self._both("delete", "items", item_id) == (item_id in self.live)
        self.live.discard(item_id)

    @invariant()
    def backends_agree_in_primary_key_order(self):
        rows = self._both("all", "items")
        assert [row["item_id"] for row in rows] == sorted(self.live)
        assert self._both("count", "items") == len(rows)
        for bucket in BUCKETS:
            matches = self._both("select", "items", bucket=bucket)
            assert matches == [row for row in rows if row["bucket"] == bucket]
            assert self._both("count", "items", bucket=bucket) == len(matches)
        for row in rows:
            assert self._both("select", "items", item_id=row["item_id"]) == [row]

    @invariant()
    def backends_report_the_same_write_digest(self):
        self._both("write_digest")

    def teardown(self) -> None:
        for backend in self.backends:
            backend.close()


# The example budget comes from the active profile: Hypothesis's default in
# tier-1, 2,000 under ``HYPOTHESIS_PROFILE=ci`` (CI's storage job).
BackendParity.TestCase.settings = settings(stateful_step_count=25, deadline=None, derandomize=True)
TestBackendParity = BackendParity.TestCase


def test_explicit_ids_out_of_order_come_back_sorted():
    """The concrete case the state machine generalises: ids 10 then 5."""
    for backend in (DictBackend(), SqliteBackend()):
        backend.create_table(SPEC)
        backend.insert("items", {"item_id": 10, "bucket": "a", "label": ""})
        backend.insert("items", {"item_id": 5, "bucket": "a", "label": ""})
        assert [row["item_id"] for row in backend.all("items")] == [5, 10]
        assert [row["item_id"] for row in backend.select("items", bucket="a")] == [5, 10]
        backend.close()


def test_a_mixed_batch_stores_the_same_ids_on_both_backends():
    """An auto-id row, then an explicit one: SQLite once took the batch's
    id mode from its first row and stored ids [1, 2] where the dict backend
    stored [1, 10], under equal write digests."""
    rows = [{"label": "a"}, {"item_id": 10, "label": "b"}]
    stored, digests = [], []
    for backend in (DictBackend(), SqliteBackend()):
        backend.create_table(SPEC)
        backend.insert_many("items", rows)
        stored.append([(row["item_id"], row["label"]) for row in backend.all("items")])
        digests.append(backend.write_digest())
        backend.close()
    assert stored == [[(1, "a"), (10, "b")]] * 2
    assert digests[0] == digests[1]


def test_a_batch_failing_on_a_duplicate_keeps_the_same_rows_on_both_backends():
    rows = [{"label": "a"}, {"item_id": 1, "label": "b"}, {"label": "c"}]
    for backend in (DictBackend(), SqliteBackend()):
        backend.create_table(SPEC)
        try:
            backend.insert_many("items", rows)
        except ValueError as error:
            assert str(error) == "duplicate id 1 in table 'items'"
        else:
            raise AssertionError(f"{backend.kind} accepted duplicate id 1")
        assert [(row["item_id"], row["label"]) for row in backend.all("items")] == [(1, "a")]
        assert backend.insert("items", {"label": "d"}) == 2
        backend.close()
