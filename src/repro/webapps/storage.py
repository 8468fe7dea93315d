"""Storage backends behind the web framework.

* :class:`StorageBackend` -- the interface: named tables of integer-keyed
  rows, batched inserts for bulk seeding, equality lookups on the primary
  key or a **declared index**, and a **write digest** (what the
  framework's GET-response memo keys on).  Every successful write appends
  its change to the backend's history, so a mutator can never forget to
  invalidate -- the storage layer owns invalidation.
* :class:`DictBackend` -- in memory (the default); each declared index is
  a value -> row-ids bucket map kept in step by every write.
* :class:`SqliteBackend` -- SQLite, WAL mode when file-backed; each
  declared index is a ``CREATE INDEX``.

Table shapes, indexes included, are declared via :class:`TableSpec` and
modeled on phpBB's ``phpbb_posts`` with its ``KEY topic_id``
(``fleimgruber/gargbot_3000/schema/phpbb_posts.sql``) and the twisted
forum's ``posts``/``users`` (``Almad/twisted/twisted/forum/forum.sql``).
``select`` and a filtered ``count`` accept only the primary key or an
indexed column, so a full scan has to be spelled ``all()``.

Parity contract: both backends implement identical semantics -- auto-
increment ids that are never reused (phpBB's ``AUTO_INCREMENT``; the
SQLite side uses ``AUTOINCREMENT`` so ids survive deletes and reopens),
rows returned in primary-key order, the same ``KeyError`` for an unknown
or unindexed filter column, and equal write digests for equal writes -- so
an application's :meth:`~repro.webapps.framework.WebApplication.
state_digest` is byte-identical on either backend.  The differential suite
in ``tests/scenarios/test_storage_backends.py`` and the state-machine test
in ``tests/webapps/test_storage_parity.py`` lock this in.

The write digest names a state by the writes that built it, as build
systems key "constructive traces" (Mokhov et al., "Build Systems à la
Carte", ICFP 2018), so backends fed the same writes share memoised pages.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sqlite3
from dataclasses import dataclass

from repro.faults.plan import SITE_STORAGE as _SITE_STORAGE

class StorageUnavailable(RuntimeError):
    """Transient storage failure surfaced to the application tier.

    Raised by a write gate when the fault plane injects a ``busy``/``io``
    fault and retries are disarmed (or exhausted).  The framework catches
    it and degrades the request to a 503 instead of letting the traceback
    escape.
    """

    def __init__(self, kind: str, table: str) -> None:
        super().__init__(f"storage transiently unavailable ({kind}) writing table {table!r}")
        self.kind = kind
        self.table = table


@dataclass(frozen=True)
class TableSpec:
    """Declared shape of one logical table.

    ``columns`` lists every column, the integer primary key first;
    ``indexes`` names the value columns lookups may filter on (besides the
    primary key).
    """

    name: str
    columns: tuple[str, ...]
    indexes: tuple[str, ...] = ()

    @property
    def id_column(self) -> str:
        return self.columns[0]

    @property
    def value_columns(self) -> tuple[str, ...]:
        return self.columns[1:]

    def check_writable(self, fields) -> None:
        """Raise ``KeyError`` unless every name is an updatable value column."""
        for column in fields:
            if column == self.id_column:
                raise KeyError(f"primary key {column!r} of table {self.name!r} is read-only")
            if column not in self.value_columns:
                raise KeyError(f"unknown column {column!r} in table {self.name!r}")

    def lookup(self, equals: dict) -> tuple[str, object]:
        """The single ``column=value`` filter of a lookup, checked.

        The column must be the primary key or a declared index.
        """
        if len(equals) != 1:
            raise ValueError(f"a lookup on {self.name!r} takes one column=value filter; "
                             "use all() to scan")
        ((column, value),) = equals.items()
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r} in table {self.name!r}")
        if column != self.id_column and column not in self.indexes:
            raise KeyError(f"column {column!r} of table {self.name!r} is not indexed; "
                           f"lookups may filter on {(self.id_column,) + self.indexes}")
        return column, value


def _values(spec: TableSpec, row: dict) -> tuple:
    """The value columns of one inserted row, in declaration order."""
    return tuple([row.get(column) for column in spec.value_columns])


def _batch(spec: TableSpec, rows: list[dict]) -> tuple:
    """Every column of an ``insert_many`` batch, explicit ids included."""
    return tuple([tuple([row.get(column) for column in spec.columns]) for row in rows])


class StorageBackend:
    """Interface shared by the dict and SQLite backends.

    Rows are plain ``dict``s of column name to ``str``/``int``/``float``/
    ``None`` values (callers JSON-encode anything richer, as the session
    store does for its data blob).  Reads return copies -- mutating a
    returned row never changes stored state.  Every successful write
    queues ``(op, table, row id, values)`` in ``_writes`` (:meth:`_record`).
    """

    #: Short name used in CLI flags, benchmarks and reports.
    kind = "abstract"

    def __init__(self) -> None:
        self._specs: dict[str, TableSpec] = {}
        #: Armed by the scenario runner; ``None`` disables the write gate.
        self.fault_plan = None
        #: Changes not yet folded into the digest.
        self._writes: list[tuple] = []
        self._hasher = hashlib.blake2b(digest_size=16)

    def write_digest(self) -> bytes:
        """16-byte BLAKE2b of every write since the history started; pending changes
        fold only here, each marshalled (format 0 encodes values, not identity)."""
        if self._writes:
            self._hasher.update(b"".join([marshal.dumps(change, 0) for change in self._writes]))
            self._writes.clear()
        return self._hasher.digest()

    def _record(self, *change) -> None:
        """Queue one change; 256 pending fold at once, so a backend whose
        digest nobody reads keeps a bounded queue."""
        self._writes.append(change)
        if len(self._writes) >= 256:
            self.write_digest()

    def forget_history(self) -> None:
        """Restart the write digest from a unique value: no recorded writes
        describe a database opened over rows or an instance handed in."""
        self._writes.clear()
        self._hasher = hashlib.blake2b(os.urandom(16), digest_size=16)

    def _write_gate(self, table: str) -> None:
        """Fault-plane checkpoint at the top of every mutator.

        Fires *before* any backend-specific work, so a gated write leaves
        both backends in byte-identical states (the dict-parity contract
        survives fault schedules).  With retries armed, the gate re-probes
        the schedule up to ``burst_cap`` more times -- the burst cap
        guarantees one of those probes is clean, so the write always lands
        deterministically.  With retries off it raises
        :class:`StorageUnavailable`.
        """
        plan = self.fault_plan
        if plan is None:
            return
        kind = plan.decide(_SITE_STORAGE)
        if kind is None:
            return
        if plan.retries:
            for _attempt in range(plan.burst_cap):
                plan.stats.note_retry(_SITE_STORAGE)
                if plan.decide(_SITE_STORAGE) is None:
                    plan.stats.note_recovery()
                    return
        raise StorageUnavailable(kind, table)

    # -- schema -----------------------------------------------------------------

    def create_table(self, spec: TableSpec) -> None:
        """Register ``spec`` and create its table (and indexes) if missing."""
        existing = self._specs.get(spec.name)
        if existing is not None:
            if existing != spec:
                raise ValueError(f"table {spec.name!r} already declared with a different shape")
            return
        self._specs[spec.name] = spec
        self._ensure_table(spec)
        self._record("create_table", spec.name, None, (spec.columns, spec.indexes))

    def spec(self, table: str) -> TableSpec:
        spec = self._specs.get(table)
        if spec is None:
            raise KeyError(f"unknown table {table!r}; declared: {sorted(self._specs)}")
        return spec

    # -- required primitives ------------------------------------------------------

    def _ensure_table(self, spec: TableSpec) -> None:
        raise NotImplementedError

    def insert(self, table: str, row: dict) -> int:
        """Insert one row, returning its assigned id.

        An explicit id may be supplied in ``row``; omitted ids are assigned
        by a monotonic, never-reused auto-increment counter.
        """
        raise NotImplementedError

    def insert_many(self, table: str, rows) -> int:
        """Batched insert for bulk seeding, recorded as one change.

        The change is recorded before any row is stored, so a batch that
        fails part-way (a duplicate id) still moves the digest, and folded
        at once, so its rows never wait in the queue.
        """
        raise NotImplementedError

    def get(self, table: str, row_id: int) -> dict | None:
        raise NotImplementedError

    def all(self, table: str) -> list[dict]:
        """Every row, in primary-key order (the one full-scan primitive)."""
        raise NotImplementedError

    def select(self, table: str, **equals) -> list[dict]:
        """Rows whose one ``column=value`` filter matches, primary-key order.

        The column must be the primary key or a declared index
        (:meth:`TableSpec.lookup`).
        """
        raise NotImplementedError

    def update(self, table: str, row_id: int, **fields) -> bool:
        """Update columns of one row; True (and a recorded change) if it existed."""
        raise NotImplementedError

    def delete(self, table: str, row_id: int) -> bool:
        """Delete one row; True (and a recorded change) if it existed."""
        raise NotImplementedError

    def count(self, table: str, **equals) -> int:
        """Number of rows, or of rows matching one indexed ``column=value``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (no-op for the dict backend)."""


class DictBackend(StorageBackend):
    """The in-memory backend: tables are dicts of row dicts.

    Reads sort ids, so rows come back in primary-key order even after
    explicit out-of-order ids (a linear pass when already in order).
    """

    kind = "dict"

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[str, dict[int, dict]] = {}
        #: table -> indexed column -> value -> ids of the rows holding it.
        self._indexes: dict[str, dict[str, dict[object, set[int]]]] = {}
        #: Monotonic next-id per table -- never reused, even after deletes,
        #: matching SQLite ``AUTOINCREMENT``.
        self._next_id: dict[str, int] = {}

    def _ensure_table(self, spec: TableSpec) -> None:
        self._tables[spec.name] = {}
        self._indexes[spec.name] = {column: {} for column in spec.indexes}
        self._next_id[spec.name] = 1

    def _store_row(self, spec: TableSpec, row: dict) -> int:
        row_id = row.get(spec.id_column)
        if row_id is None:
            row_id = self._next_id[spec.name]
        row_id = int(row_id)
        table = self._tables[spec.name]
        if row_id in table:
            # SQLite rejects a duplicate primary key; so does this backend.
            raise ValueError(f"duplicate id {row_id} in table {spec.name!r}")
        self._next_id[spec.name] = max(self._next_id[spec.name], row_id + 1)
        stored = {spec.id_column: row_id}
        for column in spec.value_columns:
            stored[column] = row.get(column)
        table[row_id] = stored
        for column, buckets in self._indexes[spec.name].items():
            buckets.setdefault(stored[column], set()).add(row_id)
        return row_id

    def _unindex(self, table: str, row_id: int, row: dict, columns) -> None:
        buckets = self._indexes[table]
        for column in columns:
            bucket = buckets[column][row[column]]
            bucket.discard(row_id)
            if not bucket:
                del buckets[column][row[column]]

    def _matching_ids(self, spec: TableSpec, equals: dict):
        """Ids of the rows matching the lookup, in no particular order."""
        column, value = spec.lookup(equals)
        if column == spec.id_column:
            return [value] if value in self._tables[spec.name] else []
        return self._indexes[spec.name][column].get(value, ())

    def insert(self, table: str, row: dict) -> int:
        self._write_gate(table)
        spec = self.spec(table)
        row_id = self._store_row(spec, row)
        self._record("insert", table, row_id, _values(spec, row))
        return row_id

    def insert_many(self, table: str, rows) -> int:
        self._write_gate(table)
        spec = self.spec(table)
        rows = list(rows)
        if rows:
            self._record("insert_many", table, None, _batch(spec, rows))
            self.write_digest()
        for row in rows:
            self._store_row(spec, row)
        return len(rows)

    def get(self, table: str, row_id: int) -> dict | None:
        row = self._tables[self.spec(table).name].get(row_id)
        return dict(row) if row is not None else None

    def all(self, table: str) -> list[dict]:
        rows = self._tables[self.spec(table).name]
        return [dict(rows[row_id]) for row_id in sorted(rows)]

    def select(self, table: str, **equals) -> list[dict]:
        spec = self.spec(table)
        rows = self._tables[spec.name]
        return [dict(rows[row_id]) for row_id in sorted(self._matching_ids(spec, equals))]

    def update(self, table: str, row_id: int, **fields) -> bool:
        self._write_gate(table)
        spec = self.spec(table)
        spec.check_writable(fields)
        row = self._tables[spec.name].get(row_id)
        if row is None:
            return False
        moved = [column for column in spec.indexes if column in fields]
        self._unindex(spec.name, row_id, row, moved)
        row.update(fields)
        for column in moved:
            self._indexes[spec.name][column].setdefault(row[column], set()).add(row_id)
        self._record("update", table, row_id, tuple(fields.items()))
        return True

    def delete(self, table: str, row_id: int) -> bool:
        self._write_gate(table)
        spec = self.spec(table)
        row = self._tables[spec.name].pop(row_id, None)
        if row is None:
            return False
        self._unindex(spec.name, row_id, row, spec.indexes)
        self._record("delete", table, row_id, None)
        return True

    def count(self, table: str, **equals) -> int:
        spec = self.spec(table)
        if not equals:
            return len(self._tables[spec.name])
        return len(self._matching_ids(spec, equals))


class SqliteBackend(StorageBackend):
    """SQLite-backed storage (WAL journal mode when file-backed).

    One connection per backend instance, owned exclusively by its
    application.  The write digest lives in memory, so the hot-path reads
    (GET memo keys) never touch the database.  A file database that
    already holds tables starts its digest from a unique value.
    """

    kind = "sqlite"

    def __init__(self, path: str | None = None) -> None:
        super().__init__()
        self.path = path or ":memory:"
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        if path:
            # WAL only applies to file databases (the pragma is a no-op on
            # :memory:); NORMAL sync is the standard WAL pairing.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            if self._conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchone():
                self.forget_history()

    def _ensure_table(self, spec: TableSpec) -> None:
        columns = ", ".join(
            [f"{spec.id_column} INTEGER PRIMARY KEY AUTOINCREMENT"]
            + [f'"{column}"' for column in spec.value_columns]
        )
        self._conn.execute(f"CREATE TABLE IF NOT EXISTS {spec.name} ({columns})")
        for column in spec.indexes:
            self._conn.execute(
                f'CREATE INDEX IF NOT EXISTS {spec.name}_{column} ON {spec.name} ("{column}")'
            )
        self._conn.commit()

    def _insert_sql(self, spec: TableSpec, with_id: bool) -> str:
        columns = spec.columns if with_id else spec.value_columns
        placeholders = ", ".join("?" for _ in columns)
        quoted = ", ".join(f'"{column}"' for column in columns)
        return f"INSERT INTO {spec.name} ({quoted}) VALUES ({placeholders})"

    @staticmethod
    def _where(spec: TableSpec, equals: dict) -> tuple[str, tuple]:
        # ``IS`` rather than ``=`` so a ``None`` filter matches NULL, as the
        # dict backend's equality does; SQLite probes an index for both.
        column, value = spec.lookup(equals)
        return f' WHERE "{column}" IS ?', (value,)

    def insert(self, table: str, row: dict) -> int:
        self._write_gate(table)
        spec = self.spec(table)
        values = _values(spec, row)
        explicit = row.get(spec.id_column)
        params = values if explicit is None else (explicit, *values)
        try:
            cursor = self._conn.execute(self._insert_sql(spec, explicit is not None), params)
        except sqlite3.IntegrityError as error:
            self._conn.rollback()
            raise ValueError(f"duplicate id {explicit} in table {table!r}") from error
        self._conn.commit()
        row_id = int(cursor.lastrowid)
        self._record("insert", table, row_id, values)
        return row_id

    def insert_many(self, table: str, rows) -> int:
        self._write_gate(table)
        spec = self.spec(table)
        rows = list(rows)
        if not rows:
            return 0
        batch = _batch(spec, rows)
        self._record("insert_many", table, None, batch)
        self.write_digest()
        # Every row names its id column: an explicit id, or NULL, for which
        # AUTOINCREMENT assigns the next id -- so a batch mixing the two
        # stores the ids the dict backend gives it, row by row.
        stored_before = self._conn.total_changes
        try:
            self._conn.executemany(self._insert_sql(spec, True), batch)
        except sqlite3.IntegrityError as error:
            # Keep the rows before the duplicate, as the dict backend does.
            self._conn.commit()
            duplicate = batch[self._conn.total_changes - stored_before][0]
            raise ValueError(f"duplicate id {duplicate} in table {spec.name!r}") from error
        self._conn.commit()
        return len(rows)

    def get(self, table: str, row_id: int) -> dict | None:
        spec = self.spec(table)
        row = self._conn.execute(
            f"SELECT * FROM {spec.name} WHERE {spec.id_column} = ?", (row_id,)
        ).fetchone()
        return dict(row) if row is not None else None

    def all(self, table: str) -> list[dict]:
        spec = self.spec(table)
        rows = self._conn.execute(
            f"SELECT * FROM {spec.name} ORDER BY {spec.id_column}"
        )
        return [dict(row) for row in rows]

    def select(self, table: str, **equals) -> list[dict]:
        spec = self.spec(table)
        where, params = self._where(spec, equals)
        rows = self._conn.execute(
            f"SELECT * FROM {spec.name}{where} ORDER BY {spec.id_column}", params
        )
        return [dict(row) for row in rows]

    def update(self, table: str, row_id: int, **fields) -> bool:
        self._write_gate(table)
        spec = self.spec(table)
        spec.check_writable(fields)
        assignments = ", ".join(f'"{column}" = ?' for column in fields)
        cursor = self._conn.execute(
            f"UPDATE {spec.name} SET {assignments} WHERE {spec.id_column} = ?",
            (*fields.values(), row_id),
        )
        self._conn.commit()
        if cursor.rowcount <= 0:
            return False
        self._record("update", table, row_id, tuple(fields.items()))
        return True

    def delete(self, table: str, row_id: int) -> bool:
        self._write_gate(table)
        spec = self.spec(table)
        cursor = self._conn.execute(
            f"DELETE FROM {spec.name} WHERE {spec.id_column} = ?", (row_id,)
        )
        self._conn.commit()
        if cursor.rowcount <= 0:
            return False
        self._record("delete", table, row_id, None)
        return True

    def count(self, table: str, **equals) -> int:
        spec = self.spec(table)
        where, params = self._where(spec, equals) if equals else ("", ())
        return self._conn.execute(f"SELECT COUNT(*) FROM {spec.name}{where}", params).fetchone()[0]

    def close(self) -> None:
        self._conn.close()


#: Backend kinds accepted by :func:`make_backend` (and the CLI's --backend).
BACKEND_KINDS = ("dict", "sqlite")


def make_backend(storage: "StorageBackend | str | None") -> StorageBackend:
    """Resolve a backend selector into an instance.

    ``None``/``"dict"`` build the in-memory default; ``"sqlite"`` an
    in-memory SQLite database; ``"sqlite:PATH"`` a file-backed (WAL)
    database at ``PATH``.  An existing instance passes through, so an
    application can be attached to a pre-seeded database; its write digest
    restarts from a unique value, since the caller may have written to it
    directly.
    """
    if isinstance(storage, StorageBackend):
        storage.forget_history()
        return storage
    if storage is None or storage == "dict":
        return DictBackend()
    if storage == "sqlite":
        return SqliteBackend()
    if isinstance(storage, str) and storage.startswith("sqlite:"):
        return SqliteBackend(storage.partition(":")[2] or None)
    raise ValueError(
        f"unknown storage backend {storage!r}; expected one of {BACKEND_KINDS} "
        "(or 'sqlite:PATH' for a file-backed database)"
    )
