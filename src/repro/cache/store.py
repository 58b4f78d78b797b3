"""The persistent proof cache: an in-memory LRU tier over sqlite.

``ProofCache`` maps a :class:`~repro.cache.fingerprint.ProofKey` to the
payload of a settled proof attempt.  Only *settled* verdicts are ever
stored — ``PROVED`` and ``REFUTED`` are properties of the obligation
itself, while ``TIMEOUT`` and ``GAVE_UP`` are properties of one run's
budget and must be re-attempted, never replayed.

Tiers:

* a bounded in-memory LRU (dict order) for repeated obligations within
  one process — shared sub-obligations across qualifier files hit here;
* a sqlite database under the cache directory (default
  ``.repro-cache/``) shared across runs and across ``--jobs`` worker
  processes; sqlite's own locking makes concurrent writers safe, and a
  post-fork connection is reopened per process.

Every disk failure is absorbed — a cache must never be the reason a
check fails — with *rebuild-or-bypass* triage:

* **corruption** (``sqlite3.DatabaseError`` other than
  ``OperationalError``: garbled header, malformed disk image) deletes
  the damaged file and rebuilds it empty, once per instance — the run
  goes cold but the disk tier stays live for the next run;
* **everything else** (``database is locked``, permission errors, I/O
  errors, a second corruption after a rebuild) bypasses the disk tier
  for the rest of the run and falls back to the in-memory LRU.

Either way the ``degraded`` counter (and ``cache.degraded`` in
``repro.obs``) records that the disk tier did not survive intact.

Counters (``hits``/``misses``/``stores``/``evictions``/``stale``/
``errors``/``degraded``) accumulate per instance; per-run deltas are
folded into a ``counters`` table so ``python -m repro cache stats``
can report lifetime totals across processes.
"""

from __future__ import annotations

import json
import os
import sqlite3
from collections import OrderedDict
from typing import Dict, Iterable, Optional

from repro import faults as _faults
from repro import obs
from repro.cache import DEFAULT_CACHE_DIR
from repro.cache.fingerprint import PROVER_SALT, ProofKey, proof_key

#: Verdicts that are facts about the obligation (cacheable), as opposed
#: to facts about one attempt's budget (never cached).
CACHEABLE_VERDICTS = frozenset({"PROVED", "REFUTED"})

#: On-disk layout version; bump on incompatible schema changes (old
#: databases are then rebuilt from scratch rather than misread).
CACHE_FORMAT = 1

COUNTER_NAMES = (
    "hits", "misses", "stores", "evictions", "stale", "errors", "degraded",
)


def _empty_counters() -> Dict[str, int]:
    return {name: 0 for name in COUNTER_NAMES}


class ProofCache:
    """A content-addressed store of settled proof results."""

    def __init__(
        self,
        cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
        max_memory_entries: int = 2048,
        salt: str = PROVER_SALT,
    ):
        self.cache_dir = cache_dir
        self.salt = salt
        self.max_memory_entries = max(1, max_memory_entries)
        self.counters: Dict[str, int] = _empty_counters()
        self._memory: "OrderedDict[ProofKey, dict]" = OrderedDict()
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._disk_failed = cache_dir is None
        self._rebuilt = False  # one corruption rebuild per instance

    # ------------------------------------------------------------------ keys

    def key(self, goal, axioms, extra_axioms=(), context: str = "") -> ProofKey:
        """Fingerprint one proof attempt under this cache's salt."""
        return proof_key(
            goal, axioms, extra_axioms=extra_axioms, context=context,
            salt=self.salt,
        )

    # ------------------------------------------------------------ disk tier

    @property
    def path(self) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, "proofs.sqlite")

    def _connection(self) -> Optional[sqlite3.Connection]:
        """The per-process sqlite connection, or ``None`` when the disk
        tier is disabled.  A connection inherited across ``fork`` is
        never reused — sharing one sqlite handle between processes
        corrupts the database, so each child reopens its own."""
        if self._disk_failed:
            return None
        if self._conn is not None and self._conn_pid == os.getpid():
            return self._conn
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            if os.path.exists(self.path) and _faults.fire_once(
                "corrupt_cache", self.path
            ):
                _faults.corrupt_file(self.path)
            conn = sqlite3.connect(self.path, timeout=5.0)
            conn.execute(
                "CREATE TABLE IF NOT EXISTS proofs ("
                " obl_key TEXT NOT NULL,"
                " env_key TEXT NOT NULL,"
                " verdict TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " created REAL NOT NULL,"
                " PRIMARY KEY (obl_key, env_key))"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS counters ("
                " name TEXT PRIMARY KEY, value INTEGER NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            stored = conn.execute(
                "SELECT value FROM meta WHERE key = 'format'"
            ).fetchone()
            if stored is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('format', ?)",
                    (str(CACHE_FORMAT),),
                )
            elif stored[0] != str(CACHE_FORMAT):
                # Incompatible layout from a future/past version: start
                # over rather than misinterpret rows.
                conn.execute("DELETE FROM proofs")
                conn.execute("DELETE FROM counters")
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'format'",
                    (str(CACHE_FORMAT),),
                )
            conn.commit()
        except (sqlite3.Error, OSError, ValueError) as exc:
            self._disk_failure(exc)
            if self._disk_failed:
                return None
            # The damaged file was rebuilt: connect to the fresh one.
            # Bounded: a second failure trips the bypass path above.
            return self._connection()
        self._conn = conn
        self._conn_pid = os.getpid()
        return conn

    @property
    def disk_available(self) -> bool:
        """Whether the on-disk tier is still live (it is disabled, not
        fatal, after a corruption or I/O failure)."""
        return not self._disk_failed

    def _disk_failure(self, exc: Optional[Exception] = None) -> None:
        """Degrade the disk tier after a failure: *rebuild* (delete and
        recreate, once per instance) when the database file itself is
        corrupt, *bypass* (disable the tier, keep the memory LRU) for
        everything else — locks, permissions, I/O errors, or corruption
        striking again after a rebuild."""
        self.counters["errors"] += 1
        self.counters["degraded"] += 1
        obs.incr("cache.degraded")
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
            self._conn_pid = None
        # "database is locked"/"unable to open" are OperationalError —
        # the file may be fine, another process just holds it; deleting
        # it would destroy a healthy cache.  Only non-operational
        # DatabaseError (not a database, malformed image) is corruption.
        corrupted = isinstance(exc, sqlite3.DatabaseError) and not isinstance(
            exc, sqlite3.OperationalError
        )
        if corrupted and not self._rebuilt and self.path is not None:
            self._rebuilt = True
            try:
                os.remove(self.path)
                return  # disk tier stays live; next connect rebuilds
            except OSError:
                pass
        self._disk_failed = True

    # Backwards-compatible alias (kept for external callers/tests).
    def _disk_abandon(self) -> None:
        self._disk_failed = True
        self.counters["errors"] += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    # ------------------------------------------------------------- get / put

    def get(self, key: ProofKey) -> Optional[dict]:
        """The cached payload for ``key``, or ``None`` on a miss.

        A hit in the disk tier is promoted to the memory tier.  A miss
        additionally sweeps entries for the *same obligation* proved
        under a *different environment* (edited qualifier definition,
        changed axioms, bumped prover salt): those are counted stale
        and purged — they can never be valid again.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.counters["hits"] += 1
            obs.incr("cache.hits")
            return dict(entry)
        conn = self._connection()
        if conn is not None:
            try:
                row = conn.execute(
                    "SELECT payload FROM proofs"
                    " WHERE obl_key = ? AND env_key = ?",
                    (key.obligation, key.environment),
                ).fetchone()
            except (sqlite3.Error, OSError) as exc:
                self._disk_failure(exc)
                row = None
            if row is not None:
                try:
                    entry = json.loads(row[0])
                except ValueError:
                    # A damaged payload is a miss, not a crash.
                    self.counters["errors"] += 1
                    entry = None
                if isinstance(entry, dict):
                    self._remember(key, entry)
                    self.counters["hits"] += 1
                    obs.incr("cache.hits")
                    return dict(entry)
        self._sweep_stale(key)
        self.counters["misses"] += 1
        obs.incr("cache.misses")
        return None

    def put(self, key: ProofKey, payload: dict) -> bool:
        """Store one settled result; returns ``False`` (and stores
        nothing) for non-cacheable verdicts.

        The ``stores`` counter counts entries that actually reached the
        persistent tier — a failed disk write (the tier is then
        abandoned) bumps ``errors``, not ``stores``, so cache stats
        never over-report what a later run can replay.  A deliberately
        memory-only cache (``cache_dir=None``) counts memory stores,
        since the memory tier is all it has.

        The ``created`` column is an *insertion sequence* (monotonic,
        assigned inside the INSERT itself so concurrent writers cannot
        race), not a wall-clock stamp: ordering by it is stable under
        clock adjustments, which a ``time.time()`` stamp was not.
        """
        if payload.get("verdict") not in CACHEABLE_VERDICTS:
            return False
        entry = dict(payload)
        self._remember(key, entry)
        persisted = self.cache_dir is None  # memory-only: always "stored"
        conn = self._connection()
        if conn is not None:
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO proofs"
                    " (obl_key, env_key, verdict, payload, created)"
                    " VALUES (?, ?, ?, ?,"
                    "  (SELECT COALESCE(MAX(created), 0) + 1 FROM proofs))",
                    (
                        key.obligation,
                        key.environment,
                        entry["verdict"],
                        json.dumps(entry, sort_keys=True),
                    ),
                )
                conn.commit()
                persisted = True
            except (sqlite3.Error, OSError, TypeError) as exc:
                self._disk_failure(exc)
        if persisted:
            self.counters["stores"] += 1
            obs.incr("cache.stores")
        return True

    def _remember(self, key: ProofKey, entry: dict) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.counters["evictions"] += 1

    def _sweep_stale(self, key: ProofKey) -> None:
        """Purge results for this obligation proved under an outdated
        environment (superseded axioms, definition text, or salt)."""
        stale = [
            k for k in self._memory
            if k.obligation == key.obligation and k.environment != key.environment
        ]
        for k in stale:
            del self._memory[k]
        count = len(stale)
        conn = self._connection()
        if conn is not None:
            try:
                cur = conn.execute(
                    "DELETE FROM proofs WHERE obl_key = ? AND env_key <> ?",
                    (key.obligation, key.environment),
                )
                conn.commit()
                # Memory entries are mirrored on disk (put writes both,
                # get promotes), so the disk rowcount already covers
                # them — take the larger, don't sum.
                count = max(count, cur.rowcount)
            except (sqlite3.Error, OSError) as exc:
                self._disk_failure(exc)
        self.counters["stale"] += count

    # ------------------------------------------------------------ statistics

    def snapshot(self) -> Dict[str, int]:
        """A copy of the counters, for before/after deltas."""
        return dict(self.counters)

    def delta(self, since: Dict[str, int]) -> Dict[str, int]:
        """Counter movement since a :meth:`snapshot`."""
        return {
            name: self.counters[name] - since.get(name, 0)
            for name in COUNTER_NAMES
        }

    def entry_count(self) -> int:
        """Entries in the disk tier (memory-only: entries in memory)."""
        conn = self._connection()
        if conn is None:
            return len(self._memory)
        try:
            (count,) = conn.execute("SELECT COUNT(*) FROM proofs").fetchone()
            return int(count)
        except (sqlite3.Error, OSError) as exc:
            self._disk_failure(exc)
            return len(self._memory)

    def stats(self) -> dict:
        """This instance's counters plus store-level facts."""
        return {
            **self.counters,
            "entries": self.entry_count(),
            "path": self.path,
            "disk": self.disk_available,
            "memory_entries": len(self._memory),
        }

    def flush_counters(self, delta: Optional[Dict[str, int]] = None) -> None:
        """Fold a per-run counter delta into the lifetime totals in the
        database (atomic upsert: safe from concurrent ``--jobs``
        workers).  With no argument, flushes everything un-flushed."""
        if delta is None:
            delta = self.delta(getattr(self, "_flushed", _empty_counters()))
            self._flushed = self.snapshot()
        conn = self._connection()
        if conn is None:
            return
        try:
            for name in COUNTER_NAMES:
                value = int(delta.get(name, 0))
                if not value:
                    continue
                conn.execute(
                    "INSERT INTO counters (name, value) VALUES (?, ?)"
                    " ON CONFLICT(name) DO UPDATE"
                    " SET value = value + excluded.value",
                    (name, value),
                )
            conn.commit()
        except (sqlite3.Error, OSError) as exc:
            self._disk_failure(exc)

    def lifetime_counters(self) -> Dict[str, int]:
        """Accumulated counters over every run against this store."""
        totals = _empty_counters()
        conn = self._connection()
        if conn is None:
            return totals
        try:
            for name, value in conn.execute(
                "SELECT name, value FROM counters"
            ):
                if name in totals:
                    totals[name] = int(value)
        except (sqlite3.Error, OSError) as exc:
            self._disk_failure(exc)
        return totals

    def size_bytes(self) -> int:
        if self.path is None:
            return 0
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # -------------------------------------------------------------- clearing

    def clear(self) -> int:
        """Drop every entry (and the lifetime counters); returns how
        many proof entries were removed."""
        removed = len(self._memory)
        self._memory.clear()
        conn = self._connection()
        if conn is not None:
            try:
                cur = conn.execute("DELETE FROM proofs")
                conn.execute("DELETE FROM counters")
                conn.commit()
                removed = max(cur.rowcount, 0)
            except (sqlite3.Error, OSError) as exc:
                self._disk_failure(exc)
        return removed

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
            self._conn_pid = None

    def __enter__(self) -> "ProofCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
