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
  post-fork connection is reopened per process (threads share one,
  behind the instance's lock).

The database also single-flights proofs in flight: a caller that
misses takes the key's lease, a ``pending`` row ``(obl_key, env_key,
owner, expires)``, and any other caller on the same cache directory
(thread, ``--jobs`` child, serve worker, CLI run) waits for that
leader's verdict instead of proving the obligation again (see
:meth:`ProofCache.claim`).

Every disk failure is absorbed — a cache must never be the reason a
check fails — with *rebuild-or-bypass* triage:

* **corruption** (a plain ``sqlite3.DatabaseError``: garbled header,
  malformed disk image) deletes the damaged file and rebuilds it
  empty, once per instance — the run goes cold but the disk tier
  stays live for the next run;
* **everything else** (``database is locked``, permission errors, I/O
  errors, misuse of the sqlite API, a second corruption after a
  rebuild) bypasses the disk tier for the rest of the run and falls
  back to the in-memory LRU.

Either way the ``degraded`` counter (and ``cache.degraded`` in
``repro.obs``) records that the disk tier did not survive intact.

Counters (``hits``/``misses``/``stores``/``evictions``/``stale``/
``errors``/``degraded``/``waits``/``shared``) accumulate per instance;
per-run deltas are folded into a ``counters`` table so ``python -m
repro cache stats`` can report lifetime totals across processes.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional

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
    "waits", "shared",
)

#: A follower polls for its leader's verdict every 2 ms at first,
#: doubling up to every 50 ms.
_POLL_FIRST, _POLL_LAST = 0.002, 0.05

#: A lease need not outlive a power cut: a transaction that only takes
#: or drops one skips the disk syncs a verdict's commit makes (which
#: would double the cost of a miss).  It writes no ``proofs`` page.
_LEASE_SYNC = "PRAGMA synchronous = OFF"
_VERDICT_SYNC = "PRAGMA synchronous = FULL"


def _empty_counters() -> Dict[str, int]:
    return {name: 0 for name in COUNTER_NAMES}


def _owner_alive(owner: str) -> bool:
    """Whether the process of a lease-owner tag ``"<pid>:<thread>"``
    still exists (one we may not signal does)."""
    try:
        os.kill(int(owner.split(":")[0]), 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass
    return True


class ProofCache:
    """A content-addressed store of settled proof results, and of the
    leases on proofs in flight."""

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
        self._disk_failed = cache_dir is None
        self._rebuilt = False  # one corruption rebuild per instance
        #: Leases this instance holds: key -> owner tag of its row.
        self._leases: Dict[ProofKey, str] = {}
        self._lock = threading.RLock()
        self._pid = os.getpid()

    def _guard(self) -> threading.RLock:
        """The lock every tier operation runs under.  A forked child
        starts over: an inherited lock may be held by a thread it lacks,
        and a sqlite handle shared between processes corrupts the file."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._lock = threading.RLock()
            self._conn = None
            self._leases = {}
        return self._lock

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
        """This process's sqlite connection (callers hold :meth:`_guard`),
        or ``None`` when the disk tier is disabled."""
        if self._disk_failed:
            return None
        if self._conn is not None:
            return self._conn
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            if os.path.exists(self.path) and _faults.fire_once(
                "corrupt_cache", self.path
            ):
                _faults.corrupt_file(self.path)
            conn = sqlite3.connect(
                self.path, timeout=5.0, check_same_thread=False
            )
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
                "CREATE TABLE IF NOT EXISTS pending ("
                " obl_key TEXT NOT NULL,"
                " env_key TEXT NOT NULL,"
                " owner TEXT NOT NULL,"
                " expires REAL NOT NULL,"
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
                conn.execute("DELETE FROM pending")
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
        everything else — locks, permissions, I/O errors, API misuse,
        or corruption striking again after a rebuild."""
        self.counters["errors"] += 1
        self.counters["degraded"] += 1
        obs.incr("cache.degraded")
        self.close()
        # Only a plain DatabaseError (not a database, malformed image) is
        # corruption.  Its subclasses blame something else: a lock held
        # by another process, a misuse of the API.  Deleting the file for
        # those would destroy a healthy cache.
        corrupted = type(exc) is sqlite3.DatabaseError
        if corrupted and not self._rebuilt and self.path is not None:
            self._rebuilt = True
            try:
                os.remove(self.path)
                return  # disk tier stays live; next connect rebuilds
            except OSError:
                pass
        self._disk_failed = True

    # ------------------------------------------------------------- get / put

    def get(self, key: ProofKey) -> Optional[dict]:
        """The cached payload for ``key``, or ``None`` on a miss.

        A hit in the disk tier is promoted to the memory tier.  A miss
        leaves the obligation's entries under other environments alone.
        """
        with self._guard():
            entry = self._lookup(key)
            if entry is None:
                self.counters["misses"] += 1
                obs.incr("cache.misses")
                return None
            self.counters["hits"] += 1
            obs.incr("cache.hits")
            return entry

    def _lookup(self, key: ProofKey) -> Optional[dict]:
        """``get`` without the hit/miss counters."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            return dict(entry)
        conn = self._connection()
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT payload FROM proofs"
                " WHERE obl_key = ? AND env_key = ?",
                (key.obligation, key.environment),
            ).fetchone()
        except (sqlite3.Error, OSError) as exc:
            self._disk_failure(exc)
            return None
        return self._decode(key, row)

    def _decode(self, key: ProofKey, row) -> Optional[dict]:
        """A ``proofs`` row's payload, kept in memory; None if damaged."""
        if row is None:
            return None
        try:
            entry = json.loads(row[0])
        except ValueError:
            # A damaged payload is a miss, not a crash.
            self.counters["errors"] += 1
            return None
        if not isinstance(entry, dict):
            return None
        self._remember(key, entry)
        return dict(entry)

    def put(self, key: ProofKey, payload: dict) -> bool:
        """Store one settled result; returns ``False`` (and stores
        nothing) for non-cacheable verdicts.  The key's lease, if any,
        ends in the same commit: followers see a lease or a verdict.

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
        with self._guard():
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
                    conn.execute(
                        "DELETE FROM pending WHERE obl_key = ? AND env_key = ?",
                        (key.obligation, key.environment),
                    )
                    conn.commit()
                    persisted = True
                except (sqlite3.Error, OSError, TypeError) as exc:
                    self._disk_failure(exc)
            self._leases.pop(key, None)
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

    # ---------------------------------------------------------------- leases

    def claim(
        self, key: ProofKey, lease: float, deadline=None
    ) -> Optional[dict]:
        """After a :meth:`get` miss: take the key's lease and return
        ``None`` (prove it, then :meth:`put` or :meth:`release`), or
        return the verdict another caller stored meanwhile (``shared``).

        While a live leader holds the lease, wait (``waits``) until its
        verdict appears, it releases the lease, its process is gone or
        its ``lease`` seconds ran out (taken over: ``stale``), or the
        caller's own ``deadline`` does (then prove without a lease).
        """
        delay = _POLL_FIRST
        waited = False
        while True:
            with self._guard():
                taken, entry = self._take_lease(key, lease)
                if entry is not None:
                    self.counters["shared"] += 1
                    obs.incr("cache.shared")
                    return entry
                if taken:
                    return None
                if not waited:
                    waited = True
                    self.counters["waits"] += 1
                    obs.incr("cache.waits")
            if deadline is not None and deadline.expired():
                return None
            left = delay if deadline is None else deadline.remaining()
            time.sleep(min(delay, left))
            delay = min(2 * delay, _POLL_LAST)

    def _take_lease(self, key: ProofKey, lease: float):
        """``(True, None)``: prove ``key`` now (the lease is taken, or
        there is no disk tier); ``(False, payload)``: the verdict is
        stored; ``(False, None)``: a live leader holds the lease."""
        conn = self._connection()
        if conn is None:
            return True, None
        owner = f"{os.getpid()}:{threading.get_ident()}"
        now = time.time()
        where = (key.obligation, key.environment)
        try:
            conn.execute(_LEASE_SYNC)
            # The INSERT takes sqlite's write lock for the transaction,
            # so nobody settles or claims the key between these checks.
            taken = conn.execute(
                "INSERT OR IGNORE INTO pending"
                " (obl_key, env_key, owner, expires) VALUES (?, ?, ?, ?)",
                (*where, owner, now + lease),
            ).rowcount == 1
            entry = self._decode(key, conn.execute(
                "SELECT payload FROM proofs WHERE obl_key = ? AND env_key = ?",
                where,
            ).fetchone())
            if entry is not None:
                taken = False
                conn.rollback()
            elif not taken:
                holder, expires = conn.execute(
                    "SELECT owner, expires FROM pending"
                    " WHERE obl_key = ? AND env_key = ?",
                    where,
                ).fetchone()
                if expires <= now or not _owner_alive(holder):
                    conn.execute(
                        "UPDATE pending SET owner = ?, expires = ?"
                        " WHERE obl_key = ? AND env_key = ?",
                        (owner, now + lease, *where),
                    )
                    taken = True
                    self.counters["stale"] += 1
            conn.commit()
            conn.execute(_VERDICT_SYNC)
        except (sqlite3.Error, OSError) as exc:
            self._disk_failure(exc)
            return True, None
        if taken:
            self._leases[key] = owner
        return taken, entry

    def release(self, key: ProofKey) -> None:
        """End this caller's lease on ``key`` without a verdict (an
        unsettled or failed proof): followers stop waiting and prove
        for themselves.  A no-op when no lease is held."""
        with self._guard():
            owner = self._leases.pop(key, None)
            if owner is None:
                return
            conn = self._connection()
            if conn is None:
                return
            try:
                conn.execute(_LEASE_SYNC)
                conn.execute(
                    "DELETE FROM pending"
                    " WHERE obl_key = ? AND env_key = ? AND owner = ?",
                    (key.obligation, key.environment, owner),
                )
                conn.commit()
                conn.execute(_VERDICT_SYNC)
            except (sqlite3.Error, OSError) as exc:
                self._disk_failure(exc)

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
        with self._guard():
            conn = self._connection()
            if conn is None:
                return len(self._memory)
            try:
                (count,) = conn.execute(
                    "SELECT COUNT(*) FROM proofs"
                ).fetchone()
                return int(count)
            except (sqlite3.Error, OSError) as exc:
                self._disk_failure(exc)
                return len(self._memory)

    def flush_counters(self, delta: Optional[Dict[str, int]] = None) -> None:
        """Fold a per-run counter delta into the lifetime totals in the
        database (atomic upsert: safe from concurrent ``--jobs``
        workers).  With no argument, flushes everything un-flushed."""
        if delta is None:
            delta = self.delta(getattr(self, "_flushed", _empty_counters()))
            self._flushed = self.snapshot()
        with self._guard():
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
        with self._guard():
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
        """Drop every entry, lease and lifetime counter; returns how
        many proof entries were removed."""
        with self._guard():
            removed = len(self._memory)
            self._memory.clear()
            conn = self._connection()
            if conn is not None:
                try:
                    cur = conn.execute("DELETE FROM proofs")
                    conn.execute("DELETE FROM pending")
                    conn.execute("DELETE FROM counters")
                    conn.commit()
                    removed = max(cur.rowcount, 0)
                except (sqlite3.Error, OSError) as exc:
                    self._disk_failure(exc)
            return removed

    def close(self) -> None:
        with self._guard():
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def __enter__(self) -> "ProofCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
