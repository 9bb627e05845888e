"""Content-addressed plan cache: in-memory LRU + optional on-disk store.

Real PLoC workloads recompile near-identical DAGs constantly — calibration
sweeps, EnzymeN families, regeneration re-runs — so compiled
:class:`~repro.core.hierarchy.VolumePlan` results are cached under a
canonical content hash (:mod:`repro.core.fingerprint`) of the normalized
DAG plus hardware limits, machine spec, and pipeline options.

Two key namespaces share one store:

* ``plan-<sha256>`` — a full compiled plan entry: the serialized
  :class:`VolumePlan` (final DAG, attempts, transforms, exact-Fraction
  assignment) plus the least-count-rounded assignment.  Built and decoded
  by :func:`entry_from_plan` / :func:`plan_from_entry`.
* ``src-<sha256>`` — raw source text (plus spec/options) mapped to its
  compile fingerprint, letting the batch driver skip the whole frontend
  on warm re-runs.  ``repro serve`` stores the job's answer there too
  (listing, plan status, diagnostic counts, program name): a repeated
  request is then one lookup.  The listing is keyed by the source, not
  the plan, because two assays differing only in their name share a
  compile fingerprint but not a listing.

Entries are JSON dicts end to end, so the memory and disk layers hold the
same canonical bytes; a cache-served plan re-serializes byte-identically
to the entry a fresh compile would have produced (enforced by the
property test in ``tests/properties/test_cache_roundtrip.py``).  Disk
writes are atomic (temp file + ``os.replace``), and unreadable or corrupt
files degrade to misses.

Plans whose DAGs carry non-serializable metadata (e.g. guard AST nodes on
dynamically-conditioned assays) are reported *uncacheable* rather than
stored lossily.

Service extensions (``repro serve``):

* **tenant namespaces** — :meth:`PlanCache.for_tenant` returns a
  :class:`TenantCache` view that prefixes every key with ``<tenant>~``
  while sharing the base cache's LRU, disk directory, lock, and global
  stats.  Identical fingerprints under different tenants never share
  entries; a view additionally keeps its own per-tenant
  :class:`CacheStats`.
* **TTL eviction** — a cache built with ``ttl_seconds`` lazily expires
  entries on lookup (memory stamps in-process, file mtime on disk) and
  counts them under ``stats.expired``; the size-bounded LRU eviction is
  unchanged.  TTL lives *outside* the entry, so entry bytes stay
  canonical and an expired fingerprint recompiles to identical bytes.
* **one lock** — all public methods (and the stats they mutate) are
  serialized under a single re-entrant lock, so the service path can
  drive one cache from many threads; disk writes were already atomic.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..core.dagsolve import VolumeAssignment
from ..core.fingerprint import plan_key, source_key
from ..core.hierarchy import VolumePlan
from ..core.serde import (
    SERDE_VERSION,
    SerdeError,
    assignment_from_dict,
    assignment_to_dict,
    dumps_canonical,
    plan_from_dict,
    plan_to_dict,
)

__all__ = [
    "CacheStats",
    "PlanCache",
    "TenantCache",
    "entry_from_plan",
    "plan_from_entry",
]

#: tenants are path-safe slugs: they become key prefixes and filenames.
_TENANT_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: what a ``src-`` entry holds to answer a served compile outright.
#: Listings persist under a cache directory, so a change to the listing
#: format must bump ``SERDE_VERSION``.
SERVED_FIELDS = {
    "fingerprint": str,
    "listing": str,
    "plan_status": str,
    "errors": int,
    "warnings": int,
    "program": str,
}


@dataclass
class CacheStats:
    """Hit/miss counters, split by where the entry was found."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_hits: int = 0
    uncacheable: int = 0
    expired: int = 0
    #: per-namespace hit/miss counts, e.g. {"plan": [3, 1], "src": ...}
    by_namespace: dict[str, list] = field(default_factory=dict)

    def _bucket(self, key: str) -> list:
        # strip an optional "<tenant>~" qualifier before the namespace
        namespace = key.rsplit("~", 1)[-1].split("-", 1)[0]
        return self.by_namespace.setdefault(namespace, [0, 0])

    def record_hit(self, key: str, *, from_disk: bool = False) -> None:
        self.hits += 1
        if from_disk:
            self.disk_hits += 1
        self._bucket(key)[0] += 1

    def record_miss(self, key: str) -> None:
        self.misses += 1
        self._bucket(key)[1] += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "uncacheable": self.uncacheable,
            "expired": self.expired,
            "hit_rate": round(self.hit_rate, 4),
            "by_namespace": {
                ns: {"hits": counts[0], "misses": counts[1]}
                for ns, counts in sorted(self.by_namespace.items())
            },
        }


class PlanCache:
    """LRU-bounded in-memory cache with an optional on-disk second level.

    Args:
        max_entries: in-memory LRU bound (entries, across all namespaces).
        directory: optional directory for the persistent level; created on
            first write.  One ``<key>.json`` file per entry, written
            atomically.  ``None`` keeps the cache purely in-memory.
        ttl_seconds: optional time-to-live; entries older than this are
            expired lazily on lookup (memory and disk levels both).
            ``None`` disables TTL eviction.
        clock: wall-clock source, injectable for tests.

    Thread safety: every public method takes the cache's re-entrant
    lock, so one instance can back the service job runner from many
    threads.  :class:`TenantCache` views share the same lock.
    """

    def __init__(
        self,
        max_entries: int = 512,
        directory: str | None = None,
        *,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.max_entries = max_entries
        self.directory = directory
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._memory: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        #: per-key write stamps for TTL expiry of the memory level.
        self._stamps: dict[str, float] = {}

    # ------------------------------------------------------------------
    # tenancy / stats hooks
    # ------------------------------------------------------------------
    def _qualify(self, key: str) -> str:
        """Map a caller key to its stored key (tenant views add a prefix)."""
        return key

    def for_tenant(self, tenant: str) -> "TenantCache":
        """A namespaced view over this cache for one tenant."""
        return TenantCache(self, tenant)

    def _note_hit(self, key: str, *, from_disk: bool = False) -> None:
        self.stats.record_hit(key, from_disk=from_disk)

    def _note_miss(self, key: str) -> None:
        self.stats.record_miss(key)

    def _note_put(self) -> None:
        self.stats.puts += 1

    def _note_eviction(self) -> None:
        self.stats.evictions += 1

    def _note_expired(self) -> None:
        self.stats.expired += 1

    # ------------------------------------------------------------------
    # generic keyed store
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        return self._lookup(self._qualify(key))

    def put(self, key: str, entry: dict[str, Any]) -> None:
        self._store(self._qualify(key), entry)

    def contains(self, key: str) -> bool:
        """Presence probe: no LRU-order or hit/miss effects.

        TTL-stale entries are lazily dropped here (counted under
        ``expired``), so a probe never claims an entry a subsequent
        ``get`` would refuse to serve.
        """
        qkey = self._qualify(key)
        with self._lock:
            self._expire(qkey)
            if qkey in self._memory:
                return True
            path = self._disk_path(qkey)
            return path is not None and not self._disk_stale(path)

    def clear_memory(self) -> None:
        """Drop the in-memory level (the disk level survives)."""
        with self._lock:
            self._memory.clear()
            self._stamps.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ------------------------------------------------------------------
    # internals (operate on already-qualified keys)
    # ------------------------------------------------------------------
    def _lookup(self, qkey: str) -> dict[str, Any] | None:
        with self._lock:
            self._expire(qkey)
            entry = self._memory.get(qkey)
            if entry is not None:
                self._memory.move_to_end(qkey)
                self._note_hit(qkey)
                return entry
            entry = self._disk_read(qkey)
            if entry is not None:
                self._remember(qkey, entry)
                self._note_hit(qkey, from_disk=True)
                return entry
            self._note_miss(qkey)
            return None

    def _store(self, qkey: str, entry: dict[str, Any]) -> None:
        with self._lock:
            self._remember(qkey, entry)
            self._disk_write(qkey, entry)
            self._note_put()

    def _memory_stale(self, qkey: str) -> bool:
        if self.ttl_seconds is None:
            return False
        stamp = self._stamps.get(qkey)
        return (
            stamp is not None
            and self._clock() - stamp > self.ttl_seconds
        )

    def _disk_stale(self, path: str) -> bool:
        """True when the file is missing or past its TTL (then unlinked)."""
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            return True
        if (
            self.ttl_seconds is not None
            and self._clock() - mtime > self.ttl_seconds
        ):
            try:
                os.unlink(path)
            except OSError:
                pass
            return True
        return False

    def _expire(self, qkey: str) -> None:
        """Lazily drop a TTL-stale entry (memory stamp + disk mtime)."""
        if self.ttl_seconds is None:
            return
        if self._memory_stale(qkey):
            self._memory.pop(qkey, None)
            self._stamps.pop(qkey, None)
            path = self._disk_path(qkey)
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._note_expired()

    def _remember(self, qkey: str, entry: dict[str, Any]) -> None:
        self._memory[qkey] = entry
        self._memory.move_to_end(qkey)
        self._stamps[qkey] = self._clock()
        while len(self._memory) > self.max_entries:
            evicted, __ = self._memory.popitem(last=False)
            self._stamps.pop(evicted, None)
            self._note_eviction()

    # ------------------------------------------------------------------
    # disk level
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.json")

    def _disk_read(self, key: str) -> dict[str, Any] | None:
        path = self._disk_path(key)
        if path is None:
            return None
        if self.ttl_seconds is not None:
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                return None
            if self._clock() - mtime > self.ttl_seconds:
                try:
                    os.unlink(path)
                except OSError:
                    pass
                self._note_expired()
                return None
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        return entry

    def _disk_write(self, key: str, entry: dict[str, Any]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key}.", suffix=".tmp"
            )
        except OSError:
            return  # disk level unavailable; the memory level still works
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(dumps_canonical(entry))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # plan namespace
    # ------------------------------------------------------------------
    def get_plan(
        self, fingerprint: str
    ) -> tuple[VolumePlan, VolumeAssignment | None] | None:
        """Decode a cached plan; the rounded assignment shares its DAG."""
        entry = self.get(plan_key(fingerprint))
        if entry is None:
            return None
        try:
            return plan_from_entry(entry)
        except (SerdeError, KeyError, ValueError):
            return None

    def put_plan(
        self,
        fingerprint: str,
        plan: VolumePlan,
        rounded: VolumeAssignment | None,
    ) -> bool:
        """Store a compiled plan; returns False when it is uncacheable."""
        try:
            entry = entry_from_plan(plan, rounded, fingerprint)
        except SerdeError:
            with self._lock:
                self.stats.uncacheable += 1
            return False
        self.put(plan_key(fingerprint), entry)
        return True

    # ------------------------------------------------------------------
    # source fast-key namespace
    # ------------------------------------------------------------------
    def get_source_fingerprint(self, src_fingerprint: str) -> str | None:
        entry = self.get(source_key(src_fingerprint))
        if entry is None:
            return None
        fingerprint = entry.get("fingerprint")
        return fingerprint if isinstance(fingerprint, str) else None

    def put_source_fingerprint(
        self, src_fingerprint: str, compile_fp: str, **served: Any
    ) -> None:
        """Map a source to its compile fingerprint; ``served`` adds the
        answer :meth:`get_served` returns (the :data:`SERVED_FIELDS`)."""
        self.put(
            source_key(src_fingerprint),
            {"version": SERDE_VERSION, "fingerprint": compile_fp, **served},
        )

    def get_served(self, src_fingerprint: str) -> dict[str, Any] | None:
        """The stored answer to a source, while its plan is still held.

        A ``contains`` probe of the ``plan-`` entry keeps TTL expiry and
        LRU eviction meaning what they mean for plans, and a served
        answer counts as a use of its plan in the LRU order.  An entry
        without the :data:`SERVED_FIELDS` (one ``compile_many`` wrote, or a
        malformed one) is a miss.
        """
        entry = self.get(source_key(src_fingerprint))
        if (
            entry is None
            or entry.get("version") != SERDE_VERSION
            or not all(
                isinstance(entry.get(key), kind)
                for key, kind in SERVED_FIELDS.items()
            )
        ):
            return None
        key = plan_key(entry["fingerprint"])
        with self._lock:
            if not self.contains(key):
                return None
            qkey = self._qualify(key)
            if qkey in self._memory:
                self._memory.move_to_end(qkey)
        return entry


# ---------------------------------------------------------------------------
# tenant views
# ---------------------------------------------------------------------------
class TenantCache(PlanCache):
    """A per-tenant namespace over a shared :class:`PlanCache`.

    The view shares the base cache's storage (LRU map, disk
    directory), policy (size bound, TTL), lock, and global stats
    by reference — only key *qualification* differs: every key is
    stored as ``<tenant>~<key>``, so identical fingerprints under
    different tenants never resolve to the same entry, in memory or on
    disk.  Hits/misses observed through the view are additionally
    recorded in :attr:`tenant_stats` (evictions count shared-LRU
    evictions this view triggered, whoever owned the evicted entry).
    """

    def __init__(self, base: PlanCache, tenant: str) -> None:
        if isinstance(base, TenantCache):
            raise ValueError("tenant views do not nest; use the base cache")
        if not _TENANT_RE.match(tenant):
            raise ValueError(
                f"invalid tenant {tenant!r}: expected a slug of "
                "[A-Za-z0-9_.-], max 64 chars, not starting with . or -"
            )
        # deliberately no super().__init__: every storage structure is
        # shared with the base cache by reference.
        self._base = base
        self.tenant = tenant
        self.tenant_stats = CacheStats()
        self.max_entries = base.max_entries
        self.directory = base.directory
        self.ttl_seconds = base.ttl_seconds
        self._clock = base._clock
        self.stats = base.stats
        self._lock = base._lock
        self._memory = base._memory
        self._stamps = base._stamps

    def _qualify(self, key: str) -> str:
        return f"{self.tenant}~{key}"

    def for_tenant(self, tenant: str) -> "TenantCache":
        return TenantCache(self._base, tenant)

    def _note_hit(self, key: str, *, from_disk: bool = False) -> None:
        super()._note_hit(key, from_disk=from_disk)
        self.tenant_stats.record_hit(key, from_disk=from_disk)

    def _note_miss(self, key: str) -> None:
        super()._note_miss(key)
        self.tenant_stats.record_miss(key)

    def _note_put(self) -> None:
        super()._note_put()
        self.tenant_stats.puts += 1

    def _note_eviction(self) -> None:
        super()._note_eviction()
        self.tenant_stats.evictions += 1

    def _note_expired(self) -> None:
        super()._note_expired()
        self.tenant_stats.expired += 1


# ---------------------------------------------------------------------------
# entry codec
# ---------------------------------------------------------------------------
def entry_from_plan(
    plan: VolumePlan,
    rounded: VolumeAssignment | None,
    fingerprint: str | None = None,
) -> dict[str, Any]:
    """The canonical cache entry for one compiled plan.

    Raises :class:`~repro.core.serde.SerdeError` when the plan cannot be
    serialized losslessly (callers should then skip caching).
    """
    entry: dict[str, Any] = {
        "version": SERDE_VERSION,
        "plan": plan_to_dict(plan),
        "rounded": (
            assignment_to_dict(rounded) if rounded is not None else None
        ),
    }
    if fingerprint is not None:
        entry["fingerprint"] = fingerprint
    return entry


def plan_from_entry(
    entry: dict[str, Any],
) -> tuple[VolumePlan, VolumeAssignment | None]:
    """Decode an entry; plan and rounded assignment share one DAG object."""
    if entry.get("version") != SERDE_VERSION:
        raise SerdeError(
            f"unsupported cache entry version {entry.get('version')!r}"
        )
    plan = plan_from_dict(entry["plan"])
    rounded = None
    if entry.get("rounded") is not None:
        rounded = assignment_from_dict(entry["rounded"], plan.dag)
    return plan, rounded
