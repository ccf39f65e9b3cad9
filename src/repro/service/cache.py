"""Persistent content-addressed result cache for the exploration service.

One cache directory holds one JSON file per answered query, named by the
query's content fingerprint (``result-<fp>.json``) — the *same*
:func:`repro.runtime.fingerprint.task_fingerprint` the supervisor
journals and the fleet leases by, so a cached service answer, a journal
record and a trace file of the same design point all share one key.

Robustness properties:

* **Atomic writes.**  Every entry lands through
  :func:`repro.runtime.journal.atomic_write_text` (tmp + rename) with a
  writer-unique tmp token, so a SIGKILL mid-write never leaves a torn
  entry and two *replicas* writing the same fingerprint concurrently
  never interleave on a shared scratch file; readers see one writer's
  complete entry or the other's.
* **Crash hygiene.**  :meth:`ResultCache.open` sweeps stale ``*.tmp``
  files stranded by an interrupted write — the same
  :func:`repro.runtime.journal.clean_stale_tmp` sweep ``--resume`` runs
  on run directories — so a long-lived server never accumulates junk.
* **Integrity.**  Every entry carries a checksum over its payload; a
  truncated or bit-flipped entry is detected on read, evicted, and
  counted (``corrupt``) instead of crashing the server or poisoning an
  answer.  Hits are served from the record this process verified (or
  wrote) and its payload's canonical JSON, kept beside the file's
  ``(inode, size, mtime)`` stamp: any change to one of the three — a
  peer's atomic rename, a truncation, a rewrite — forces a re-read and
  re-check.  An in-place rewrite that keeps all three is never served
  either, because the kept copy is the verified one; ``repro cache
  verify`` (which always reads the disk) or a restart finds it.
* **Version coherence.**  Every entry is stamped with the code-version
  epoch (:func:`repro.service.epoch.code_epoch`) that produced it.  An
  entry from a *different* epoch is stale-but-keepable: never served as
  fresh (the query re-solves under the new code), but still reachable
  through the breaker-open degraded stale path — old numbers beat no
  numbers when the backend is down.  ``repro cache invalidate --epoch``
  removes a generation explicitly.
* **Bounded size.**  ``max_mb`` caps the directory; inserts evict the
  least-recently-*used* entries until the cap holds, with evictions
  counted in the service metrics.  A long-lived server therefore never
  fills the disk.  Every hit refreshes its entry's in-memory recency;
  the file's mtime (what a restart or a peer replica orders by) is
  bumped at most once per :data:`RECENCY_INTERVAL_S` per entry.
* **Freshness.**  ``ttl_s`` ages entries: an expired entry is not served
  on the fast path, but it is deliberately *kept* — while the circuit
  breaker is open the service serves stale entries as degraded answers
  (``degraded: true, stale: true``) rather than failing closed.

All methods are thread-safe; the service calls them from the event loop
and from solve-completion callbacks.  Several server *processes* may
share one directory (see :mod:`repro.service.replica`): writes are
atomic renames, and the index tolerates entries appearing or vanishing
underneath it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.logs import get_logger
from repro.runtime.fingerprint import task_fingerprint
from repro.runtime.journal import atomic_write_text, clean_stale_tmp
from repro.runtime.spec import PDNSpec
from repro.service.epoch import code_epoch

__all__ = [
    "CACHE_SCHEMA",
    "CacheEntry",
    "ResultCache",
    "payload_checksum",
    "query_fingerprint",
]

_log = get_logger(__name__)

#: Seconds between two recency bumps of one entry's file mtime: hits
#: inside the window update only the in-memory recency.
RECENCY_INTERVAL_S = 1.0

#: Schema version of the on-disk entry layout; bump on record changes.
#: v2 added the code-version ``epoch`` stamp and the payload
#: ``checksum`` (pre-epoch v1 entries are dropped on first read: with
#: no epoch recorded their provenance is unknowable).
CACHE_SCHEMA = 2

_PREFIX = "result-"
_SUFFIX = ".json"


def query_fingerprint(
    spec: PDNSpec,
    activities: Optional[List[float]] = None,
    solver: str = "lu",
) -> str:
    """Content fingerprint of one service query (16 hex chars).

    Delegates to the runtime's :func:`task_fingerprint` over a
    single-point pristine group, so a service cache key is bit-for-bit
    the fingerprint the supervisor would journal for the same solve —
    default-solver queries match pre-service journals exactly.

    Deliberately *not* epoch-aware: folding the code epoch in here
    would break the journal-resume bit-for-bit guarantee and make
    old-epoch entries unreachable for the degraded stale path.  Version
    coherence lives in the cache entry metadata instead.
    """
    from repro.runtime.engine import SweepPoint

    point = SweepPoint(
        spec=spec,
        layer_activities=tuple(activities) if activities else None,
    )
    key = (spec, None, False, solver)
    return task_fingerprint(key, [(0, point)])


def _canonical_json(payload: Dict[str, Any]) -> bytes:
    """The payload's sorted-keys JSON: checksummed, and spliced into hit
    responses as their ``result`` (the same text the response encoder
    would write for it)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _checksum(canonical: bytes) -> str:
    return hashlib.sha256(canonical).hexdigest()[:16]


def payload_checksum(payload: Dict[str, Any]) -> str:
    """Integrity checksum of one entry's payload (16 hex chars).

    Over the canonical (sorted-keys) JSON text, so the check is stable
    across dict ordering and a JSON round trip through the wire.
    """
    return _checksum(_canonical_json(payload))


@dataclass
class CacheEntry:
    """One cache lookup's answer: the stored payload plus freshness."""

    fingerprint: str
    payload: Dict[str, Any]
    #: Seconds since the entry was written (0.0 for a fresh write).
    age_s: float = 0.0
    #: True when the entry is not servable as fresh (served only as a
    #: degraded answer while the breaker is open).
    stale: bool = False
    #: Why it is stale: "ttl" (outlived the freshness window) or
    #: "epoch" (written by a different code version); None when fresh.
    stale_reason: Optional[str] = None
    #: The code-version epoch stamped into the entry.
    epoch: Optional[str] = None
    #: ``payload`` as sorted-keys JSON bytes, ready to splice into a
    #: response without re-encoding.
    result_json: bytes = b""


#: ``(st_ino, st_size, st_mtime_ns)`` of one entry file.
_Stamp = Tuple[int, int, int]


def _stamp_of(stat: os.stat_result) -> _Stamp:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


@dataclass
class _Stored:
    """Index record for one on-disk entry."""

    path: pathlib.Path
    size: int
    #: Last-used time (wall clock): hits refresh it, eviction sorts by it.
    used_at: float = 0.0
    created_at: float = field(default_factory=time.time)
    #: The checksum-verified record, its payload's canonical JSON, and
    #: the stamp of the file they were verified from; served again while
    #: the file's stamp still matches.
    record: Optional[Dict[str, Any]] = None
    result_json: bytes = b""
    stamp: Optional[_Stamp] = None


class ResultCache:
    """A bounded, persistent, fingerprint-keyed result store."""

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        max_mb: Optional[float] = None,
        ttl_s: Optional[float] = None,
        epoch: Optional[str] = None,
    ):
        self.directory = pathlib.Path(directory)
        self.max_bytes = (
            None if max_mb is None else max(0, int(max_mb * 1024 * 1024))
        )
        self.ttl_s = ttl_s
        #: The epoch entries are judged fresh against (and stamped with
        #: on write); defaults to this process's code epoch.
        self.epoch = epoch or code_epoch()
        self._index: Dict[str, _Stored] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.writes = 0
        self.evictions = 0
        #: Entries dropped because they failed integrity (unreadable,
        #: truncated, checksum mismatch) — each one is evicted on sight.
        self.corrupt = 0
        #: Fast-path misses caused purely by an epoch mismatch (the
        #: entry was intact and within TTL, but from other code).
        self.epoch_misses = 0

    # ------------------------------------------------------------------
    def open(self) -> "ResultCache":
        """Create the directory, sweep stale tmp files, index entries."""
        self.directory.mkdir(parents=True, exist_ok=True)
        swept = clean_stale_tmp(self.directory)
        with self._lock:
            self._index.clear()
            for path in sorted(self.directory.glob(f"{_PREFIX}*{_SUFFIX}")):
                fingerprint = path.name[len(_PREFIX):-len(_SUFFIX)]
                try:
                    stat = path.stat()
                except OSError:
                    continue
                self._index[fingerprint] = _Stored(
                    path=path,
                    size=stat.st_size,
                    used_at=stat.st_mtime,
                    created_at=stat.st_mtime,
                )
        if self._index or swept:
            _log.info(
                "service cache opened",
                extra={
                    "directory": str(self.directory),
                    "entries": len(self._index),
                    "swept_tmp": len(swept),
                    "epoch": self.epoch,
                },
            )
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def size_bytes(self) -> int:
        with self._lock:
            return sum(s.size for s in self._index.values())

    def counters(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "size_bytes": self.size_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "stale_hits": self.stale_hits,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "epoch_misses": self.epoch_misses,
        }

    # ------------------------------------------------------------------
    def _index_from_disk(self, fingerprint: str) -> Optional[_Stored]:
        """Adopt an entry a peer replica wrote after we indexed (lock held)."""
        path = self.directory / f"{_PREFIX}{fingerprint}{_SUFFIX}"
        try:
            stat = path.stat()
        except OSError:
            return None
        stored = _Stored(
            path=path,
            size=stat.st_size,
            used_at=stat.st_mtime,
            created_at=stat.st_mtime,
        )
        self._index[fingerprint] = stored
        return stored

    def _load_record(
        self, fingerprint: str, stored: _Stored, reread: bool = False
    ) -> Optional[Dict[str, Any]]:
        """Read + integrity-check one entry (lock held); None = dropped.

        While the file's ``(inode, size, mtime)`` stamp matches the one
        the kept record was verified from, the kept record is returned
        without opening the file; ``reread`` forces the disk read.

        A file that vanished (a peer replica evicted or invalidated it)
        just leaves the index.  Every other failure mode — unreadable
        file, torn JSON, wrong schema, checksum mismatch — evicts the
        entry so it cannot fail again.  Integrity failures count in
        ``corrupt``; a wrong-schema entry is not corruption (it is a
        legacy layout) and is dropped silently.
        """
        try:
            stamp = _stamp_of(os.stat(stored.path))
            if not reread and stored.record is not None and (
                stamp == stored.stamp
            ):
                return stored.record
            record = json.loads(stored.path.read_text(encoding="utf-8"))
            if not isinstance(record, dict):
                raise json.JSONDecodeError("not an object", "", 0)
        except FileNotFoundError:
            self._index.pop(fingerprint, None)
            return None
        except (OSError, json.JSONDecodeError) as exc:
            _log.warning(
                "service cache: dropping unreadable entry",
                extra={"fingerprint": fingerprint, "error": str(exc)},
            )
            self._discard(fingerprint, stored)
            self.corrupt += 1
            return None
        if record.get("schema") != CACHE_SCHEMA:
            self._discard(fingerprint, stored)
            return None
        payload = record.get("payload")
        canonical = (
            _canonical_json(payload) if isinstance(payload, dict) else b""
        )
        if not canonical or record.get("checksum") != _checksum(canonical):
            _log.warning(
                "service cache: dropping corrupt entry (checksum mismatch)",
                extra={"fingerprint": fingerprint},
            )
            self._discard(fingerprint, stored)
            self.corrupt += 1
            return None
        stored.record, stored.result_json = record, canonical
        stored.stamp = stamp
        return record

    def get(
        self,
        fingerprint: str,
        allow_stale: bool = False,
        count: bool = True,
    ) -> Optional[CacheEntry]:
        """Look one fingerprint up; None on miss (or unusable entry).

        A fresh hit bumps the entry's recency in the index, and on disk
        (so LRU ordering survives a restart) when the file's mtime is
        more than :data:`RECENCY_INTERVAL_S` old.  An entry older than
        ``ttl_s`` *or written under a different code epoch* is a miss
        unless ``allow_stale`` — the breaker-open degraded path — in
        which case it comes back flagged ``stale`` with its
        ``stale_reason``.  Corrupt entries are evicted and counted,
        never returned.

        An index miss falls through to disk: a *peer replica* sharing
        this directory may have written the entry after :meth:`open`
        indexed it.  ``count=False`` keeps a lookup out of the hit/miss
        counters — the replica peer-wait poll probes the same
        fingerprint many times per answer and must not skew the stats.
        """
        with self._lock:
            stored = self._index.get(fingerprint)
            if stored is None:
                stored = self._index_from_disk(fingerprint)
            if stored is None:
                if count:
                    self.misses += 1
                return None
            record = self._load_record(fingerprint, stored)
            if record is None:
                if count:
                    self.misses += 1
                return None
            entry_epoch = record.get("epoch")
            created = record.get("created") or stored.created_at
            age_s = max(0.0, time.time() - created)
            ttl_stale = self.ttl_s is not None and age_s > self.ttl_s
            epoch_stale = entry_epoch != self.epoch
            stale = ttl_stale or epoch_stale
            if stale and not allow_stale:
                if count:
                    self.misses += 1
                    if epoch_stale:
                        self.epoch_misses += 1
                return None
            if stale:
                if count:
                    self.stale_hits += 1
            else:
                if count:
                    self.hits += 1
                now_ns = time.time_ns()
                stored.used_at = now_ns / 1e9
                ino, size, mtime_ns = stored.stamp
                if now_ns - mtime_ns >= RECENCY_INTERVAL_S * 1e9:
                    try:
                        os.utime(stored.path, ns=(now_ns, now_ns))
                    except OSError:
                        pass
                    else:
                        # Our own recency bump must not force a re-read.
                        stored.stamp = (ino, size, now_ns)
            return CacheEntry(
                fingerprint=fingerprint,
                # A copy: callers must not edit the kept record.
                payload=dict(record.get("payload", {})),
                age_s=age_s,
                stale=stale,
                stale_reason=(
                    "epoch" if epoch_stale else ("ttl" if ttl_stale else None)
                ),
                epoch=entry_epoch,
                result_json=stored.result_json,
            )

    def fresh_json(self, fingerprint: str) -> Optional[bytes]:
        """A fresh entry's ``result_json``, counted as a hit; None counts
        nothing, so a caller that falls back to :meth:`get` counts its
        miss once."""
        entry = self.get(fingerprint, count=False)
        if entry is None:
            return None
        with self._lock:
            self.hits += 1
        return entry.result_json

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> pathlib.Path:
        """Store one answer atomically; evicts LRU entries over the cap.

        The record is stamped with this cache's epoch and a payload
        checksum; the tmp token makes concurrent same-fingerprint
        writes from different replica processes collision-free.  The
        record written (over a copy of ``payload``) and the payload's
        canonical JSON are kept for later hits, with the file's stamp
        taken after the rename.  ``payload`` must be JSON-native (string
        keys, lists not tuples) for the kept copy to equal a disk read;
        the service's summaries are.
        """
        payload = dict(payload)
        canonical = _canonical_json(payload)
        record = {
            "schema": CACHE_SCHEMA,
            "fingerprint": fingerprint,
            "payload": payload,
            "created": time.time(),
            "epoch": self.epoch,
            "checksum": _checksum(canonical),
        }
        text = json.dumps(record, sort_keys=True) + "\n"
        path = self.directory / f"{_PREFIX}{fingerprint}{_SUFFIX}"
        atomic_write_text(
            path,
            text,
            durable=False,
            tmp_token=f"{os.getpid()}-{threading.get_ident()}",
        )
        try:
            stamp: Optional[_Stamp] = _stamp_of(os.stat(path))
        except OSError:
            stamp = None  # evicted by a peer already: the next get misses
        now = time.time()
        with self._lock:
            self._index[fingerprint] = _Stored(
                path=path,
                size=len(text.encode("utf-8")),
                used_at=now,
                created_at=now,
                record=record,
                result_json=canonical,
                stamp=stamp,
            )
            self.writes += 1
            self._evict_over_cap(protect=fingerprint)
        return path

    # ------------------------------------------------------------------
    # Offline inspection (the ``repro cache`` CLI)
    # ------------------------------------------------------------------
    def verify(self) -> Dict[str, Any]:
        """Integrity-check every entry on disk; evict what fails.

        Always re-reads each file, kept records notwithstanding, so an
        in-place rewrite that kept the file's stamp is found here.
        Returns ``{"checked", "ok", "evicted", "by_epoch"}`` —
        ``evicted`` counts entries dropped for *any* reason (torn JSON,
        checksum mismatch, legacy schema), ``by_epoch`` histograms the
        surviving entries' code epochs.
        """
        with self._lock:
            items = list(self._index.items())
        checked = ok = evicted = 0
        by_epoch: Dict[str, int] = {}
        for fingerprint, stored in items:
            checked += 1
            with self._lock:
                if fingerprint not in self._index:
                    continue  # evicted underneath us
                record = self._load_record(fingerprint, stored, reread=True)
            if record is None:
                evicted += 1
                continue
            ok += 1
            epoch = str(record.get("epoch"))
            by_epoch[epoch] = by_epoch.get(epoch, 0) + 1
        return {
            "checked": checked,
            "ok": ok,
            "evicted": evicted,
            "by_epoch": by_epoch,
            "epoch": self.epoch,
        }

    def invalidate(self, epoch: Optional[str] = None) -> int:
        """Remove entries by code epoch; returns how many were dropped.

        ``epoch`` names one generation to remove; ``None`` removes every
        entry *not* written under the cache's current epoch (the
        "purge everything stale" operation after a code upgrade).
        Unreadable entries are dropped too (and counted ``corrupt``).
        """
        with self._lock:
            items = list(self._index.items())
        removed = 0
        for fingerprint, stored in items:
            with self._lock:
                if fingerprint not in self._index:
                    continue
                record = self._load_record(fingerprint, stored)
                if record is None:
                    removed += 1
                    continue
                entry_epoch = record.get("epoch")
                drop = (
                    entry_epoch != self.epoch
                    if epoch is None
                    else entry_epoch == epoch
                )
                if drop:
                    self._discard(fingerprint, stored)
                    removed += 1
        if removed:
            _log.info(
                "service cache: invalidated entries",
                extra={"removed": removed, "epoch": epoch or "stale"},
            )
        return removed

    def stats(self) -> Dict[str, Any]:
        """Directory-level summary for ``repro cache stats``."""
        verify_free = self.verify()  # also reports by-epoch, evicts junk
        now = time.time()
        with self._lock:
            ages = [
                max(0.0, now - s.created_at) for s in self._index.values()
            ]
        return {
            "directory": str(self.directory),
            "entries": len(self),
            "size_bytes": self.size_bytes(),
            "epoch": self.epoch,
            "by_epoch": verify_free["by_epoch"],
            "ttl_s": self.ttl_s,
            "max_bytes": self.max_bytes,
            "oldest_age_s": round(max(ages), 3) if ages else None,
            "newest_age_s": round(min(ages), 3) if ages else None,
        }

    # ------------------------------------------------------------------
    def _discard(self, fingerprint: str, stored: _Stored) -> None:
        """Remove one entry (lock held)."""
        self._index.pop(fingerprint, None)
        try:
            stored.path.unlink()
        except OSError:
            pass

    def _evict_over_cap(self, protect: Optional[str] = None) -> None:
        """Drop least-recently-used entries until the size cap holds.

        ``protect`` names the entry just written — even a cap smaller
        than one entry keeps the newest answer (the cap bounds growth,
        it must not turn the cache into a black hole).
        """
        if self.max_bytes is None:
            return
        total = sum(s.size for s in self._index.values())
        if total <= self.max_bytes:
            return
        victims = sorted(
            (fp for fp in self._index if fp != protect),
            key=lambda fp: self._index[fp].used_at,
        )
        for fingerprint in victims:
            if total <= self.max_bytes:
                break
            stored = self._index[fingerprint]
            total -= stored.size
            self._discard(fingerprint, stored)
            self.evictions += 1
            _log.info(
                "service cache: evicted LRU entry",
                extra={
                    "fingerprint": fingerprint,
                    "size_bytes": stored.size,
                },
            )
