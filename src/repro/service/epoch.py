"""Code-version epoch: a hash of the physics-relevant source tree.

The service's cache keys (:func:`repro.service.cache.query_fingerprint`)
capture the *query* — spec, activities, solver — but deliberately not
the *code* that solved it, because changing the fingerprint function
would orphan every pre-existing journal a ``--resume`` must replay
bit-for-bit.  That leaves a coherence hole: upgrade the physics code,
restart the server over the same cache directory, and yesterday's
answers would be served as today's.

The epoch closes the hole without touching fingerprints.  It is a short
hex digest over every ``.py`` file of the ``repro`` package that can
influence a solve's numbers — everything except the serving layer
(:mod:`repro.service`), the observability layer (:mod:`repro.obs`) and
the CLI shims, none of which touch the numerics.  Each cache entry is
stamped with the epoch that produced it; on read, an entry from a
different epoch is **stale-but-keepable**: withheld from the fast path
(the query re-solves) but still reachable through the breaker-open
degraded stale-cache path, exactly like a TTL-expired entry.

``REPRO_EPOCH`` overrides the computed value — the documented hook for
simulating a code change in tests and CI (``ha-check`` uses it to prove
the re-solve-after-bump behaviour) and for operators who want explicit
cache generations.

The digest is computed once per process (first use) and cached; a
long-lived server never re-hashes the tree per query.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
from typing import Optional

__all__ = ["EPOCH_ENV", "code_epoch", "compute_epoch"]

#: Environment override: any non-empty token becomes the epoch verbatim.
EPOCH_ENV = "REPRO_EPOCH"

#: Top-level parts of the ``repro`` package excluded from the digest:
#: they orchestrate, observe or present — they never touch the numbers.
_EXCLUDED = ("service", "obs", "cli.py", "__main__.py")

_cached: Optional[str] = None


def compute_epoch(root: Optional[pathlib.Path] = None) -> str:
    """Digest the physics-relevant ``.py`` tree into 12 hex chars.

    Deterministic across processes and hosts for identical sources:
    files are walked in sorted relative-path order and both the path and
    the bytes feed the hash, so a rename counts as a change.
    """
    if root is None:
        root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] in _EXCLUDED:
            continue
        digest.update(str(rel).encode("utf-8"))
        digest.update(b"\0")
        try:
            digest.update(path.read_bytes())
        except OSError:  # pragma: no cover - racing editor/uninstall
            continue
        digest.update(b"\0")
    return digest.hexdigest()[:12]


def code_epoch() -> str:
    """The process-wide epoch (``REPRO_EPOCH`` override, else computed)."""
    global _cached
    override = os.environ.get(EPOCH_ENV, "").strip()
    if override:
        return override
    if _cached is None:
        _cached = compute_epoch()
    return _cached
