"""Content-addressed result cache for the analysis service.

Results are keyed by a SHA-256 digest over the *content* of a request:

* the :meth:`~repro.facts.encoder.FactBase.digest` of the encoded fact
  base (so two textually different sources lowering to the same facts
  share cache entries, and any fact change invalidates them);
* the analysis name, the introspective heuristic (label plus *normalized*
  constants), and the budgets.

Two tiers: an in-memory LRU (fast, per-process) and an optional disk tier
(JSON files under ``cache_dir``, surviving restarts and shareable between
service instances).  Disk hits are promoted into memory.  Both ``done``
and ``timeout`` results are cacheable — a budget trip is deterministic
for a given (facts, analysis, budget) triple, so replaying it would only
burn a worker to reach the same answer.

The *first-pass* cache for introspective jobs lives in the worker
processes (see :mod:`repro.service.workers`): pass-1 results hold interned
solver state and are deliberately never serialized across the process
boundary.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

from ..introspection.heuristics import heuristic_from_spec
from .jobs import JobSpec
from .telemetry import Counter

__all__ = ["ResultCache", "cache_key"]

_log = logging.getLogger("repro.service")


def cache_key(facts_digest: str, spec: JobSpec) -> str:
    """Content-addressed cache key for one (fact base, configuration)."""
    heuristic = None
    if spec.introspective is not None:
        # Normalize via the constructed heuristic so "5,7" and " 5 , 7 "
        # (and the explicit defaults) key identically.
        heuristic = heuristic_from_spec(
            spec.introspective, spec.heuristic_constants
        ).describe()
    material = json.dumps(
        {
            "facts": facts_digest,
            "analysis": spec.analysis,
            "heuristic": heuristic,
            "max_tuples": spec.max_tuples,
            "max_seconds": spec.max_seconds,
            "show": sorted(spec.show),
            # Traced payloads carry an extra section, so they must not be
            # served to (or seeded from) untraced requests.
            "trace": spec.trace,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()


class ResultCache:
    """LRU memory tier over an optional JSON-file disk tier.

    Disk-tier failures never fail the caller: each one logs a warning and
    counts into ``errors`` (labelled ``op="put"`` or ``op="clear"``).
    """

    def __init__(
        self,
        capacity: int = 128,
        cache_dir: Optional[str] = None,
        hits: Optional[Counter] = None,
        misses: Optional[Counter] = None,
        errors: Optional[Counter] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        # Bumped by clear(); a disk-read promotion started under an older
        # generation is dropped instead of resurrecting a cleared entry.
        self._generation = 0
        self._hits = hits
        self._misses = misses
        self._errors = errors

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                if self._hits is not None:
                    self._hits.inc(tier="memory")
                return dict(payload)
            generation = self._generation
        payload = self._load_disk(key)
        if payload is not None:
            # Promote into memory only if no clear() ran while we read
            # the file: a stale promotion would resurrect an entry the
            # caller just invalidated.
            self._store_memory(key, payload, generation=generation)
            if self._hits is not None:
                self._hits.inc(tier="disk")
            return dict(payload)
        if self._misses is not None:
            self._misses.inc()
        return None

    def _load_disk(self, key: str) -> Optional[Dict[str, Any]]:
        """Read one disk-tier entry (None on miss or unreadable file)."""
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        self._store_memory(key, payload)
        path = self._disk_path(key)
        if path is not None:
            tmp: Optional[str] = None
            try:
                fd, tmp = tempfile.mkstemp(
                    dir=str(self.cache_dir), suffix=".tmp"
                )
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
                tmp = None
            except (OSError, TypeError, ValueError) as exc:
                # Best-effort: the memory tier already holds the entry.
                self._disk_error("put", path, exc)
            finally:
                # Never leave *.tmp debris behind: a failed dump (full
                # disk, unserializable payload) must not leak files into
                # the cache directory forever.
                if tmp is not None:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass

    def _store_memory(
        self,
        key: str,
        payload: Dict[str, Any],
        generation: Optional[int] = None,
    ) -> None:
        with self._lock:
            if generation is not None and generation != self._generation:
                return  # clear() raced us: drop the stale promotion
            self._memory[key] = dict(payload)
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)

    def clear(self) -> None:
        """Drop both tiers.

        The disk tier must go too: a memory-only clear would let the
        next ``get`` quietly resurrect every "cleared" entry from its
        JSON file, which is exactly what callers clearing a cache are
        trying to prevent (e.g. invalidating results after an encoder
        change that does not alter fact digests).
        """
        with self._lock:
            self._memory.clear()
            self._generation += 1
        if self.cache_dir is not None:
            for path in self.cache_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError as exc:
                    self._disk_error("clear", path, exc)

    def _disk_error(self, op: str, path: Path, exc: Exception) -> None:
        if self._errors is not None:
            self._errors.inc(op=op)
        _log.warning("result-cache %s failed for %s: %r", op, path, exc)
