"""Persistent on-disk compilation cache.

Scheduling is the expensive step of the pipeline (seconds of DP search
per cell), but its output — a topological order plus its verified peaks
— is tiny and deterministic. This cache persists that output across
processes, keyed by

``(graph_signature(graph), strategy cache key)``

where :func:`~repro.graph.serialization.graph_signature` is a canonical
content hash invariant under node renaming, and the strategy key is
``name@version`` from the registry (bumping a strategy's version
invalidates its old entries). Re-compiling the model suite therefore
costs one directory lookup per (graph, strategy) pair instead of a DP
search — near-instant, across process and machine restarts.

Layout: one JSON file per entry under ``<root>/<sig[:2]>/<sig>.<key>.json``
with ``root`` defaulting to ``$REPRO_CACHE_DIR`` or
``~/.cache/repro/schedules``. Writes are atomic (temp file +
``os.replace``), so concurrent compilers at worst duplicate work — they
never corrupt each other. A corrupted or truncated entry is treated as
a miss and recomputed, never raised to the caller.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

__all__ = ["CacheEntry", "CacheStats", "ScheduleCache", "default_cache_root"]

_ENTRY_FORMAT = "repro-schedule-cache/1"

#: environment override for the cache location (used by the test suite
#: to stay hermetic, and by deployments to share a warm cache)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "schedules"


@dataclass(frozen=True)
class CacheEntry:
    """One cached compilation outcome."""

    signature: str
    strategy_key: str
    graph_name: str
    order: tuple[str, ...]
    peak_bytes: int
    arena_bytes: int
    #: rename-invariant canonical key per order entry (same length as
    #: ``order``); lets consumers replay the schedule on a relabeled
    #: instance of the graph
    canon_order: tuple[str, ...] | None = None
    #: extras ``store_outcome`` records (original time, strategy name)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_doc(self) -> dict[str, Any]:
        return {
            "format": _ENTRY_FORMAT,
            "signature": self.signature,
            "strategy_key": self.strategy_key,
            "graph_name": self.graph_name,
            "order": list(self.order),
            "canon_order": list(self.canon_order) if self.canon_order else None,
            "peak_bytes": self.peak_bytes,
            "arena_bytes": self.arena_bytes,
            "meta": self.meta,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "CacheEntry":
        if doc.get("format") != _ENTRY_FORMAT:
            raise ValueError(f"unsupported cache format {doc.get('format')!r}")
        order = doc["order"]
        if not isinstance(order, list) or not all(
            isinstance(n, str) for n in order
        ):
            raise ValueError("cache entry order is not a list of node names")
        canon = doc.get("canon_order")
        return cls(
            signature=doc["signature"],
            strategy_key=doc["strategy_key"],
            graph_name=doc.get("graph_name", "graph"),
            order=tuple(order),
            canon_order=tuple(canon) if canon else None,
            peak_bytes=int(doc["peak_bytes"]),
            arena_bytes=int(doc["arena_bytes"]),
            meta=dict(doc.get("meta", {})),
        )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ScheduleCache:
    """Directory-backed map ``(signature, strategy_key) -> CacheEntry``."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.stats = CacheStats()

    def _path(self, signature: str, strategy_key: str) -> Path:
        return self.root / signature[:2] / f"{signature}.{strategy_key}.json"

    def get(self, signature: str, strategy_key: str) -> CacheEntry | None:
        """Look up an entry; corrupted/unreadable entries count as misses."""
        path = self._path(signature, strategy_key)
        try:
            doc = json.loads(path.read_text())
            entry = CacheEntry.from_doc(doc)
            if entry.signature != signature or entry.strategy_key != strategy_key:
                raise ValueError("cache entry key mismatch")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # corrupted entry: drop it and recompute rather than crash
            self.stats.misses += 1
            self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
            return None
        self.stats.hits += 1
        return entry

    def put(self, entry: CacheEntry) -> Path:
        """Atomically persist ``entry``; last writer wins."""
        path = self._path(entry.signature, entry.strategy_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(entry.to_doc(), indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - best effort
                pass
            raise
        self.stats.writes += 1
        return path

    #: entries live at <root>/<2-hex shard>/<64-hex sig>.<key>.json —
    #: clear()/__len__ match only this shape, so pointing --cache-dir at
    #: an arbitrary directory can never destroy unrelated JSON files
    _ENTRY_NAME = re.compile(r"^[0-9a-f]{64}\.[^/]+\.json$")
    _SHARD_NAME = re.compile(r"^[0-9a-f]{2}$")

    def _entry_paths(self) -> Iterator[Path]:
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if not (shard.is_dir() and self._SHARD_NAME.match(shard.name)):
                continue
            for path in sorted(shard.iterdir()):
                if path.is_file() and self._ENTRY_NAME.match(path.name):
                    yield path

    def clear(self) -> int:
        """Delete every *cache entry* (and only entries); returns count."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - best effort
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleCache({str(self.root)!r}, entries={len(self)})"
