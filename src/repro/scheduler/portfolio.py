"""The schedule cache's one reader and one writer.

Every front door that compiles a graph —
:class:`~repro.compiler.pipeline.CompilationPipeline` (and so
``compile``, ``compile-batch`` and ``serve --cell``) and the experiment
harness (:func:`repro.experiments.common.compiled`) — serves and records
schedules in the persistent
:class:`~repro.scheduler.cache.ScheduleCache` through these helpers,
keyed by the canonical
:func:`~repro.graph.serialization.graph_signature` and the strategy's
``cache_key``, so any of them warms the cache for the others and a warm
re-run of the whole model suite reduces to directory lookups.
"""

from __future__ import annotations

from typing import Callable

from repro.graph.graph import Graph
from repro.graph.serialization import canonical_node_keys
from repro.scheduler.cache import CacheEntry, ScheduleCache
from repro.scheduler.registry import StrategyOutcome, StrategySpec, measure
from repro.scheduler.schedule import Schedule

__all__ = ["schedule_from_entry", "outcome_from_cache", "store_outcome"]


def schedule_from_entry(entry: CacheEntry, target: Graph) -> Schedule | None:
    """Replay a cached order onto a concrete graph, defensively.

    The stored order may use another instance's node names (cache keys
    are rename-invariant); in that case it is translated through the
    canonical node keys. Either way the schedule is validated against
    ``target`` — a stale, colliding, or hand-edited entry yields
    ``None`` (recompute), never an invalid schedule.
    """
    from repro.exceptions import InvalidScheduleError

    order = entry.order
    if set(order) != set(target.node_names):
        if entry.canon_order is None or len(entry.canon_order) != len(order):
            return None
        key_to_name = {k: n for n, k in canonical_node_keys(target).items()}
        try:
            order = tuple(key_to_name[k] for k in entry.canon_order)
        except KeyError:
            return None
    schedule = Schedule(order, target.name)
    try:
        schedule.validate(target)
    except InvalidScheduleError:
        return None
    return schedule


def outcome_from_cache(
    cache: ScheduleCache,
    spec: StrategySpec,
    signature: str,
    graph: Graph,
    rewritten: Callable[[], Graph],
) -> StrategyOutcome | None:
    """Serve one (graph, strategy) pair from the persistent cache.

    Peaks are recomputed by :func:`~repro.scheduler.registry.measure`
    from the served schedule rather than trusted from the entry, so a
    bad entry can at worst cause a recompute, never a wrong number.
    """
    entry = cache.get(signature, spec.cache_key)
    if entry is None:
        return None
    target = rewritten() if spec.rewrites else graph
    schedule = schedule_from_entry(entry, target)
    if schedule is None:
        return None
    time_s = float(entry.meta.get("time_s", 0.0))
    return measure(spec.name, target, schedule, time_s, cached=True)


def store_outcome(
    cache: ScheduleCache,
    signature: str,
    spec: StrategySpec,
    out: StrategyOutcome,
) -> None:
    """Record a freshly-compiled outcome under the strategy's cache key."""
    keys = canonical_node_keys(out.scheduled_graph)
    cache.put(
        CacheEntry(
            signature=signature,
            strategy_key=spec.cache_key,
            graph_name=out.scheduled_graph.name,
            order=out.schedule.order,
            canon_order=tuple(keys[n] for n in out.schedule.order),
            peak_bytes=out.peak_bytes,
            arena_bytes=out.arena_bytes,
            meta={"time_s": out.time_s, "strategy": spec.name},
        )
    )
