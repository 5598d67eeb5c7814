"""SERENITY pipeline facade (paper Fig 4).

``identity graph rewriting -> divide-and-conquer -> DP + adaptive soft
budgeting``, returning a rich report with both the "sum of live
activations" peak (Fig 12(b)) and the arena-allocator peak (Fig 12(a) /
Fig 10's "+ Memory Allocator" series). The report *holds* two
:class:`~repro.scheduler.registry.StrategyOutcome` objects — the chosen
schedule and the Kahn baseline, both measured by
:func:`~repro.scheduler.registry.measure` — and exposes their numbers
as read-only views, so a report, a registry outcome and a compiled
artifact can never disagree about a peak.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.scheduler.divide import DivideAndConquerResult, DivideAndConquerScheduler
from repro.scheduler.memory import MemoryTrace, simulate_schedule
from repro.scheduler.registry import StrategyOutcome, measure, run_strategy

__all__ = ["SerenityConfig", "SerenityReport", "Serenity", "schedule_graph"]


@dataclass(frozen=True)
class SerenityConfig:
    """Pipeline switches, mirroring the paper's ablation axes.

    ``rewrite``            identity graph rewriting (Section 3.3)
    ``divide``             divide-and-conquer partitioning (Section 3.2)
    ``adaptive_budget``    Algorithm 2 around each DP run
    """

    rewrite: bool = True
    divide: bool = True
    adaptive_budget: bool = True
    max_states_per_step: int | None = 50_000
    step_timeout_s: float | None = None
    min_segment_nodes: int = 2
    max_probes: int = 24

    @property
    def strategy(self) -> str:
        """The registry entry this configuration is an instance of (the
        other switches at their defaults reproduce it exactly)."""
        return "serenity" if self.rewrite else "serenity-dp"


@dataclass(frozen=True)
class SerenityReport:
    """Everything the experiments need about one compilation."""

    config: SerenityConfig
    graph: Graph
    #: the chosen schedule on the graph actually scheduled (rewritten
    #: when config.rewrite), measured; ``cached`` when the schedule was
    #: replayed from a persistent cache entry
    outcome: StrategyOutcome
    #: Kahn on the *original* graph, measured the same way
    baseline: StrategyOutcome
    rewrite_count: int
    #: DP search statistics (``None`` on a cache-served report)
    divide: DivideAndConquerResult | None = None

    scheduled_graph = property(lambda self: self.outcome.scheduled_graph)
    schedule = property(lambda self: self.outcome.schedule)
    #: optimal peak, sum-of-live-activations semantics (no allocator)
    peak_bytes = property(lambda self: self.outcome.peak_bytes)
    #: peak arena bytes under the TFLite-style first-fit allocator
    arena_bytes = property(lambda self: self.outcome.arena_bytes)
    baseline_peak_bytes = property(lambda self: self.baseline.peak_bytes)
    baseline_arena_bytes = property(lambda self: self.baseline.arena_bytes)
    scheduling_time_s = property(lambda self: self.outcome.time_s)
    from_cache = property(lambda self: self.outcome.cached)

    def search_stats(self) -> DivideAndConquerResult:
        """The DP search statistics, or a loud error explaining why not.

        Cache-rebuilt reports replay the schedule without re-running the
        search, so ``divide`` is ``None``; harnesses that need
        ``states_expanded`` must compile directly (or disable the cache)
        rather than read a silent zero.
        """
        if self.divide is None:
            from repro.exceptions import SchedulingError

            hint = (
                " (report was rebuilt from the schedule cache; compile "
                "directly or set REPRO_NO_CACHE=1 to get search statistics)"
                if self.from_cache
                else ""
            )
            raise SchedulingError(
                f"no search statistics for {self.graph.name!r}{hint}"
            )
        return self.divide

    @property
    def reduction_no_alloc(self) -> float:
        """Baseline/serenity peak ratio without the allocator."""
        return self.baseline_peak_bytes / self.peak_bytes

    @property
    def reduction_with_alloc(self) -> float:
        """Baseline/serenity ratio under the arena allocator — the
        quantity plotted in Fig 10."""
        return self.baseline_arena_bytes / self.arena_bytes

    def trace(self) -> MemoryTrace:
        """Footprint trace of the chosen schedule (Fig 12(b) series)."""
        return simulate_schedule(self.scheduled_graph, self.schedule, validate=False)


class Serenity:
    """End-to-end memory-aware compiler for irregularly wired networks.

    >>> from repro.models import swiftnet_cell_a
    >>> report = Serenity().compile(swiftnet_cell_a())
    >>> report.reduction_with_alloc > 1.0
    True
    """

    def __init__(self, config: SerenityConfig | None = None) -> None:
        self.config = config or SerenityConfig()

    def compile(self, graph: Graph) -> SerenityReport:
        from repro.rewriting import rewrite_graph

        cfg = self.config
        t0 = time.perf_counter()

        scheduled_graph = graph
        rewrite_count = 0
        if cfg.rewrite:
            rewritten = rewrite_graph(graph)
            scheduled_graph = rewritten.graph
            rewrite_count = rewritten.applied

        dnc = DivideAndConquerScheduler(
            adaptive_budget=cfg.adaptive_budget,
            max_states_per_step=cfg.max_states_per_step,
            step_timeout_s=cfg.step_timeout_s,
            min_segment_nodes=cfg.min_segment_nodes if cfg.divide else 10**9,
            max_probes=cfg.max_probes,
        )
        result = dnc.schedule(scheduled_graph)
        elapsed = time.perf_counter() - t0

        return SerenityReport(
            config=cfg,
            graph=graph,
            outcome=measure(cfg.strategy, scheduled_graph, result.schedule, elapsed),
            baseline=run_strategy("kahn", graph),
            rewrite_count=rewrite_count,
            divide=result,
        )


def schedule_graph(graph: Graph, **config_kwargs) -> SerenityReport:
    """One-call compilation: ``schedule_graph(g, rewrite=False, ...)``."""
    return Serenity(SerenityConfig(**config_kwargs)).compile(graph)
