"""Schedulers: the DP core, its accelerators, and baselines."""

from repro.scheduler.annealing import AnnealingResult, anneal_schedule

from repro.scheduler.brute import BruteForceResult, brute_force_schedule
from repro.scheduler.cache import CacheEntry, CacheStats, ScheduleCache
from repro.scheduler.device import (
    AMBIQ_APOLLO3,
    KNOWN_DEVICES,
    SPARKFUN_EDGE,
    STM32F746,
    DeviceFitReport,
    DeviceSpec,
    fit_to_device,
)
from repro.scheduler.budget import (
    AdaptiveSoftBudgetScheduler,
    BudgetProbe,
    BudgetSearchResult,
)
from repro.scheduler.divide import (
    DivideAndConquerResult,
    DivideAndConquerScheduler,
    SegmentOutcome,
)
from repro.scheduler.dp import DPResult, DPScheduler, dp_schedule
from repro.scheduler.greedy import greedy_schedule
from repro.scheduler.memory import (
    BufferModel,
    MemoryTrace,
    peak_of,
    simulate_schedule,
)
from repro.scheduler.portfolio import schedule_from_entry
from repro.scheduler.registry import (
    StrategyOutcome,
    StrategySpec,
    get_strategy,
    register_strategy,
    run_strategy,
    strategy_names,
)
from repro.scheduler.schedule import Schedule
from repro.scheduler.serenity import (
    Serenity,
    SerenityConfig,
    SerenityReport,
    schedule_graph,
)
from repro.scheduler.topological import (
    count_topological_orders,
    dfs_schedule,
    iter_topological_orders,
    kahn_schedule,
    random_topological,
)

__all__ = [
    "Schedule",
    "BufferModel",
    "MemoryTrace",
    "simulate_schedule",
    "peak_of",
    "kahn_schedule",
    "dfs_schedule",
    "random_topological",
    "iter_topological_orders",
    "count_topological_orders",
    "greedy_schedule",
    "brute_force_schedule",
    "BruteForceResult",
    "DPScheduler",
    "DPResult",
    "dp_schedule",
    "AdaptiveSoftBudgetScheduler",
    "BudgetProbe",
    "BudgetSearchResult",
    "DivideAndConquerScheduler",
    "DivideAndConquerResult",
    "SegmentOutcome",
    "Serenity",
    "SerenityConfig",
    "SerenityReport",
    "schedule_graph",
    "anneal_schedule",
    "AnnealingResult",
    "DeviceSpec",
    "DeviceFitReport",
    "fit_to_device",
    "SPARKFUN_EDGE",
    "STM32F746",
    "AMBIQ_APOLLO3",
    "KNOWN_DEVICES",
    "ScheduleCache",
    "CacheEntry",
    "CacheStats",
    "StrategySpec",
    "StrategyOutcome",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "run_strategy",
    "schedule_from_entry",
]
