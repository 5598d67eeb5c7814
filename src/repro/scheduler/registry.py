"""Named scheduling strategies.

A *strategy* is a named recipe that turns a graph into a schedule: the
paper's pipeline with and without rewriting, the greedy list scheduler,
and the memory-oblivious Kahn/DFS baselines. The registry gives each
one a stable name so that

* :meth:`~repro.compiler.pipeline.CompilationPipeline.compile_batch`
  can compile in worker processes (workers resolve the strategy by
  name — only documents cross the process boundary), and
* the persistent :class:`~repro.scheduler.cache.ScheduleCache` can key
  cached schedules by ``(graph signature, strategy key)``.

Rewriting is handled uniformly: a strategy declares ``rewrites=True``
and :func:`run_strategy` applies identity graph rewriting before
invoking it, so every registered callable only ever maps *one* graph to
*one* schedule. The outcome records which graph the schedule targets
(``scheduled_graph``) — for rewriting strategies that is the rewritten
graph, exactly as in :class:`~repro.scheduler.serenity.Serenity`.

Every outcome's ``peak_bytes``/``arena_bytes`` are computed by
:func:`measure` — the one place in the library where a schedule meets
the numbers the paper reports for it: the reference
:func:`~repro.scheduler.memory.simulate_schedule` replay and the
first-fit arena layout over one shared
:class:`~repro.scheduler.memory.BufferModel`. They are never trusted
from the strategy or a cache entry, so the numbers are comparable
across strategies by construction, and the layout rides on the outcome
(``plan``) for :func:`repro.compiler.pipeline.freeze` to reuse. A
change to what "peak" means (operator scratch, a traffic objective) is
a change to :func:`measure` and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.exceptions import SchedulingError
from repro.graph.graph import Graph
from repro.scheduler.divide import DivideAndConquerScheduler
from repro.scheduler.greedy import greedy_schedule
from repro.scheduler.memory import BufferModel, simulate_schedule
from repro.scheduler.schedule import Schedule
from repro.scheduler.topological import dfs_schedule, kahn_schedule

if TYPE_CHECKING:
    from repro.allocator.arena import AllocationPlan

__all__ = [
    "StrategySpec",
    "StrategyOutcome",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "iter_strategies",
    "measure",
    "run_strategy",
]


@dataclass(frozen=True)
class StrategySpec:
    """One registered scheduling strategy.

    ``version`` salts the persistent-cache key: bump it whenever the
    strategy's behaviour changes, or stale cached schedules would be
    served for the old behaviour.
    """

    name: str
    summary: str
    run: Callable[[Graph], Schedule]
    rewrites: bool = False
    version: str = "1"

    @property
    def cache_key(self) -> str:
        return f"{self.name}@{self.version}"


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's result on one graph, with replay-verified peaks."""

    strategy: str
    schedule: Schedule
    #: the graph the schedule orders (rewritten when the strategy rewrites)
    scheduled_graph: Graph
    #: peak under sum-of-live-activations semantics (simulate_schedule)
    peak_bytes: int
    #: peak under the TFLite-style first-fit arena allocator
    arena_bytes: int
    time_s: float
    cached: bool = False
    #: the first-fit layout ``arena_bytes`` was read from (``None`` on
    #: outcomes assembled by hand rather than by :func:`measure`)
    plan: "AllocationPlan | None" = field(default=None, compare=False, repr=False)

    def fits(self, budget_bytes: int) -> bool:
        """Whether the allocator-level peak meets a device budget."""
        return self.arena_bytes <= budget_bytes


_REGISTRY: dict[str, StrategySpec] = {}


def register_strategy(
    name: str,
    *,
    summary: str,
    rewrites: bool = False,
    version: str = "1",
) -> Callable[[Callable[[Graph], Schedule]], Callable[[Graph], Schedule]]:
    """Decorator registering ``fn`` as the strategy ``name``."""

    def deco(fn: Callable[[Graph], Schedule]) -> Callable[[Graph], Schedule]:
        if name in _REGISTRY:
            raise SchedulingError(f"duplicate strategy name {name!r}")
        _REGISTRY[name] = StrategySpec(
            name=name,
            summary=summary,
            run=fn,
            rewrites=rewrites,
            version=version,
        )
        return fn

    return deco


def get_strategy(name: str) -> StrategySpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchedulingError(
            f"unknown strategy {name!r}; available: {strategy_names()}"
        ) from None


def strategy_names() -> list[str]:
    """All registered names, in registration order (cheapest first)."""
    return list(_REGISTRY)


def iter_strategies() -> Iterator[StrategySpec]:
    for name in strategy_names():
        yield _REGISTRY[name]


def measure(
    strategy: str,
    target: Graph,
    schedule: Schedule,
    time_s: float,
    cached: bool = False,
) -> StrategyOutcome:
    """Replay ``schedule`` on ``target`` and lay it out first-fit, over
    one :class:`BufferModel`; the layout rides on the outcome."""
    from repro.allocator.arena import plan_allocation

    model = BufferModel.of(target)
    trace = simulate_schedule(target, schedule, model=model, validate=False)
    plan = plan_allocation(target, schedule, model=model)
    return StrategyOutcome(
        strategy=strategy,
        schedule=schedule,
        scheduled_graph=target,
        peak_bytes=trace.peak_bytes,
        arena_bytes=plan.arena_bytes,
        time_s=time_s,
        cached=cached,
        plan=plan,
    )


def run_strategy(name: str, graph: Graph) -> StrategyOutcome:
    """Execute one strategy on ``graph`` and :func:`measure` the result."""
    from repro.rewriting.rewriter import rewrite_graph

    spec = get_strategy(name)
    t0 = time.perf_counter()
    target = rewrite_graph(graph).graph if spec.rewrites else graph
    schedule = spec.run(target)
    return measure(name, target, schedule, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# built-in strategies
# ----------------------------------------------------------------------
def _divide_and_conquer(max_states_per_step: int | None) -> Callable[[Graph], Schedule]:
    def run(graph: Graph) -> Schedule:
        dnc = DivideAndConquerScheduler(max_states_per_step=max_states_per_step)
        return dnc.schedule(graph).schedule

    return run


register_strategy(
    "kahn",
    summary="Kahn topological order, insertion tie-break (TFLite baseline)",
)(kahn_schedule)

register_strategy(
    "dfs",
    summary="depth-first topological order (eager codegen baseline)",
)(dfs_schedule)

register_strategy(
    "greedy",
    summary="greedy memory-aware list scheduler",
)(greedy_schedule)

register_strategy(
    "serenity-dp",
    summary="divide-and-conquer DP + adaptive budgeting, no rewriting",
    version="2",
)(_divide_and_conquer(max_states_per_step=50_000))

register_strategy(
    "serenity",
    summary="full SERENITY: rewriting + divide-and-conquer DP + budgeting",
    rewrites=True,
    version="2",
)(_divide_and_conquer(max_states_per_step=50_000))
