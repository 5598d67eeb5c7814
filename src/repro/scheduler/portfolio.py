"""Parallel portfolio compilation over batches of graphs.

The paper's pipeline compiles one graph at a time; production compiles
*fleets* of irregularly wired networks against concrete devices. This
module scales that out along two axes:

* **portfolio racing** — every graph is compiled by several registered
  strategies (:mod:`repro.scheduler.registry`), from the free Kahn
  baseline up to full SERENITY. When a :class:`DeviceSpec` budget is
  given, the race short-circuits: as soon as any strategy's
  allocator-level peak fits the device (the same criterion as
  :func:`~repro.scheduler.device.fit_to_device`), the remaining —
  strictly more expensive — strategies for that graph are cancelled.
* **process parallelism** — strategy runs fan out over a
  ``concurrent.futures.ProcessPoolExecutor``; only graph documents and
  strategy *names* cross the process boundary, so workers stay cheap to
  feed and results are plain dicts.

Every outcome is recorded in a persistent
:class:`~repro.scheduler.cache.ScheduleCache` keyed by the canonical
:func:`~repro.graph.serialization.graph_signature`, so a warm re-run of
the whole model suite reduces to directory lookups.
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.graph.graph import Graph
from repro.graph.serialization import (
    canonical_node_keys,
    graph_from_dict,
    graph_signature,
    graph_to_dict,
)
from repro.scheduler.cache import CacheEntry, ScheduleCache
from repro.scheduler.device import DeviceSpec
from repro.scheduler.registry import (
    StrategyOutcome,
    StrategySpec,
    default_portfolio,
    get_strategy,
    measure,
    run_strategy,
)
from repro.scheduler.schedule import Schedule

__all__ = [
    "PortfolioResult",
    "BatchReport",
    "PortfolioCompiler",
    "schedule_from_entry",
    "outcome_from_cache",
    "store_outcome",
]


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
    Shared by the portfolio compiler, the
    :class:`~repro.compiler.pipeline.CompilationPipeline` and the
    experiment harness (:func:`repro.experiments.common.compiled`).
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


@dataclass(frozen=True)
class PortfolioResult:
    """All strategy outcomes for one graph, plus the race verdict."""

    graph_name: str
    signature: str
    outcomes: tuple[StrategyOutcome, ...]
    #: strategies skipped or cancelled by the early budget exit
    cancelled: tuple[str, ...]
    #: strategies recomputed in-process after their worker pool broke
    fallbacks: tuple[str, ...] = ()
    device: DeviceSpec | None = None
    #: strategies disqualified by the static plan verifier — a schedule
    #: or plan with error-severity findings can never win the race
    rejected: tuple[str, ...] = ()

    @property
    def winner(self) -> StrategyOutcome:
        """Lowest ideal peak among verified outcomes; ties break on
        arena peak, then on cost."""
        pool = [o for o in self.outcomes if o.strategy not in self.rejected]
        return min(
            pool or self.outcomes,
            key=lambda o: (o.peak_bytes, o.arena_bytes, get_strategy(o.strategy).rank),
        )

    @property
    def cache_hit(self) -> bool:
        """Whether *every* outcome was served from the persistent cache."""
        return all(o.cached for o in self.outcomes)

    @property
    def fits(self) -> bool | None:
        """Budget verdict for the winner (None without a device)."""
        if self.device is None:
            return None
        return self.winner.fits(self.device.sram_bytes)


@dataclass(frozen=True)
class BatchReport:
    """One ``compile_batch`` run over a set of graphs."""

    results: tuple[PortfolioResult, ...]
    strategies: tuple[str, ...]
    workers: int
    wall_time_s: float
    #: per-(graph, strategy) cache accounting for THIS batch
    cache_hits: int
    cache_lookups: int
    device: DeviceSpec | None = None

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    def summary(self) -> str:
        lines = [
            "portfolio compilation report",
            f"  graphs {len(self.results)}, workers {self.workers}, "
            f"strategies: {','.join(self.strategies)}",
        ]
        if self.device is not None:
            lines.append(
                f"  device: {self.device.name} ({self.device.sram_kib:.0f}KB budget)"
            )
        lines.append("")
        header = (
            f"  {'graph':<18s} {'winner':<14s} {'peak KB':>9s} {'arena KB':>9s}"
            f" {'time':>8s}  {'fits':<5s} {'cache':<7s} {'cancelled':<s}"
        )
        lines.append(header)
        for r in self.results:
            w = r.winner
            fits = "-" if r.fits is None else ("yes" if r.fits else "no")
            cache = "hit" if r.cache_hit else (
                "part" if any(o.cached for o in r.outcomes) else "miss"
            )
            cancelled = ",".join(r.cancelled) if r.cancelled else "-"
            lines.append(
                f"  {r.graph_name:<18s} {w.strategy:<14s}"
                f" {w.peak_bytes / 1024:>9.1f} {w.arena_bytes / 1024:>9.1f}"
                f" {w.time_s:>7.2f}s  {fits:<5s} {cache:<7s} {cancelled}"
            )
        lines.append("")
        lines.append(
            f"  wall time {self.wall_time_s:.2f}s; cache hits "
            f"{self.cache_hits}/{self.cache_lookups} "
            f"({100.0 * self.hit_rate:.1f}%)"
        )
        degraded = [
            f"{r.graph_name}:{name}" for r in self.results for name in r.fallbacks
        ]
        if degraded:
            lines.append(
                "  worker pool broke; recomputed in-process: "
                + ", ".join(degraded)
            )
        disqualified = [
            f"{r.graph_name}:{name}" for r in self.results for name in r.rejected
        ]
        if disqualified:
            lines.append(
                "  rejected by plan verification: " + ", ".join(disqualified)
            )
        if self.device is not None:
            n_fit = sum(1 for r in self.results if r.fits)
            lines.append(
                f"  deployable on {self.device.name}: {n_fit}/{len(self.results)}"
            )
        return "\n".join(lines)


def _strategy_task(doc: dict[str, Any], name: str) -> dict[str, Any]:
    """Worker-side strategy run: document in, plain dict out.

    Runs in a ``ProcessPoolExecutor`` worker; the strategy is resolved
    from the worker's own registry, so no callables are pickled.
    """
    graph = graph_from_dict(doc)
    out = run_strategy(name, graph)
    rewrites = get_strategy(name).rewrites
    return {
        "strategy": name,
        "order": list(out.schedule.order),
        "peak_bytes": out.peak_bytes,
        "arena_bytes": out.arena_bytes,
        "time_s": out.time_s,
        "target_doc": graph_to_dict(out.scheduled_graph) if rewrites else None,
    }


class PortfolioCompiler:
    """Race a portfolio of scheduling strategies over a batch of graphs.

    Parameters
    ----------
    strategies:
        Registry names to race (default :func:`default_portfolio`);
        always executed cheapest-first per the registry's cost ranks.
    workers:
        ``<= 1`` runs in-process (deterministic, no executor);
        ``>= 2`` fans strategy runs out over that many worker processes.
    cache:
        A :class:`ScheduleCache`, or ``None`` to compile uncached.
    device:
        Optional budget enabling the early-cancellation race.
    verify:
        When true (default), each graph's would-be winner is screened
        through the static plan verifier before the race verdict:
        its schedule plus its arena plan must analyze clean at
        ``"basic"`` level. A failing strategy is *rejected* (recorded
        on the result) and the next-best outcome races in its place —
        a corrupted or hazardous plan can never be crowned. Raises
        :class:`~repro.exceptions.SchedulingError` when every outcome
        for a graph fails analysis.
    """

    def __init__(
        self,
        strategies: Sequence[str] | None = None,
        *,
        workers: int = 0,
        cache: ScheduleCache | None = None,
        device: DeviceSpec | None = None,
        verify: bool = True,
    ) -> None:
        names = tuple(
            dict.fromkeys(strategies if strategies is not None else default_portfolio())
        )
        specs = sorted(
            (get_strategy(n) for n in names), key=lambda s: (s.rank, s.name)
        )
        self.strategies: tuple[str, ...] = tuple(s.name for s in specs)
        self.workers = workers
        self.cache = cache
        self.device = device
        self.verify = verify

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _cached_outcome(
        self,
        spec: StrategySpec,
        signature: str,
        graph: Graph,
        rewritten: Callable[[], Graph],
    ) -> StrategyOutcome | None:
        if self.cache is None:
            return None
        return outcome_from_cache(self.cache, spec, signature, graph, rewritten)

    def _store(self, signature: str, spec: StrategySpec, out: StrategyOutcome) -> None:
        if self.cache is None:
            return
        store_outcome(self.cache, signature, spec, out)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self, graph: Graph) -> PortfolioResult:
        """Portfolio-compile a single graph."""
        return self.compile_batch([graph]).results[0]

    def compile_batch(self, graphs: Sequence[Graph]) -> BatchReport:
        """Compile every graph with every strategy (modulo cache hits and
        budget cancellations) and report the per-graph winners.

        Duplicate graphs in one cold batch are compiled independently
        (the cache only dedupes across *completed* compilations).
        """
        t0 = time.perf_counter()
        graphs = list(graphs)
        budget = self.device.sram_bytes if self.device is not None else None

        signatures = [graph_signature(g) for g in graphs]
        rewritten_memo: dict[int, Graph] = {}

        def rewritten_of(gi: int) -> Graph:
            if gi not in rewritten_memo:
                from repro.rewriting.rewriter import rewrite_graph

                rewritten_memo[gi] = rewrite_graph(graphs[gi]).graph
            return rewritten_memo[gi]

        outcomes: dict[int, dict[str, StrategyOutcome]] = defaultdict(dict)
        cancelled: dict[int, list[str]] = defaultdict(list)
        fallbacks: dict[int, list[str]] = defaultdict(list)
        hits = 0
        lookups = 0

        # Phase 1: serve what we can from the cache, cheapest-first, and
        # plan the remaining runs. A cached outcome that already fits the
        # budget cancels everything more expensive before it is submitted.
        pending: list[tuple[int, str]] = []  # rank-ordered per graph
        for gi, graph in enumerate(graphs):
            satisfied = False
            for name in self.strategies:
                spec = get_strategy(name)
                if satisfied:
                    cancelled[gi].append(name)
                    continue
                if self.cache is not None:
                    lookups += 1
                out = self._cached_outcome(
                    spec, signatures[gi], graph, lambda gi=gi: rewritten_of(gi)
                )
                if out is not None:
                    hits += 1
                    outcomes[gi][name] = out
                    if budget is not None and out.fits(budget):
                        satisfied = True
                else:
                    pending.append((gi, name))

        # Phase 2: run the misses.
        if pending:
            if self.workers <= 1:
                self._run_serial(pending, graphs, signatures, outcomes, cancelled)
            else:
                self._run_parallel(
                    pending, graphs, signatures, outcomes, cancelled, fallbacks
                )

        rejected: dict[int, tuple[str, ...]] = {}
        for gi in range(len(graphs)):
            got = tuple(
                outcomes[gi][n] for n in self.strategies if n in outcomes[gi]
            )
            rejected[gi] = self._screen_winner(graphs[gi].name, got)

        results = tuple(
            PortfolioResult(
                graph_name=graphs[gi].name,
                signature=signatures[gi],
                outcomes=tuple(
                    outcomes[gi][n] for n in self.strategies if n in outcomes[gi]
                ),
                cancelled=tuple(cancelled[gi]),
                fallbacks=tuple(fallbacks[gi]),
                device=self.device,
                rejected=rejected[gi],
            )
            for gi in range(len(graphs))
        )
        return BatchReport(
            results=results,
            strategies=self.strategies,
            workers=self.workers,
            wall_time_s=time.perf_counter() - t0,
            cache_hits=hits,
            cache_lookups=lookups,
            device=self.device,
        )

    # ------------------------------------------------------------------
    def _screen_winner(
        self, graph_name: str, got: tuple[StrategyOutcome, ...]
    ) -> tuple[str, ...]:
        """Disqualify would-be winners whose plans fail static analysis.

        Candidates are tried in race order (the :attr:`winner` key);
        the first whose schedule + arena plan (the one its outcome was
        measured with, else a fresh one) analyzes clean at ``"basic"``
        level stops the screen, so the common case costs one
        verification per graph. Returns the rejected strategy
        names; raises :class:`~repro.exceptions.SchedulingError` when
        no outcome survives.
        """
        if not self.verify or not got:
            return ()
        from repro.allocator.arena import plan_allocation
        from repro.analysis.verifier import analyze_plan
        from repro.exceptions import AllocationError, SchedulingError

        rejected: list[str] = []
        ordered = sorted(
            got,
            key=lambda o: (o.peak_bytes, o.arena_bytes, get_strategy(o.strategy).rank),
        )
        for out in ordered:
            target = out.scheduled_graph
            try:
                plan = out.plan or plan_allocation(target, out.schedule)
                report = analyze_plan(
                    target, out.schedule, plan, level="basic"
                )
            except AllocationError:
                rejected.append(out.strategy)
                continue
            if report.ok:
                return tuple(rejected)
            rejected.append(out.strategy)
        raise SchedulingError(
            f"every portfolio outcome for {graph_name!r} failed static "
            f"plan verification: {', '.join(rejected)}"
        )

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        pending: list[tuple[int, str]],
        graphs: list[Graph],
        signatures: list[str],
        outcomes: dict[int, dict[str, StrategyOutcome]],
        cancelled: dict[int, list[str]],
    ) -> None:
        budget = self.device.sram_bytes if self.device is not None else None
        satisfied: set[int] = set()
        for gi, name in pending:  # already rank-ordered within each graph
            if gi in satisfied:
                cancelled[gi].append(name)
                continue
            spec = get_strategy(name)
            out = run_strategy(name, graphs[gi])
            outcomes[gi][name] = out
            self._store(signatures[gi], spec, out)
            if budget is not None and out.fits(budget):
                satisfied.add(gi)

    def _collect(
        self,
        gi: int,
        name: str,
        res: dict[str, Any],
        graphs: list[Graph],
        signatures: list[str],
        outcomes: dict[int, dict[str, StrategyOutcome]],
    ) -> StrategyOutcome:
        """Turn one worker result dict into a stored StrategyOutcome."""
        target = (
            graph_from_dict(res["target_doc"])
            if res["target_doc"] is not None
            else graphs[gi]
        )
        out = StrategyOutcome(
            strategy=name,
            schedule=Schedule(tuple(res["order"]), target.name),
            scheduled_graph=target,
            peak_bytes=res["peak_bytes"],
            arena_bytes=res["arena_bytes"],
            time_s=res["time_s"],
        )
        outcomes[gi][name] = out
        self._store(signatures[gi], get_strategy(name), out)
        return out

    def _run_parallel(
        self,
        pending: list[tuple[int, str]],
        graphs: list[Graph],
        signatures: list[str],
        outcomes: dict[int, dict[str, StrategyOutcome]],
        cancelled: dict[int, list[str]],
        fallbacks: dict[int, list[str]],
    ) -> None:
        try:
            self._run_pool(pending, graphs, signatures, outcomes, cancelled)
        except BrokenProcessPool:
            # A worker died (OOM-killed, segfaulted, ...) and took the
            # whole pool with it; every in-flight result is lost. Rather
            # than aborting the batch, degrade the unfinished jobs to the
            # in-process sequential path and record the downgrade.
            remaining = [
                (gi, name)
                for gi, name in pending
                if name not in outcomes[gi] and name not in cancelled[gi]
            ]
            self._run_serial(remaining, graphs, signatures, outcomes, cancelled)
            for gi, name in remaining:
                if name in outcomes[gi]:
                    fallbacks[gi].append(name)

    def _run_pool(
        self,
        pending: list[tuple[int, str]],
        graphs: list[Graph],
        signatures: list[str],
        outcomes: dict[int, dict[str, StrategyOutcome]],
        cancelled: dict[int, list[str]],
    ) -> None:
        budget = self.device.sram_bytes if self.device is not None else None
        docs = {gi: graph_to_dict(graphs[gi]) for gi, _ in pending}

        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            if budget is None:
                # no race to win: submit everything, cheapest-first
                rank_of = {n: get_strategy(n).rank for n in self.strategies}
                future_of = {
                    pool.submit(_strategy_task, docs[gi], name): (gi, name)
                    for gi, name in sorted(
                        pending, key=lambda job: (rank_of[job[1]], job[0])
                    )
                }
                for fut, (gi, name) in future_of.items():
                    self._collect(gi, name, fut.result(), graphs, signatures, outcomes)
                return

            # Budget race. ProcessPoolExecutor cannot interrupt a task
            # that already started, so a bulk submit would let expensive
            # strategies begin before a cheap fit could cancel them. We
            # instead chain each graph's strategies strictly
            # cheapest-first (matching the serial path's semantics) and
            # keep the pool busy by racing the *graphs* in parallel; a
            # fit skips the graph's remaining, never-started strategies.
            queues: dict[int, list[str]] = defaultdict(list)
            for gi, name in pending:  # already rank-ordered per graph
                queues[gi].append(name)
            in_flight: dict[Any, tuple[int, str]] = {
                pool.submit(_strategy_task, docs[gi], queue[0]): (gi, queue[0])
                for gi, queue in queues.items()
            }
            for gi in queues:
                queues[gi].pop(0)

            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for fut in done:
                    gi, name = in_flight.pop(fut)
                    out = self._collect(
                        gi, name, fut.result(), graphs, signatures, outcomes
                    )
                    if out.fits(budget):
                        cancelled[gi].extend(queues[gi])
                        queues[gi].clear()
                    elif queues[gi]:
                        nxt = queues[gi].pop(0)
                        in_flight[
                            pool.submit(_strategy_task, docs[gi], nxt)
                        ] = (gi, nxt)
