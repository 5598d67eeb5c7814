"""The unified compile pipeline: graph in, :class:`CompiledModel` out.

There is one path from a graph to an artifact, and every front door —
:class:`CompilationPipeline` (one graph, or a batch over worker
processes), the experiment harness, ``Serenity().compile`` — walks it:

1. **strategy execution** — any strategy from
   :mod:`repro.scheduler.registry` (rewriting, when the strategy
   declares it, happens inside :func:`~repro.scheduler.registry.run_strategy`),
   or the same schedule served from the persistent
   :class:`~repro.scheduler.cache.ScheduleCache` when a valid entry
   exists for ``(graph_signature, strategy key)``;
2. **measurement** — :func:`~repro.scheduler.registry.measure` replays
   the schedule and lays it out first-fit over one buffer model; the
   resulting :class:`~repro.scheduler.registry.StrategyOutcome` carries
   both peaks *and* the validated layout;
3. **freezing** — :func:`freeze` re-checks the schedule as a
   topological order of the scheduled graph and assembles the
   :class:`CompiledModel`, reusing the outcome's layout when it is the
   allocator asked for (and, optionally, the compiled plan is executed
   and compared bitwise against the reference executor).

The artifact is what ``serenity run`` (or any future runtime) executes
as-is. Because cache keys and helpers
(:mod:`repro.scheduler.portfolio`) are shared with
:mod:`repro.experiments.common`, either warms the cache for the other.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Sequence

from repro.allocator.arena import plan_allocation
from repro.compiler.model import CompiledModel
from repro.graph.graph import Graph
from repro.graph.serialization import graph_from_dict, graph_signature, graph_to_dict
from repro.scheduler.cache import ScheduleCache
from repro.scheduler.device import DeviceSpec
from repro.scheduler.portfolio import outcome_from_cache, store_outcome
from repro.scheduler.registry import StrategyOutcome, get_strategy, run_strategy
from repro.scheduler.serenity import SerenityReport

__all__ = ["CompilationPipeline", "compiled_model_from_report", "freeze"]


def freeze(
    outcome: StrategyOutcome,
    source: Graph,
    source_signature: str | None = None,
    *,
    allocator: str = "first_fit",
    device: DeviceSpec | None = None,
    **meta: Any,
) -> CompiledModel:
    """Assemble the artifact for a measured ``outcome`` of ``source``.

    The only place a :class:`CompiledModel` is built outside
    ``from_doc``. ``meta`` adds caller-specific metadata
    (``compile_time_s``, ``rewrite_count``).
    """
    target = outcome.scheduled_graph
    outcome.schedule.validate(target)
    plan = outcome.plan
    if plan is None or plan.strategy != allocator:
        plan = plan_allocation(target, outcome.schedule, strategy=allocator)
    if source_signature is None:
        source_signature = graph_signature(source)
    meta = {
        "allocator": allocator,
        "cached": outcome.cached,
        "peak_bytes": outcome.peak_bytes,
        "schedule_time_s": outcome.time_s,
        **meta,
        "source_nodes": len(source),
        "nodes": len(target),
        # batched serving provisions batch_size x this figure: the
        # strided batch layout repeats the per-sample plan per row
        "arena_bytes_per_sample": plan.arena_bytes,
    }
    if device is not None:
        meta["fits"] = plan.arena_bytes <= device.sram_bytes
    return CompiledModel(
        graph=target,
        schedule=outcome.schedule,
        plan=plan,
        source_signature=source_signature,
        signature=(
            source_signature if target is source else graph_signature(target)
        ),
        strategy=outcome.strategy,
        device=device,
        meta=meta,
    )


class CompilationPipeline:
    """Compile graphs into frozen, executable :class:`CompiledModel`\\ s.

    Parameters
    ----------
    strategy:
        Registry name of the scheduling strategy (default ``serenity``,
        the paper's full pipeline).
    allocator:
        Arena offset allocator: ``first_fit`` (TFLite simple arena) or
        ``greedy_by_size``.
    device:
        Optional deployment target; recorded in the artifact and used
        for the ``fits`` verdict in the metadata.
    cache:
        A :class:`ScheduleCache` to serve/record schedules, or ``None``
        to always compile fresh.
    verify:
        When true, every compiled plan is executed on random inputs and
        compared bitwise against the reference executor before the
        artifact is returned (slow; off by default).
    """

    def __init__(
        self,
        strategy: str = "serenity",
        *,
        allocator: str = "first_fit",
        device: DeviceSpec | None = None,
        cache: ScheduleCache | None = None,
        verify: bool = False,
    ) -> None:
        self.spec = get_strategy(strategy)  # fail fast on unknown names
        self.allocator = allocator
        self.device = device
        self.cache = cache
        self.verify = verify

    # ------------------------------------------------------------------
    def compile(self, graph: Graph) -> CompiledModel:
        """Run the full pipeline on ``graph``."""
        graph.validate()
        t0 = time.perf_counter()
        signature = graph_signature(graph)

        outcome: StrategyOutcome | None = None
        if self.cache is not None:
            def rewritten() -> Graph:
                from repro.rewriting.rewriter import rewrite_graph

                return rewrite_graph(graph).graph

            outcome = outcome_from_cache(
                self.cache, self.spec, signature, graph, rewritten
            )
        if outcome is None:
            outcome = run_strategy(self.spec.name, graph)
            if self.cache is not None:
                store_outcome(self.cache, signature, self.spec, outcome)

        model = freeze(
            outcome,
            graph,
            signature,
            allocator=self.allocator,
            device=self.device,
            compile_time_s=time.perf_counter() - t0,
        )
        if self.verify:
            self._verify(model)
        return model

    def compile_batch(
        self, graphs: Sequence[Graph], workers: int = 0
    ) -> list[CompiledModel]:
        """Compile every graph, in order.

        ``workers <= 1`` compiles in-process; ``>= 2`` runs one job per
        graph over that many worker processes. Only documents cross the
        process boundary: a graph document goes in, the artifact
        document comes out and is re-checked by
        :meth:`CompiledModel.from_doc`. If a worker dies (OOM-killed,
        segfaulted, ...) it takes the pool with it; the graphs without
        a result are then compiled in-process and their artifacts carry
        ``meta["recomputed_in_process"] = True``.
        """
        graphs = list(graphs)
        if workers <= 1:
            return [self.compile(graph) for graph in graphs]
        settings = (
            self.spec.name,
            {
                "allocator": self.allocator,
                "device": self.device,
                "cache": self.cache,
                "verify": self.verify,
            },
        )
        docs: list[dict[str, Any] | None] = [None] * len(graphs)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_compile_task, settings, graph_to_dict(graph))
                    for graph in graphs
                ]
                for i, fut in enumerate(futures):
                    docs[i] = fut.result()
        except BrokenProcessPool:
            pass
        return [
            CompiledModel.from_doc(doc)
            if doc is not None
            else self._recompute(graph)
            for graph, doc in zip(graphs, docs)
        ]

    def _recompute(self, graph: Graph) -> CompiledModel:
        model = self.compile(graph)
        return replace(model, meta={**model.meta, "recomputed_in_process": True})

    def _verify(self, model: CompiledModel) -> None:
        from repro.exceptions import ExecutionError
        from repro.runtime.verify import verify_execution

        report = verify_execution(model)
        if not report:
            raise ExecutionError(
                f"compiled plan for {model.graph.name!r} diverges from the "
                f"reference executor (max abs error {report.max_abs_error:g})"
            )


def _compile_task(
    settings: tuple[str, dict[str, Any]], doc: dict[str, Any]
) -> dict[str, Any]:
    """Worker-side compile: graph document in, artifact document out.

    The strategy is resolved from the worker's own registry, so no
    callables are pickled.
    """
    strategy, options = settings
    pipeline = CompilationPipeline(strategy, **options)
    return pipeline.compile(graph_from_dict(doc)).to_doc()


def compiled_model_from_report(
    report: SerenityReport,
    *,
    allocator: str = "first_fit",
    device: DeviceSpec | None = None,
) -> CompiledModel:
    """Freeze an existing :class:`SerenityReport` into an artifact.

    Lets the experiment harnesses (which need the report's search
    statistics and baselines) export the same deployment artifact the
    :class:`CompilationPipeline` produces, without recompiling.
    """
    return freeze(
        report.outcome,
        report.graph,
        allocator=allocator,
        device=device,
        rewrite_count=report.rewrite_count,
    )
