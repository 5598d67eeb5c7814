"""The per-layer peel of the traced run.

Each layer (= module name) is timed by calling its **public entry
points** from here, on the same seeded inputs the end-to-end run uses,
with one request outstanding, inside a :class:`tracing.Tracer` span.
Nothing under ``src/`` is instrumented; spans inside the program are a
later change.

Two peels:

* :func:`compile_peel` walks one cell at a time down the compile side —
  graph build, signature, rewriting, scheduling, allocation, schedule
  cache, artifact save/load, static verification, spill planning, the
  offline traffic simulator — and hands back the artifacts it produced,
  so the traced run serves exactly what it peeled.
* :func:`request_peel` walks one request at a time up the serving side —
  reference ``Executor``, ``PlanExecutor.run`` on a leased pool
  executor, the pool lease itself, an in-process ``submit -> result``,
  and (sharded workloads) a sharded ``submit -> result`` — so each
  layer's *self* time is the layer above minus the layers it encloses.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
from loadgen import Request
from tracing import Tracer
from workloads import LINK, Reference, Server, Workload, build_graphs

from repro.allocator.arena import arena_peak_bytes, plan_allocation
from repro.allocator.spill import plan_spill
from repro.analysis.verifier import analyze_model
from repro.compiler import CompilationPipeline
from repro.compiler.model import CompiledModel
from repro.graph.serialization import graph_signature
from repro.memsim import offchip_traffic
from repro.rewriting.rewriter import rewrite_graph
from repro.scheduler import Serenity, SerenityConfig
from repro.scheduler.cache import ScheduleCache
from repro.scheduler.greedy import greedy_schedule
from repro.scheduler.memory import simulate_schedule
from repro.scheduler.portfolio import store_outcome
from repro.scheduler.registry import StrategyOutcome, get_strategy
from repro.scheduler.topological import kahn_schedule

__all__ = ["compile_peel", "request_peel"]

#: on-chip capacity of the offline traffic simulation (the fig-11 point)
MEMSIM_CAPACITY = 256 * 1024
BATCH = 8


def _schedule(strategy: str, target) -> tuple[Any, int]:
    """Run the strategy's scheduler on ``target``; returns the schedule
    and the DP states it expanded (0 for non-DP strategies)."""
    if strategy == "serenity":
        # the scheduler layer alone: ``target`` is already rewritten
        report = Serenity(SerenityConfig(rewrite=False)).compile(target)
        return report.schedule, report.search_stats().states_expanded
    return get_strategy(strategy).run(target), 0


def compile_peel(
    wl: Workload, workdir: Path, tracer: Tracer
) -> tuple[dict[str, CompiledModel], dict[str, Path], dict[str, float]]:
    """Peel the compile side cell by cell; returns the artifacts, their
    paths, and the exact counts the spans cannot carry."""
    spec = get_strategy(wl.strategy)
    cache = ScheduleCache(workdir / "peel-cache")
    pipeline = CompilationPipeline(wl.strategy, cache=cache)
    artifacts = workdir / "artifacts"
    artifacts.mkdir()
    models: dict[str, CompiledModel] = {}
    paths: dict[str, Path] = {}
    counts = dict.fromkeys(
        ("nodes", "rewrites", "states", "arena", "peak", "artifact_bytes",
         "diagnostics", "spill_windows", "traffic_bytes"), 0,
    )
    with tracer.span("graph.build"):
        graphs = build_graphs(wl)
    for cell, graph in graphs.items():
        counts["nodes"] += len(graph)
        with tracer.span("graph.signature"):
            signature = graph_signature(graph)
        target = graph
        if spec.rewrites:
            with tracer.span("rewriting.rewrite"):
                rewritten = rewrite_graph(graph)
            target = rewritten.graph
            counts["rewrites"] += rewritten.applied
        with tracer.span("scheduler.schedule"), tracer.span(f"scheduler.schedule.{cell}"):
            schedule, states = _schedule(wl.strategy, target)
        counts["states"] += states
        with tracer.span("scheduler.baseline_schedule"):
            kahn_schedule(graph)
            greedy_schedule(graph)
        with tracer.span("allocator.plan"):
            plan = plan_allocation(target, schedule)
        peak = simulate_schedule(target, schedule, validate=False).peak_bytes
        counts["arena"] += plan.arena_bytes
        counts["peak"] += peak
        outcome = StrategyOutcome(
            strategy=spec.name,
            schedule=schedule,
            scheduled_graph=target,
            peak_bytes=peak,
            arena_bytes=arena_peak_bytes(target, schedule),
            time_s=0.0,
        )
        with tracer.span("scheduler.cache_put"):
            store_outcome(cache, signature, spec, outcome)
        with tracer.span("scheduler.cache_get"):
            cache.get(signature, spec.cache_key)
        # the artifact is the pipeline's own, built from the entry just
        # stored, so what is served below is what a warm compile yields
        with tracer.span("compiler.compile_warm"):
            model = pipeline.compile(graph)
        with tracer.span("compiler.save"):
            path = model.save(artifacts / f"{cell}.json")
        counts["artifact_bytes"] += path.stat().st_size
        with tracer.span("compiler.load"):
            CompiledModel.load(path, verify="none")
        with tracer.span("analysis.verify_full"):
            report = analyze_model(model, level="full", batch_sizes=(1, BATCH))
        counts["diagnostics"] += len(report)
        if wl.spills:
            with tracer.span("allocator.spill_plan"):
                spill = plan_spill(
                    model.graph, model.schedule, model.plan, wl.budget,
                    tile_bytes=wl.tile_bytes,
                )
            counts["spill_windows"] += sum(len(ws) for ws in spill.windows.values())
        with tracer.span("memsim.traffic"):
            traffic = offchip_traffic(model.graph, model.schedule, MEMSIM_CAPACITY)
        counts["traffic_bytes"] += traffic.total_bytes
        models[cell] = model
        paths[cell] = path
    counts["cache_hit_rate"] = cache.stats.hit_rate
    return models, paths, counts


def request_peel(
    wl: Workload,
    paths: Mapping[str, Path],
    server: Server,
    requests: Sequence[Request],
    reference: Reference,
    seed: int,
    count: int,
    tracer: Tracer,
) -> dict[str, float]:
    """Peel ``count`` requests layer by layer, one outstanding; returns
    the ``last_stats`` figures (medians over the peeled requests)."""
    local: Server | None = None
    if server.pool is None:
        # sharded workload: the in-process stack is the same pool and
        # scheduler configuration one shard runs, minus ring and pipe
        local = Server(replace(wl, shards=0), paths, seed, Tracer(False))
    inproc = local if local is not None else server
    pool = inproc.pool
    stats: dict[str, list[float]] = {
        k: [] for k in ("stall_ms", "hidden_ms", "fetches", "writebacks", "peak", "nodes")
    }
    try:
        for k in range(count):
            request = requests[k % len(requests)]
            with tracer.span("runtime.executor.run", request=k):
                reference.run(request)
            with tracer.span("serving.pool.lease", request=k):
                executor = pool.acquire(request.model)
                with tracer.span("runtime.plan_executor.run", request=k):
                    executor.run(request.feeds)
                run = executor.last_stats
                pool.release(request.model, executor)
            stats["stall_ms"].append(run.spill_stall_s * 1e3)
            stats["hidden_ms"].append(run.spill_hidden_s * 1e3)
            stats["fetches"].append(run.spill_fetches)
            stats["writebacks"].append(run.spill_writebacks)
            stats["peak"].append(run.measured_peak_bytes)
            stats["nodes"].append(run.steps)
            with tracer.span("serving.scheduler.solo", request=k):
                inproc.submit(request.model, request.feeds).result()
            if local is not None:
                with tracer.span("serving.shard.solo", request=k):
                    server.submit(request.model, request.feeds).result()
    finally:
        if local is not None:
            local.close()

    # one build and a few stacked runs per model: construction cost and
    # the batch-8 amortisation, outside any server (spans carry the index
    # of one of the model's requests, so they group by model like the rest)
    for cell in paths:
        model = server.registry.get(cell)
        k = next(r.key for r in requests if r.model == cell)
        with tracer.span("runtime.plan_executor.build", request=k):
            executor = model.executor(
                seed=seed, capacity_bytes=wl.budget, tile_bytes=wl.tile_bytes,
                prefetch=True, link=LINK if wl.spills else None,
            )
        executor.close()
        batched = model.executor(seed=seed, batch_size=BATCH)
        feeds = [r.feeds for r in requests if r.model == cell][:BATCH]
        stacked = {
            name: np.stack([np.asarray(f[name]) for f in feeds]) for name in feeds[0]
        }
        batched.run_batch(stacked, batch=len(feeds))  # first run compiles the plan
        for _ in range(3):
            with tracer.span("runtime.plan_executor.run_batch", request=k):
                batched.run_batch(stacked, batch=len(feeds))
        batched.close()
    return {"batch": BATCH, **{k: statistics.median(v) for k, v in stats.items()}}
