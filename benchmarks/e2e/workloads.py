"""The five benchmark workloads and the stages every one of them runs.

Every workload goes through the same pipeline — compile its cells, save
and reload the artifacts, stand a server up over them, drive it — and
differs only in the parameters below, so every end-to-end metric has
the same meaning on every workload and one code path produces them all.
What changes is *which layer does the work*:

==================  ==========================================================
``compile-suite``   the paper's nine cells through the SERENITY DP: the
                    scheduler does nearly all the work, serving is a footnote
``serve-micro``     two micro cells behind two shard processes with batching:
                    ring + pipe + queue + micro-batching dominate, math is tiny
``serve-cells``     four suite cells in-process, no batching: NumPy kernels are
                    > 90% of a request; IPC, batching and spill are bypassed
``serve-spill-*``   one over-budget cell, whole-buffer vs tile-streamed staging:
                    the transfer engine's stalls carry half or more of a request
==================  ==========================================================

Serving artifacts are compiled with ``greedy`` (milliseconds): the DP's
cost belongs to ``compile-suite``. The off-chip link is a constant, never
calibrated to the host, so bytes and modeled transfer seconds repeat.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np
from loadgen import Request
from tracing import Tracer

from repro.allocator.arena import arena_peak_bytes
from repro.analysis.verifier import analyze_model
from repro.compiler import CompilationPipeline
from repro.compiler.model import CompiledModel
from repro.graph.graph import Graph
from repro.memsim import OffchipLink
from repro.models.suite import BENCHMARK_SUITE, serving_suite
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.runtime.verify import verify_execution
from repro.scheduler.cache import ScheduleCache
from repro.scheduler.topological import kahn_schedule
from repro.serving import ArenaPool, ModelRegistry, RequestScheduler, ShardedScheduler

__all__ = [
    "LINK",
    "WORKLOADS",
    "CompileStage",
    "Reference",
    "Server",
    "Workload",
    "best_pass_s",
    "build_graphs",
    "build_requests",
    "check_artifacts",
    "check_responses",
    "pass_s",
]

#: modeled on-chip <-> off-chip path, fixed in the benchmark
LINK = OffchipLink(512e6, 0.0)
#: distinct feeds generated per model before timing; the request stream
#: cycles through them (the server caches nothing per input)
FEEDS_PER_MODEL = 16


@dataclass(frozen=True)
class Workload:
    #: as in ``BENCHMARK.json``, which also records why each one exists
    name: str
    #: suite keys (``BENCHMARK_SUITE`` or ``serving_suite()``)
    cells: tuple[str, ...]
    strategy: str
    #: outstanding futures in the closed loop
    window: int
    #: open-loop requests per second, fixed in the benchmark
    rate: float
    #: every ``keep_every``-th response is kept for the bitwise check
    #: (1 = all of them)
    keep_every: int
    #: share of ``--seconds`` the serving phases get (the rest is the
    #: compile stage's)
    serve_share: float = 1.0
    #: cold compile passes, spread over the run; ``None`` marks the DP
    #: workload, whose ~10 s cold pass runs up front, twice
    cold_passes: int | None = 20
    #: worker processes (0 = in-process ``RequestScheduler``)
    shards: int = 0
    max_batch: int = 1
    budget: int | None = None
    tile_bytes: int | None = None

    @property
    def spills(self) -> bool:
        return self.budget is not None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="compile-suite",
            cells=tuple(BENCHMARK_SUITE),
            strategy="serenity",
            window=2,
            rate=40.0,
            keep_every=4,
            serve_share=0.4,
            cold_passes=None,
        ),
        Workload(
            name="serve-micro",
            cells=("rw-micro-a", "rw-micro-b"),
            strategy="greedy",
            window=8,
            rate=1000.0,
            keep_every=64,
            shards=2,
            max_batch=8,
        ),
        Workload(
            name="serve-cells",
            cells=("swiftnet-a", "swiftnet-b", "randwire-c10-b", "randwire-c100-c"),
            strategy="greedy",
            window=2,
            rate=100.0,
            keep_every=8,
        ),
        Workload(
            name="serve-spill-whole",
            cells=("randwire-c100-a",),
            strategy="greedy",
            window=2,
            rate=20.0,
            keep_every=1,
            budget=491520,
        ),
        Workload(
            name="serve-spill-tiled",
            cells=("randwire-c100-a",),
            strategy="greedy",
            window=2,
            rate=10.0,
            keep_every=1,
            budget=114688,
            tile_bytes=8192,
        ),
    )
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _factory(cell: str) -> Callable[[], Graph]:
    if cell in BENCHMARK_SUITE:
        return BENCHMARK_SUITE[cell].factory
    return serving_suite()[cell]


def build_graphs(wl: Workload) -> dict[str, Graph]:
    return {cell: _factory(cell)() for cell in wl.cells}


def build_requests(graphs: Mapping[str, Graph], seed: int) -> list[Request]:
    """The pre-generated request pool: request *i* targets model
    ``names[i % len]`` with ``random_feeds(graph, seed + i)``."""
    names = sorted(graphs)
    stream = [names[i % len(names)] for i in range(len(names) * FEEDS_PER_MODEL)]
    return [
        Request(key=i, model=name, feeds=random_feeds(graphs[name], seed + i))
        for i, name in enumerate(stream)
    ]


# ----------------------------------------------------------------------
# compile stage
# ----------------------------------------------------------------------
class CompileStage:
    """Cold, warm and load passes over the workload's cells, taken one
    at a time so a run can spread them over its whole length (twenty
    4 ms passes back to back all land in the same 0.1 s of host weather).

    * a **cold** pass compiles every cell over a fresh empty
      ``ScheduleCache`` — miss + store included, as ``compile`` pays it;
    * a **warm** pass compiles every cell again over the last cold
      pass's cache;
    * a **load** pass is ``CompiledModel.load(verify="full")`` of every
      saved artifact.

    Each pass is timed **cell by cell**, and :func:`best_pass_s` prices a
    pass at the sum of every cell's best time: a burst of host noise that
    lands on one cell of one pass spoils that cell's sample, not the pass.
    """

    def __init__(self, wl: Workload, graphs: Mapping[str, Graph], workdir: Path) -> None:
        self.strategy = wl.strategy
        self.graphs = graphs
        self.workdir = workdir
        #: one ``{cell: seconds}`` per pass
        self.cold: list[dict[str, float]] = []
        self.warm: list[dict[str, float]] = []
        self.load: list[dict[str, float]] = []
        self.models: dict[str, CompiledModel] = {}
        self.paths: dict[str, Path] = {}

    def _compile_pass(self) -> tuple[dict[str, float], dict[str, CompiledModel]]:
        times, models = {}, {}
        for cell, graph in self.graphs.items():
            t0 = time.perf_counter()
            models[cell] = self._pipeline.compile(graph)
            times[cell] = time.perf_counter() - t0
        return times, models

    def cold_pass(self) -> None:
        cache = ScheduleCache(self.workdir / f"cache-{len(self.cold)}")
        self._pipeline = CompilationPipeline(self.strategy, cache=cache)
        times, models = self._compile_pass()
        self.cold.append(times)
        if not self.models:
            self.models = models
            artifacts = self.workdir / "artifacts"
            artifacts.mkdir()
            self.paths = {
                cell: model.save(artifacts / f"{cell}.json") for cell, model in models.items()
            }

    def warm_pass(self, measured: bool = True) -> None:
        times, _ = self._compile_pass()
        if measured:
            self.warm.append(times)

    def load_pass(self) -> None:
        times = {}
        for cell, path in self.paths.items():
            t0 = time.perf_counter()
            CompiledModel.load(path, verify="full")
            times[cell] = time.perf_counter() - t0
        self.load.append(times)

    def peak_reduction_geomean(self) -> float:
        """Geomean over cells of kahn arena bytes / compiled arena bytes
        (first-fit): a faster scheduler that loses the optimum shows here."""
        ratios = [
            arena_peak_bytes(graph, kahn_schedule(graph)) / self.models[cell].arena_bytes
            for cell, graph in self.graphs.items()
        ]
        return math.exp(sum(map(math.log, ratios)) / len(ratios))


def pass_s(passes: list[dict[str, float]]) -> list[float]:
    """Whole-pass seconds of each pass (the raw samples)."""
    return [sum(times.values()) for times in passes]


def best_pass_s(passes: list[dict[str, float]]) -> float:
    """One pass priced at every cell's best time over the passes."""
    return sum(min(times[cell] for times in passes) for cell in passes[0])


def check_artifacts(models: Mapping[str, CompiledModel], seed: int) -> list[str]:
    """Cells whose artifact fails the static verifier (full level, batch
    1 and 8) or diverges bitwise from the reference executor."""
    bad = []
    for cell, model in models.items():
        report = analyze_model(model, level="full", batch_sizes=(1, 8))
        if not report.ok or not verify_execution(model, seed=seed):
            bad.append(cell)
    return bad


# ----------------------------------------------------------------------
# serving stage
# ----------------------------------------------------------------------
class Server:
    """One live serving stack for a workload: in-process
    ``ArenaPool`` + ``RequestScheduler``, or a ``ShardedScheduler``."""

    def __init__(
        self, wl: Workload, paths: Mapping[str, Path], seed: int, tracer: Tracer
    ) -> None:
        self.registry = ModelRegistry()
        with tracer.span("serving.registry.register"):
            for cell, path in paths.items():
                self.registry.load(path, name=cell)
        spill = dict(
            budget=wl.budget,
            seed=seed,
            spill="auto" if wl.spills else "never",
            tile_bytes=wl.tile_bytes,
            prefetch=True,
            link=LINK if wl.spills else None,
        )
        self.pool: ArenaPool | None = None
        if wl.shards:
            with tracer.span("serving.shard.spawn"):
                self.scheduler = ShardedScheduler(
                    self.registry,
                    shards=wl.shards,
                    workers=1,
                    max_batch=wl.max_batch,
                    batch_size=wl.max_batch,
                    preload=True,
                    **spill,
                ).start()
        else:
            self.pool = ArenaPool(self.registry, batch_size=wl.max_batch, **spill)
            with tracer.span("serving.pool.preload"):
                self.pool.preload()
            self.scheduler = RequestScheduler(
                self.registry, self.pool, workers=1, max_batch=wl.max_batch
            ).start()
        self.submit = self.scheduler.submit
        #: ``PoolStats.resident_bytes`` right after preload
        self.resident_bytes = self.scheduler.stats().pool.resident_bytes

    def close(self) -> None:
        self.scheduler.shutdown(wait=True)
        if self.pool is not None:
            self.pool.close()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
class Reference:
    """The correctness oracle: the reference ``Executor`` with
    ``init_params(graph, seed)``, one memoised run per request key."""

    def __init__(self, models: Mapping[str, CompiledModel], seed: int) -> None:
        self._executors = {
            cell: Executor(m.graph, params=init_params(m.graph, seed))
            for cell, m in models.items()
        }
        self._outputs: dict[int, dict[str, np.ndarray]] = {}

    def run(self, request: Request) -> dict[str, np.ndarray]:
        return self._executors[request.model].run(request.feeds)

    def outputs(self, request: Request) -> dict[str, np.ndarray]:
        want = self._outputs.get(request.key)
        if want is None:
            want = self._outputs[request.key] = self.run(request)
        return want

    def io_bytes(self, request: Request) -> int:
        """Bytes one request moves across the chip boundary besides
        spill traffic: its feeds in, its outputs out."""
        return sum(np.asarray(v).nbytes for v in request.feeds.values()) + sum(
            v.nbytes for v in self.outputs(request).values()
        )


def check_responses(reference: Reference, kept: list[tuple[Request, Any]]) -> int:
    """How many kept responses differ bitwise from the reference."""
    mismatches = 0
    for request, result in kept:
        want = reference.outputs(request)
        got = result.outputs
        if set(want) != set(got) or not all(np.array_equal(want[k], got[k]) for k in want):
            mismatches += 1
    return mismatches
