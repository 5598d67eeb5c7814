"""Synthetic load driver for the serving runtime.

One function, :func:`run_load`, drives N closed-loop clients against a
:class:`~repro.serving.scheduler.RequestScheduler` (or a sharded one)
and reports throughput next to the server's own
:class:`~repro.serving.scheduler.ServingStats` snapshot — latency
percentiles, stacking, pool, spill traffic — held, not copied.
It is shared by the ``serve`` CLI subcommand and by
``benchmarks/bench_serving.py``, so the number the benchmark asserts on
is the number the CLI prints.

With ``verify=True`` every response is compared **bitwise** against the
reference :class:`~repro.runtime.executor.Executor` on the same weights
and feeds — the serving layer inherits the plan executor's equivalence
contract, per request, under full concurrency, *including* requests
that were served as one sample of a stacked batched run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ServingError
from repro.memsim import OffchipLink
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.scheduler.device import DeviceSpec
from repro.serving.faults import FaultPlan
from repro.serving.pool import ArenaPool
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import RequestScheduler, ServingStats
from repro.serving.shard import ShardedScheduler, ShardStats

__all__ = ["LoadReport", "run_load"]


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one synthetic serving run."""

    #: requests the clients sent
    requests: int
    clients: int
    workers: int
    max_batch: int
    models: tuple[str, ...]
    wall_s: float
    #: the server's snapshot once the clients finished: latency
    #: percentiles, stacking, pool, spill traffic, self-healing counts
    #: (sharded runs: every shard's, summed)
    stats: ServingStats
    #: requests whose client saw an exception
    errors: int
    #: ``None`` when verification was off; otherwise all-bitwise-equal
    verified: bool | None
    mismatches: tuple[int, ...] = ()
    #: batch capacity of the pooled executors (1 = solo runs only)
    batch_size: int = 1
    #: whether the pool was warmed before the measured window
    preloaded: bool = False
    #: over-budget admission policy the pool ran with
    spill: str = "never"
    #: whether spilled executors overlapped transfers as prefetch jobs
    prefetch: bool = True
    #: staging tile size spilled executors streamed at (``None`` =
    #: whole-buffer staging)
    tile_bytes: int | None = None
    #: worker processes the run was sharded across (1 = in-process
    #: thread scheduler, no IPC)
    shards: int = 1
    #: per-shard snapshots when ``shards > 1`` (sticky routing, ring
    #: occupancy, child-side queue depth and scheduler snapshot)
    shard_stats: tuple[ShardStats, ...] = ()

    @property
    def rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s else 0.0

    def summary(self) -> str:
        st, pool = self.stats, self.stats.pool
        mode = "arena reuse"
        if self.batch_size > 1:
            mode += f", batch {self.batch_size}"
        if self.preloaded:
            mode += ", preloaded"
        lines = [
            f"serving run: {self.requests} requests, {self.clients} clients, "
            f"{self.workers} workers, max_batch {self.max_batch} ({mode})",
            f"  models resident       : {', '.join(self.models)}",
            f"  throughput            : {self.rps:9.1f} req/s "
            f"({self.wall_s:.2f}s wall)",
            f"  latency p50 / p99     : {st.p50_s * 1e3:7.2f} / "
            f"{st.p99_s * 1e3:.2f} ms ({self.errors} errors, included)",
        ]
        # no pool only when no shard ever answered a stats request
        if pool is not None:
            lines.append(
                f"  arena reuse hit rate  : {100.0 * pool.hit_rate:7.1f}% "
                f"({pool.hits} hits, {pool.misses} fresh, "
                f"{pool.preloads} preloaded, {pool.evictions} evicted)"
            )
        lines.append(f"  mean stacked batch    : {st.mean_batch:7.2f}")
        if pool is not None:
            lines.append(
                f"  resident arena bytes  : {pool.resident_bytes / 1024:7.1f}KB"
            )
        if self.shards > 1:
            lines.append(
                f"  shards                : {self.shards} processes, "
                "sticky rendezvous routing"
            )
            for s in self.shard_stats:
                rps = s.requests / self.wall_s if self.wall_s else 0.0
                state = "alive" if s.alive else (
                    "BREAKER-OPEN" if s.failed else "DEAD"
                )
                if s.incarnation:
                    state += f", incarnation {s.incarnation}"
                lines.append(
                    f"    shard {s.shard} ({state}): {rps:7.1f} req/s | "
                    f"models {', '.join(s.models) or '-'} | "
                    f"queue {s.queue_depth} | "
                    f"ring peak {s.req_ring_peak}/{s.req_slots} req, "
                    f"{s.resp_ring_peak}/{s.resp_slots} resp | "
                    f"stall/hidden {s.served.spill_stall_s * 1e3:.1f}/"
                    f"{s.served.spill_hidden_s * 1e3:.1f} ms"
                )
        if st.restarts or st.retries or st.expired or st.shed:
            trips = sum(1 for s in self.shard_stats if s.failed)
            lines.append(
                f"  self-healing          : {st.restarts} restarts, "
                f"{st.retries} retries, {st.expired} deadline-expired, "
                f"{st.shed} shed"
                + (f", {trips} breaker trip(s)" if trips else "")
            )
        if self.spill != "never" or st.spill_bytes:
            builds = (
                f", {pool.spilled_builds} spilled executors, "
                f"{pool.prefetch_builds} prefetching"
                if pool is not None
                else ""
            )
            lines.append(
                f"  off-chip spill traffic: {st.spill_bytes / 1024:7.1f}KB "
                f"(spill={self.spill}{builds})"
            )
            lines.append(
                f"  transfer stall/hidden : {st.spill_stall_s * 1e3:7.1f} / "
                f"{st.spill_hidden_s * 1e3:.1f} ms "
                f"({100.0 * st.hidden_fraction:.0f}% hidden)"
            )
        if self.errors:
            lines.append(f"  ERRORS                : {self.errors}")
        if self.verified is not None:
            verdict = (
                "bitwise-equal to reference executor on every request"
                if self.verified
                else f"DIVERGED on requests {list(self.mismatches)}"
            )
            lines.append(f"  verification          : {verdict}")
        return "\n".join(lines)


def run_load(
    registry: ModelRegistry,
    *,
    requests: int = 64,
    clients: int = 4,
    workers: int = 1,
    max_batch: int = 1,
    batch_size: int | None = None,
    budget: DeviceSpec | int | None = None,
    seed: int = 0,
    scrub: str = "never",
    verify: bool = False,
    preload: bool = False,
    spill: str = "never",
    tile_bytes: int | None = None,
    prefetch: bool = True,
    link: OffchipLink | None = None,
    shards: int = 1,
    deadline_s: float | None = None,
    retries: int = 0,
    max_inflight: int | None = None,
    faults: FaultPlan | None = None,
) -> LoadReport:
    """Drive ``requests`` inferences from ``clients`` concurrent threads.

    Request *i* targets model ``names[i % len(names)]`` with feeds drawn
    deterministically from ``seed + i``, so two runs serve
    byte-identical workloads. Each client is closed-loop: it
    submits, waits for the response, optionally verifies it against the
    reference executor (outside the latency window), then issues its
    next request.

    ``batch_size`` sets the pooled executors' batch capacity (default:
    ``max_batch``, so a fully drained micro-batch runs as one stacked
    kernel pass). ``preload=True`` warms the pool — one executor per
    model — before the clients start, so the measured window contains
    no cold-start builds. ``workers`` is the dispatcher thread count
    (default 1: threads share the GIL and measure slower — ``shards``
    is the parallelism knob). ``spill`` picks what happens to arenas
    the budget cannot hold: refuse (``never``) or degrade to planned
    off-chip staging with measured traffic (``auto``); outputs stay
    bitwise-verified either way. ``prefetch=False`` runs spilled
    executors' transfers on the compute thread; ``link`` attaches a
    modeled off-chip bandwidth/latency to every fetch and writeback.

    ``shards > 1`` swaps the in-process thread scheduler for a
    :class:`~repro.serving.shard.ShardedScheduler`: that many worker
    *processes*, each with its own pool and scheduler (every knob above
    passes through), models sticky-routed by rendezvous hash, tensors
    crossing over zero-copy shared-memory rings. The client loop,
    verification and reporting are identical — only the server behind
    ``submit()`` changes.

    The robustness knobs pass through to whichever scheduler runs:
    ``deadline_s`` bounds every request end to end (expiries count as
    errors and in ``LoadReport.stats.expired``); sharded runs also honor
    ``retries`` (retry-with-reroute on shard death), ``max_inflight``
    (per-shard cap, excess shed as
    :class:`~repro.exceptions.OverloadedError`), and ``faults`` — a
    deterministic
    :class:`~repro.serving.faults.FaultPlan` injected into the workers,
    which is how the chaos acceptance test
    (``tests/serving/test_faults.py``) proves the self-healing counters.
    """
    names = registry.names()
    if not names:
        raise ValueError("registry has no models to serve")
    if shards < 1:
        raise ServingError(f"shards must be >= 1, got {shards}")
    if faults is not None and shards < 2:
        raise ServingError(
            "fault injection needs shards >= 2: a chaos run must keep "
            "serving from surviving shards while one is down"
        )
    if batch_size is None:
        batch_size = max_batch
    pool: ArenaPool | None = None
    if shards > 1:
        server_ctx: ShardedScheduler | RequestScheduler = ShardedScheduler(
            registry,
            shards=shards,
            workers=workers,
            max_batch=max_batch,
            batch_size=batch_size,
            budget=budget,
            seed=seed,
            scrub=scrub,
            spill=spill,
            tile_bytes=tile_bytes,
            prefetch=prefetch,
            link=link,
            preload=preload,
            ring_slots=max(16, 2 * -(-clients // shards)),
            deadline_s=deadline_s,
            retries=retries,
            max_inflight=max_inflight,
            faults=faults,
        )
    else:
        pool = ArenaPool(
            registry,
            budget,
            seed=seed,
            scrub=scrub,
            batch_size=batch_size,
            spill=spill,
            tile_bytes=tile_bytes,
            prefetch=prefetch,
            link=link,
        )
        server_ctx = RequestScheduler(
            registry,
            pool,
            workers=workers,
            max_batch=max_batch,
            deadline_s=deadline_s,
        )
    preloaded = (
        bool(pool.preload()) if (preload and pool is not None) else False
    )
    references = (
        {
            name: Executor(
                registry.get(name).graph,
                params=init_params(registry.get(name).graph, seed),
            )
            for name in names
        }
        if verify
        else {}
    )

    errors = 0
    mismatches: list[int] = []
    lock = threading.Lock()

    def client(client_id: int, server: RequestScheduler) -> None:
        nonlocal errors
        for i in range(client_id, requests, clients):
            name = names[i % len(names)]
            graph = registry.get(name).graph
            feeds = random_feeds(graph, seed=seed + i)
            try:
                result = server.submit(name, feeds).result()
            except Exception:
                with lock:
                    errors += 1
                continue
            if verify:
                ref = references[name].run(feeds)
                ok = set(ref) == set(result.outputs) and all(
                    np.array_equal(ref[k], result.outputs[k]) for k in ref
                )
                if not ok:
                    with lock:
                        mismatches.append(i)

    shard_stats: tuple[ShardStats, ...] = ()
    with server_ctx as server:
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(c, server), name=f"client-{c}")
            for c in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t0
        stats = server.stats()
        if isinstance(server, ShardedScheduler):
            shard_stats = tuple(server.shard_stats(refresh=False))
            preloaded = preload and stats.pool is not None and stats.pool.preloads > 0

    if pool is not None:
        pool.close()
    return LoadReport(
        requests=requests,
        clients=clients,
        workers=workers,
        max_batch=max_batch,
        models=tuple(names),
        wall_s=wall_s,
        stats=stats,
        errors=errors,
        verified=(not mismatches) if verify else None,
        mismatches=tuple(mismatches),
        batch_size=batch_size,
        preloaded=preloaded,
        spill=spill,
        prefetch=prefetch,
        tile_bytes=tile_bytes,
        shards=shards,
        shard_stats=shard_stats,
    )
