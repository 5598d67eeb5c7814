"""Concurrent request scheduler over pooled arena executors.

Requests enter through :meth:`RequestScheduler.submit` (returning a
:class:`concurrent.futures.Future`) and are dispatched to worker
threads. Each worker leases one executor from the
:class:`~repro.serving.pool.ArenaPool` per dispatch and, with
micro-batching enabled, drains up to ``max_batch`` queued requests for
the *same model* into that single lease.

Every run is *one stacked* ``run_batch`` call: the requests' feeds are
stacked along a leading batch axis, every kernel runs once for the
whole batch (amortising NumPy's per-call dispatch, which dominates on
micro cells), and the graph's sinks are scattered back to the
individual futures — each sample bitwise what a run of its own would
have produced. A lone request is the batch of one. When the pool's
executors are **batch-capable** (``batch_size > 1``), a drained
micro-batch stacks wider: that requires identical request shapes (same
feed names, spec-shaped feeds); requests that differ run back to back
at width 1 on the same hot arena, and a partial drain runs at its true
stacked size — never padded to capacity.

Every response carries a :class:`RequestStats` (queue wait, run time,
the *actual* number of samples stacked into its run, and attempts);
run-level accounting — off-chip traffic, transfer stall, the pool's
arena-reuse counters — is counted once per run in the scheduler's
:class:`ServingStats` snapshot, alongside latency percentiles and the
true mean batch size. Snapshots add (``a + b``), which is how sharded
serving reports its shards as one.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

import numpy as np

from repro.exceptions import DeadlineExceededError, ServingError
from repro.serving.pool import ArenaPool, PoolStats
from repro.serving.registry import ModelRegistry

__all__ = [
    "InferenceResult",
    "RequestScheduler",
    "RequestStats",
    "ServingStats",
]


@dataclass(frozen=True)
class RequestStats:
    """Per-request accounting, attached to every response."""

    model: str
    #: seconds spent queued before a worker picked the request up
    queue_s: float
    #: seconds stacking feeds and inside ``PlanExecutor.run_batch``
    run_s: float
    #: how many samples actually ran stacked in this request's run
    #: (1 = ran alone; > 1 = one batched kernel pass served them all)
    batch_size: int
    #: how many submissions it took to serve this request: 1 = first
    #: try; > 1 = the sharded front end retried it after a shard died
    #: under it (queue/run times are the *successful* attempt's)
    attempts: int = 1

    @property
    def total_s(self) -> float:
        return self.queue_s + self.run_s


@dataclass(frozen=True)
class InferenceResult:
    """One served inference: outputs plus its request stats."""

    outputs: dict[str, np.ndarray]
    stats: RequestStats


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(frozen=True)
class ServingStats:
    """Aggregate snapshot over every request completed so far."""

    requests: int
    errors: int
    batches: int
    #: completion latencies of every finished request, errors included —
    #: a failed request waited and ran too, and hiding it would make
    #: p50/p99 over-report health under faults
    latencies_s: tuple[float, ...] = field(repr=False)
    pool: PoolStats | None = None
    #: total simulated off-chip bytes moved by executor runs (counted
    #: once per run, not per stacked request)
    spill_bytes: int = 0
    #: transfer seconds executor runs stalled on (inline copies plus
    #: barrier waits on in-flight prefetch jobs; run-level sums)
    spill_stall_s: float = 0.0
    #: modeled link seconds prefetch jobs hid behind compute
    spill_hidden_s: float = 0.0
    #: shard processes respawned by supervision (0 without sharding)
    restarts: int = 0
    #: automatic resubmissions after a shard died with requests on it
    retries: int = 0
    #: requests that missed their deadline (shed pre-compute, or swept
    #: in flight by the sharded front end); a subset of ``errors``
    expired: int = 0
    #: requests rejected immediately by overload control (in-flight cap
    #: or ring-slot timeout); also counted in ``errors`` by callers
    #: that observe the raised :class:`OverloadedError`
    shed: int = 0

    @property
    def p50_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.50)

    @property
    def p99_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.99)

    @property
    def mean_batch(self) -> float:
        """Requests per executor *run* — the true stacking factor, with
        every run counted at the size it actually executed (partial
        drains count at their real size, never at capacity)."""
        return self.requests / self.batches if self.batches else 0.0

    @property
    def hidden_fraction(self) -> float:
        """Share of off-chip transfer time hidden behind compute."""
        busy = self.spill_stall_s + self.spill_hidden_s
        return self.spill_hidden_s / busy if busy > 0 else 0.0

    def __add__(self, other: "ServingStats") -> "ServingStats":
        """Two snapshots as one: counters add, latencies concatenate,
        pools add (a missing pool is skipped)."""
        if self.pool is None or other.pool is None:
            pool = self.pool or other.pool
        else:
            pool = self.pool + other.pool
        return ServingStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name)
               for f in fields(self) if f.name != "pool"},
            pool=pool,
        )


@dataclass
class _Request:
    model: str
    feeds: Mapping[str, np.ndarray]
    future: Future
    enqueued_at: float
    #: absolute ``time.monotonic()`` deadline, or ``None`` for no limit
    deadline: float | None = None


class RequestScheduler:
    """Dispatch concurrent inference requests across pooled executors.

    >>> with RequestScheduler(registry, pool, max_batch=8) as server:
    ...     fut = server.submit("swiftnet-c", feeds)
    ...     result = fut.result()

    Parameters
    ----------
    registry / pool:
        The verified artifacts and the arena pool to lease from.
    workers:
        Dispatcher threads (concurrent leases never exceed this).
        Default 1: the kernels hold the GIL, so more threads buy
        nothing on micro cells and lose on the rest (0.4x req/s at 4
        on suite cells) — shards are the parallelism story
        (:class:`~repro.serving.shard.ShardedScheduler`).
    max_batch:
        Micro-batch limit: a worker drains up to this many queued
        same-model requests into one executor lease. ``1`` disables
        batching. When the pool's executors are batch-capable, the
        drained requests additionally run as one stacked
        ``run_batch`` call (chunked to the executors' capacity).
    deadline_s:
        Default per-request deadline (seconds from submit). A request
        whose deadline passes while it is still queued is *shed before
        compute*: its future fails with
        :class:`~repro.exceptions.DeadlineExceededError` and it never
        touches an executor. ``submit(deadline_s=...)`` overrides per
        request; ``None`` (default) disables deadlines. This is the
        same knob the sharded path honours, so ``--shards 1`` and
        unsharded serving fail identically.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        pool: ArenaPool,
        *,
        workers: int = 1,
        max_batch: int = 1,
        deadline_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ServingError("RequestScheduler needs at least one worker")
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ServingError(f"deadline_s must be > 0, got {deadline_s}")
        self.registry = registry
        self.pool = pool
        self.workers = workers
        self.max_batch = max_batch
        self.deadline_s = deadline_s
        #: test-only fault hook: when set, called (no args) at the top
        #: of every batch dispatch — the chaos harness injects engine
        #: stalls here (see ``repro.serving.faults.StallEngine``)
        self.run_hook: Callable[[], None] | None = None
        self._queue: deque[_Request] = deque()
        #: per-model input specs for stacking validation, memoised —
        #: artifacts are immutable, and this sits on the dispatch path
        self._input_specs: dict[str, dict[str, tuple[int, ...]]] = {}
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._stop = False
        self._started = False
        # aggregate accounting (guarded by _cond)
        self._latencies: list[float] = []
        self._requests = 0
        self._errors = 0
        self._batches = 0
        self._expired = 0
        self._spill_bytes = 0
        self._spill_stall_s = 0.0
        self._spill_hidden_s = 0.0
        self._sweeper: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RequestScheduler":
        if self._started:
            return self
        self._started = True
        self._stop = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="serve-deadline-sweep", daemon=True
        )
        self._sweeper.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting requests; drain the queue, then join workers."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if wait:
            for t in self._threads:
                t.join()
            if self._sweeper is not None:
                self._sweeper.join()
        self._threads = []
        self._sweeper = None
        self._started = False

    def __enter__(self) -> "RequestScheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        model: str,
        feeds: Mapping[str, np.ndarray],
        *,
        deadline_s: float | None = None,
    ) -> Future:
        """Enqueue one inference; resolves to an :class:`InferenceResult`
        carrying the graph's sinks.

        ``deadline_s`` (seconds from now; default: the scheduler's
        ``deadline_s``) bounds how long the request may wait: if it is
        still queued when the deadline passes it is shed before compute
        and the future fails with
        :class:`~repro.exceptions.DeadlineExceededError`."""
        self.registry.get(model)  # fail fast on unknown names
        if deadline_s is None:
            deadline_s = self.deadline_s
        fut: Future = Future()
        request = _Request(
            model=model,
            feeds=feeds,
            future=fut,
            enqueued_at=time.perf_counter(),
            deadline=(
                None if deadline_s is None else time.monotonic() + deadline_s
            ),
        )
        with self._cond:
            if self._stop or not self._started:
                raise ServingError("scheduler is not running (call start())")
            self._queue.append(request)
            self._cond.notify()
        return fut

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet picked up by a worker."""
        with self._cond:
            return len(self._queue)

    def stats(self) -> ServingStats:
        with self._cond:
            return ServingStats(
                requests=self._requests,
                errors=self._errors,
                batches=self._batches,
                latencies_s=tuple(self._latencies),
                pool=self.pool.stats(),
                spill_bytes=self._spill_bytes,
                spill_stall_s=self._spill_stall_s,
                spill_hidden_s=self._spill_hidden_s,
                expired=self._expired,
            )

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def _expire(self, request: _Request) -> None:
        """Fail one already-dequeued request as past-deadline."""
        if not request.future.set_running_or_notify_cancel():
            return
        with self._cond:
            self._errors += 1
            self._expired += 1
            self._latencies.append(time.perf_counter() - request.enqueued_at)
        request.future.set_exception(
            DeadlineExceededError(
                f"request for {request.model!r} missed its deadline "
                "while queued (shed before compute)"
            )
        )

    def _sweep_loop(self) -> None:
        """Shed queued requests whose deadline has passed.

        Workers also shed at dispatch time; this thread matters when
        every worker is busy on long runs — queued requests must not
        wait past their deadline just because nobody dequeued them."""
        while True:
            expired: list[_Request] = []
            with self._cond:
                if self._stop:
                    return
                now = time.monotonic()
                for request in list(self._queue):
                    if request.deadline is not None and request.deadline <= now:
                        self._queue.remove(request)
                        expired.append(request)
            for request in expired:
                self._expire(request)
            time.sleep(0.02)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Request] | None:
        """Pop the head request plus up to ``max_batch - 1`` queued
        requests for the same model (others keep their order). Returns
        ``None`` when the scheduler is drained and stopping."""
        with self._cond:
            while not self._queue:
                if self._stop:
                    return None
                self._cond.wait()
            head = self._queue.popleft()
            batch = [head]
            if self.max_batch > 1:
                rest: deque[_Request] = deque()
                while self._queue and len(batch) < self.max_batch:
                    req = self._queue.popleft()
                    if req.model == head.model:
                        batch.append(req)
                    else:
                        rest.append(req)
                self._queue.extendleft(reversed(rest))
            return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            model = batch[0].model
            try:
                executor = self.pool.acquire(model)
            except BaseException as exc:
                with self._cond:
                    self._errors += len(batch)
                for req in batch:
                    if req.future.set_running_or_notify_cancel():
                        req.future.set_exception(exc)
                if not isinstance(exc, Exception):
                    # KeyboardInterrupt / SystemExit must stop the
                    # worker, not be swallowed as a request error: the
                    # drained futures failed above so no client hangs
                    raise
                continue
            try:
                self._run_batch(model, batch, executor)
            finally:
                self.pool.release(model, executor)

    def _stack_groups(self, model: str, batch: list[_Request]) -> list[list[_Request]]:
        """Partition a drained micro-batch into stackable groups.

        Requests stack only when one ``run_batch`` call can serve them
        all: they are grouped by their feed names alone, and every feed
        must be a spec-shaped graph input (a malformed request — or one
        carrying extra non-input feeds whose shapes np.stack could
        trip over — must fail or succeed *alone*, not poison its
        neighbours, so it is left as a singleton and its own width-1
        run decides). Order within the batch is preserved group-wise.
        """
        specs = self._input_specs.get(model)
        if specs is None:
            graph = self.registry.get(model).graph
            specs = {
                name: graph.node(name).output.shape
                for name in graph.input_nodes
            }
            self._input_specs[model] = specs
        groups: dict[frozenset[str], list[_Request]] = {}
        singletons: list[list[_Request]] = []
        for req in batch:
            try:
                names = frozenset(req.feeds)
                stackable = names <= specs.keys() and all(
                    tuple(np.asarray(req.feeds[k]).shape) == specs[k]
                    for k in names
                )
            except Exception:
                stackable = False
            if not stackable:
                singletons.append([req])
                continue
            groups.setdefault(names, []).append(req)
        return list(groups.values()) + singletons

    def _run_batch(self, model: str, batch: list[_Request], executor) -> None:
        """Serve one drained micro-batch on one leased executor.

        Every live chunk of 1..capacity requests is served the same
        way: stack the feeds, ONE ``run_batch`` at the chunk's true
        width (a partial batch is never padded; a lone request is the
        batch of one), scatter the outputs back per request. With a
        batch-capable executor, stackable groups are chunked to the
        executor's capacity; everything else is a group of one.

        A kernel exception inside a stacked run does **not** fail the
        whole stack: the chunk's requests re-enter as width-1 chunks on
        the same arena, so only the culpable request sees the
        exception. Failed requests still contribute their latency
        (queue wait plus the failed attempt's run time) to the
        aggregate — error paths must not vanish from the percentiles.
        A non-``Exception`` escape (``KeyboardInterrupt`` /
        ``SystemExit``) fails everything still pending, then re-raises
        so the worker actually stops.
        """
        capacity = getattr(executor, "batch_size", 1)
        if capacity > 1 and len(batch) > 1:
            groups = self._stack_groups(model, batch)
        else:
            groups = [[req] for req in batch]

        hook = self.run_hook
        if hook is not None:
            hook()
        try:
            for group in groups:
                for lo in range(0, len(group), capacity):
                    now = time.monotonic()
                    live = []
                    for req in group[lo : lo + capacity]:
                        if req.deadline is not None and req.deadline <= now:
                            # shed before compute: the deadline passed
                            # while the request waited for this dispatch
                            self._expire(req)
                        elif req.future.set_running_or_notify_cancel():
                            live.append(req)
                    pending = [live] if live else []
                    while pending:
                        live = pending.pop()
                        t0 = time.perf_counter()
                        try:
                            # a lone request is fed as a view (the
                            # input step copies it into the arena anyway)
                            feeds = {
                                k: np.asarray(live[0].feeds[k])[None]
                                if len(live) == 1
                                else np.stack(
                                    [np.asarray(req.feeds[k]) for req in live]
                                )
                                for k in live[0].feeds
                            }
                            outputs = executor.run_batch(feeds, batch=len(live))
                        except Exception as exc:
                            if len(live) > 1:
                                # one poisoned batchmate must not fail
                                # its neighbours: re-enter each request
                                # alone so only the culpable one gets
                                # the exception
                                pending.extend([req] for req in reversed(live))
                                continue
                            with self._cond:
                                self._errors += 1
                                self._batches += 1
                                self._latencies.append(
                                    time.perf_counter() - live[0].enqueued_at
                                )
                            live[0].future.set_exception(exc)
                            continue
                        t1 = time.perf_counter()
                        run_stats = executor.last_stats
                        results = [
                            InferenceResult(
                                # outputs are private snapshots already:
                                # a lone request keeps its own, a
                                # batchmate gets a copy so no response
                                # pins the rest
                                outputs={
                                    k: v[0] if len(live) == 1 else v[i].copy()
                                    for k, v in outputs.items()
                                },
                                stats=RequestStats(
                                    model=model,
                                    queue_s=t0 - req.enqueued_at,
                                    run_s=t1 - t0,
                                    batch_size=len(live),
                                ),
                            )
                            for i, req in enumerate(live)
                        ]
                        # counted before any client sees a result, so a
                        # snapshot taken after one includes its run
                        with self._cond:
                            self._requests += len(live)
                            self._batches += 1
                            self._spill_bytes += run_stats.spill_bytes_total
                            self._spill_stall_s += run_stats.spill_stall_s
                            self._spill_hidden_s += run_stats.spill_hidden_s
                            self._latencies.extend(
                                r.stats.total_s for r in results
                            )
                        for req, result in zip(live, results):
                            req.future.set_result(result)
        except BaseException as exc:
            # a true BaseException (shutdown signal) aborts the batch:
            # fail whatever is still pending so no client blocks
            # forever, then re-raise out of the worker loop
            for group in groups:
                for req in group:
                    fut = req.future
                    if fut.done():
                        continue
                    try:
                        fut.set_running_or_notify_cancel()
                    except Exception:
                        pass
                    if not fut.done():
                        with self._cond:
                            self._errors += 1
                        fut.set_exception(exc)
            raise
