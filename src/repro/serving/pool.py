"""Budget-bounded pool of reusable arena executors.

The whole point of the compiled plan is a *fixed, preallocated*
footprint — so the serving runtime must not allocate an arena per
request. The pool owns :class:`~repro.runtime.plan_executor.PlanExecutor`
workers (each one arena + solved placement + parameters) per model and
hands them out to request threads:

* ``acquire`` prefers an **idle executor of the same model** (an arena
  hit: zero allocation, zero placement work on the request path);
* a **miss** builds a fresh executor, but only if its arena fits the
  remaining memory budget — the resident set of all pooled arenas is
  capped by a :class:`~repro.scheduler.device.DeviceSpec` (or raw byte
  budget), mirroring the device the plans were compiled for;
* when the budget is exhausted, admission control first **evicts idle
  arenas** of other models (coldest first), then blocks the request
  until a lease is released; a model whose single arena can never fit
  is rejected outright with :class:`~repro.exceptions.AdmissionError` —
  unless spilling is enabled.

``spill`` picks what happens to arenas that exceed the budget
outright. ``"never"`` (default) keeps the hard rejection. ``"auto"``
degrades them instead: the executor is built against a compile-time
:class:`~repro.allocator.spill.SpillPlan` whose on-chip (resident)
region fits the budget, with cold buffers homed off-chip (victims
ranked by Belady — the schedule fixes the whole access sequence) and
fetched / written back around their uses — measured traffic,
bitwise-identical outputs. Admission then prices the executor at its
*resident* bytes, the on-chip footprint the budget actually models.
Batched executors spill per **row**: the per-row capacity is ``budget
// batch_size``, so an ``N x`` footprint that misses the budget stages
cold rows' buffers instead of refusing the whole batch.

``batch_size=N`` makes every pooled executor **batch-capable**: its
arena is ``N`` per-sample rows, the request scheduler can stack a
drained micro-batch into one ``run_batch`` call, and admission prices
the executor at ``N x`` the compiled plan — the budget bounds real
resident bytes, batched or not.

:meth:`ArenaPool.preload` warms the pool before traffic arrives: one
executor per registered model is built up front (inside the budget,
never evicting anything), so the first request of every model is an
arena *hit* instead of paying construction + allocation on the request
path — the cold-start misses that otherwise sit in the p99.

There is one pool mode: executors are always reused. The
fresh-executor-per-request strawman that reuse is measured against
lives in ``benchmarks/bench_serving.py``, not here.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

from repro.allocator.spill import SPILL_MODES, SpillPlan
from repro.exceptions import AdmissionError, ServingError, SpillError
from repro.memsim import OffchipLink
from repro.runtime.plan_executor import PlanExecutor
from repro.scheduler.device import DeviceSpec
from repro.serving.registry import ModelRegistry

__all__ = ["ArenaPool", "PoolStats"]


@dataclass(frozen=True)
class PoolStats:
    """Cumulative pool accounting (snapshot; see :meth:`ArenaPool.stats`)."""

    #: acquires served by a pooled, already-built executor
    hits: int
    #: acquires that had to build a fresh executor + arena
    misses: int
    #: idle executors dropped to make room under the budget
    evictions: int
    #: acquires that had to block waiting for a lease to come back
    waits: int
    #: bytes of arena currently resident (idle + leased)
    resident_bytes: int
    #: executors currently leased out
    leased: int
    #: executors built ahead of traffic by :meth:`ArenaPool.preload`
    preloads: int = 0
    #: executors built against a non-trivial spill plan (over-budget
    #: admissions degraded to off-chip staging instead of being
    #: refused; trivial everything-fits plans do not count)
    spilled_builds: int = 0
    #: spilled executors whose transfers overlap compute as prefetch
    #: jobs (double-buffered staging) rather than run inline
    prefetch_builds: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __add__(self, other: "PoolStats") -> "PoolStats":
        """Field-wise sum: the pools of several shards as one."""
        return PoolStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name)
               for f in fields(self)}
        )


class ArenaPool:
    """Reusable preallocated executors per model, under one memory budget.

    Parameters
    ----------
    registry:
        The verified artifacts this pool may build executors for.
    budget:
        A :class:`DeviceSpec`, a raw byte count, or ``None`` for
        unlimited. Bounds the *sum* of all resident arena bytes.
    seed:
        Parameter seed passed to every executor (deterministic weights,
        shared across the pool so every executor of a model computes the
        same function).
    scrub:
        Arena scrub policy for pooled executors (see
        :class:`~repro.runtime.plan_executor.PlanExecutor`).
    batch_size:
        Batch capacity of every pooled executor. ``N > 1`` provisions
        ``N`` arena rows per executor (admission prices them at ``N x``
        the plan) so the scheduler can stack same-model requests into
        one batched run.
    spill:
        Over-budget admission policy (see the module docstring):
        ``"never"`` refuses, ``"auto"`` degrades to a spill-planned
        executor whose resident region fits the budget.
    tile_bytes:
        Transfer granularity for spill-planned executors: ``None``
        stages whole buffers; a positive size streams sub-buffer tiles,
        admitting models at capacities below the whole-buffer floor
        (the Fig 11 small-capacity regime, live).
    prefetch:
        ``True`` (default) overlaps spilled executors' transfers with
        compute as prefetch jobs when their plan carries a
        double-buffered layout; ``False`` runs the same transfers
        inline, stalling on every one.
    link:
        Optional :class:`~repro.memsim.OffchipLink` modeling the
        off-chip transfer path's bandwidth/latency on every pooled
        executor's fetches and writebacks.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        budget: DeviceSpec | int | None = None,
        *,
        seed: int = 0,
        scrub: str = "never",
        batch_size: int = 1,
        spill: str = "never",
        tile_bytes: int | None = None,
        prefetch: bool = True,
        link: OffchipLink | None = None,
    ) -> None:
        if batch_size < 1:
            raise ServingError(f"batch_size must be >= 1, got {batch_size}")
        if spill not in SPILL_MODES:
            raise ServingError(
                f"unknown spill mode {spill!r}; pick one of {SPILL_MODES}"
            )
        self.registry = registry
        self.budget_bytes = (
            budget.sram_bytes if isinstance(budget, DeviceSpec) else budget
        )
        self.seed = seed
        self.scrub = scrub
        self.batch_size = batch_size
        self.spill = spill
        self.tile_bytes = tile_bytes
        self.prefetch = prefetch
        self.link = link
        self._cond = threading.Condition()
        #: idle executors per model, most-recently-released last
        self._idle: dict[str, deque[PlanExecutor]] = defaultdict(deque)
        #: model names by last use, coldest first (for eviction)
        self._cold_order: deque[str] = deque()
        self._resident_bytes = 0
        self._leased = 0
        self._closed = False
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._waits = 0
        self._preloads = 0
        self._spilled_builds = 0
        self._prefetch_builds = 0

    # ------------------------------------------------------------------
    def _spill_plan_for(self, name: str) -> SpillPlan | None:
        """The spill plan an executor of ``name`` is built against
        (None: plain resident executor).

        Only models whose ``batch_size x`` arena misses the budget are
        spill-planned. The per-row on-chip capacity is ``budget //
        batch_size`` — rows stage and spill independently, so
        ``batch_size`` resident rows together fit the budget. Raises
        :class:`AdmissionError` when even full spilling cannot meet it
        (the schedule's single-step working set is the floor)."""
        if self.spill == "never" or self.budget_bytes is None:
            return None
        model = self.registry.get(name)
        per_row = self.budget_bytes // self.batch_size
        if model.arena_bytes_for(self.batch_size) <= self.budget_bytes:
            return None
        try:
            return model.spill_plan(per_row, tile_bytes=self.tile_bytes)
        except SpillError as exc:
            raise AdmissionError(
                f"model {name!r} cannot be admitted even with spilling: "
                f"per-row on-chip capacity {per_row} bytes (budget "
                f"{self.budget_bytes} / batch {self.batch_size}) is below "
                f"the schedule's floor ({exc})"
            ) from exc

    def _build(self, name: str) -> PlanExecutor:
        model = self.registry.get(name)
        spill = self._spill_plan_for(name)
        executor = model.executor(
            seed=self.seed,
            batch_size=self.batch_size,
            scrub=self.scrub,
            spill=spill,
            prefetch=self.prefetch,
            link=self.link,
        )
        if spill is not None and not spill.is_trivial:
            # only genuinely degraded executors count — a trivial plan
            # (everything fits) moves no bytes off-chip
            with self._cond:
                self._spilled_builds += 1
                if executor.prefetch_active:
                    self._prefetch_builds += 1
        return executor

    def _arena_cost(self, name: str) -> int:
        """Bytes one executor of ``name`` counts against the budget.

        This is the *plan's* arena size times the pool's batch capacity
        (a batch-``N`` executor holds ``N`` layout-identical rows) — the
        number device-fit verdicts are made of — used consistently for
        admission, release and eviction. A spill-planned executor is
        priced at its **resident** bytes per row: only the on-chip
        region competes for the budget; its off-chip home region does
        not.
        """
        spill = self._spill_plan_for(name)
        if spill is not None:
            return spill.resident_bytes * self.batch_size
        return self.registry.arena_bytes(name, batch_size=self.batch_size)

    def _evict_idle(self, needed: int, keep: str) -> None:
        """Drop coldest idle executors (any model but ``keep``) until
        ``needed`` bytes fit the budget. Caller holds the lock."""
        assert self.budget_bytes is not None
        for name in list(self._cold_order):
            if self._resident_bytes + needed <= self.budget_bytes:
                return
            if name == keep:
                continue
            queue = self._idle.get(name)
            while queue and self._resident_bytes + needed > self.budget_bytes:
                queue.popleft()
                self._resident_bytes -= self._arena_cost(name)
                self._evictions += 1
            if not queue:
                self._cold_order.remove(name)

    def acquire(self, name: str, timeout: float | None = 30.0) -> PlanExecutor:
        """Lease an executor for ``name``, building one if the budget
        admits it; blocks (up to ``timeout`` seconds) when every
        admissible arena is leased out."""
        cost = self._arena_cost(name)
        if self.budget_bytes is not None and cost > self.budget_bytes:
            batched = (
                f" (batch {self.batch_size}: {self.batch_size} x "
                f"{cost // self.batch_size} bytes)"
                if self.batch_size > 1
                else ""
            )
            raise AdmissionError(
                f"model {name!r} needs a {cost}-byte arena{batched} but the "
                f"pool budget is {self.budget_bytes} bytes "
                f"({cost - self.budget_bytes} bytes short); it can never be "
                "admitted with spill='never' — set spill='auto' to degrade "
                "over-budget arenas to planned off-chip staging"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise ServingError("pool is closed")
                queue = self._idle.get(name)
                if queue:
                    executor = queue.pop()
                    if not queue:
                        self._cold_order.remove(name)
                    self._hits += 1
                    self._leased += 1
                    return executor
                if (
                    self.budget_bytes is None
                    or self._resident_bytes + cost <= self.budget_bytes
                ):
                    break
                self._evict_idle(cost, keep=name)
                if self._resident_bytes + cost <= self.budget_bytes:
                    break
                # everything resident is leased: wait for a release
                # (against an absolute deadline — wakeups that don't
                # admit us must not restart the clock)
                self._waits += 1
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if (
                    remaining is not None and remaining <= 0.0
                ) or not self._cond.wait(timeout=remaining):
                    raise AdmissionError(
                        f"timed out after {timeout}s waiting to admit a "
                        f"{cost}-byte arena for {name!r} "
                        f"({self._resident_bytes}/{self.budget_bytes} bytes "
                        "leased out)"
                    )
            # reserve the bytes, then build outside the lock (placement
            # solving and parameter init are the expensive part)
            self._resident_bytes += cost
            self._misses += 1
            self._leased += 1
        try:
            executor = self._build(name)
        except BaseException:
            with self._cond:
                self._resident_bytes -= cost
                self._leased -= 1
                self._cond.notify_all()
            raise
        return executor

    def release(self, name: str, executor: PlanExecutor) -> None:
        """Return a leased executor to the pool (a closed pool
        discards it)."""
        with self._cond:
            self._leased -= 1
            if not self._closed:
                queue = self._idle[name]
                if not queue:
                    self._cold_order.append(name)
                else:
                    # refresh warmth: model moves to the warm end
                    self._cold_order.remove(name)
                    self._cold_order.append(name)
                queue.append(executor)
            else:
                self._resident_bytes -= self._arena_cost(name)
            self._cond.notify_all()

    @contextmanager
    def lease(self, name: str, timeout: float | None = 30.0) -> Iterator[PlanExecutor]:
        """``with pool.lease(name) as px: px.run(feeds)``."""
        executor = self.acquire(name, timeout=timeout)
        try:
            yield executor
        finally:
            self.release(name, executor)

    # ------------------------------------------------------------------
    def preload(self, names: Iterable[str] | None = None) -> list[str]:
        """Build one idle executor per registered model before traffic.

        Warms the pool so no request pays executor construction (arena
        allocation, placement solving, parameter init) on the serving
        path: after ``preload()`` the first request of every preloaded
        model is a pool *hit*. Models are warmed strictly within the
        remaining budget — preload never evicts and never blocks; a
        model that does not fit right now is skipped (it will be built
        on demand later, exactly as without preload). Builds are counted
        in :attr:`PoolStats.preloads`, **not** as misses — the miss
        counter keeps meaning "a request paid for a build".

        ``names`` restricts warming to a subset (default: the whole
        registry) — shard workers load every artifact so models can
        rehash onto them after a peer fails, but warm only the models
        *currently routed* to them, keeping preloads unduplicated.

        Returns the names actually built.
        """
        built: list[str] = []
        targets = self.registry.names() if names is None else list(names)
        for name in targets:
            cost = self._arena_cost(name)
            with self._cond:
                if self._closed:
                    raise ServingError("pool is closed")
                if self._idle.get(name):
                    continue  # already warm
                if (
                    self.budget_bytes is not None
                    and self._resident_bytes + cost > self.budget_bytes
                ):
                    continue  # would not fit without evicting: skip
                self._resident_bytes += cost
            try:
                executor = self._build(name)
            except BaseException:
                with self._cond:
                    self._resident_bytes -= cost
                    self._cond.notify_all()
                raise
            with self._cond:
                if self._closed:
                    self._resident_bytes -= cost
                    self._cond.notify_all()
                    raise ServingError("pool is closed")
                queue = self._idle[name]
                queue.append(executor)
                if name not in self._cold_order:
                    self._cold_order.append(name)
                self._preloads += 1
                self._cond.notify_all()
            built.append(name)
        return built

    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        with self._cond:
            return PoolStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                waits=self._waits,
                resident_bytes=self._resident_bytes,
                leased=self._leased,
                preloads=self._preloads,
                spilled_builds=self._spilled_builds,
                prefetch_builds=self._prefetch_builds,
            )

    def close(self) -> None:
        """Drop every idle executor and refuse further acquires."""
        with self._cond:
            self._closed = True
            for name, queue in self._idle.items():
                self._resident_bytes -= self._arena_cost(name) * len(queue)
            self._idle.clear()
            self._cold_order.clear()
            self._cond.notify_all()
