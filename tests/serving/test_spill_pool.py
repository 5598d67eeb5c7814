"""Off-chip-aware serving: spill knob on the pool, stats surfacing."""

import threading

import numpy as np
import pytest

from repro.compiler import CompilationPipeline
from repro.exceptions import AdmissionError, ServingError
from repro.models.suite import serving_suite
from repro.runtime.executor import Executor, random_feeds
from repro.serving import ModelRegistry, run_load
from repro.serving.pool import ArenaPool
from repro.serving.scheduler import RequestScheduler


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    pipeline = CompilationPipeline("greedy")
    for name, factory in serving_suite().items():
        reg.register(pipeline.compile(factory()), name=name)
    return reg


def _tight_budget(registry) -> int:
    """A budget above every model's staging floor but below every
    arena — spilling is both necessary and possible."""
    floors = [registry.get(n).spill_floor_bytes for n in registry.names()]
    arenas = [registry.get(n).arena_bytes for n in registry.names()]
    budget = max(floors) + 16
    assert budget < min(arenas), "serving suite geometry changed"
    return budget


class TestAdmissionMessages:
    def test_refusal_names_needed_vs_available_and_hints_spill(self, registry):
        budget = _tight_budget(registry)
        pool = ArenaPool(registry, budget)
        name = registry.names()[0]
        need = registry.get(name).arena_bytes
        with pytest.raises(AdmissionError) as err:
            pool.acquire(name)
        message = str(err.value)
        assert str(need) in message  # needed bytes
        assert str(budget) in message  # available bytes
        assert str(need - budget) in message  # the shortfall
        assert "spill='auto'" in message  # the knob hint

    def test_below_floor_refused_even_with_spill(self, registry):
        pool = ArenaPool(registry, 64, spill="auto")
        with pytest.raises(AdmissionError, match="even with spilling"):
            pool.acquire(registry.names()[0])

    def test_unknown_spill_mode_rejected(self, registry):
        with pytest.raises(ServingError, match="spill mode"):
            ArenaPool(registry, spill="sometimes")


class TestSpilledAdmission:
    def test_auto_degrades_over_budget_to_spilled_executor(self, registry):
        budget = _tight_budget(registry)
        pool = ArenaPool(registry, budget, spill="auto")
        name = registry.names()[0]
        executor = pool.acquire(name)
        try:
            assert executor.spill is not None
            assert not executor.spill.is_trivial
            stats = pool.stats()
            assert stats.spilled_builds == 1
            # admission priced at resident bytes, within budget
            assert stats.resident_bytes <= budget
            graph = registry.get(name).graph
            feeds = random_feeds(graph, seed=3)
            got = executor.run(feeds)
            ref = Executor(graph, params=executor.params).run(feeds)
            for k in ref:
                np.testing.assert_array_equal(ref[k], got[k])
            assert executor.last_stats.spill_bytes_total > 0
        finally:
            pool.release(name, executor)

    def test_auto_keeps_fitting_models_resident(self, registry):
        name = registry.names()[0]
        pool = ArenaPool(
            registry, registry.get(name).arena_bytes * 4, spill="auto"
        )
        executor = pool.acquire(name)
        try:
            assert executor.spill is None
            assert pool.stats().spilled_builds == 0
        finally:
            pool.release(name, executor)

    def test_batched_rows_spill_before_batch_refused(self, registry):
        """An N x footprint over budget stages cold rows' buffers
        instead of refusing the whole batch."""
        name = registry.names()[0]
        model = registry.get(name)
        batch = 2
        # room for the floors of both rows, not for both full arenas
        budget = batch * (model.spill_floor_bytes + 16)
        assert budget < model.arena_bytes_for(batch)
        pool = ArenaPool(registry, budget, spill="auto", batch_size=batch)
        executor = pool.acquire(name)
        try:
            assert executor.spill is not None
            feeds = [random_feeds(model.graph, seed=i) for i in range(batch)]
            stacked = {
                k: np.stack([f[k] for f in feeds]) for k in feeds[0]
            }
            got = executor.run_batch(stacked)
            ref = Executor(model.graph, params=executor.params)
            for b in range(batch):
                want = ref.run(feeds[b])
                for k in want:
                    np.testing.assert_array_equal(want[k], got[k][b])
            assert executor.last_stats.spill_bytes_total > 0
        finally:
            pool.release(name, executor)


    def test_evicted_prefetching_executors_start_no_thread(self, registry):
        """20 prefetching executors built, run and evicted by the pool
        leave the process's thread count where it was."""
        budget = _tight_budget(registry)
        pool = ArenaPool(registry, budget, spill="auto")
        names = registry.names()
        before = threading.active_count()
        try:
            for i in range(20):
                name = names[i % len(names)]
                with pool.lease(name) as executor:
                    assert executor.prefetch_active
                    executor.run(random_feeds(registry.get(name).graph, seed=i))
                    running = [t.name for t in threading.enumerate()]
                    assert "repro-offchip-dma" not in running
                    assert threading.active_count() == before, running
            stats = pool.stats()
            assert stats.prefetch_builds == 20
            assert stats.evictions >= 19
        finally:
            pool.close()
        assert threading.active_count() == before


@pytest.fixture(scope="module")
def tiled_registry():
    """The micro serving cells' buffers are smaller than one tile, so
    tile streaming cannot drop their floor; tile admission needs a
    real suite cell with multi-tile buffers."""
    from repro.models.suite import get_cell

    reg = ModelRegistry()
    reg.register(
        CompilationPipeline("greedy").compile(
            get_cell("randwire-c10-b").factory()
        ),
        name="rw-c10-b",
    )
    return reg


class TestTileStreamingAdmission:
    """tile_bytes on the pool: admission below the whole-buffer floor."""

    TILE = 8192

    @classmethod
    def _tile_bounds(cls, registry, name):
        model = registry.get(name)
        floor = model.spill_floor_bytes
        tile_floor = model.spill_floor_for(cls.TILE)
        below = max(tile_floor, min(floor - 1, tile_floor * 2))
        assert below < floor, "fixture cell must have tile headroom"
        return below, floor

    def test_tiled_pool_admits_below_whole_floor(self, tiled_registry):
        name = tiled_registry.names()[0]
        below, _ = self._tile_bounds(tiled_registry, name)
        # whole-buffer staging refuses this budget outright
        whole = ArenaPool(tiled_registry, below, spill="auto")
        with pytest.raises(AdmissionError, match="even with spilling"):
            whole.acquire(name)
        pool = ArenaPool(
            tiled_registry, below, spill="auto", tile_bytes=self.TILE
        )
        executor = pool.acquire(name)
        try:
            assert executor.spill is not None
            assert executor.spill.tile_bytes == self.TILE
            graph = tiled_registry.get(name).graph
            feeds = random_feeds(graph, seed=5)
            got = executor.run(feeds)
            ref = Executor(graph, params=executor.params).run(feeds)
            for k in ref:
                np.testing.assert_array_equal(ref[k], got[k])
            assert executor.last_stats.traffic.tile_bytes == self.TILE
            assert executor.last_stats.spill_bytes_total > 0
        finally:
            pool.release(name, executor)

    def test_run_load_threads_tile_bytes(self, tiled_registry):
        name = tiled_registry.names()[0]
        below, _ = self._tile_bounds(tiled_registry, name)
        report = run_load(
            tiled_registry,
            requests=8,
            clients=2,
            workers=1,
            max_batch=1,
            budget=below,
            spill="auto",
            tile_bytes=self.TILE,
            verify=True,
        )
        assert report.errors == 0
        assert report.verified is True
        assert report.tile_bytes == self.TILE
        assert report.stats.spill_bytes > 0

    def test_untiled_report_has_no_tile_bytes(self, registry):
        report = run_load(
            registry, requests=4, clients=1, workers=1, max_batch=1
        )
        assert report.tile_bytes is None


class TestServingStatsSurface:
    def test_run_load_spill_auto_serves_and_accounts(self, registry):
        budget = _tight_budget(registry)
        report = run_load(
            registry,
            requests=16,
            clients=2,
            workers=2,
            max_batch=1,
            budget=budget,
            spill="auto",
            verify=True,
        )
        assert report.errors == 0
        assert report.verified is True
        assert report.spill == "auto"
        assert report.stats.spill_bytes > 0
        assert report.stats.pool.spilled_builds >= 1
        assert "off-chip spill traffic" in report.summary()

    def test_request_stats_carry_spill_bytes(self, registry):
        """Traffic is run-level: the ServingStats a request is served
        under counts it once per executor run, exactly what the
        executor moved; the per-request record carries none."""
        budget = _tight_budget(registry)
        pool = ArenaPool(registry, budget, spill="auto")
        name = registry.names()[0]
        graph = registry.get(name).graph
        with RequestScheduler(registry, pool, workers=1) as server:
            for seed in (0, 1):
                result = server.submit(
                    name, random_feeds(graph, seed=seed)
                ).result(timeout=30)
        stats = server.stats()
        with pool.lease(name) as executor:
            per_run = executor.last_stats.spill_bytes_total
        assert per_run > 0
        assert stats.batches == 2 and stats.spill_bytes == 2 * per_run
        assert not hasattr(result.stats, "spill_bytes")
        pool.close()

    def test_sharded_spill_accounting_matches_in_process(self, registry):
        """One spilled workload served in-process and over two shards
        reports the same counters: each run is counted once, in the
        process that ran it, and the shards' snapshots add up."""
        name = registry.names()[0]
        model = registry.get(name)
        single = ModelRegistry()
        single.register(model, name=name)
        budget = model.spill_floor_bytes + 16
        assert budget < model.arena_bytes
        inproc, sharded = (
            run_load(
                single, requests=12, clients=2, max_batch=1,
                budget=budget, spill="auto", shards=shards,
            ).stats
            for shards in (1, 2)
        )
        assert inproc.spill_bytes > 0
        for stats in (inproc, sharded):
            assert (stats.requests, stats.batches, stats.errors) == (12, 12, 0)
        assert sharded.spill_bytes == inproc.spill_bytes
        assert sharded.pool.spilled_builds == inproc.pool.spilled_builds == 1

    def test_never_mode_reports_zero_spill(self, registry):
        report = run_load(
            registry, requests=8, clients=2, workers=1, max_batch=1
        )
        assert report.spill == "never"
        assert report.stats.spill_bytes == 0
        assert report.stats.pool.spilled_builds == 0
        assert "off-chip spill traffic" not in report.summary()


class TestPreloadSpillPricing:
    def test_preload_auto_prices_resident_bytes_not_arenas(self, registry):
        """Under spill='auto' a preloaded executor must charge its
        spill plan's resident bytes against the budget, not the full
        arena it no longer provisions."""
        budget = _tight_budget(registry)
        pool = ArenaPool(registry, budget, spill="auto")
        built = pool.preload()
        try:
            assert built, "tight budget should still admit spilled builds"
            stats = pool.stats()
            assert stats.spilled_builds >= 1
            priced = sum(pool._arena_cost(name) for name in built)
            assert stats.resident_bytes == priced
            assert stats.resident_bytes <= budget
            arenas = sum(registry.get(name).arena_bytes for name in built)
            assert stats.resident_bytes < arenas  # spill pricing, not arenas
        finally:
            pool.close()
