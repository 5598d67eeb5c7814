"""ArenaPool: reuse, budget admission control, eviction, baseline mode."""

import threading

import pytest

from repro.compiler import CompilationPipeline
from repro.exceptions import AdmissionError, ServingError
from repro.scheduler.device import DeviceSpec
from repro.serving import ArenaPool, ModelRegistry


@pytest.fixture
def registry(chain_graph, diamond_graph):
    registry = ModelRegistry()
    pipeline = CompilationPipeline("greedy")
    registry.register(pipeline.compile(chain_graph), name="chain")
    registry.register(pipeline.compile(diamond_graph), name="diamond")
    return registry


class TestReuse:
    def test_acquire_release_reuses_executor(self, registry):
        pool = ArenaPool(registry)
        first = pool.acquire("chain")
        pool.release("chain", first)
        second = pool.acquire("chain")
        assert second is first  # same arena, same placement work
        stats = pool.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_lease_context_manager(self, registry):
        pool = ArenaPool(registry)
        from repro.runtime.executor import random_feeds

        with pool.lease("diamond") as px:
            px.run(random_feeds(registry.get("diamond").graph))
        assert pool.stats().leased == 0

    def test_concurrent_leases_get_distinct_executors(self, registry):
        pool = ArenaPool(registry)
        a = pool.acquire("chain")
        b = pool.acquire("chain")
        assert a is not b
        pool.release("chain", a)
        pool.release("chain", b)
        assert pool.stats().misses == 2

    def test_resident_bytes_track_plan_arenas(self, registry):
        pool = ArenaPool(registry)
        px = pool.acquire("chain")
        assert pool.stats().resident_bytes == registry.arena_bytes("chain")
        pool.release("chain", px)  # idle executors stay resident
        assert pool.stats().resident_bytes == registry.arena_bytes("chain")

    def test_close_refuses_acquires(self, registry):
        pool = ArenaPool(registry)
        pool.release("chain", pool.acquire("chain"))
        pool.close()
        assert pool.stats().resident_bytes == 0
        with pytest.raises(ServingError, match="closed"):
            pool.acquire("chain")


class TestBudget:
    def test_never_fitting_model_rejected_outright(self, registry):
        pool = ArenaPool(registry, budget=DeviceSpec("tiny", 16))
        with pytest.raises(AdmissionError, match="never"):
            pool.acquire("chain")
        assert pool.stats().resident_bytes == 0

    def test_idle_arena_evicted_to_admit_other_model(self, registry):
        both = registry.arena_bytes("chain") + registry.arena_bytes("diamond")
        budget = both - 1  # fits either, never both
        pool = ArenaPool(registry, budget=budget)
        pool.release("chain", pool.acquire("chain"))
        px = pool.acquire("diamond")  # must evict the idle chain arena
        stats = pool.stats()
        assert stats.evictions == 1
        assert stats.resident_bytes == registry.arena_bytes("diamond")
        pool.release("diamond", px)

    def test_exhausted_budget_blocks_until_release(self, registry):
        budget = max(
            registry.arena_bytes("chain"), registry.arena_bytes("diamond")
        )
        pool = ArenaPool(registry, budget=budget)
        held = pool.acquire("chain")

        acquired = []

        def waiter():
            px = pool.acquire("diamond", timeout=10.0)
            acquired.append(px)
            pool.release("diamond", px)

        t = threading.Thread(target=waiter)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive()  # blocked: everything resident is leased
        pool.release("chain", held)
        t.join(timeout=10.0)
        assert not t.is_alive() and acquired
        assert pool.stats().waits >= 1

    def test_admission_timeout_raises(self, registry):
        budget = registry.arena_bytes("chain")
        pool = ArenaPool(registry, budget=budget)
        held = pool.acquire("chain")
        with pytest.raises(AdmissionError, match="timed out"):
            pool.acquire("chain", timeout=0.05)
        pool.release("chain", held)


class TestBatchCapablePool:
    def test_executors_are_batch_capable(self, registry):
        pool = ArenaPool(registry, batch_size=4)
        px = pool.acquire("chain")
        assert px.batch_size == 4
        pool.release("chain", px)

    def test_admission_accounts_n_times_arena(self, registry):
        pool = ArenaPool(registry, batch_size=4)
        px = pool.acquire("chain")
        assert pool.stats().resident_bytes == 4 * registry.arena_bytes("chain")
        assert pool.stats().resident_bytes == registry.arena_bytes(
            "chain", batch_size=4
        )
        pool.release("chain", px)

    def test_batched_arena_can_never_fit_small_budget(self, registry):
        # budget fits ONE per-sample arena but not the 4-row batch
        budget = registry.arena_bytes("chain") + 1
        assert ArenaPool(registry, budget=budget).acquire("chain")
        pool = ArenaPool(registry, budget=budget, batch_size=4)
        with pytest.raises(AdmissionError, match="batch 4"):
            pool.acquire("chain")

    def test_invalid_batch_size_rejected(self, registry):
        with pytest.raises(ServingError, match="batch_size"):
            ArenaPool(registry, batch_size=0)


class TestPreload:
    def test_first_request_after_preload_builds_nothing(self, registry):
        """The warmup contract: after preload, the first acquire of
        every model is a pool hit — zero builds on the request path."""
        pool = ArenaPool(registry)
        built = pool.preload()
        assert sorted(built) == ["chain", "diamond"]
        stats = pool.stats()
        assert stats.preloads == 2
        assert stats.misses == 0  # preload builds are not misses
        for name in ("chain", "diamond"):
            px = pool.acquire(name)
            pool.release(name, px)
        stats = pool.stats()
        assert stats.misses == 0  # no build happened on a request
        assert stats.hits == 2

    def test_preload_is_idempotent(self, registry):
        pool = ArenaPool(registry)
        pool.preload()
        assert pool.preload() == []  # everything already warm
        assert pool.stats().preloads == 2

    def test_preload_skips_what_does_not_fit(self, registry):
        chain = registry.arena_bytes("chain")
        diamond = registry.arena_bytes("diamond")
        budget = max(chain, diamond)  # fits the bigger one alone
        pool = ArenaPool(registry, budget=budget)
        built = pool.preload()
        # preload never evicts and never blocks: exactly one fits
        assert len(built) == 1
        assert pool.stats().evictions == 0
        assert pool.stats().resident_bytes <= budget

    def test_preload_closed_pool_raises(self, registry):
        pool = ArenaPool(registry)
        pool.close()
        with pytest.raises(ServingError, match="closed"):
            pool.preload()


class TestAdmissionDeadline:
    def test_timeout_is_absolute_under_spurious_wakeups(self, registry):
        """Notifications that don't free budget must not reset the
        admission clock: acquire times out against an absolute
        deadline, not per-wait."""
        import time

        budget = registry.arena_bytes("chain")
        pool = ArenaPool(registry, budget=budget)
        held = pool.acquire("chain")
        stop = threading.Event()

        def heckle():
            while not stop.is_set():
                with pool._cond:
                    pool._cond.notify_all()
                time.sleep(0.02)

        heckler = threading.Thread(target=heckle)
        heckler.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(AdmissionError, match="timed out"):
                pool.acquire("chain", timeout=0.4)
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            heckler.join()
            pool.release("chain", held)
        assert 0.3 <= elapsed < 2.0
