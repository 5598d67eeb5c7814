"""RequestScheduler: dispatch, micro-batching, concurrent bitwise parity."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.compiler import CompilationPipeline
from repro.exceptions import (
    DeadlineExceededError,
    ExecutionError,
    ServingError,
)
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.serving import (
    ArenaPool,
    ModelRegistry,
    RequestScheduler,
    run_load,
)
from repro.serving.scheduler import _Request


@pytest.fixture
def registry(chain_graph, diamond_graph):
    registry = ModelRegistry()
    pipeline = CompilationPipeline("greedy")
    registry.register(pipeline.compile(chain_graph), name="chain")
    registry.register(pipeline.compile(diamond_graph), name="diamond")
    return registry


class TestDispatch:
    def test_submit_returns_reference_outputs(self, registry):
        graph = registry.get("chain").graph
        feeds = random_feeds(graph)
        ref = Executor(graph, params=init_params(graph, 0)).run(feeds)
        pool = ArenaPool(registry)
        with RequestScheduler(registry, pool, workers=2) as server:
            result = server.submit("chain", feeds).result(timeout=30)
        assert set(result.outputs) == set(ref)
        for name in ref:
            np.testing.assert_array_equal(ref[name], result.outputs[name])
        assert result.stats.model == "chain"
        assert result.stats.run_s > 0

    def test_unknown_model_fails_fast(self, registry):
        pool = ArenaPool(registry)
        with RequestScheduler(registry, pool, workers=1) as server:
            with pytest.raises(ServingError, match="unknown model"):
                server.submit("nope", {})

    def test_submit_before_start_rejected(self, registry):
        server = RequestScheduler(registry, ArenaPool(registry), workers=1)
        with pytest.raises(ServingError, match="not running"):
            server.submit("chain", {})

    def test_request_error_sets_future_exception(self, registry):
        pool = ArenaPool(registry)
        with RequestScheduler(registry, pool, workers=1) as server:
            fut = server.submit("chain", {})  # missing feeds
            with pytest.raises(ExecutionError, match="missing feed"):
                fut.result(timeout=30)
        assert server.stats().errors == 1
        # the pool survives failed requests
        assert pool.stats().leased == 0


class TestMicroBatching:
    def _request(self, model: str) -> _Request:
        return _Request(
            model=model,
            feeds={},
            future=Future(),
            enqueued_at=time.perf_counter(),
        )

    def test_take_batch_groups_same_model(self, registry):
        server = RequestScheduler(
            registry, ArenaPool(registry), workers=1, max_batch=3
        )
        for model in ("chain", "chain", "diamond", "chain", "chain"):
            server._queue.append(self._request(model))
        batch = server._take_batch()
        assert [r.model for r in batch] == ["chain", "chain", "chain"]
        # the skipped diamond request kept its place at the head
        assert [r.model for r in server._queue] == ["diamond", "chain"]

    def test_take_batch_respects_limit_one(self, registry):
        server = RequestScheduler(registry, ArenaPool(registry), workers=1)
        for model in ("chain", "chain"):
            server._queue.append(self._request(model))
        assert len(server._take_batch()) == 1

    def test_batched_requests_all_answered(self, registry):
        graph = registry.get("diamond").graph
        params = init_params(graph, 0)
        pool = ArenaPool(registry)
        with RequestScheduler(
            registry, pool, workers=1, max_batch=4
        ) as server:
            futures = [
                server.submit("diamond", random_feeds(graph, seed=i))
                for i in range(8)
            ]
            results = [f.result(timeout=30) for f in futures]
        ref = Executor(graph, params=params)
        for i, result in enumerate(results):
            want = ref.run(random_feeds(graph, seed=i))
            for name in want:
                np.testing.assert_array_equal(want[name], result.outputs[name])
        stats = server.stats()
        assert stats.requests == 8
        assert stats.batches <= 8  # some leases served several requests


class TestStackedBatching:
    """Batch-capable executors turn a drained micro-batch into ONE
    stacked run with per-request scatter."""

    def _request(self, graph, seed, feeds=None) -> _Request:
        return _Request(
            model="diamond",
            feeds=feeds if feeds is not None else random_feeds(graph, seed=seed),
            future=Future(),
            enqueued_at=time.perf_counter(),
        )

    def test_stacked_batch_scatters_bitwise_outputs(self, registry):
        graph = registry.get("diamond").graph
        params = init_params(graph, 0)
        pool = ArenaPool(registry, batch_size=8)
        all_queued = threading.Event()
        with RequestScheduler(
            registry, pool, workers=1, max_batch=8
        ) as server:
            # hold the first dispatch until every request is queued, or
            # a worker that keeps pace with the submit loop runs each
            # request alone and there is nothing to stack
            server.run_hook = lambda: all_queued.wait(timeout=30)
            futures = [
                server.submit("diamond", random_feeds(graph, seed=i))
                for i in range(16)
            ]
            all_queued.set()
            results = [f.result(timeout=30) for f in futures]
        ref = Executor(graph, params=params)
        for i, result in enumerate(results):
            want = ref.run(random_feeds(graph, seed=i))
            for name in want:
                np.testing.assert_array_equal(want[name], result.outputs[name])
        stats = server.stats()
        assert stats.requests == 16
        # max_batch decides the rest: a first drain of 1-8 requests
        # (taken before the hold), then eights; the per-request stats
        # carry the true stacked size
        assert stats.batches <= 3
        assert stats.mean_batch > 1.0
        assert any(r.stats.batch_size > 1 for r in results)
        assert max(r.stats.batch_size for r in results) <= 8

    def test_partial_drain_runs_at_true_size(self, registry):
        """Three queued requests against capacity 8: the stacked run
        executes at size 3 (no padding) and records batch_size=3."""
        graph = registry.get("diamond").graph
        pool = ArenaPool(registry, batch_size=8)
        server = RequestScheduler(registry, pool, workers=1, max_batch=8)
        requests = [self._request(graph, seed=i) for i in range(3)]
        executor = pool.acquire("diamond")
        try:
            server._run_batch("diamond", requests, executor)
        finally:
            pool.release("diamond", executor)
        for req in requests:
            result = req.future.result(timeout=5)
            assert result.stats.batch_size == 3
        assert executor.last_stats.batch == 3
        assert server.stats().batches == 1
        assert server.stats().mean_batch == 3.0

    def test_malformed_request_fails_alone(self, registry):
        """A bad request in a drained batch must not poison the
        stackable neighbours it was drained with."""
        graph = registry.get("diamond").graph
        pool = ArenaPool(registry, batch_size=8)
        server = RequestScheduler(registry, pool, workers=1, max_batch=8)
        good = [self._request(graph, seed=i) for i in range(2)]
        bad = self._request(graph, seed=9, feeds={})  # missing feed
        requests = [good[0], bad, good[1]]
        executor = pool.acquire("diamond")
        try:
            server._run_batch("diamond", requests, executor)
        finally:
            pool.release("diamond", executor)
        for req in good:
            assert req.future.result(timeout=5).stats.batch_size == 2
        with pytest.raises(ExecutionError, match="missing feed"):
            bad.future.result(timeout=5)
        assert server.stats().errors == 1

    def test_extra_feeds_go_solo_not_poisoned(self, registry):
        """Requests carrying extra non-input feeds (which np.stack could
        trip over) must not be stacked together: each succeeds alone,
        exactly as the executor treats extra feeds solo."""
        graph = registry.get("diamond").graph
        params = init_params(graph, 0)
        pool = ArenaPool(registry, batch_size=8)
        server = RequestScheduler(registry, pool, workers=1, max_batch=8)
        requests = []
        for i, extra_shape in enumerate([(2,), (3,)]):
            feeds = random_feeds(graph, seed=i)
            feeds["aux"] = np.zeros(extra_shape)  # not a graph input
            requests.append(self._request(graph, seed=i, feeds=feeds))
        executor = pool.acquire("diamond")
        try:
            server._run_batch("diamond", requests, executor)
        finally:
            pool.release("diamond", executor)
        ref = Executor(graph, params=params)
        for i, req in enumerate(requests):
            result = req.future.result(timeout=5)
            assert result.stats.batch_size == 1  # solo, not stacked
            want = ref.run(random_feeds(graph, seed=i))
            for name in want:
                np.testing.assert_array_equal(want[name], result.outputs[name])
        assert server.stats().errors == 0

    def test_drain_beyond_capacity_chunks(self, registry):
        """max_batch above the executor capacity chunks the stacked
        runs instead of overflowing the arena rows."""
        graph = registry.get("diamond").graph
        pool = ArenaPool(registry, batch_size=2)
        server = RequestScheduler(registry, pool, workers=1, max_batch=6)
        requests = [self._request(graph, seed=i) for i in range(5)]
        executor = pool.acquire("diamond")
        try:
            server._run_batch("diamond", requests, executor)
        finally:
            pool.release("diamond", executor)
        sizes = sorted(
            req.future.result(timeout=5).stats.batch_size for req in requests
        )
        assert sizes == [1, 2, 2, 2, 2]
        assert server.stats().batches == 3

    def test_verified_load_with_stacking(self, registry):
        """End-to-end: concurrent load over batch-capable pool, every
        scattered sample bitwise the reference executor's."""
        report = run_load(
            registry,
            requests=48,
            clients=12,
            workers=1,
            max_batch=8,
            preload=True,
            verify=True,
        )
        assert report.errors == 0
        assert report.verified is True
        assert report.stats.mean_batch > 1.0
        assert report.batch_size == 8
        assert report.stats.pool.preloads == 2


class TestConcurrentServing:
    def test_four_clients_two_models_bitwise(self, registry):
        """The acceptance-criterion shape: >= 4 concurrent clients over
        >= 2 resident models, every response bitwise-equal to the
        reference executor."""
        report = run_load(
            registry,
            requests=32,
            clients=4,
            workers=4,
            max_batch=4,
            verify=True,
        )
        assert report.errors == 0
        assert report.verified is True
        assert len(report.models) == 2
        assert report.stats.pool.hit_rate > 0.0
        assert report.rps > 0

    def test_budgeted_run_with_eviction_still_bitwise(self, registry):
        budget = max(
            registry.arena_bytes("chain"), registry.arena_bytes("diamond")
        ) + min(
            registry.arena_bytes("chain"), registry.arena_bytes("diamond")
        ) // 2
        report = run_load(
            registry,
            requests=24,
            clients=4,
            workers=2,
            budget=budget,
            verify=True,
        )
        assert report.errors == 0
        assert report.verified is True

    def test_baseline_mode_serves_identically(self, registry):
        report = run_load(
            registry, requests=12, clients=3, workers=2, verify=True
        )
        assert report.verified is True
        assert report.errors == 0 and report.stats.pool.hits > 0

    def test_stats_percentiles_ordered(self, registry):
        report = run_load(registry, requests=16, clients=2, workers=2)
        assert 0.0 < report.stats.p50_s <= report.stats.p99_s


class TestErrorPaths:
    """Worker-loop failure semantics: poisoned batchmates, shutdown
    signals, and error latencies in the aggregate stats."""

    POISON = 7.5e33  # sentinel feed value the patched kernels choke on

    def _request(self, graph, seed, feeds=None) -> _Request:
        return _Request(
            model="diamond",
            feeds=feeds if feeds is not None else random_feeds(graph, seed=seed),
            future=Future(),
            enqueued_at=time.perf_counter(),
        )

    def _poison_executor(self, executor):
        """Make the executor raise whenever a feed carries the sentinel
        (stand-in for a data-dependent kernel exception)."""
        real_run_batch = executor.run_batch

        def run_batch(feeds, batch=None):
            if any(np.any(np.asarray(v) == self.POISON) for v in feeds.values()):
                raise ExecutionError(f"poisoned feed in a batch of {batch}")
            return real_run_batch(feeds, batch=batch)

        executor.run_batch = run_batch

    def test_poisoned_batchmate_fails_alone_among_eight(self, registry):
        """A kernel exception inside one stacked run_batch must fail
        only the culpable request: the other seven are re-run alone and
        answered bitwise-correct."""
        graph = registry.get("diamond").graph
        params = init_params(graph, 0)
        pool = ArenaPool(registry, batch_size=8)
        server = RequestScheduler(registry, pool, workers=1, max_batch=8)
        requests = [self._request(graph, seed=i) for i in range(8)]
        spec = graph.node(graph.input_nodes[0]).output.shape
        poisoned = requests[3]
        poisoned.feeds = {graph.input_nodes[0]: np.full(spec, self.POISON)}
        executor = pool.acquire("diamond")
        self._poison_executor(executor)
        try:
            server._run_batch("diamond", requests, executor)
        finally:
            pool.release("diamond", executor)
        ref = Executor(graph, params=params)
        for i, req in enumerate(requests):
            if req is poisoned:
                continue
            result = req.future.result(timeout=5)
            assert result.stats.batch_size == 1  # served by the width-1 retry
            want = ref.run(random_feeds(graph, seed=i))
            for name in want:
                np.testing.assert_array_equal(want[name], result.outputs[name])
        with pytest.raises(ExecutionError, match="poisoned feed in a batch of 1"):
            poisoned.future.result(timeout=5)
        stats = server.stats()
        assert stats.errors == 1
        assert stats.requests == 7
        # every request — the failed one included — has a latency
        assert len(stats.latencies_s) == 8

    @pytest.mark.parametrize("poison", [False, True], ids=["clean", "poisoned"])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_one_serving_path_at_every_width(self, registry, count, poison):
        """1, 2 and capacity+1 live requests all go stack -> run_batch
        -> scatter: chunk widths land in the stats, outputs come back
        spec-shaped and bitwise, and a poisoned first request fails
        alone while its chunk re-enters at width 1."""
        capacity = 4
        graph = registry.get("diamond").graph
        params = init_params(graph, 0)
        pool = ArenaPool(registry, batch_size=capacity)
        server = RequestScheduler(registry, pool, workers=1, max_batch=8)
        requests = [self._request(graph, seed=i) for i in range(count)]
        if poison:
            spec = graph.node(graph.input_nodes[0]).output.shape
            requests[0].feeds = {
                graph.input_nodes[0]: np.full(spec, self.POISON)
            }
        executor = pool.acquire("diamond")
        self._poison_executor(executor)
        try:
            server._run_batch("diamond", requests, executor)
        finally:
            pool.release("diamond", executor)
        widths = [
            min(capacity, count - lo)
            for lo in range(0, count, capacity)
            for _ in range(min(capacity, count - lo))
        ]
        runs = len(range(0, count, capacity))
        if poison:
            # the first chunk's stacked attempt fails without counting
            # as a run; each of its requests then runs alone
            runs += widths[0] - 1
            widths[: widths[0]] = [1] * widths[0]
        ref = Executor(graph, params=params)
        for i, req in enumerate(requests):
            if poison and i == 0:
                with pytest.raises(ExecutionError, match="batch of 1"):
                    req.future.result(timeout=5)
                continue
            result = req.future.result(timeout=5)
            assert result.stats.batch_size == widths[i]
            want = ref.run(random_feeds(graph, seed=i))
            assert set(result.outputs) == set(want)
            for name in want:
                assert result.outputs[name].shape == graph.node(name).output.shape
                np.testing.assert_array_equal(want[name], result.outputs[name])
        stats = server.stats()
        assert stats.batches == runs
        assert stats.errors == int(poison)
        assert stats.requests == count - int(poison)
        assert len(stats.latencies_s) == count

    def test_base_exception_fails_pending_futures_and_reraises(self, registry):
        """KeyboardInterrupt inside a run aborts the batch: every
        pending future fails (no client hangs) and the signal
        propagates instead of being swallowed as a request error."""
        graph = registry.get("diamond").graph
        pool = ArenaPool(registry, batch_size=4)
        server = RequestScheduler(registry, pool, workers=1, max_batch=4)
        requests = [self._request(graph, seed=i) for i in range(4)]
        executor = pool.acquire("diamond")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        executor.run_batch = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                server._run_batch("diamond", requests, executor)
        finally:
            pool.release("diamond", executor)
        for req in requests:
            assert isinstance(req.future.exception(timeout=5), KeyboardInterrupt)

    # the worker re-raising SystemExit out of its thread is the behaviour
    # under test, not a leak: pytest's thread hook reports it regardless
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_thread_dies_on_base_exception(self, registry):
        """SystemExit from the pool stops the worker loop; the drained
        request's future carries the exception."""
        graph = registry.get("chain").graph
        pool = ArenaPool(registry)
        server = RequestScheduler(registry, pool, workers=1).start()

        def exiting_acquire(name, timeout=30.0):
            raise SystemExit("going down")

        server.pool = ArenaPool(registry)
        server.pool.acquire = exiting_acquire
        fut = server.submit("chain", random_feeds(graph))
        with pytest.raises(SystemExit):
            fut.result(timeout=10)
        server._threads[0].join(timeout=10)
        assert not server._threads[0].is_alive()
        assert server.stats().errors == 1
        server.shutdown(wait=True)

    def test_error_latencies_reach_percentiles(self, registry):
        """Failed runs must not vanish from the latency distribution."""
        graph = registry.get("chain").graph
        pool = ArenaPool(registry)
        with RequestScheduler(registry, pool, workers=1) as server:
            ok = server.submit("chain", random_feeds(graph, seed=0))
            bad = server.submit("chain", {})  # missing feeds -> run fails
            ok.result(timeout=30)
            with pytest.raises(ExecutionError):
                bad.result(timeout=30)
        stats = server.stats()
        assert stats.requests == 1
        assert stats.errors == 1
        assert len(stats.latencies_s) == 2  # the error's latency counts

    def test_plan_execution_stats_fields_pinned_for_serving(self):
        """The scheduler and the benchmarks read these PlanExecutionStats
        names directly; renaming them must break loudly here, not
        silently zero the serving stats. Run traffic is one
        TrafficReport; the spill names are views of it."""
        from dataclasses import fields

        from repro.memsim import TrafficReport
        from repro.runtime.plan_executor import PlanExecutionStats

        by_name = {f.name: f for f in fields(PlanExecutionStats)}
        assert {"steps", "measured_peak_bytes", "arena_reused"} <= set(
            by_name
        )
        assert by_name["traffic"].type in (TrafficReport, "TrafficReport")
        views = {
            "spill_stall_s": "stall_s",
            "spill_hidden_s": "hidden_s",
            "spill_fetches": "fetches",
            "spill_writebacks": "writebacks",
            "spill_bytes_total": "total_bytes",
        }
        traffic = TrafficReport(
            capacity_bytes=1, policy="belady", bytes_in=3, bytes_out=4,
            fetches=5, writebacks=6, bypass_bytes=0, accesses=7,
            stall_s=0.5, hidden_s=0.25,
        )
        stats = PlanExecutionStats(
            steps=1, arena_bytes=1, measured_peak_bytes=1, traffic=traffic
        )
        for view, name in views.items():
            assert view not in by_name
            assert isinstance(getattr(PlanExecutionStats, view), property)
            assert getattr(stats, view) == getattr(traffic, name)


class TestDeadlines:
    """Single-process deadline semantics — identical to the sharded
    path, so `serve --shards 1` and unsharded serving fail the same."""

    def test_queued_request_is_shed_before_compute(self, registry):
        graph = registry.get("chain").graph
        pool = ArenaPool(registry)
        with RequestScheduler(registry, pool, workers=1) as server:
            # stall the single worker so the second request waits in the
            # queue past its deadline
            server.run_hook = lambda: time.sleep(0.4)
            slow = server.submit("chain", random_feeds(graph, seed=0))
            doomed = server.submit(
                "chain", random_feeds(graph, seed=1), deadline_s=0.05
            )
            with pytest.raises(DeadlineExceededError, match="shed before"):
                doomed.result(timeout=30)
            assert slow.result(timeout=30) is not None
        stats = server.stats()
        assert stats.expired == 1
        assert stats.errors == 1  # expiries are a subset of errors
        assert stats.requests == 1
        assert len(stats.latencies_s) == 2  # shed latency still counts

    def test_constructor_default_applies_to_every_request(self, registry):
        graph = registry.get("chain").graph
        pool = ArenaPool(registry)
        with RequestScheduler(
            registry, pool, workers=1, deadline_s=0.05
        ) as server:
            server.run_hook = lambda: time.sleep(0.4)
            # a per-request deadline overrides the constructor default
            first = server.submit(
                "chain", random_feeds(graph, seed=0), deadline_s=30.0
            )
            second = server.submit("chain", random_feeds(graph, seed=1))
            # the second inherited the 50ms default and aged out queued
            with pytest.raises(DeadlineExceededError):
                second.result(timeout=30)
            assert first.result(timeout=30) is not None
        assert server.stats().expired == 1

    def test_no_deadline_means_no_shedding(self, registry):
        graph = registry.get("chain").graph
        pool = ArenaPool(registry)
        with RequestScheduler(registry, pool, workers=1) as server:
            server.run_hook = lambda: time.sleep(0.1)
            futures = [
                server.submit("chain", random_feeds(graph, seed=i))
                for i in range(3)
            ]
            for f in futures:
                assert f.result(timeout=30) is not None
        assert server.stats().expired == 0

    def test_rejects_nonpositive_deadline(self, registry):
        pool = ArenaPool(registry)
        with pytest.raises(ServingError, match="deadline_s"):
            RequestScheduler(registry, pool, deadline_s=0.0)
