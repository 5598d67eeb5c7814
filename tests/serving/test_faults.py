"""Self-healing serving under deterministic fault injection.

These are the acceptance tests for the supervision/retry/deadline
layer: every claim the serving stack makes about surviving a fault is
demonstrated here with a seeded :class:`~repro.serving.faults.FaultPlan`
— kills mid-load, kills inside the partial-response window, wedged
event loops, dropped and delayed responses, stalled engines, crash
loops — and the recovery counters are asserted against the injected
schedule.
"""

import pickle
import time

import numpy as np
import pytest

from repro.compiler import CompilationPipeline
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    ShardFailedError,
)
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.serving import (
    DelayResponse,
    DropResponse,
    FaultPlan,
    KillMidResponse,
    KillShard,
    ModelRegistry,
    ShardedScheduler,
    StallEngine,
    WedgeShard,
    run_load,
)
from repro.serving import shard as shard_module


@pytest.fixture
def registry(chain_graph, diamond_graph):
    registry = ModelRegistry()
    pipeline = CompilationPipeline("greedy")
    registry.register(pipeline.compile(chain_graph), name="chain")
    registry.register(pipeline.compile(diamond_graph), name="diamond")
    return registry


def make_scheduler(registry, **overrides):
    """A 2-shard scheduler tuned for fast recovery in tests."""
    kwargs = dict(
        shards=2,
        workers=2,
        heartbeat_s=0.05,
        restart_backoff_s=0.02,
        restart_backoff_max_s=0.2,
        retry_backoff_s=0.02,
    )
    kwargs.update(overrides)
    return ShardedScheduler(registry, **kwargs)


def reference_outputs(registry, name, feeds, seed=0):
    graph = registry.get(name).graph
    ref = Executor(graph, params=init_params(graph, seed))
    return ref.run(feeds)


def shard_of(scheduler, model):
    return scheduler.routing[model]


def model_on_shard(scheduler, shard):
    """Some model routed to ``shard`` (tests pick their victim)."""
    for name, s in scheduler.routing.items():
        if s == shard:
            return name
    raise AssertionError(f"no model routed to shard {shard}")


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFaultPlan:
    def test_seeded_schedule_is_deterministic(self):
        a = FaultPlan.kill_each_shard_once(4, seed=3)
        b = FaultPlan.kill_each_shard_once(4, seed=3)
        assert a == b
        assert len(a.faults) == 4 and a.kills() == 4
        # a different seed draws a different schedule (for these seeds)
        c = FaultPlan.kill_each_shard_once(4, seed=4)
        assert [f.at_request for f in a.faults] != [
            f.at_request for f in c.faults
        ]
        # pinned arrival overrides the draw
        d = FaultPlan.kill_each_shard_once(3, at_request=2, seed=9)
        assert [f.at_request for f in d.faults] == [2, 2, 2]

    def test_plans_pickle(self):
        plan = FaultPlan(
            faults=(
                KillShard(shard=0, at_request=3),
                WedgeShard(shard=1, stall_s=1.0),
                DropResponse(shard=0, at_request=2, incarnation=None),
            ),
            seed=5,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_validation(self):
        with pytest.raises(ServingError, match="at_request"):
            FaultPlan(faults=(KillShard(shard=0, at_request=0),))
        with pytest.raises(ServingError, match="shard"):
            FaultPlan(faults=(KillShard(shard=-1),))
        with pytest.raises(ServingError, match="shards must be >= 1"):
            FaultPlan.kill_each_shard_once(0)

    def test_incarnation_filtering(self):
        plan = FaultPlan(
            faults=(
                KillShard(shard=0, incarnation=0),
                KillShard(shard=0, incarnation=None),
                KillShard(shard=1, incarnation=2),
            )
        )
        assert len(plan.for_shard(0, 0)) == 2  # first life: both fire
        assert len(plan.for_shard(0, 1)) == 1  # respawn: only the loop
        assert len(plan.for_shard(1, 0)) == 0
        assert len(plan.for_shard(1, 2)) == 1
        assert plan.injector(1, 0) is None  # hot path stays hook-free

    def test_crash_loop_fires_every_incarnation(self):
        plan = FaultPlan.crash_loop(1)
        for incarnation in (0, 1, 2, 7):
            assert len(plan.for_shard(1, incarnation)) == 1


class TestChaosAcceptance:
    """The ISSUE acceptance run: kill every shard once mid-load."""

    def test_kill_each_shard_once_full_recovery(self, registry):
        plan = FaultPlan.kill_each_shard_once(2, seed=7)
        report = run_load(
            registry,
            requests=40,
            clients=4,
            workers=2,
            shards=2,
            verify=True,
            deadline_s=30.0,
            retries=6,
            faults=plan,
        )
        # >= 99% complete bitwise-correct — here: all of them
        assert report.errors == 0
        assert report.verified is True
        # the scheduler returned to the full shard count
        assert all(s.alive for s in report.shard_stats)
        assert not any(s.failed for s in report.shard_stats)
        # counters match the injected schedule exactly
        assert report.stats.restarts == plan.kills() == 2
        assert report.stats.shed == 0
        assert report.stats.expired == 0
        # recovery implies work was actually retried and rerouted
        assert report.stats.retries >= 1
        assert all(s.incarnation == 1 for s in report.shard_stats)

    def test_retried_requests_surface_attempts(self, registry):
        victim_model = None
        with make_scheduler(
            registry,
            retries=6,
            deadline_s=30.0,
            faults=FaultPlan(faults=(KillShard(shard=0, at_request=1),)),
        ) as server:
            victim_model = model_on_shard(server, 0)
            feeds = random_feeds(registry.get(victim_model).graph, seed=1)
            result = server.submit(victim_model, feeds).result(timeout=60)
            # the kill consumed the first attempt; success took more
            assert result.stats.attempts >= 2
            ref = reference_outputs(registry, victim_model, feeds)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])
            stats = server.stats()
            assert stats.retries >= 1
            assert stats.restarts == 1

    def test_crash_loop_trips_breaker_and_reroutes(self, registry):
        with make_scheduler(
            registry,
            retries=10,
            deadline_s=60.0,
            faults=FaultPlan.crash_loop(0),
            crashloop_window_s=30.0,
            crashloop_threshold=3,
        ) as server:
            victim_model = model_on_shard(server, 0)
            survivor = 1
            feeds = [
                random_feeds(registry.get(victim_model).graph, seed=i)
                for i in range(6)
            ]
            futures = [server.submit(victim_model, f) for f in feeds]
            # every request completes correctly despite the crash loop
            for f, fd in zip(futures, feeds):
                result = f.result(timeout=120)
                ref = reference_outputs(registry, victim_model, fd)
                for key, value in ref.items():
                    assert np.array_equal(value, result.outputs[key])
            assert wait_until(
                lambda: server._handles[0].failed
            ), "circuit breaker never tripped"
            # the victim's models rehashed onto the survivor; the
            # survivor's own models did not move (HRW minimal movement)
            assert server.routing[victim_model] == survivor
            assert all(s == survivor for s in server.routing.values())
            # breaker = threshold strikes; only the respawns in between
            # count as restarts
            stats = server.shard_stats(refresh=False)
            assert stats[0].failed and not stats[0].alive
            assert stats[1].alive and not stats[1].failed
            assert stats[0].restarts == 2  # 3 strikes - initial spawn
            # continued correct service after the breaker opened
            fd = random_feeds(registry.get(victim_model).graph, seed=99)
            result = server.submit(victim_model, fd).result(timeout=60)
            ref = reference_outputs(registry, victim_model, fd)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])


class TestWedgeDetection:
    def test_wedged_shard_is_killed_and_respawned(self, registry):
        plan = FaultPlan(
            faults=(WedgeShard(shard=0, at_request=1, stall_s=30.0),)
        )
        with make_scheduler(
            registry,
            retries=6,
            deadline_s=30.0,
            wedge_timeout_s=0.4,
            faults=plan,
        ) as server:
            victim_model = model_on_shard(server, 0)
            feeds = random_feeds(registry.get(victim_model).graph, seed=2)
            # the first request wedges the worker's event loop: only the
            # heartbeat supervisor can notice (the process stays alive)
            result = server.submit(victim_model, feeds).result(timeout=60)
            ref = reference_outputs(registry, victim_model, feeds)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])
            assert result.stats.attempts >= 2
            assert server.stats().restarts == 1


class TestResponseFaults:
    def test_dropped_response_fails_by_deadline(self, registry):
        plan = FaultPlan(faults=(DropResponse(shard=0, at_request=1),))
        with make_scheduler(
            registry, deadline_s=1.0, faults=plan
        ) as server:
            victim_model = model_on_shard(server, 0)
            feeds = random_feeds(registry.get(victim_model).graph, seed=3)
            future = server.submit(victim_model, feeds)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
            assert server.stats().expired == 1
            # the shard is healthy: the next request sails through
            result = server.submit(victim_model, feeds).result(timeout=30)
            ref = reference_outputs(registry, victim_model, feeds)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])

    def test_delayed_response_is_late_but_correct(self, registry):
        plan = FaultPlan(
            faults=(DelayResponse(shard=0, at_request=1, delay_s=0.3),)
        )
        with make_scheduler(registry, faults=plan) as server:
            victim_model = model_on_shard(server, 0)
            feeds = random_feeds(registry.get(victim_model).graph, seed=4)
            t0 = time.perf_counter()
            result = server.submit(victim_model, feeds).result(timeout=30)
            assert time.perf_counter() - t0 >= 0.3
            ref = reference_outputs(registry, victim_model, feeds)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])

    def test_engine_stall_sheds_queued_request_before_compute(
        self, registry
    ):
        plan = FaultPlan(
            faults=(StallEngine(shard=0, at_request=1, stall_s=0.6),)
        )
        with make_scheduler(
            registry, workers=1, faults=plan
        ) as server:
            victim_model = model_on_shard(server, 0)
            graph = registry.get(victim_model).graph
            # request 1 arms a 0.6s stall in the shard's engine; request
            # 2 queues behind it with a 0.15s deadline and must be shed
            # by the child *before compute*, not served late
            slow = server.submit(victim_model, random_feeds(graph, seed=5))
            fast = server.submit(
                victim_model,
                random_feeds(graph, seed=6),
                deadline_s=0.15,
            )
            with pytest.raises(DeadlineExceededError, match="deadline"):
                fast.result(timeout=30)
            assert slow.result(timeout=30) is not None
            assert server.stats().expired == 1


class TestRespawnDoesNotStallDeadlines:
    @pytest.mark.skipif(
        shard_module._START_METHOD != "fork",
        reason="the slow-start patch reaches children only through fork",
    )
    def test_peer_respawn_does_not_delay_deadline_sweep(
        self, registry, monkeypatch
    ):
        """A shard taking 2 s to come back must not hold up the deadline
        of a request in flight on a healthy peer."""
        init = shard_module._ShardWorker.__init__

        def slow_respawn_init(self, cfg, conn):
            if cfg.incarnation >= 1:
                time.sleep(2.0)
            init(self, cfg, conn)

        monkeypatch.setattr(
            shard_module._ShardWorker, "__init__", slow_respawn_init
        )
        plan = FaultPlan(
            faults=(
                KillShard(shard=0, at_request=1),
                DropResponse(shard=1, at_request=1),
            )
        )
        with make_scheduler(registry, faults=plan) as server:
            victim = model_on_shard(server, 0)
            healthy = model_on_shard(server, 1)
            doomed = server.submit(
                victim, random_feeds(registry.get(victim).graph, seed=15)
            )
            with pytest.raises(ShardFailedError, match="died"):
                doomed.result(timeout=30)
            assert wait_until(lambda: server._handles[0].incarnation == 1)
            t0 = time.monotonic()
            dropped = server.submit(
                healthy,
                random_feeds(registry.get(healthy).graph, seed=16),
                deadline_s=0.2,
            )
            with pytest.raises(DeadlineExceededError):
                dropped.result(timeout=30)
            assert time.monotonic() - t0 < 1.0


class TestPartialResponseCrashWindow:
    """SIGKILL between the response-ring payload write and the control
    pipe notify — the nastiest window: the payload exists in shared
    memory but the parent was never told (satellite: crash-window
    coverage)."""

    def test_parent_fails_exactly_the_affected_futures(self, registry):
        plan = FaultPlan(
            faults=(KillMidResponse(shard=0, at_request=1),)
        )
        with make_scheduler(
            registry, supervise=False, faults=plan
        ) as server:
            victim_model = model_on_shard(server, 0)
            other_model = model_on_shard(server, 1)
            victim_feeds = random_feeds(
                registry.get(victim_model).graph, seed=7
            )
            other_feeds = random_feeds(
                registry.get(other_model).graph, seed=8
            )
            doomed = server.submit(victim_model, victim_feeds)
            healthy = server.submit(other_model, other_feeds)
            # no hang, typed error, only the dying shard's future fails
            with pytest.raises(ServingError, match="died"):
                doomed.result(timeout=30)
            result = healthy.result(timeout=30)
            ref = reference_outputs(registry, other_model, other_feeds)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])

    def test_no_stale_slot_reuse_after_respawn(self, registry):
        plan = FaultPlan(
            faults=(KillMidResponse(shard=0, at_request=1),)
        )
        with make_scheduler(
            registry, retries=6, deadline_s=30.0, faults=plan
        ) as server:
            victim_model = model_on_shard(server, 0)
            graph = registry.get(victim_model).graph
            feeds = random_feeds(graph, seed=9)
            # with retries the crash-window request itself recovers
            result = server.submit(victim_model, feeds).result(timeout=60)
            assert result.stats.attempts >= 2
            ref = reference_outputs(registry, victim_model, feeds)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])
            assert wait_until(lambda: server._handles[0].alive)
            # drive more requests than the ring has slots through the
            # respawned shard: every slot in the fresh window must be
            # clean (a stale half-written slot would corrupt outputs)
            for i in range(server.ring_slots + 4):
                fd = random_feeds(graph, seed=100 + i)
                res = server.submit(victim_model, fd).result(timeout=30)
                ref = reference_outputs(registry, victim_model, fd)
                for key, value in ref.items():
                    assert np.array_equal(value, res.outputs[key])


class TestSubmitRobustness:
    def test_send_failure_releases_ring_slot(self, registry):
        """Regression (satellite): a control-pipe send that raises used
        to leak the already-acquired ring slot forever."""
        with make_scheduler(registry) as server:
            model = model_on_shard(server, 0)
            handle = server._handles[0]
            feeds = random_feeds(registry.get(model).graph, seed=10)

            def broken_send(msg):
                raise OSError("pipe torn mid-send")

            handle.send = broken_send
            try:
                for _ in range(handle.req_slots.slots + 2):
                    with pytest.raises(ShardFailedError, match="mid-send"):
                        server.submit(model, feeds)
                    # the leak showed up here: in-flight bookkeeping and
                    # the slot pool must both be fully unwound
                    assert handle.req_slots.in_use() == 0
                    assert handle.inflight == 0
            finally:
                del handle.send  # restore the class method
            result = server.submit(model, feeds).result(timeout=30)
            ref = reference_outputs(registry, model, feeds)
            for key, value in ref.items():
                assert np.array_equal(value, result.outputs[key])

    def test_inflight_cap_rejects_fast_and_typed(self, registry):
        plan = FaultPlan(
            faults=(StallEngine(shard=0, at_request=1, stall_s=0.5),)
        )
        with make_scheduler(
            registry, workers=1, max_inflight=1, faults=plan
        ) as server:
            model = model_on_shard(server, 0)
            graph = registry.get(model).graph
            slow = server.submit(model, random_feeds(graph, seed=11))
            t0 = time.perf_counter()
            with pytest.raises(OverloadedError, match="in-flight cap"):
                server.submit(model, random_feeds(graph, seed=12))
            # the rejection is immediate, not a blocked-then-timeout
            assert time.perf_counter() - t0 < 0.25
            assert slow.result(timeout=30) is not None
            assert server.stats().shed == 1
            assert server.shard_stats(refresh=False)[0].shed == 1

    def test_retries_zero_keeps_synchronous_dead_shard_error(
        self, registry
    ):
        with make_scheduler(registry, supervise=False) as server:
            model = model_on_shard(server, 0)
            handle = server._handles[0]
            import os
            import signal as _signal

            os.kill(handle.pid, _signal.SIGKILL)
            assert wait_until(lambda: not handle.alive)
            feeds = random_feeds(registry.get(model).graph, seed=13)
            with pytest.raises(ServingError, match="dead"):
                server.submit(model, feeds)

    def test_retry_loop_expiry_counted_once(self, registry):
        """A deadline that runs out while the request waits in the
        retry loop fails it on no shard: the front end counts that
        error and expiry itself, exactly once."""
        import os
        import signal as _signal

        with make_scheduler(
            registry, supervise=False, retries=3, retry_backoff_s=0.5
        ) as server:
            model = model_on_shard(server, 0)
            handle = server._handles[0]
            os.kill(handle.pid, _signal.SIGKILL)
            assert wait_until(lambda: not handle.alive)
            feeds = random_feeds(registry.get(model).graph, seed=14)
            future = server.submit(model, feeds, deadline_s=0.1)
            with pytest.raises(DeadlineExceededError, match="attempt"):
                future.result(timeout=30)
            stats = server.stats()
            assert (stats.errors, stats.expired) == (1, 1)
            assert stats.retries == 0  # the retry never dispatched
            shards = server.shard_stats(refresh=False)
            assert sum(s.errors + s.expired for s in shards) == 0


class TestLoadgenFaultPlumbing:
    def test_faults_require_multiple_shards(self, registry):
        with pytest.raises(ServingError, match="shards >= 2"):
            run_load(
                registry,
                requests=4,
                shards=1,
                faults=FaultPlan.kill_each_shard_once(1),
            )

    def test_report_carries_healing_counters(self, registry):
        report = run_load(
            registry,
            requests=8,
            clients=2,
            workers=2,
            shards=2,
            deadline_s=30.0,
            retries=4,
        )
        assert report.errors == 0
        assert report.stats.restarts == 0
        assert report.stats.retries == 0
        assert report.stats.expired == 0
        assert report.stats.shed == 0
        summary = report.summary()
        assert "self-healing" not in summary  # quiet when nothing healed
