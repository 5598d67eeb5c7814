"""ShardedScheduler: routing, zero-copy rings, lifecycle, parity."""

import os
import pickle
import signal
import time
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.compiler import CompilationPipeline
from repro.exceptions import ServingError
from repro.graph.builder import GraphBuilder
from repro.models.suite import get_cell
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.serving import (
    ModelRegistry,
    ShardedScheduler,
    balanced_routing,
    rendezvous_shard,
    run_load,
)
from repro.serving.shard import _ALIGN, _SlotPool, _TensorRing, _slot_bytes_for


@pytest.fixture
def registry(chain_graph, diamond_graph):
    registry = ModelRegistry()
    pipeline = CompilationPipeline("greedy")
    registry.register(pipeline.compile(chain_graph), name="chain")
    registry.register(pipeline.compile(diamond_graph), name="diamond")
    return registry


class TestRendezvousRouting:
    def test_stable_across_runs(self):
        # pinned values: the routing key is hashlib-based, so it cannot
        # drift with interpreter hash randomisation — a warm shard must
        # see the same models after every restart
        assert [rendezvous_shard("alpha", n) for n in (2, 3, 4, 8)] == [0, 0, 0, 7]
        assert [rendezvous_shard("beta", n) for n in (2, 3, 4, 8)] == [0, 2, 2, 2]
        assert [rendezvous_shard("gamma", n) for n in (2, 3, 4, 8)] == [1, 1, 1, 1]

    def test_deterministic_within_run(self):
        for key in ("a", "b", "abcdef", "sig:123"):
            assert rendezvous_shard(key, 7) == rendezvous_shard(key, 7)

    def test_minimal_rebalance_on_shard_count_change(self):
        keys = [f"k{i}" for i in range(200)]
        for n in (2, 3, 4, 7):
            before = {k: rendezvous_shard(k, n) for k in keys}
            after = {k: rendezvous_shard(k, n + 1) for k in keys}
            moved = [k for k in keys if before[k] != after[k]]
            # rendezvous guarantee: every moved key moves TO the new
            # shard, never between surviving ones, and only the new
            # shard's rendezvous winners move (~1/(n+1) of all keys)
            assert all(after[k] == n for k in moved)
            assert len(moved) <= len(keys) / (n + 1) * 2

    def test_rejects_zero_shards(self):
        with pytest.raises(ServingError, match="shards must be >= 1"):
            rendezvous_shard("x", 0)
        with pytest.raises(ServingError, match="shards must be >= 1"):
            balanced_routing({"m": "sig"}, 0)

    def test_balanced_routing_spreads_small_model_sets(self):
        # pure rendezvous can pile a 2-model suite onto one shard by
        # hash luck; the balance constraint must spread n models over
        # min(n, shards) shards — otherwise sharding wins nothing
        for sigs in ({"a": "s1", "b": "s2"}, {"a": "x", "b": "y", "c": "z"}):
            for shards in (2, 3, 4):
                routing = balanced_routing(sigs, shards)
                assert len(set(routing.values())) == min(len(sigs), shards)

    def test_balanced_routing_deterministic(self):
        sigs = {f"m{i}": f"sig{i}" for i in range(17)}
        assert balanced_routing(sigs, 4) == balanced_routing(sigs, 4)
        counts = [0, 0, 0, 0]
        for shard in balanced_routing(sigs, 4).values():
            counts[shard] += 1
        assert max(counts) - min(counts) <= 1


class TestTensorRing:
    def test_roundtrip_views_share_segment_memory(self):
        ring = _TensorRing(slot_bytes=4096, slots=2)
        try:
            arrays = {
                "x": np.arange(12, dtype=np.float64).reshape(3, 4),
                "y": np.float64(7.5).reshape(()),
            }
            descs = ring.write(1, arrays)
            views = ring.read(descs)
            assert set(views) == {"x", "y"}
            np.testing.assert_array_equal(views["x"], arrays["x"])
            np.testing.assert_array_equal(views["y"], arrays["y"])
            # zero copy: the returned arrays are views straight into
            # the shared segment, not deserialised copies
            segment = np.frombuffer(ring.shm.buf, dtype=np.uint8)
            assert np.shares_memory(views["x"], segment)
            assert np.shares_memory(views["y"], segment)
            # payloads land cache-line aligned inside their slot
            assert all(offset % _ALIGN == 0 for _, _, _, offset in descs)
            del views, segment  # release the buffer before close
        finally:
            ring.close()
            ring.unlink()

    def test_overflowing_slot_raises(self):
        ring = _TensorRing(slot_bytes=256, slots=1)
        try:
            with pytest.raises(ServingError, match="exceeds the ring slot"):
                ring.write(0, {"big": np.zeros(4096)})
        finally:
            ring.close()
            ring.unlink()

    def test_pickled_request_message_size_independent_of_tensor_size(self):
        # the zero-copy contract: only fixed-size descriptors traverse
        # the control pipe, so the pickled message for a ~8KB tensor
        # and a ~8MB tensor is the same handful of bytes
        ring = _TensorRing(slot_bytes=16 << 20, slots=1)
        try:
            small = ring.write(0, {"t": np.zeros(1024)})
            large = ring.write(0, {"t": np.zeros(1024 * 1024)})
            msg_small = pickle.dumps(("req", 1, "model", small, 0, None))
            msg_large = pickle.dumps(("req", 2, "model", large, 0, None))
            assert abs(len(msg_large) - len(msg_small)) <= 16
            assert len(msg_large) < 512
        finally:
            ring.close()
            ring.unlink()

    def test_slot_holds_the_larger_of_inputs_and_sinks(self):
        # a request slot carries a model's feeds and a response slot its
        # sinks; nothing else crosses the ring
        for key, want in (("randwire-c100-a", 131072), ("swiftnet-a", 200704)):
            model = CompilationPipeline("greedy").compile(get_cell(key).factory())
            assert _slot_bytes_for([model]) == want
        assert _slot_bytes_for([]) == 4096

    def test_slot_pool_backpressure_and_peak(self):
        pool = _SlotPool(2)
        a, b = pool.acquire(), pool.acquire()
        assert pool.in_use() == 2 and pool.peak == 2
        with pytest.raises(ServingError, match="timed out"):
            pool.acquire(timeout=0.05)
        pool.release(a)
        assert pool.acquire(timeout=1.0) in (a, b)

    def test_slot_pool_kill_wakes_waiters(self):
        pool = _SlotPool(1)
        pool.acquire()
        pool.kill()
        with pytest.raises(ServingError, match="closed"):
            pool.acquire(timeout=5.0)


class TestShardedServing:
    def test_bitwise_parity_across_processes(self, registry):
        refs = {
            name: Executor(
                registry.get(name).graph,
                params=init_params(registry.get(name).graph, 0),
            )
            for name in registry.names()
        }
        with ShardedScheduler(registry, shards=2, workers=2) as server:
            futs = []
            for i in range(24):
                name = registry.names()[i % 2]
                feeds = random_feeds(registry.get(name).graph, seed=i)
                futs.append((name, feeds, server.submit(name, feeds)))
            for name, feeds, fut in futs:
                result = fut.result(timeout=60)
                want = refs[name].run(feeds)
                assert set(result.outputs) == set(want)
                for k in want:
                    np.testing.assert_array_equal(want[k], result.outputs[k])
                assert result.stats.model == name

    def test_two_models_land_on_different_warm_shards(self, registry):
        with ShardedScheduler(
            registry, shards=2, workers=1, preload=True
        ) as server:
            assert len(set(server.routing.values())) == 2
            for i in range(12):
                name = registry.names()[i % 2]
                feeds = random_feeds(registry.get(name).graph, seed=i)
                server.submit(name, feeds).result(timeout=60)
            stats = server.shard_stats()
        assert len(stats) == 2
        for s in stats:
            assert len(s.models) == 1
            assert s.requests == 6
            # warm-arena reuse inside each shard: preloaded once, then
            # every request hit the pooled arena
            assert s.served.pool is not None
            assert s.served.pool.preloads == 1
            assert s.served.pool.hits > 0
            assert s.req_ring_peak >= 1

    def test_sinks_larger_than_inputs_round_trip(self):
        """A response slot holds the graph's sinks, not just its feeds:
        a graph whose outputs outweigh its inputs comes back bitwise."""
        b = GraphBuilder("fan-out")
        x = b.input("x", (1, 4, 4))
        b.conv2d(x, 64, kernel=1, name="wide_a")
        b.conv2d(x, 64, kernel=3, name="wide_b")
        registry = ModelRegistry()
        registry.register(
            CompilationPipeline("greedy").compile(b.build()), name="fan-out"
        )
        graph = registry.get("fan-out").graph
        ref = Executor(graph, params=init_params(graph, 0))
        with ShardedScheduler(registry, shards=2, workers=1) as server:
            # 128 B of feeds, two 8 KiB sinks
            assert server._slot_bytes == 2 * 8192
            for seed in range(3):
                feeds = random_feeds(graph, seed=seed)
                result = server.submit("fan-out", feeds).result(timeout=60)
                want = ref.run(feeds)
                assert set(result.outputs) == set(want) == set(graph.sinks)
                for k in want:
                    np.testing.assert_array_equal(want[k], result.outputs[k])

    def test_unknown_model_fails_fast(self, registry):
        with ShardedScheduler(registry, shards=2, workers=1) as server:
            with pytest.raises(ServingError, match="unknown model"):
                server.submit("nope", {})

    def test_submit_before_start_rejected(self, registry):
        server = ShardedScheduler(registry, shards=2)
        with pytest.raises(ServingError, match="not running"):
            server.submit("chain", {})
        server.close()

    def test_rejects_bad_shard_counts(self, registry):
        with pytest.raises(ServingError, match="shards must be >= 1"):
            ShardedScheduler(registry, shards=0)

    def test_rejects_empty_registry(self):
        with pytest.raises(ServingError, match="no models"):
            ShardedScheduler(ModelRegistry(), shards=2)

    def test_aggregate_stats_sum_over_shards(self, registry):
        with ShardedScheduler(registry, shards=2, workers=1) as server:
            for i in range(10):
                name = registry.names()[i % 2]
                feeds = random_feeds(registry.get(name).graph, seed=i)
                server.submit(name, feeds).result(timeout=60)
            stats = server.stats()
        assert stats.requests == 10
        assert stats.errors == 0
        assert stats.batches >= 2  # at least one run per shard
        assert len(stats.latencies_s) == 10
        assert stats.pool is not None
        assert stats.pool.misses >= 2  # one cold build per shard

    def test_stats_are_the_shards_summed_once(self, registry):
        """stats() is the front end's counts plus the sum of the
        shards' own snapshots — every request, run, byte and pool event
        counted once, whichever process saw it."""
        from dataclasses import fields

        from repro.serving.pool import PoolStats

        with ShardedScheduler(
            registry, shards=2, workers=1, preload=True
        ) as server:
            for i in range(24):
                name = registry.names()[i % 2]
                feeds = random_feeds(registry.get(name).graph, seed=i)
                server.submit(name, feeds).result(timeout=60)
            stats = server.stats()
            shards = server.shard_stats(refresh=False)
        served = [s.served for s in shards]
        assert stats.requests == sum(s.requests for s in shards) == 24
        assert sum(s.requests for s in served) == 24
        assert stats.errors == sum(s.errors for s in shards) == 0
        assert len(stats.latencies_s) == 24
        assert all(s.latencies_s == () for s in served)
        assert stats.batches == sum(s.batches for s in served) >= 2
        assert stats.spill_bytes == sum(s.spill_bytes for s in served)
        for f in fields(PoolStats):
            assert getattr(stats.pool, f.name) == sum(
                getattr(s.pool, f.name) for s in served
            ), f.name
        assert stats.pool.preloads == 2


class TestLifecycle:
    def _segment_names(self, server) -> list[str]:
        return [
            ring.name
            for handle in server._handles
            for ring in (handle.req_ring, handle.resp_ring)
        ]

    def test_close_is_idempotent_and_unlinks_segments(self, registry):
        server = ShardedScheduler(registry, shards=2, workers=1).start()
        names = self._segment_names(server)
        assert names
        server.close()
        server.close()  # second close must be a no-op, not an error
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_close_leaves_no_fds_open(self, registry):
        def serve_once():
            server = ShardedScheduler(registry, shards=2, workers=1).start()
            graph = registry.get("chain").graph
            server.submit("chain", random_feeds(graph, seed=0)).result(
                timeout=60
            )
            server.close()
            return server  # still referenced: nothing is left to GC

        serve_once()  # the first cycle starts the process-wide resource tracker
        before = len(os.listdir("/proc/self/fd"))
        server = serve_once()
        assert len(os.listdir("/proc/self/fd")) == before
        assert not server._handles[0].alive

    def test_segments_unlinked_after_failed_start(self, registry, tmp_path):
        # a model whose artifact cannot be opened in the child must
        # fail start() AND leave no shared-memory segments behind
        path = tmp_path / "m.json"
        registry.get("chain").save(path)
        broken = ModelRegistry()
        broken.load(path, "chain")
        path.write_text("{not json")
        server = ShardedScheduler(broken, shards=2, workers=1)
        with pytest.raises(ServingError, match="died during startup"):
            server.start()
        for name in self._segment_names(server):
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_child_death_during_preload_raises_instead_of_hanging(
        self, registry, tmp_path
    ):
        path = tmp_path / "m.json"
        registry.get("diamond").save(path)
        broken = ModelRegistry()
        broken.load(path, "diamond")
        path.unlink()
        with pytest.raises(ServingError, match="died during startup"):
            ShardedScheduler(broken, shards=1, workers=1, preload=True).start()

    def test_sigterm_drains_in_flight_before_exit(self, registry):
        server = ShardedScheduler(registry, shards=1, workers=1).start()
        try:
            graph = registry.get("chain").graph
            futs = [
                server.submit("chain", random_feeds(graph, seed=i))
                for i in range(8)
            ]
            # let the worker accept the stream before the signal lands,
            # so there is provably work in flight to drain
            futs[0].result(timeout=60)
            os.kill(server._handles[0].pid, signal.SIGTERM)
            # every accepted request resolves: served if it was already
            # in flight in the worker, or a clean draining error if the
            # signal won the race — never a hang, never a lost future
            outcomes = []
            for fut in futs:
                try:
                    fut.result(timeout=60)
                    outcomes.append("ok")
                except ServingError:
                    outcomes.append("drained")
            assert len(outcomes) == 8
            assert "ok" in outcomes  # the in-flight work was not dropped
            server._handles[0].process.join(timeout=30)
            assert server._handles[0].process.exitcode == 0
        finally:
            server.close()

    def test_killed_shard_fails_only_its_own_requests(self, registry):
        routing_probe = ShardedScheduler(registry, shards=2)
        routing = dict(routing_probe.routing)
        routing_probe.close()
        (victim_model,) = [m for m, s in routing.items() if s == 0]
        (survivor_model,) = [m for m, s in routing.items() if s == 1]

        server = ShardedScheduler(registry, shards=2, workers=1).start()
        try:
            victim = server._handles[0]
            # freeze the victim shard so its requests are provably in
            # flight when the kill lands — no race with completion
            os.kill(victim.pid, signal.SIGSTOP)
            vg = registry.get(victim_model).graph
            sg = registry.get(survivor_model).graph
            doomed = [
                server.submit(victim_model, random_feeds(vg, seed=i))
                for i in range(4)
            ]
            fine = [
                (i, server.submit(survivor_model, random_feeds(sg, seed=i)))
                for i in range(4)
            ]
            os.kill(victim.pid, signal.SIGKILL)

            for fut in doomed:
                with pytest.raises(ServingError, match="died"):
                    fut.result(timeout=60)
            ref = Executor(sg, params=init_params(sg, 0))
            for i, fut in fine:
                result = fut.result(timeout=60)
                want = ref.run(random_feeds(sg, seed=i))
                for k in want:
                    np.testing.assert_array_equal(want[k], result.outputs[k])

            # the dead shard rejects new work fast; the survivor serves
            with pytest.raises(ServingError, match="dead"):
                server.submit(victim_model, random_feeds(vg, seed=99))
            server.submit(survivor_model, random_feeds(sg, seed=99)).result(
                timeout=60
            )
            dead, alive = server.shard_stats()
            assert not dead.alive and alive.alive
        finally:
            server.close()


class TestRunLoadSharded:
    def test_run_load_verified_with_shard_stats(self, registry):
        report = run_load(
            registry,
            requests=24,
            clients=4,
            workers=1,
            max_batch=2,
            shards=2,
            preload=True,
            verify=True,
        )
        assert report.errors == 0
        assert report.verified is True
        assert report.shards == 2
        assert len(report.shard_stats) == 2
        assert sum(s.requests for s in report.shard_stats) == 24
        text = report.summary()
        assert "2 processes, sticky rendezvous routing" in text
        assert "shard 0" in text and "shard 1" in text
        assert "ring peak" in text

    def test_run_load_rejects_bad_shard_args(self, registry):
        with pytest.raises(ServingError, match="shards must be >= 1"):
            run_load(registry, requests=2, shards=0)


class TestRegistryPaths:
    def test_path_of_records_loaded_artifacts(self, registry, tmp_path):
        path = tmp_path / "chain.json"
        registry.get("chain").save(path)
        fresh = ModelRegistry()
        fresh.load(path, "chain")
        assert fresh.path_of("chain") == path.resolve()
        fresh.register(registry.get("diamond"), "diamond")
        assert fresh.path_of("diamond") is None
        with pytest.raises(ServingError, match="unknown model"):
            fresh.path_of("nope")

    def test_in_memory_models_are_spooled_and_cleaned_up(self, registry):
        # both fixture models are in-memory registrations: the
        # scheduler must spool them to artifacts for the children and
        # remove the spool directory on close
        server = ShardedScheduler(registry, shards=2, workers=1).start()
        spool = server._spool_dir
        assert spool is not None and spool.exists()
        graph = registry.get("chain").graph
        server.submit("chain", random_feeds(graph, seed=0)).result(timeout=60)
        server.close()
        assert not spool.exists()


def test_sigint_drains_like_sigterm(registry):
    server = ShardedScheduler(registry, shards=1, workers=1).start()
    try:
        graph = registry.get("chain").graph
        futs = [
            server.submit("chain", random_feeds(graph, seed=i))
            for i in range(4)
        ]
        os.kill(server._handles[0].pid, signal.SIGINT)
        for fut in futs:
            try:
                fut.result(timeout=60)
            except ServingError:
                pass
        deadline = time.monotonic() + 30
        while server._handles[0].process.is_alive():
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert server._handles[0].process.exitcode == 0
    finally:
        server.close()
