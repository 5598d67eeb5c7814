"""Persistent schedule cache: keys, round-trips, and corruption safety."""

from __future__ import annotations

import json

from repro.compiler import CompilationPipeline
from repro.graph.serialization import graph_signature
from repro.scheduler.cache import CacheEntry, ScheduleCache
from repro.scheduler.registry import get_strategy, run_strategy

from tests.conftest import random_dag_graph


def _entry(signature="ab12" * 16, strategy_key="kahn@1", order=("a", "b")):
    return CacheEntry(
        signature=signature,
        strategy_key=strategy_key,
        graph_name="g",
        order=tuple(order),
        peak_bytes=123,
        arena_bytes=456,
        meta={"time_s": 0.25},
    )


class TestCacheEntry:
    def test_doc_round_trip(self):
        entry = _entry()
        back = CacheEntry.from_doc(entry.to_doc())
        assert back == entry

    def test_bad_format_rejected(self):
        doc = _entry().to_doc()
        doc["format"] = "bogus"
        try:
            CacheEntry.from_doc(doc)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestScheduleCache:
    def test_put_get_byte_identical(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        entry = _entry()
        path = cache.put(entry)
        got = cache.get(entry.signature, entry.strategy_key)
        assert got == entry
        assert got.order == ("a", "b")  # exact strings back
        # the on-disk representation is stable: re-putting the same
        # entry rewrites the identical bytes
        before = path.read_bytes()
        cache.put(entry)
        assert path.read_bytes() == before

    def test_miss_returns_none(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        assert cache.get("f" * 64, "kahn@1") is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_distinct_strategy_keys_do_not_collide(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        a = _entry(strategy_key="kahn@1", order=("a", "b"))
        b = _entry(strategy_key="greedy@1", order=("b", "a"))
        cache.put(a)
        cache.put(b)
        assert cache.get(a.signature, "kahn@1").order == ("a", "b")
        assert cache.get(a.signature, "greedy@1").order == ("b", "a")

    def test_corrupted_entry_is_a_miss_and_dropped(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        entry = _entry()
        path = cache.put(entry)

        path.write_text("{not json")
        assert cache.get(entry.signature, entry.strategy_key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # dropped so the recompute can overwrite

        # valid JSON but wrong schema is equally a miss
        cache.put(entry)
        path.write_text(json.dumps({"format": "repro-schedule-cache/1"}))
        assert cache.get(entry.signature, entry.strategy_key) is None
        assert cache.stats.corrupt == 2

    def test_clear_and_len(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        cache.put(_entry(strategy_key="kahn@1"))
        cache.put(_entry(strategy_key="dfs@1"))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCacheCompilerIntegration:
    def test_relabeled_graph_hits_the_same_entry(self, tmp_path):
        """Node renaming changes nothing: same signature, and the cached
        schedule is served *translated into the new instance's names*."""
        g = random_dag_graph(9, seed=4)
        mapping = {n: f"op_{i}" for i, n in enumerate(g.node_names)}
        from tests.graph.test_serialization import _relabel

        relabeled = _relabel(g, mapping)
        assert graph_signature(g) == graph_signature(relabeled)

        cache = ScheduleCache(tmp_path)
        pipeline = CompilationPipeline("kahn", cache=cache)
        cold = pipeline.compile(g)
        warm = pipeline.compile(relabeled)
        assert not cold.meta["cached"]
        assert warm.meta["cached"]
        # the served schedule must be valid FOR THE RELABELED GRAPH and
        # must be the stored schedule under the renaming
        warm.schedule.validate(relabeled)
        assert warm.schedule.order == tuple(
            mapping[n] for n in cold.schedule.order
        )
        assert warm.meta["peak_bytes"] == cold.meta["peak_bytes"]

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        graph = random_dag_graph(8, seed=7)
        cache = ScheduleCache(tmp_path)
        pipeline = CompilationPipeline("greedy", cache=cache)
        cold = pipeline.compile(graph)

        # vandalise the entry on disk
        spec = get_strategy("greedy")
        path = cache._path(graph_signature(graph), spec.cache_key)
        path.write_text("\x00garbage")

        warm = pipeline.compile(graph)
        assert not warm.meta["cached"]  # fell back to recompute, no crash
        assert warm.schedule.order == cold.schedule.order
        # and the recompute healed the cache
        healed = pipeline.compile(graph)
        assert healed.meta["cached"]

    def test_poisoned_entry_with_invalid_order_recomputes(self, tmp_path):
        """A syntactically valid entry whose order is not a topological
        order of this graph must be rejected, not replayed."""
        graph = random_dag_graph(8, seed=3)
        cache = ScheduleCache(tmp_path)
        pipeline = CompilationPipeline("kahn", cache=cache)
        cold = pipeline.compile(graph)

        spec = get_strategy("kahn")
        entry = cache.get(graph_signature(graph), spec.cache_key)
        poisoned = CacheEntry(
            signature=entry.signature,
            strategy_key=entry.strategy_key,
            graph_name=entry.graph_name,
            order=tuple(reversed(entry.order)),  # violates every edge
            canon_order=None,
            peak_bytes=1,  # absurd numbers that must never be served
            arena_bytes=1,
        )
        cache.put(poisoned)

        warm = pipeline.compile(graph)
        assert not warm.meta["cached"]
        assert warm.meta["peak_bytes"] == cold.meta["peak_bytes"]

    def test_warm_hit_rate_and_identical_peaks(self, tmp_path):
        graphs = [random_dag_graph(8, s) for s in range(4)]
        cache = ScheduleCache(tmp_path)
        for strategy in ("kahn", "greedy", "serenity-dp"):
            pipeline = CompilationPipeline(strategy, cache=cache)
            cold = pipeline.compile_batch(graphs)
            warm = pipeline.compile_batch(graphs)
            assert not any(m.meta["cached"] for m in cold)
            assert all(m.meta["cached"] for m in warm)
            for a, b in zip(cold, warm):
                assert a.meta["peak_bytes"] == b.meta["peak_bytes"]

    def test_cache_shared_with_run_strategy_semantics(self, tmp_path):
        """What the cache replays equals what a fresh run produces."""
        graph = random_dag_graph(10, seed=11)
        cache = ScheduleCache(tmp_path)
        CompilationPipeline("serenity-dp", cache=cache).compile(graph)
        entry = cache.get(
            graph_signature(graph), get_strategy("serenity-dp").cache_key
        )
        fresh = run_strategy("serenity-dp", graph)
        assert entry.order == fresh.schedule.order
        assert entry.peak_bytes == fresh.peak_bytes


def _hammer_put(args: tuple[str, int, int]) -> int:
    """Worker-process body for the concurrent-writer test: repeatedly
    put an entry under one shared (signature, strategy) key."""
    root, writer, rounds = args
    cache = ScheduleCache(root)
    entry = CacheEntry(
        signature="cafe" * 16,
        strategy_key="kahn@1",
        graph_name=f"writer-{writer}",
        order=("a", "b", "c"),
        peak_bytes=111,
        arena_bytes=222,
        meta={"writer": writer},
    )
    for _ in range(rounds):
        cache.put(entry)
    return writer


class TestConcurrentWriters:
    def test_simultaneous_puts_leave_one_valid_entry(self, tmp_path):
        """Multiple processes racing ``put`` on the same key: the atomic
        temp-file + os.replace path must leave exactly one entry, valid
        and attributable to one of the writers — never a torn mix."""
        from concurrent.futures import ProcessPoolExecutor

        writers = 4
        with ProcessPoolExecutor(max_workers=writers) as pool:
            done = list(
                pool.map(
                    _hammer_put,
                    [(str(tmp_path), w, 25) for w in range(writers)],
                )
            )
        assert sorted(done) == list(range(writers))

        cache = ScheduleCache(tmp_path)
        assert len(cache) == 1
        entry = cache.get("cafe" * 16, "kahn@1")
        assert entry is not None
        assert entry.order == ("a", "b", "c")
        # last-writer-wins: the surviving entry is one writer's, intact
        winner = entry.meta["writer"]
        assert winner in range(writers)
        assert entry.graph_name == f"writer-{winner}"
        # no orphaned temp files linger in the shard
        shard = tmp_path / ("cafe" * 16)[:2]
        assert not list(shard.glob("*.tmp"))
        assert cache.stats.corrupt == 0
