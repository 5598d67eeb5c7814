"""CompilationPipeline.compile_batch: one strategy per graph, in-process
or over a worker pool, with the schedule cache and the fit verdict."""

from __future__ import annotations

import pytest

from repro.compiler import CompilationPipeline
from repro.models.suite import get_cell
from repro.scheduler.cache import ScheduleCache
from repro.scheduler.device import SPARKFUN_EDGE, DeviceSpec
from repro.scheduler.registry import run_strategy
from repro.scheduler.serenity import Serenity

from tests.conftest import random_dag_graph


class TestCompileBatch:
    @pytest.mark.parametrize("key", ["swiftnet-b", "swiftnet-c"])
    def test_matches_plain_serenity(self, key):
        (model,) = CompilationPipeline().compile_batch([get_cell(key).factory()])
        report = Serenity().compile(get_cell(key).factory())
        assert model.meta["peak_bytes"] == report.peak_bytes
        assert model.arena_bytes == report.arena_bytes

    def test_batch_covers_all_graphs_in_order(self, diamond_graph):
        graphs = [random_dag_graph(8, s) for s in (1, 2)] + [diamond_graph]
        models = CompilationPipeline("greedy").compile_batch(graphs)
        assert [m.graph.name for m in models] == [g.name for g in graphs]
        for model in models:
            assert model.strategy == "greedy"
            model.schedule.validate(model.graph)

    def test_parallel_matches_serial(self, diamond_graph, hourglass_graph):
        graphs = [diamond_graph, hourglass_graph, get_cell("swiftnet-c").factory()]
        pipeline = CompilationPipeline("serenity", device=SPARKFUN_EDGE)
        serial = pipeline.compile_batch(graphs, workers=0)
        parallel = pipeline.compile_batch(graphs, workers=2)
        for a, b in zip(serial, parallel):
            assert b.schedule.order == a.schedule.order
            assert b.plan.offsets == a.plan.offsets
            assert b.signature == a.signature
            assert b.source_signature == a.source_signature
            assert b.device == a.device
            assert b.meta["peak_bytes"] == a.meta["peak_bytes"]
            assert b.meta["fits"] == a.meta["fits"]
            assert "recomputed_in_process" not in b.meta

    def test_fit_verdict(self):
        graph = get_cell("swiftnet-c").factory()  # fits 250KB
        (fits,) = CompilationPipeline(device=SPARKFUN_EDGE).compile_batch([graph])
        (over,) = CompilationPipeline(device=DeviceSpec("tiny", 1)).compile_batch(
            [graph]
        )
        assert fits.meta["fits"] is True and fits.fits_device is True
        assert over.meta["fits"] is False and over.fits_device is False

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cached_batch_is_byte_identical(self, tmp_path, hourglass_graph, workers):
        pipeline = CompilationPipeline("serenity", cache=ScheduleCache(tmp_path))
        (cold,) = pipeline.compile_batch([hourglass_graph], workers=workers)
        (warm,) = pipeline.compile_batch([hourglass_graph], workers=workers)
        assert not cold.meta["cached"] and warm.meta["cached"]
        assert warm.schedule.order == cold.schedule.order
        assert warm.plan.offsets == cold.plan.offsets
        assert warm.meta["peak_bytes"] == cold.meta["peak_bytes"]


class TestBrokenPoolFallback:
    """A crashed worker pool degrades to in-process compilation instead
    of aborting the batch."""

    @pytest.fixture
    def broken_pool(self, monkeypatch):
        """Replace the process pool with one whose every future fails
        with BrokenProcessPool (as after a worker OOM-kill)."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.compiler import pipeline

        class _BrokenPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kwargs):
                fut: Future = Future()
                fut.set_exception(BrokenProcessPool("worker died"))
                return fut

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _BrokenPool)

    def test_batch_completes_in_process(self, broken_pool, diamond_graph):
        graphs = [diamond_graph, random_dag_graph(8, 1)]
        models = CompilationPipeline("greedy").compile_batch(graphs, workers=2)
        assert [m.graph.name for m in models] == [g.name for g in graphs]
        assert all(m.meta["recomputed_in_process"] for m in models)

    def test_fallback_matches_serial_compilation(self, broken_pool, diamond_graph):
        pipeline = CompilationPipeline("greedy")
        (got,) = pipeline.compile_batch([diamond_graph], workers=2)
        (want,) = pipeline.compile_batch([diamond_graph], workers=0)
        assert got.schedule.order == want.schedule.order
        assert got.plan.offsets == want.plan.offsets
        assert got.meta["peak_bytes"] == want.meta["peak_bytes"]

    def test_real_worker_crash_degrades(self, diamond_graph):
        """End-to-end: a strategy whose worker process dies mid-run
        breaks the real pool; the batch must still complete."""
        import multiprocessing
        import os

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("crash strategy must be visible in worker processes")

        from repro.scheduler import registry as reg_mod
        from repro.scheduler.registry import register_strategy

        parent = os.getpid()
        name = "crashy-test-only"

        def crashy(graph):
            if os.getpid() != parent:  # die only inside pool workers
                os._exit(1)
            return run_strategy("kahn", graph).schedule

        register_strategy(name, summary="test-only crashing strategy")(crashy)
        try:
            (model,) = CompilationPipeline(name).compile_batch(
                [diamond_graph], workers=2
            )
            assert model.strategy == name
            assert model.meta["recomputed_in_process"] is True
        finally:
            reg_mod._REGISTRY.pop(name, None)
