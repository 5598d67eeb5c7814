"""CompilationPipeline and CompiledModel: compile, freeze, round-trip,
and interoperate with the persistent schedule cache."""

import json

import pytest

from repro.compiler import (
    ARTIFACT_FORMAT,
    CompilationPipeline,
    CompiledModel,
    compiled_model_from_report,
)
from repro.exceptions import ExecutionError, GraphError, SchedulingError
from repro.scheduler.cache import ScheduleCache
from repro.scheduler.device import SPARKFUN_EDGE, DeviceSpec
from repro.scheduler.registry import get_strategy
from repro.scheduler.serenity import Serenity, SerenityConfig


class TestPipeline:
    def test_compile_produces_consistent_model(self, diamond_graph):
        model = CompilationPipeline("greedy").compile(diamond_graph)
        model.schedule.validate(model.graph)
        model.plan.validate()
        assert model.strategy == "greedy"
        assert model.arena_bytes == model.plan.arena_bytes
        assert model.meta["source_nodes"] == len(diamond_graph)
        assert model.meta["nodes"] == len(model.graph)
        assert not model.meta["cached"]
        assert model.source_signature == model.signature  # no rewriting

    def test_rewriting_strategy_changes_signature(self, concat_depthwise_graph):
        model = CompilationPipeline("serenity").compile(
            concat_depthwise_graph
        )
        assert len(model.graph) != len(concat_depthwise_graph)
        assert model.source_signature != model.signature

    def test_unknown_strategy_fails_fast(self):
        with pytest.raises(SchedulingError, match="unknown strategy"):
            CompilationPipeline("made-up")

    def test_device_verdict_recorded(self, diamond_graph):
        model = CompilationPipeline("greedy", device=SPARKFUN_EDGE).compile(
            diamond_graph
        )
        assert model.device == SPARKFUN_EDGE
        assert model.fits_device is True and model.meta["fits"] is True
        tiny = DeviceSpec("tiny", 16)
        model = CompilationPipeline("greedy", device=tiny).compile(diamond_graph)
        assert model.fits_device is False

    def test_verify_flag_checks_parity(self, diamond_graph):
        model = CompilationPipeline("greedy", verify=True).compile(diamond_graph)
        assert model.arena_bytes > 0

    def test_allocator_choice(self, diamond_graph):
        ff = CompilationPipeline("kahn", allocator="first_fit")
        gbs = CompilationPipeline("kahn", allocator="greedy_by_size")
        assert ff.compile(diamond_graph).plan.strategy == "first_fit"
        assert gbs.compile(diamond_graph).plan.strategy == "greedy_by_size"


class TestCacheInterop:
    def test_pipeline_warms_and_reads_cache(self, tmp_path, diamond_graph):
        cache = ScheduleCache(tmp_path)
        pipe = CompilationPipeline("greedy", cache=cache)
        cold = pipe.compile(diamond_graph)
        assert not cold.meta["cached"] and len(cache) == 1
        warm = pipe.compile(diamond_graph)
        assert warm.meta["cached"]
        assert warm.schedule.order == cold.schedule.order
        assert warm.plan.offsets == cold.plan.offsets

    def test_batch_entries_served_to_pipeline(self, tmp_path, diamond_graph):
        """compile-batch's workers warm the exact keys the pipeline looks up."""
        cache = ScheduleCache(tmp_path)
        CompilationPipeline("greedy", cache=cache).compile_batch(
            [diamond_graph], workers=2
        )
        model = CompilationPipeline("greedy", cache=cache).compile(diamond_graph)
        assert model.meta["cached"]

    def test_artifact_keyed_by_graph_signature(self, tmp_path, diamond_graph):
        cache = ScheduleCache(tmp_path)
        model = CompilationPipeline("greedy", cache=cache).compile(diamond_graph)
        spec = get_strategy("greedy")
        entry = cache.get(model.source_signature, spec.cache_key)
        assert entry is not None
        assert tuple(entry.order) == model.schedule.order


class TestArtifactRoundTrip:
    def test_save_load_round_trip(self, tmp_path, diamond_graph):
        model = CompilationPipeline("greedy", device=SPARKFUN_EDGE).compile(
            diamond_graph
        )
        path = model.save(tmp_path / "m.json")
        loaded = CompiledModel.load(path)
        assert loaded.graph == model.graph
        assert loaded.schedule.order == model.schedule.order
        assert loaded.plan.offsets == model.plan.offsets
        assert loaded.plan.arena_bytes == model.plan.arena_bytes
        assert loaded.signature == model.signature
        assert loaded.source_signature == model.source_signature
        assert loaded.device == SPARKFUN_EDGE
        assert loaded.strategy == "greedy"

    def test_loaded_model_executes(self, tmp_path, diamond_graph):
        from repro.runtime import random_feeds, verify_execution

        model = CompilationPipeline("serenity").compile(diamond_graph)
        path = model.save(tmp_path / "m.json")
        loaded = CompiledModel.load(path)
        assert verify_execution(loaded).equivalent
        px = loaded.executor()
        px.run(random_feeds(loaded.graph))
        assert px.last_stats.measured_peak_bytes <= loaded.arena_bytes

    def test_spill_plans_round_trip(self, tmp_path):
        """Artifacts carry tiered-arena spill plans per capacity, and a
        loaded artifact serves them without recomputation."""
        from dataclasses import replace

        from repro.models.suite import get_cell

        model = CompilationPipeline("greedy").compile(
            get_cell("randwire-c10-b").factory()
        )
        cap = (model.spill_floor_bytes + model.arena_bytes) // 2
        plan = model.spill_plan(cap)
        assert not plan.is_trivial
        model = replace(model, spill_plans=(plan,))
        loaded = CompiledModel.load(model.save(tmp_path / "m.json"))
        assert loaded.spill_plans == (plan,)
        # a carried plan is served as-is (no recompute, same object)
        assert loaded.spill_plan(cap) is loaded.spill_plans[0]
        # and a computed plan for the same capacity is identical
        assert model.spill_plan(cap) == plan

    def test_tiled_spill_plan_memo_keyed_by_tile(self, tmp_path):
        """spill_plan memoizes per (capacity, policy, tile_bytes), and
        an embedded tiled plan is served only to a matching request."""
        from dataclasses import replace

        from repro.models.suite import get_cell

        model = CompilationPipeline("greedy").compile(
            get_cell("randwire-c10-b").factory()
        )
        cap = (model.spill_floor_bytes + model.arena_bytes) // 2
        tiled = model.spill_plan(cap, tile_bytes=8192)
        whole = model.spill_plan(cap)
        assert tiled.tile_bytes == 8192 and whole.tile_bytes is None
        assert tiled != whole
        # memoized per key: same object back, never cross-served
        assert model.spill_plan(cap, tile_bytes=8192) is tiled
        assert model.spill_plan(cap) is whole
        # an embedded tiled plan round-trips and only matches tiled asks
        loaded = CompiledModel.load(
            replace(model, spill_plans=(tiled,)).save(tmp_path / "t.json")
        )
        assert loaded.spill_plan(cap, tile_bytes=8192) is loaded.spill_plans[0]
        assert loaded.spill_plan(cap).tile_bytes is None

    def test_tiled_floor_memo(self):
        from repro.allocator.spill import min_capacity_bytes
        from repro.models.suite import get_cell

        model = CompilationPipeline("greedy").compile(
            get_cell("randwire-c10-b").factory()
        )
        assert model.spill_floor_for(None) == model.spill_floor_bytes
        tiled = model.spill_floor_for(8192)
        assert tiled == min_capacity_bytes(
            model.graph, model.schedule, tile_bytes=8192
        )
        assert tiled < model.spill_floor_bytes

    def test_spill_executor_from_capacity(self, diamond_graph):
        from repro.runtime import random_feeds

        model = CompilationPipeline("greedy").compile(diamond_graph)
        px = model.executor(capacity_bytes=model.arena_bytes)
        px.run(random_feeds(model.graph))
        assert px.spill is not None and px.spill.is_trivial
        assert px.last_stats.traffic.eliminated

    def test_format_versioned(self, tmp_path, diamond_graph):
        model = CompilationPipeline("kahn").compile(diamond_graph)
        doc = model.to_doc()
        assert doc["format"] == ARTIFACT_FORMAT
        doc["format"] = "bogus/9"
        with pytest.raises(GraphError, match="unsupported"):
            CompiledModel.from_doc(doc)

    def test_tampered_graph_rejected(self, tmp_path, diamond_graph):
        model = CompilationPipeline("kahn").compile(diamond_graph)
        path = model.save(tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["graph"]["nodes"][1]["attrs"]["out_channels"] = 999
        with pytest.raises(GraphError, match="signature"):
            CompiledModel.from_doc(doc)

    def test_tampered_schedule_rejected(self, tmp_path, diamond_graph):
        from repro.exceptions import InvalidScheduleError

        model = CompilationPipeline("kahn").compile(diamond_graph)
        doc = model.to_doc()
        doc["plan"]["schedule"] = list(reversed(doc["plan"]["schedule"]))
        with pytest.raises(InvalidScheduleError):
            CompiledModel.from_doc(doc)


class TestFromReport:
    def test_report_freezes_to_artifact(self, concat_depthwise_graph):
        report = Serenity(SerenityConfig(max_states_per_step=2_000)).compile(
            concat_depthwise_graph
        )
        model = compiled_model_from_report(report)
        assert model.graph == report.scheduled_graph
        assert model.schedule.order == report.schedule.order
        assert model.meta["rewrite_count"] == report.rewrite_count
        assert model.arena_bytes == report.arena_bytes
        from repro.runtime import verify_execution

        assert verify_execution(model).equivalent


class TestSearchStatsSatellite:
    def test_fresh_report_has_stats(self, diamond_graph):
        report = Serenity(SerenityConfig(max_states_per_step=2_000)).compile(
            diamond_graph
        )
        assert not report.from_cache
        assert report.search_stats().states_expanded > 0

    def test_cache_rebuilt_report_fails_loudly(self, tmp_path, monkeypatch):
        from repro.experiments import common
        from repro.models.suite import get_cell

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        common.clear_cache()
        spec = get_cell("swiftnet-c")
        fresh = common.compiled(spec, rewrite=False)
        assert not fresh.from_cache
        common.clear_cache()  # drop the memo; force the persistent layer
        rebuilt = common.compiled(spec, rewrite=False)
        assert rebuilt.from_cache and rebuilt.divide is None
        with pytest.raises(SchedulingError, match="schedule cache"):
            rebuilt.search_stats()
        common.clear_cache()

    def test_verify_failure_raises(self, diamond_graph, monkeypatch):
        """A pipeline whose plan diverges from the reference must not
        hand back an artifact."""

        class Lying:
            equivalent = False
            max_abs_error = 1.0

            def __bool__(self):
                return False

        monkeypatch.setattr(
            "repro.runtime.verify.verify_execution", lambda model: Lying()
        )
        pipe = CompilationPipeline("kahn", verify=True)
        with pytest.raises(ExecutionError, match="diverges"):
            pipe.compile(diamond_graph)


@pytest.fixture
def built(monkeypatch):
    """Counts of the two things one path builds once per compile: buffer
    models (``BufferModel.build``) and arena layouts (``arena._planned``)."""
    from collections import Counter

    from repro.allocator import arena
    from repro.scheduler.memory import BufferModel

    counts = Counter()
    build, planned = BufferModel.build.__func__, arena._planned

    def counting_build(cls, index):
        counts["models"] += 1
        return build(cls, index)

    def counting_planned(*args):
        counts["plans"] += 1
        return planned(*args)

    monkeypatch.setattr(BufferModel, "build", classmethod(counting_build))
    monkeypatch.setattr(arena, "_planned", counting_planned)
    return counts


class TestOnePath:
    """strategy -> ``measure`` -> ``freeze``: a schedule is measured
    once, laid out once (counting, not timing)."""

    @pytest.mark.parametrize("strategy", ["kahn", "greedy", "serenity"])
    def test_warm_compile_builds_one_model_and_one_plan(
        self, tmp_path, built, strategy
    ):
        from repro.models.suite import get_cell

        graph = get_cell("swiftnet-a").factory
        pipe = CompilationPipeline(strategy, cache=ScheduleCache(tmp_path))
        pipe.compile(graph())
        built.clear()
        warm = pipe.compile(graph())
        assert warm.meta["cached"]
        assert built == {"models": 1, "plans": 1}

    def test_cold_greedy_adds_one_of_each_to_the_strategy_itself(self, built):
        from repro.models.suite import get_cell
        from repro.scheduler.greedy import greedy_schedule

        graph = get_cell("swiftnet-a").factory
        greedy_schedule(graph())
        own = dict(built)
        built.clear()
        CompilationPipeline("greedy").compile(graph())
        assert built == {"models": own.get("models", 0) + 1, "plans": 1}

    def test_freeze_replans_only_for_another_allocator(
        self, diamond_graph, built
    ):
        CompilationPipeline("kahn", allocator="greedy_by_size").compile(
            diamond_graph
        )
        assert built["plans"] == 2  # measured first-fit, frozen greedy-by-size

    def test_outcome_carries_the_plan_it_was_measured_with(self, diamond_graph):
        from dataclasses import replace

        from repro.scheduler.registry import run_strategy

        out = run_strategy("greedy", diamond_graph)
        assert out.plan.arena_bytes == out.arena_bytes
        assert out.plan.strategy == "first_fit"
        # the plan rides along; it is not part of an outcome's identity
        assert replace(out, plan=None) == out

    @pytest.mark.parametrize("rewrite", [False, True])
    def test_experiments_and_pipeline_share_cache_entries(
        self, tmp_path, monkeypatch, rewrite
    ):
        """A cache directory written by ``experiments.common.compiled``
        is a hit for the pipeline, and the reverse."""
        from repro.experiments import common
        from repro.models.suite import get_cell

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        spec = get_cell("swiftnet-c")
        strategy = common.default_config(rewrite).strategy
        try:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
            common.clear_cache()
            report = common.compiled(spec, rewrite=rewrite)
            assert not report.from_cache
            model = CompilationPipeline(
                strategy, cache=ScheduleCache(tmp_path / "a")
            ).compile(spec.factory())
            assert model.meta["cached"]
            assert model.schedule.order == report.schedule.order

            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
            cold = CompilationPipeline(
                strategy, cache=ScheduleCache(tmp_path / "b")
            ).compile(spec.factory())
            assert not cold.meta["cached"]
            common.clear_cache()
            served = common.compiled(spec, rewrite=rewrite)
            assert served.from_cache
            assert served.schedule.order == cold.schedule.order
        finally:
            common.clear_cache()
