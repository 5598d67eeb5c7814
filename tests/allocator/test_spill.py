"""Spill planning: determinism, floors, serialization, policy registry."""

import pytest

from repro.allocator.arena import plan_allocation
from repro.allocator.spill import (
    SpillPlan,
    buffer_access_trace,
    min_capacity_bytes,
    plan_spill,
    step_touches,
)
from repro.exceptions import SpillError
from repro.models.suite import get_cell
from repro.scheduler.memory import BufferModel
from repro.scheduler.registry import run_strategy


@pytest.fixture(scope="module")
def compiled_cell():
    out = run_strategy("greedy", get_cell("randwire-c10-b").factory())
    graph, schedule = out.scheduled_graph, out.schedule
    plan = plan_allocation(graph, schedule)
    return graph, schedule, plan, BufferModel.of(graph)


class TestPlanSpill:
    def test_trivial_at_full_capacity(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        sp = plan_spill(graph, schedule, plan, plan.arena_bytes)
        assert sp.is_trivial
        assert sp.resident_bytes == plan.arena_bytes
        assert sp.spill_bytes == 0
        assert sp.resident_offsets == plan.offsets

    def test_constrained_capacity_spills(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        cap = int(plan.arena_bytes * 0.75)
        sp = plan_spill(graph, schedule, plan, cap)
        assert not sp.is_trivial
        assert sp.resident_bytes <= cap
        model = BufferModel.of(graph)
        assert sp.spill_bytes == sum(
            model.buf_size[b] for b in sp.spilled
        )
        # every spilled buffer has a home and at least one window
        for b in sp.spilled:
            assert b in sp.home_offsets
            assert sp.windows[b]

    def test_deterministic(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        cap = int(plan.arena_bytes * 0.6)
        assert plan_spill(graph, schedule, plan, cap) == plan_spill(
            graph, schedule, plan, cap
        )

    def test_below_floor_raises(self, compiled_cell):
        graph, schedule, plan, model = compiled_cell
        floor = min_capacity_bytes(graph, schedule, model)
        assert 0 < floor <= plan.arena_bytes
        with pytest.raises(SpillError, match="working set"):
            plan_spill(graph, schedule, plan, floor - 8)

    def test_at_floor_succeeds(self, compiled_cell):
        graph, schedule, plan, model = compiled_cell
        floor = min_capacity_bytes(graph, schedule, model)
        sp = plan_spill(graph, schedule, plan, floor)
        assert sp.resident_bytes <= floor

    def test_nonpositive_capacity_raises(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        with pytest.raises(SpillError, match="positive"):
            plan_spill(graph, schedule, plan, 0)

    @pytest.mark.parametrize("policy", ["belady", "lru", "fifo"])
    def test_policy_registry_shared_with_memsim(self, compiled_cell, policy):
        """Every fig11 simulator policy also drives spill planning."""
        graph, schedule, plan, _ = compiled_cell
        cap = int(plan.arena_bytes * 0.7)
        sp = plan_spill(graph, schedule, plan, cap, policy=policy)
        assert sp.policy == policy
        assert sp.resident_bytes <= cap

    def test_unknown_policy_raises(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        with pytest.raises(ValueError, match="unknown replacement policy"):
            plan_spill(
                graph, schedule, plan, plan.arena_bytes // 2, policy="magic"
            )

    def test_windows_cover_every_touch(self, compiled_cell):
        graph, schedule, plan, model = compiled_cell
        cap = int(plan.arena_bytes * 0.6)
        sp = plan_spill(graph, schedule, plan, cap)
        touch = step_touches(graph, schedule, model)
        for s, bufs in enumerate(touch):
            for b in bufs:
                if b in sp.spilled:
                    assert [w for w in sp.windows[b] if w.start <= s < w.end]


class TestTiledPlan:
    """Tile-granularity staging: the floor drops to the largest tile
    working set and plans exist below the whole-buffer floor."""

    TILE = 8192

    def test_tiled_floor_at_most_whole_floor(self, compiled_cell):
        graph, schedule, _, model = compiled_cell
        floor = min_capacity_bytes(graph, schedule, model)
        tile_floor = min_capacity_bytes(
            graph, schedule, model, tile_bytes=self.TILE
        )
        assert 0 < tile_floor <= floor

    def test_tiled_floor_strictly_below_for_large_buffers(self):
        out = run_strategy("greedy", get_cell("randwire-c100-b").factory())
        graph, schedule = out.scheduled_graph, out.schedule
        floor = min_capacity_bytes(graph, schedule)
        tile_floor = min_capacity_bytes(graph, schedule, tile_bytes=self.TILE)
        assert tile_floor < floor

    def test_plans_below_whole_buffer_floor(self, compiled_cell):
        graph, schedule, plan, model = compiled_cell
        floor = min_capacity_bytes(graph, schedule, model)
        tile_floor = min_capacity_bytes(
            graph, schedule, model, tile_bytes=self.TILE
        )
        cap = max(tile_floor, min(floor - 1, tile_floor * 2))
        if cap >= floor:
            pytest.skip("cell has no tile headroom below the whole floor")
        with pytest.raises(SpillError):
            plan_spill(graph, schedule, plan, cap)
        sp = plan_spill(graph, schedule, plan, cap, tile_bytes=self.TILE)
        assert sp.tile_bytes == self.TILE
        assert not sp.is_trivial
        assert sp.resident_bytes <= cap

    def test_tiled_plan_deterministic(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        cap = int(plan.arena_bytes * 0.6)
        assert plan_spill(
            graph, schedule, plan, cap, tile_bytes=self.TILE
        ) == plan_spill(graph, schedule, plan, cap, tile_bytes=self.TILE)

    def test_tile_zero_means_whole_buffer(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        cap = int(plan.arena_bytes * 0.7)
        assert plan_spill(
            graph, schedule, plan, cap, tile_bytes=0
        ) == plan_spill(graph, schedule, plan, cap)

    def test_negative_tile_rejected(self, compiled_cell):
        graph, schedule, plan, model = compiled_cell
        with pytest.raises(Exception, match="tile_bytes"):
            plan_spill(
                graph, schedule, plan, plan.arena_bytes, tile_bytes=-4
            )
        with pytest.raises(Exception, match="tile_bytes"):
            min_capacity_bytes(graph, schedule, model, tile_bytes=-4)

    def test_below_tiled_floor_still_raises(self, compiled_cell):
        graph, schedule, plan, model = compiled_cell
        tile_floor = min_capacity_bytes(
            graph, schedule, model, tile_bytes=self.TILE
        )
        with pytest.raises(SpillError):
            plan_spill(
                graph, schedule, plan, tile_floor - 8, tile_bytes=self.TILE
            )

    def test_doc_round_trip_preserves_tile_bytes(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        sp = plan_spill(
            graph,
            schedule,
            plan,
            int(plan.arena_bytes * 0.6),
            tile_bytes=self.TILE,
        )
        doc = sp.to_doc()
        assert doc["tile_bytes"] == self.TILE
        assert SpillPlan.from_doc(doc) == sp

    def test_untiled_doc_is_legacy_identical(self, compiled_cell):
        """Whole-buffer plans serialize without a tile key at all, so
        artifacts written before tiling existed stay byte-identical."""
        graph, schedule, plan, _ = compiled_cell
        sp = plan_spill(graph, schedule, plan, int(plan.arena_bytes * 0.7))
        doc = sp.to_doc()
        assert "tile_bytes" not in doc
        assert SpillPlan.from_doc(doc).tile_bytes is None

    def test_nonpositive_doc_tile_rejected(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        sp = plan_spill(
            graph,
            schedule,
            plan,
            int(plan.arena_bytes * 0.6),
            tile_bytes=self.TILE,
        )
        doc = sp.to_doc()
        doc["tile_bytes"] = 0
        with pytest.raises(SpillError, match="SPILL_TILE_GEOMETRY"):
            SpillPlan.from_doc(doc).validate(graph, schedule)


class TestSpillPlanDoc:
    def test_round_trip(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        sp = plan_spill(graph, schedule, plan, int(plan.arena_bytes * 0.7))
        assert SpillPlan.from_doc(sp.to_doc()) == sp

    def test_trivial_round_trip(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        sp = plan_spill(graph, schedule, plan, plan.arena_bytes)
        assert SpillPlan.from_doc(sp.to_doc()) == sp

    def test_bad_format_rejected(self):
        with pytest.raises(SpillError, match="format"):
            SpillPlan.from_doc({"format": "nope"})

    def test_corrupt_doc_rejected(self, compiled_cell):
        graph, schedule, plan, _ = compiled_cell
        sp = plan_spill(graph, schedule, plan, int(plan.arena_bytes * 0.7))
        doc = sp.to_doc()
        doc["resident_bytes"] = doc["capacity_bytes"] + 1
        with pytest.raises(SpillError, match="SPILL_CAPACITY.*exceeds"):
            SpillPlan.from_doc(doc).validate(graph, schedule)


class TestBufferTrace:
    def test_first_access_is_a_write(self, compiled_cell):
        """Every buffer's first access is its producing write — the
        invariant the executor's no-fetch-on-first-window rule rests on."""
        graph, schedule, plan, model = compiled_cell
        trace = buffer_access_trace(graph, schedule, model)
        for obj, positions in trace.positions.items():
            assert trace.accesses[positions[0]].kind == "write", obj
