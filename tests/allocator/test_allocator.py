"""Lifetimes and arena offset allocators."""

import pytest

from repro.allocator.arena import (
    AllocationPlan,
    first_fit_arena,
    greedy_by_size_plan,
    plan_allocation,
)
from repro.allocator.lifetimes import BufferLifetime, compute_lifetimes
from repro.exceptions import AllocationError
from repro.scheduler.dp import dp_schedule
from repro.scheduler.memory import simulate_schedule
from repro.scheduler.topological import kahn_schedule

from tests.conftest import random_dag_graph


def _lt(buffer_id, size, start, end):
    return BufferLifetime(
        buffer_id=buffer_id, size=size, start=start, end=end, producers=()
    )


class TestLifetimes:
    def test_chain_lifetimes(self, chain_graph):
        sched = kahn_schedule(chain_graph)
        lts = compute_lifetimes(chain_graph, sched)
        by_prod = {lt.producers[0]: lt for lt in lts}
        assert by_prod["x"].start == 0 and by_prod["x"].end == 2
        # the sink persists to the end of the schedule
        assert by_prod["c2"].end == len(sched)

    def test_view_buffer_single_lifetime(self, concat_conv_graph):
        from repro.graph.transforms import mark_concat_views

        g = mark_concat_views(concat_conv_graph)
        sched = kahn_schedule(g)
        lts = compute_lifetimes(g, sched)
        cat_lts = [lt for lt in lts if "cat" in lt.producers]
        assert len(cat_lts) == 1
        # buffer opens when the first branch writes into it
        assert cat_lts[0].start == min(
            sched.position(p) for p in cat_lts[0].producers
        )

    def test_overlap_predicate(self):
        assert _lt(0, 1, 0, 3).overlaps(_lt(1, 1, 2, 5))
        assert not _lt(0, 1, 0, 2).overlaps(_lt(1, 1, 2, 5))


class TestFirstFit:
    def test_reuses_freed_holes(self):
        # a dies before c starts: c reuses a's offset
        lts = [_lt(0, 100, 0, 2), _lt(1, 50, 1, 4), _lt(2, 100, 2, 5)]
        plan = first_fit_arena(lts)
        assert plan.offsets[2] == plan.offsets[0]
        assert plan.arena_bytes == 150

    def test_no_reuse_when_live(self):
        lts = [_lt(0, 100, 0, 3), _lt(1, 100, 1, 3)]
        plan = first_fit_arena(lts)
        assert plan.arena_bytes == 200

    def test_fills_gap_between_blocks(self):
        # blocks at [0,100) and [150,250); a 50-byte buffer fits between
        lts = [_lt(0, 100, 0, 9), _lt(1, 50, 0, 2), _lt(2, 100, 0, 9), _lt(3, 50, 3, 9)]
        plan = first_fit_arena(lts)
        assert plan.offsets[3] == plan.offsets[1]

    def test_validates(self):
        lts = [_lt(i, 64, 0, 4) for i in range(4)]
        first_fit_arena(lts).validate()


class TestGreedyBySize:
    def test_largest_first_at_zero(self):
        lts = [_lt(0, 10, 0, 4), _lt(1, 100, 0, 4)]
        plan = greedy_by_size_plan(lts)
        assert plan.offsets[1] == 0

    def test_non_overlapping_share_offsets(self):
        lts = [_lt(0, 64, 0, 2), _lt(1, 64, 2, 4)]
        plan = greedy_by_size_plan(lts)
        assert plan.offsets[0] == plan.offsets[1] == 0
        assert plan.arena_bytes == 64

    def test_never_larger_than_sum(self):
        lts = [_lt(i, 32 * (i + 1), 0, 10) for i in range(5)]
        plan = greedy_by_size_plan(lts)
        assert plan.arena_bytes == sum(lt.size for lt in lts)


class TestPlans:
    def test_validate_catches_overlap(self):
        bad = AllocationPlan(
            strategy="manual",
            offsets={0: 0, 1: 32},
            arena_bytes=128,
            lifetimes=(_lt(0, 64, 0, 4), _lt(1, 64, 0, 4)),
        )
        with pytest.raises(AllocationError, match="overlap"):
            bad.validate()

    def test_validate_catches_escape(self):
        bad = AllocationPlan(
            strategy="manual",
            offsets={0: 100},
            arena_bytes=128,
            lifetimes=(_lt(0, 64, 0, 4),),
        )
        with pytest.raises(AllocationError, match="escapes"):
            bad.validate()

    def test_validate_catches_missing_offset(self):
        """A buffer with a lifetime but no offset is a plan error, not
        a bare KeyError from the overlap sweep."""
        bad = AllocationPlan(
            strategy="manual",
            offsets={0: 0},
            arena_bytes=128,
            lifetimes=(_lt(0, 64, 0, 4), _lt(1, 64, 0, 4)),
        )
        with pytest.raises(AllocationError, match="no offset for buffer 1"):
            bad.validate()

    def test_unknown_strategy(self, chain_graph):
        with pytest.raises(AllocationError, match="unknown"):
            plan_allocation(chain_graph, kahn_schedule(chain_graph), "bogus")

    @pytest.mark.parametrize("strategy", ["first_fit", "greedy_by_size"])
    @pytest.mark.parametrize("seed", range(8))
    def test_arena_at_least_ideal_peak(self, strategy, seed):
        """No offset assignment can beat the sum-of-live lower bound."""
        g = random_dag_graph(12, seed, with_views=True)
        sched = dp_schedule(g).schedule
        peak = simulate_schedule(g, sched).peak_bytes
        plan = plan_allocation(g, sched, strategy)
        assert plan.arena_bytes >= peak

    def test_deterministic(self, concat_conv_graph):
        sched = kahn_schedule(concat_conv_graph)
        a = plan_allocation(concat_conv_graph, sched)
        b = plan_allocation(concat_conv_graph, sched)
        assert a.offsets == b.offsets and a.arena_bytes == b.arena_bytes
