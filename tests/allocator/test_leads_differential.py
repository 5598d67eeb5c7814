"""Differential oracle: size-only lead assignment vs one plan per probe.

``spill._assign_leads`` promises to be *the same function* as
``_reference_leads._assign_leads`` — the same lead per window, the same
``_LEAD_ASSIGN_BUDGET`` units spent — while asking a size-only
predicate where the reference lays out and validates two
``AllocationPlan``s per probe. These tests hold it to that on generated
interval sets and lead-assignment problems (few distinct sizes, so the
``(-size, start, id)`` ties bite; equal starts; capacities straddling
the live-byte peak, fitting or not), on whole spill plans of the suite
cells, and count the plans ``plan_spill`` still validates.
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocator import spill
from repro.allocator.arena import (
    AllocationPlan,
    first_fit_arena,
    fits_within,
    greedy_by_size_plan,
    plan_allocation,
)
from repro.allocator.lifetimes import BufferLifetime
from repro.exceptions import SpillError
from repro.models.suite import BENCHMARK_SUITE
from repro.scheduler.registry import run_strategy

from tests.allocator import _reference_leads as reference

#: few distinct sizes: ties in both sort keys, gaps that fit exactly
SIZES = st.sampled_from([1, 2, 3, 4, 8])
#: capacity relative to the live-byte peak — the bound's own edge,
#: what fragmentation adds on top of it, and far either side
SLACK = st.sampled_from([-100, -2, -1, 0, 1, 2, 3, 5, 8, 13, 100])


@st.composite
def interval_sets(draw, max_steps: int = 12):
    """``(size, start, end, id)`` intervals over a short schedule."""
    n = draw(st.integers(1, 14))
    out = []
    for ident in range(n):
        start = draw(st.integers(0, max_steps - 1))
        end = draw(st.integers(start + 1, max_steps))
        out.append((draw(SIZES), start, end, ident))
    return out


def _lifetimes(intervals) -> list[BufferLifetime]:
    return [BufferLifetime(i, sz, s, e, ()) for sz, s, e, i in intervals]


def _reference_region_bytes(intervals) -> int:
    lts = _lifetimes(intervals)
    return min(
        reference.greedy_by_size_plan(lts).arena_bytes,
        reference.first_fit_arena(lts).arena_bytes,
    )


class TestFitsPredicate:
    @given(interval_sets(), SLACK)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_validated_layouts_size(self, intervals, slack):
        demand = spill._step_demand(intervals)
        cap = max(demand) + slack
        want = _reference_region_bytes(intervals) <= cap
        assert spill._fits(intervals, demand, cap) == want
        # the bound only ever refuses what placement would refuse too
        assert fits_within(intervals, cap) == want

    @given(interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_demand_is_the_live_byte_sum(self, intervals):
        demand = spill._step_demand(intervals)
        assert len(demand) == max(e for _, _, e, _ in intervals)
        for step, got in enumerate(demand):
            assert got == sum(
                sz for sz, s, e, _ in intervals if s <= step < e
            )

    @given(interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_public_allocators_place_as_before(self, intervals):
        """The placement cores were factored out from under the public
        allocators; every offset must have stayed where it was."""
        lts = _lifetimes(intervals)
        for ours, theirs in (
            (first_fit_arena, reference.first_fit_arena),
            (greedy_by_size_plan, reference.greedy_by_size_plan),
        ):
            got, want = ours(lts), theirs(lts)
            assert got == want
            assert list(got.offsets) == list(want.offsets)


@st.composite
def lead_problems(draw):
    """A synthetic ``_assign_leads`` input: lifetimes, a spilled subset
    with staging runs inside each spilled lifetime, staged sizes."""
    n_steps = draw(st.integers(4, 14))
    n = draw(st.integers(2, 9))
    lifetimes, size = [], []
    for b in range(n):
        start = draw(st.integers(0, n_steps - 2))
        end = draw(st.integers(start + 1, n_steps))
        size.append(draw(SIZES))
        lifetimes.append(BufferLifetime(b, size[b], start, end, ()))
    spilled = frozenset(
        draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    )
    runs_of = {}
    for b in sorted(spilled):
        lt = lifetimes[b]
        touched = draw(
            st.sets(st.integers(lt.start, lt.end - 1), min_size=1, max_size=5)
        )
        runs: list[tuple[int, int]] = []
        for s in sorted(touched):
            if runs and runs[-1][1] == s - 1:
                runs[-1] = (runs[-1][0], s)
            else:
                runs.append((s, s))
        runs_of[b] = runs
    # staged footprint: some buffers stream through a smaller tile slot
    slot = [draw(st.sampled_from([sz, min(sz, 2)])) for sz in size]
    plan = AllocationPlan("first_fit", {}, 0, tuple(lifetimes))
    return plan, spilled, runs_of, slot


class TestAssignLeads:
    @given(
        lead_problems(),
        SLACK,
        st.sampled_from([1, 2, 3, 8]),
        st.sampled_from([1500, 7, 2]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_leads_as_one_plan_per_probe(
        self, problem, slack, max_lead, budget
    ):
        plan, spilled, runs_of, slot = problem
        # capacities around the base layout's size: below it no lead-0
        # region fits either, which the reference probes all the same
        base, _, _ = reference._layout_staging(plan, spilled, runs_of, slot, 0)
        cap = max(1, base + slack)
        # budget 7 runs dry mid-refinement, 2 inside the uniform phase:
        # one unit per probe, however the probe was answered
        with mock.patch.object(spill, "_LEAD_ASSIGN_BUDGET", budget):
            want = reference._assign_leads(
                plan, spilled, runs_of, slot, cap, max_lead
            )
            got = spill._assign_leads(
                plan, spilled, runs_of, slot, cap, max_lead
            )
        assert got == want
        assert list(got) == list(want)


# ----------------------------------------------------------------------
# whole plans: the suite cells under the old planner and the new
# ----------------------------------------------------------------------
#: (fraction of the arena, tile bytes)
POINTS = ((0.75, None), (0.5, None), (0.25, 8192), (0.125, 8192), (0.125, 4096))


@functools.cache
def _cell(key: str):
    out = run_strategy("greedy", BENCHMARK_SUITE[key].factory())
    graph, schedule = out.scheduled_graph, out.schedule
    return graph, schedule, plan_allocation(graph, schedule)


def _doc_or_error(key: str, capacity: int, tile: int | None):
    graph, schedule, plan = _cell(key)
    try:
        return spill.plan_spill(
            graph, schedule, plan, capacity, tile_bytes=tile
        ).to_doc()
    except SpillError as exc:
        return str(exc)


def _assert_same_plan(key: str, capacity: int, tile: int | None) -> None:
    """``plan_spill`` with the reference's lead assignment *and* its
    verbatim layout + allocators swapped in must produce the very same
    document (or refuse with the very same words)."""
    got = _doc_or_error(key, capacity, tile)
    with (
        mock.patch.object(spill, "_assign_leads", reference._assign_leads),
        mock.patch.object(spill, "_layout_staging", reference._layout_staging),
    ):
        want = _doc_or_error(key, capacity, tile)
    assert got == want


#: the swiftnet cells plan in milliseconds under either planner; the
#: rest cost the reference seconds per point
CELLS = [
    pytest.param(
        key, marks=() if key.startswith("swiftnet") else pytest.mark.slow
    )
    for key in sorted(BENCHMARK_SUITE)
]


class TestWholePlans:
    @pytest.mark.parametrize("frac,tile", POINTS)
    @pytest.mark.parametrize("key", CELLS)
    def test_suite_cells(self, key, frac, tile):
        _assert_same_plan(key, int(_cell(key)[2].arena_bytes * frac), tile)

    @pytest.mark.parametrize("capacity,tile", [(491520, None), (114688, 8192)])
    def test_benchmark_configurations(self, capacity, tile):
        """``serve-spill-whole`` / ``serve-spill-tiled`` of the repo
        benchmark."""
        _assert_same_plan("randwire-c100-a", capacity, tile)


class TestValidatedPlanCount:
    def test_probes_build_no_plans(self):
        """A deterministic stand-in for a timing assert: planning the
        ``serve-spill-tiled`` configuration validates the four plans it
        ships (base and prefetch layout, two allocators each) — 1 532
        when every probe built its own pair — and that number does not
        depend on how many probes were asked."""
        graph, schedule, plan = _cell("randwire-c100-a")
        validated = []
        for budget in (spill._LEAD_ASSIGN_BUDGET, 7):
            with (
                mock.patch.object(
                    AllocationPlan,
                    "validate",
                    autospec=True,
                    side_effect=AllocationPlan.validate,
                ) as validate,
                mock.patch.object(spill, "_LEAD_ASSIGN_BUDGET", budget),
            ):
                spill.plan_spill(
                    graph, schedule, plan, 114688, tile_bytes=8192
                )
            validated.append(validate.call_count)
        assert validated[0] == validated[1] <= 8
