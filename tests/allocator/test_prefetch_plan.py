"""PrefetchPlan: ping/pong staging layout attached to spill plans."""

import dataclasses

import pytest

from repro.allocator.arena import plan_allocation
from repro.allocator.spill import SpillPlan, plan_spill
from repro.exceptions import SpillError
from repro.models.suite import get_cell
from repro.scheduler.registry import run_strategy


@pytest.fixture(scope="module")
def compiled_cell():
    out = run_strategy("greedy", get_cell("randwire-c10-b").factory())
    graph, schedule = out.scheduled_graph, out.schedule
    plan = plan_allocation(graph, schedule)
    return graph, schedule, plan


def _constrained(compiled_cell, **kwargs) -> SpillPlan:
    graph, schedule, plan = compiled_cell
    return plan_spill(
        graph, schedule, plan, int(plan.arena_bytes * 0.6), **kwargs
    )


class TestPrefetchLayout:
    def test_attached_by_default(self, compiled_cell):
        sp = _constrained(compiled_cell)
        assert sp.prefetch is not None
        assert sp.prefetch.lead_steps > 0

    def test_zero_lead_disables(self, compiled_cell):
        sp = _constrained(compiled_cell, prefetch_lead=0)
        assert sp.prefetch is None

    def test_windows_match_base_plan(self, compiled_cell):
        """Prefetch re-places staging slots but never moves the
        (start, end) bounds the planner proved safe."""
        sp = _constrained(compiled_cell)
        p = sp.prefetch
        assert set(p.windows) == set(sp.spilled)
        for b, ws in p.windows.items():
            base = sp.windows[b]
            assert [(w.start, w.end) for w in ws] == [
                (w.start, w.end) for w in base
            ]
            for w in ws:
                assert 0 <= w.offset <= p.resident_bytes

    def test_leads_bounded_and_capacity_respected(self, compiled_cell):
        sp = _constrained(compiled_cell)
        p = sp.prefetch
        assert p.resident_bytes <= sp.capacity_bytes
        assert set(p.window_leads) == set(p.windows)
        for b, leads in p.window_leads.items():
            assert len(leads) == len(p.windows[b])
            assert all(0 <= ld <= p.lead_steps for ld in leads)

    def test_doc_round_trip(self, compiled_cell):
        sp = _constrained(compiled_cell)
        doc = sp.to_doc()
        rebuilt = SpillPlan.from_doc(doc)
        assert rebuilt.prefetch is not None
        assert rebuilt.to_doc() == doc
        assert rebuilt.prefetch.windows == sp.prefetch.windows
        assert rebuilt.prefetch.window_leads == sp.prefetch.window_leads

    def test_validate_rejects_negative_lead(self, compiled_cell):
        graph, schedule, _ = compiled_cell
        sp = _constrained(compiled_cell)
        broken = dataclasses.replace(
            sp, prefetch=dataclasses.replace(sp.prefetch, lead_steps=-1)
        )
        with pytest.raises(SpillError, match="lead must be >= 0"):
            broken.validate(graph, schedule)

    def test_validate_rejects_moved_windows(self, compiled_cell):
        graph, schedule, _ = compiled_cell
        sp = _constrained(compiled_cell)
        b, ws = next(iter(sp.prefetch.windows.items()))
        shifted = tuple(
            dataclasses.replace(w, start=w.start + 1) for w in ws
        )
        broken = dataclasses.replace(
            sp,
            prefetch=dataclasses.replace(
                sp.prefetch, windows={**sp.prefetch.windows, b: shifted}
            ),
        )
        with pytest.raises(SpillError, match="disagree with the"):
            broken.validate(graph, schedule)
