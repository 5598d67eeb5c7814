"""Prefetching executor: overlap semantics, parity, and lifecycle.

The spill parity matrix in ``test_spill_executor.py`` already runs with
prefetch on by default; this file pins what prefetch *adds* — inline
and overlapped runs stay bitwise-identical, stall-vs-hidden time is
accounted sanely under a modeled link, and the background transfer
engine shuts down cleanly.
"""

import numpy as np
import pytest

from repro.allocator.arena import plan_allocation
from repro.allocator.spill import min_capacity_bytes, plan_spill
from repro.memsim import OffchipLink
from repro.models.suite import get_cell
from repro.runtime.executor import init_params, random_feeds
from repro.runtime.plan_executor import PlanExecutor
from repro.scheduler.registry import run_strategy


@pytest.fixture(scope="module")
def cell():
    out = run_strategy("greedy", get_cell("randwire-c10-a").factory())
    graph, schedule = out.scheduled_graph, out.schedule
    plan = plan_allocation(graph, schedule)
    floor = min_capacity_bytes(graph, schedule)
    cap = max(plan.arena_bytes // 2, floor)
    spill = plan_spill(graph, schedule, plan, cap)
    assert not spill.is_trivial and spill.prefetch is not None
    return {
        "graph": graph,
        "schedule": schedule,
        "plan": plan,
        "params": init_params(graph, seed=0),
        "spill": spill,
    }


def _executor(cell, *, prefetch: bool, link=None, batch_size: int = 1):
    return PlanExecutor(
        cell["graph"],
        cell["schedule"],
        cell["plan"],
        params=cell["params"],
        batch_size=batch_size,
        spill=cell["spill"],
        prefetch=prefetch,
        link=link,
    )


class TestPrefetchParity:
    def test_solo_bitwise_matches_inline(self, cell):
        feeds = random_feeds(cell["graph"], seed=3)
        inline = _executor(cell, prefetch=False)
        overlapped = _executor(cell, prefetch=True)
        try:
            want = inline.run(feeds)
            for _round in range(2):  # second run replays stale slots
                got = overlapped.run(feeds)
                for name in want:
                    np.testing.assert_array_equal(want[name], got[name])
        finally:
            inline.close()
            overlapped.close()

    def test_batched_bitwise_matches_inline(self, cell):
        n = 4
        stacked = {
            k: np.stack([random_feeds(cell["graph"], seed=s)[k] for s in range(n)])
            for k in random_feeds(cell["graph"], seed=0)
        }
        inline = _executor(cell, prefetch=False, batch_size=n)
        overlapped = _executor(cell, prefetch=True, batch_size=n)
        try:
            want = inline.run_batch(stacked)
            got = overlapped.run_batch(stacked)
            for name in want:
                np.testing.assert_array_equal(want[name], got[name])
        finally:
            inline.close()
            overlapped.close()


class TestStallHiddenAccounting:
    def _link(self, cell) -> OffchipLink:
        """A link slow enough that transfer time is visible next to
        this tiny cell's compute."""
        return OffchipLink(bandwidth_bytes_per_s=200e6)

    def test_prefetch_hides_transfer_time(self, cell):
        px = _executor(cell, prefetch=True, link=self._link(cell))
        try:
            px.run(random_feeds(cell["graph"], seed=0))
            stats = px.last_stats
            assert px.prefetch_active
            assert stats.prefetch_lead > 0
            assert stats.spill_hidden_s > 0.0
            report = stats.traffic
            assert report.hidden_s == stats.spill_hidden_s
            assert 0.0 < report.hidden_fraction <= 1.0
        finally:
            px.close()

    def test_inline_stalls_and_hides_nothing(self, cell):
        px = _executor(cell, prefetch=False, link=self._link(cell))
        try:
            px.run(random_feeds(cell["graph"], seed=0))
            stats = px.last_stats
            assert not px.prefetch_active
            assert stats.prefetch_lead == 0
            assert stats.spill_hidden_s == 0.0
            assert stats.spill_stall_s > 0.0
            assert stats.traffic.hidden_fraction == 0.0
        finally:
            px.close()


class TestLifecycle:
    def test_close_is_idempotent(self, cell):
        px = _executor(cell, prefetch=True)
        px.run(random_feeds(cell["graph"], seed=1))
        px.close()
        px.close()
        assert not px.prefetch_active

    def test_prefetch_inactive_without_spill(self, cell):
        px = PlanExecutor(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            params=cell["params"],
            prefetch=True,
        )
        assert not px.prefetch_active
        px.close()

    def test_prefetch_inactive_when_disabled(self, cell):
        px = _executor(cell, prefetch=False)
        assert not px.prefetch_active
        px.close()
