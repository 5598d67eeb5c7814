"""Prefetching executor: overlap semantics, parity, and lifecycle.

The spill parity matrix in ``test_spill_executor.py`` already runs with
prefetch on by default; this file pins what prefetch *adds* — inline
and overlapped runs stay bitwise-identical, stall-vs-hidden time is
accounted from the modeled link (never a host copy), the link is paid
by deadline (never faster than modeled, one sleep per wait, no
deadline outlives its run), a failing transfer raises from its own row
and leaves the executor usable, and no run starts a thread.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.allocator.arena import plan_allocation
from repro.allocator.spill import min_capacity_bytes, plan_spill
from repro.memsim import OffchipLink
from repro.models.suite import get_cell
from repro.runtime import plan_executor
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.runtime.plan_executor import (
    _STEP_ENQUEUE,
    _STEP_MOVE,
    _STEP_SYNC,
    PlanExecutor,
)
from repro.scheduler.registry import run_strategy


#: staging tile size of the cell's tiled plan
TILE_BYTES = 8192


@pytest.fixture(scope="module")
def cell():
    out = run_strategy("greedy", get_cell("randwire-c10-a").factory())
    graph, schedule = out.scheduled_graph, out.schedule
    plan = plan_allocation(graph, schedule)
    floor = min_capacity_bytes(graph, schedule)
    cap = max(plan.arena_bytes // 2, floor)
    spill = plan_spill(graph, schedule, plan, cap)
    assert not spill.is_trivial and spill.prefetch is not None
    tile_floor = min_capacity_bytes(graph, schedule, tile_bytes=TILE_BYTES)
    tiled = plan_spill(
        graph,
        schedule,
        plan,
        max(tile_floor * 2, plan.arena_bytes // 4),
        tile_bytes=TILE_BYTES,
    )
    assert tiled.prefetch is not None and tiled.tile_bytes == TILE_BYTES
    return {
        "graph": graph,
        "schedule": schedule,
        "plan": plan,
        "params": init_params(graph, seed=0),
        "spill": spill,
        "tiled": tiled,
    }


def _executor(
    cell, *, prefetch: bool, link=None, batch_size: int = 1, mode="spill"
):
    """``mode`` picks the cell's whole-buffer (``"spill"``) or tiled
    (``"tiled"``) plan."""
    return PlanExecutor(
        cell["graph"],
        cell["schedule"],
        cell["plan"],
        params=cell["params"],
        batch_size=batch_size,
        spill=cell[mode],
        prefetch=prefetch,
        link=link,
    )


def _prefetch_link_s(px: PlanExecutor, link: OffchipLink) -> list[float]:
    """Modeled link seconds of each prefetch job of a width-1 run, in
    FIFO order, read off the compiled step table."""
    return [
        sum(link.transfer_s(dst.nbytes) for dst, _src, linked in row[5] if linked)
        for row in px._run_plans[1].steps
        if row[0] == _STEP_ENQUEUE
    ]


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

    @pytest.mark.parametrize("mode", ["spill", "tiled"])
    def test_no_link_hides_nothing(self, cell, mode):
        """Hidden time is modeled link time: host copies are never
        billed as hidden, so without a link nothing is."""
        px = _executor(cell, prefetch=True, mode=mode)
        feeds = random_feeds(cell["graph"], seed=0)
        for _ in range(3):
            px.run(feeds)
            assert px.last_stats.spill_hidden_s == 0.0
            assert px.last_stats.traffic.hidden_fraction == 0.0

    @pytest.mark.parametrize("bandwidth", [10e9, 200e6])
    @pytest.mark.parametrize("mode", ["spill", "tiled"])
    def test_hidden_is_at_most_the_link_seconds(self, cell, mode, bandwidth):
        """A run hides at most the link seconds of its prefetch jobs,
        whatever its copies or sleeps cost on the host."""
        link = OffchipLink(bandwidth_bytes_per_s=bandwidth)
        px = _executor(cell, prefetch=True, link=link, mode=mode)
        owed = sum(_prefetch_link_s(px, link))
        assert owed > 0.0
        feeds = random_feeds(cell["graph"], seed=0)
        for _ in range(3):
            px.run(feeds)
            assert 0.0 <= px.last_stats.spill_hidden_s <= owed


class TestLifecycle:
    def test_close_is_idempotent(self, cell):
        """``close`` releases nothing a run needs: the executor keeps
        its layout and runs on, bitwise."""
        feeds = random_feeds(cell["graph"], seed=1)
        px = _executor(cell, prefetch=True)
        want = px.run(feeds)
        px.close()
        px.close()
        assert px.prefetch_active
        got = px.run(feeds)
        for name in want:
            np.testing.assert_array_equal(want[name], got[name])

    def test_prefetch_inactive_without_spill(self, cell):
        px = PlanExecutor(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            params=cell["params"],
            prefetch=True,
        )
        assert not px.prefetch_active

    def test_prefetch_inactive_when_disabled(self, cell):
        px = _executor(cell, prefetch=False)
        assert not px.prefetch_active

    def test_prefetching_executors_start_no_thread(self, cell):
        """20 prefetching executors built, run and dropped leave the
        process's thread count where it was."""
        before = threading.active_count()
        feeds = random_feeds(cell["graph"], seed=2)
        for i in range(20):
            px = _executor(
                cell,
                prefetch=True,
                link=OffchipLink(bandwidth_bytes_per_s=10e9),
                mode=("spill", "tiled")[i % 2],
            )
            assert px.prefetch_active
            px.run(feeds)
            names = [t.name for t in threading.enumerate()]
            assert "repro-offchip-dma" not in names
            assert threading.active_count() == before, names
            del px
        assert threading.active_count() == before


class TestLinkDeadlines:
    """Prefetch jobs copy at their ENQUEUE row and are delivered by
    FIFO link deadline; each assertion is a bound that holds however
    the host schedules the run."""

    #: slow enough that link time dwarfs the host copies
    LINK = OffchipLink(bandwidth_bytes_per_s=64e6)

    def test_link_is_never_faster_than_modeled(self, cell, monkeypatch):
        """Every wait for job k returns no sooner than the link seconds
        of jobs 1..k after job 1 started copying, and a run hides its
        link seconds less the modeled part of its waits."""
        px = _executor(cell, prefetch=True, link=self.LINK, mode="tiled")
        steps = px._run_plans[1].steps
        # tile pieces are all prefetch jobs: every sleep_until call is
        # a SYNC row's wait or the end-of-run drain
        assert _STEP_MOVE not in {row[0] for row in steps}
        per_job = _prefetch_link_s(px, self.LINK)
        waited = [row[5] for row in steps if row[0] == _STEP_SYNC]
        waited.append(len(per_job))
        assert len(per_job) > 100 and len(waited) > 10
        first_hops = next(row[5] for row in steps if row[0] == _STEP_ENQUEUE)

        copy_hops, sleep_until = plan_executor._copy_hops, plan_executor.sleep_until
        started: list[float] = []
        returned: list[float] = []
        modeled: list[float] = []

        def timed_copy(hops, link):
            if hops is first_hops:
                started.append(time.perf_counter())
            return copy_hops(hops, link)

        def timed_sleep(due):
            out = sleep_until(due)
            returned.append(time.perf_counter())
            modeled.append(out)
            return out

        monkeypatch.setattr(plan_executor, "_copy_hops", timed_copy)
        monkeypatch.setattr(plan_executor, "sleep_until", timed_sleep)
        feeds = random_feeds(cell["graph"], seed=0)
        for run in range(3):
            px.run(feeds)
            this_run = slice(run * len(waited), (run + 1) * len(waited))
            assert px.last_stats.spill_hidden_s == pytest.approx(
                sum(per_job) - sum(modeled[this_run]), abs=1e-9
            )
            t0 = started[run]
            ends = returned[this_run]
            early = [
                k
                for k, end in zip(waited, ends)
                if end - t0 < sum(per_job[:k])
            ]
            assert not early, f"jobs {early} beat the modeled link"
        assert len(returned) == 3 * len(waited)

    def test_one_wait_sleeps_at_most_once(self, cell, monkeypatch):
        """A run sleeps at most once per wait: per SYNC row, per run of
        inline moves and for the end-of-run drain."""
        px = _executor(cell, prefetch=True, link=self.LINK)
        kinds = [row[0] for row in px._run_plans[1].steps]
        assert _STEP_MOVE in kinds and _STEP_SYNC in kinds
        move_runs = sum(
            k == _STEP_MOVE and prev != _STEP_MOVE
            for prev, k in zip([None, *kinds], kinds)
        )
        waits = kinds.count(_STEP_SYNC) + move_runs + 1
        sleeps = []
        real_sleep = time.sleep

        def counting_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", counting_sleep)
        px.run(random_feeds(cell["graph"], seed=0))
        assert 0 < len(sleeps) <= waits

    def test_no_deadline_outlives_its_run(self, cell, monkeypatch):
        """Each run returns only once its last prefetch job is
        delivered — no sooner than the link seconds of all its jobs
        after the first one started copying — so no deadline is left
        for the next run to pay."""
        px = _executor(cell, prefetch=True, link=self.LINK, mode="tiled")
        owed = sum(_prefetch_link_s(px, self.LINK))
        copy_hops = plan_executor._copy_hops
        copies: list[float] = []

        def timed_copy(hops, link):
            copies.append(time.perf_counter())
            return copy_hops(hops, link)

        monkeypatch.setattr(plan_executor, "_copy_hops", timed_copy)
        feeds = random_feeds(cell["graph"], seed=0)
        for _ in range(5):
            copies.clear()
            px.run(feeds)
            assert time.perf_counter() - copies[0] >= owed
            assert px.last_stats.spill_hidden_s <= owed

    @pytest.mark.parametrize("mode", ["spill", "tiled"])
    def test_failed_hop_raises_from_run(self, cell, mode):
        """A hop that cannot copy raises from its own row, out of
        ``run``; the executor's next run is bitwise the reference."""
        px = _executor(cell, prefetch=True, mode=mode)
        good = px._run_plans[1]
        jobs = [i for i, row in enumerate(good.steps) if row[0] == _STEP_ENQUEUE]
        at = jobs[len(jobs) // 2]
        # a 3-element destination cannot take 4 elements
        bad_hop = ((np.empty((1, 3)), np.ones((1, 4)), True),)
        steps = list(good.steps)
        steps[at] = steps[at][:5] + (bad_hop,) + steps[at][6:]
        px._run_plans[1] = dataclasses.replace(good, steps=tuple(steps))
        feeds = random_feeds(cell["graph"], seed=4)
        with pytest.raises(ValueError, match="broadcast"):
            px.run(feeds)
        px._run_plans[1] = good
        got = px.run(feeds)
        want = Executor(cell["graph"], params=cell["params"]).run(feeds)
        for name, value in want.items():
            np.testing.assert_array_equal(value, got[name])
