"""Prefetching executor: overlap semantics, parity, and lifecycle.

The spill parity matrix in ``test_spill_executor.py`` already runs with
prefetch on by default; this file pins what prefetch *adds* — inline
and overlapped runs stay bitwise-identical, stall-vs-hidden time is
accounted sanely under a modeled link, the background transfer
engine pays that link by deadline (never faster than modeled, one sleep
per wait, no bookkeeping left behind) and shuts down cleanly.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.allocator.arena import plan_allocation
from repro.allocator.spill import min_capacity_bytes, plan_spill
from repro.exceptions import ExecutionError
from repro.memsim import OffchipLink
from repro.models.suite import get_cell
from repro.runtime.executor import init_params, random_feeds
from repro.runtime.plan_executor import PlanExecutor, _TransferEngine
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


def _executor(
    cell, *, prefetch: bool, link=None, batch_size: int = 1, spill=None
):
    return PlanExecutor(
        cell["graph"],
        cell["schedule"],
        cell["plan"],
        params=cell["params"],
        batch_size=batch_size,
        spill=spill if spill is not None else cell["spill"],
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


#: one link-timed hop of this many bytes per engine job
JOB_BYTES = 8192


def _job(nbytes: int = JOB_BYTES):
    src = np.ones(nbytes // 4, dtype=np.float32)
    return ((np.empty_like(src), src, True),)


def _finish(fns, timeout_s: float = 10.0) -> list:
    """Run each of ``fns`` on its own thread, all at once; assert every
    one returns in time and hand back each one's exception (``None``
    when it returned) — a hang fails, never blocks."""
    errors: list = [None] * len(fns)

    def body(i):
        try:
            fns[i]()
        except BaseException as exc:  # re-raised by the caller's asserts
            errors[i] = exc

    threads = [
        threading.Thread(target=body, args=(i,), daemon=True)
        for i in range(len(fns))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout_s)
        assert not t.is_alive(), f"a call did not return in {timeout_s} s"
    return errors


class TestTransferEngine:
    """The engine pays the modeled link by FIFO deadline: each
    assertion holds under any thread scheduling."""

    #: slow enough that link time dwarfs the host copies (128 us/job)
    LINK = OffchipLink(bandwidth_bytes_per_s=64e6)
    JOBS = 32

    def test_link_is_never_faster_than_modeled(self):
        """Job k is never waited out sooner than k jobs' link time
        after the first submit — checked on four engines at once
        (eight threads) under a short switch interval."""
        per_job = self.LINK.transfer_s(JOB_BYTES)

        def drive():
            engine = _TransferEngine(self.LINK)
            try:
                t0 = time.perf_counter()
                for _ in range(self.JOBS):
                    engine.submit_hops(_job())
                early = []
                for k in [*range(1, self.JOBS, 3), self.JOBS]:
                    engine.wait(k)
                    if time.perf_counter() - t0 < k * per_job:
                        early.append(k)
            finally:
                engine.close()
            assert not early, f"jobs {early} beat the modeled link"
            assert engine.busy_s >= self.JOBS * per_job
            assert engine.completed == self.JOBS and not engine._due

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = _finish([drive] * 4)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [None] * 4, errors

    def test_one_wait_sleeps_at_most_once(self, monkeypatch):
        sleeps = []
        real_sleep = time.sleep

        def counting_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", counting_sleep)
        engine = _TransferEngine(self.LINK)
        try:
            for _ in range(self.JOBS):
                engine.submit_hops(_job())
            assert _finish([lambda: engine.wait(self.JOBS)]) == [None]
        finally:
            engine.close()
        assert len(sleeps) <= 1

    def test_failed_hop_surfaces_at_the_next_wait(self):
        engine = _TransferEngine(self.LINK)
        try:
            engine.submit_hops(_job())
            # a 3-element destination cannot take 4 elements: raises
            engine.submit_hops(
                ((np.empty(3, np.float32), np.ones(4, np.float32), True),)
            )
            [exc] = _finish([lambda: engine.wait(2)])
            assert isinstance(exc, ExecutionError)
            assert _finish([engine.quiesce]) == [None]
            with pytest.raises(ExecutionError):
                engine.submit_hops(_job())
        finally:
            engine.close()

    def test_no_deadline_outlives_its_run(self, cell):
        tile_floor = min_capacity_bytes(
            cell["graph"], cell["schedule"], tile_bytes=JOB_BYTES
        )
        tiled = plan_spill(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            max(tile_floor * 2, cell["plan"].arena_bytes // 4),
            tile_bytes=JOB_BYTES,
        )
        assert tiled.prefetch is not None and tiled.tile_bytes == JOB_BYTES
        px = _executor(
            cell,
            prefetch=True,
            link=OffchipLink(bandwidth_bytes_per_s=10e9),
            spill=tiled,
        )
        try:
            assert px.prefetch_active
            feeds = random_feeds(cell["graph"], seed=0)
            for _ in range(100):
                px.run(feeds)
            engine = px._engine
            assert engine.enqueued == engine.completed > 100
            assert not engine._due
        finally:
            px.close()
