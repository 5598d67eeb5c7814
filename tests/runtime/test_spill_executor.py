"""Tiered-arena executor: bitwise parity under every spill configuration.

The ISSUE-5 acceptance matrix: every ``models.suite`` cell at on-chip
capacities {50%, 75%, 100%} of the planned peak (clamped to the
schedule's irreducible staging floor), batch N in {1, 8}, scrub in
{never, zero} — outputs bitwise-equal to the reference executor, twice
per configuration so the second run replays over stale arena *and*
stale spill-region bytes. Traffic accounting is asserted alongside:
zero at full capacity, positive when buffers spill, and exactly
``N x`` per-sample under batching (every row moves its own bytes).
"""

import numpy as np
import pytest

from repro.allocator.arena import plan_allocation
from repro.allocator.spill import min_capacity_bytes, plan_spill
from repro.models.suite import suite_cells
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.runtime.plan_executor import PlanExecutor
from repro.scheduler.registry import run_strategy

CAPACITY_FRACTIONS = (0.5, 0.75, 1.0)
BATCH_WIDTHS = (1, 8)
SCRUBS = ("never", "zero")


@pytest.fixture(scope="module")
def spill_suite():
    """One greedy compilation + spill plans + reference outputs per
    cell, shared across the whole (capacity, batch, scrub) matrix."""
    cache: dict = {}

    def get(key: str):
        if key not in cache:
            spec = next(c for c in suite_cells() if c.key == key)
            out = run_strategy("greedy", spec.factory())
            graph = out.scheduled_graph
            plan = plan_allocation(graph, out.schedule)
            params = init_params(graph, seed=0)
            cache[key] = {
                "graph": graph,
                "schedule": out.schedule,
                "plan": plan,
                "params": params,
                "floor": min_capacity_bytes(graph, out.schedule),
                "ref": Executor(graph, params=params),
                "spills": {},  # capacity fraction -> SpillPlan
                "want": {},  # n -> (feeds, stacked, per-sample refs)
            }
        return cache[key]

    return get


def _capacity(cell, frac: float) -> int:
    """The tested capacity: frac x planned peak, clamped to the
    irreducible floor (whole-buffer staging cannot go below the
    largest single-step working set)."""
    return max(int(cell["plan"].arena_bytes * frac), cell["floor"])


def _spill_plan(cell, frac: float):
    if frac not in cell["spills"]:
        cell["spills"][frac] = plan_spill(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            _capacity(cell, frac),
        )
    return cell["spills"][frac]


def _references(cell, n: int):
    if n not in cell["want"]:
        graph = cell["graph"]
        feeds = [random_feeds(graph, seed=i) for i in range(n)]
        stacked = {k: np.stack([f[k] for f in feeds]) for k in feeds[0]}
        cell["want"][n] = (feeds, stacked, [cell["ref"].run(f) for f in feeds])
    return cell["want"][n]


class TestSpillParityMatrix:
    """Every cell x capacity x batch x scrub: bitwise, twice."""

    @pytest.mark.parametrize("scrub", SCRUBS)
    @pytest.mark.parametrize("n", BATCH_WIDTHS)
    @pytest.mark.parametrize("frac", CAPACITY_FRACTIONS)
    @pytest.mark.parametrize("key", [c.key for c in suite_cells()])
    def test_cell_spilled_parity(self, spill_suite, key, frac, n, scrub):
        cell = spill_suite(key)
        spill = _spill_plan(cell, frac)
        feeds, stacked, want = _references(cell, n)
        px = PlanExecutor(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            params=cell["params"],
            batch_size=n,
            scrub=scrub,
            spill=spill,
        )
        for _round in range(2):
            got = (
                px.run(feeds[0]) if n == 1 else px.run_batch(stacked)
            )
            for b in range(n):
                for name in want[b]:
                    sample = got[name] if n == 1 else got[name][b]
                    np.testing.assert_array_equal(want[b][name], sample)
        stats = px.last_stats
        assert stats.traffic.capacity_bytes == spill.capacity_bytes
        assert stats.measured_peak_bytes <= spill.capacity_bytes
        if spill.is_trivial:
            assert stats.spill_bytes_total == 0
            assert stats.spill_fetches == 0
        else:
            assert stats.spill_bytes_total > 0
            # every batched row moves its own bytes: exactly N x solo
            assert stats.spill_bytes_total % n == 0
            assert stats.spilled_buffers == len(spill.spilled)


TILE_BYTES = 8192


def _tiled_capacity(cell) -> int | None:
    """A capacity strictly below the whole-buffer floor that tiled
    staging can plan (the tile floor itself can be defeated by
    allocator fragmentation; 2x floor clamped below the whole floor
    always plans). ``None`` when the cell has no tile headroom."""
    tile_floor = min_capacity_bytes(
        cell["graph"], cell["schedule"], tile_bytes=TILE_BYTES
    )
    cap = max(tile_floor, min(cell["floor"] - 1, tile_floor * 2))
    return cap if cap < cell["floor"] else None


def _tiled_plan(cell, lead: int):
    key = ("tiled", lead)
    if key not in cell["spills"]:
        cap = _tiled_capacity(cell)
        if cap is None:
            cell["spills"][key] = None
        else:
            cell["spills"][key] = plan_spill(
                cell["graph"],
                cell["schedule"],
                cell["plan"],
                cap,
                prefetch_lead=lead,
                tile_bytes=TILE_BYTES,
            )
    return cell["spills"][key]


class TestTiledParityMatrix:
    """Tile streaming below the whole-buffer floor: every suite cell,
    prefetch on and off — capacities whole-buffer staging *refuses*
    must run bitwise-equal, twice per configuration."""

    @pytest.mark.parametrize("lead", [0, 8])
    @pytest.mark.parametrize("key", [c.key for c in suite_cells()])
    def test_cell_tiled_below_floor_parity(self, spill_suite, key, lead):
        cell = spill_suite(key)
        spill = _tiled_plan(cell, lead)
        if spill is None:
            pytest.skip(f"{key}: no tile headroom below the whole floor")
        # the defining property: whole-buffer staging cannot plan here
        from repro.exceptions import SpillError

        with pytest.raises(SpillError):
            plan_spill(
                cell["graph"],
                cell["schedule"],
                cell["plan"],
                spill.capacity_bytes,
            )
        feeds, _, want = _references(cell, 1)
        px = PlanExecutor(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            params=cell["params"],
            spill=spill,
        )
        for _round in range(2):
            got = px.run(feeds[0])
            for name in want[0]:
                np.testing.assert_array_equal(want[0][name], got[name])
        stats = px.last_stats
        assert stats.traffic.tile_bytes == TILE_BYTES
        assert stats.spill_bytes_total > 0
        assert stats.measured_peak_bytes <= spill.capacity_bytes
        if lead:
            assert spill.prefetch is not None

    @pytest.mark.parametrize("scrub", SCRUBS)
    @pytest.mark.parametrize("n", BATCH_WIDTHS)
    @pytest.mark.parametrize("key", ["randwire-c10-b", "randwire-c100-c"])
    def test_tiled_batch_scrub_matrix(self, spill_suite, key, n, scrub):
        cell = spill_suite(key)
        spill = _tiled_plan(cell, 8)
        if spill is None:
            pytest.skip(f"{key}: no tile headroom below the whole floor")
        feeds, stacked, want = _references(cell, n)
        px = PlanExecutor(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            params=cell["params"],
            batch_size=n,
            scrub=scrub,
            spill=spill,
        )
        for _round in range(2):
            got = px.run(feeds[0]) if n == 1 else px.run_batch(stacked)
            for b in range(n):
                for name in want[b]:
                    sample = got[name] if n == 1 else got[name][b]
                    np.testing.assert_array_equal(want[b][name], sample)
        stats = px.last_stats
        assert stats.traffic.tile_bytes == TILE_BYTES
        assert stats.spill_bytes_total > 0
        assert stats.spill_bytes_total % n == 0

    def test_tiled_moves_no_more_than_whole_at_equal_capacity(
        self, spill_suite
    ):
        """Range-clipped tile pieces never move more bytes than
        whole-buffer staging at the same capacity."""
        cell = spill_suite("randwire-c100-c")
        cap = _capacity(cell, 0.5)
        whole = plan_spill(
            cell["graph"], cell["schedule"], cell["plan"], cap
        )
        tiled = plan_spill(
            cell["graph"],
            cell["schedule"],
            cell["plan"],
            cap,
            tile_bytes=TILE_BYTES,
        )
        assert not whole.is_trivial
        feeds, _, _ = _references(cell, 1)
        moved = {}
        for label, sp in (("whole", whole), ("tiled", tiled)):
            px = PlanExecutor(
                cell["graph"], cell["schedule"], cell["plan"],
                params=cell["params"], spill=sp,
            )
            px.run(feeds[0])
            moved[label] = px.last_stats.spill_bytes_total
        assert moved["tiled"] <= moved["whole"]

    def test_traffic_report_carries_tile_bytes(self, spill_suite):
        cell = spill_suite("randwire-c10-b")
        spill = _tiled_plan(cell, 0)
        if spill is None:
            pytest.skip("no tile headroom below the whole floor")
        px = PlanExecutor(
            cell["graph"], cell["schedule"], cell["plan"],
            params=cell["params"], spill=spill,
        )
        feeds, _, _ = _references(cell, 1)
        px.run(feeds[0])
        report = px.last_stats.traffic
        assert report.tile_bytes == TILE_BYTES
        assert report.total_bytes == px.last_stats.spill_bytes_total


def _transfer_jobs(px: PlanExecutor, plan):
    """Every transfer row of a compiled table as ``(kernel rows before
    it, direction, buffer, piece byte range)`` — read back from the
    row's own views, whichever thread runs it."""
    from repro.analysis.shadow import byte_bounds
    from repro.runtime.plan_executor import (
        _STEP_ENQUEUE,
        _STEP_MOVE,
        _STEP_SYNC,
    )

    home_lo, home_hi = byte_bounds(px._spill_arena)
    cell_bytes = px._spill_arena.itemsize
    jobs = []
    kernels = 0
    for kind, name, _site, _fn, _args, attrs, *_rest in plan.steps:
        if kind == _STEP_SYNC:
            continue
        if kind not in (_STEP_MOVE, _STEP_ENQUEUE):
            kernels += 1
            continue
        direction, _, buf = name.strip("<>").partition(":b")
        b = int(buf)
        # the one hop that crosses the link touches the home bytes
        (dst, src), = [(d, s) for d, s, linked in attrs if linked]
        home = src if direction == "fetch" else dst
        lo, _hi = byte_bounds(home)
        assert home_lo <= lo < home_hi, name
        elem = (lo - home_lo) // cell_bytes - px._home_elem[b]
        piece = (
            elem * px._itemsize,
            (elem + home.shape[1]) * px._itemsize,
        )
        assert len(attrs) == (2 if px._tile_bytes is not None else 1)
        jobs.append((kernels, direction, b, piece))
    return jobs


class TestOnePlacement:
    """A transfer is placed once. Without prefetch every lead is zero,
    so the placement puts each fetch right before the kernel row that
    first touches its window and each writeback right after the one
    that last touches it — positions derived here from the spill
    plan's windows and the planner's touch model, not from the
    executor — and both modes move the same pieces."""

    @pytest.mark.parametrize("mode", ["whole", "tiled"])
    @pytest.mark.parametrize("key", [c.key for c in suite_cells()])
    def test_inline_table_is_the_zero_lead_placement(
        self, spill_suite, key, mode
    ):
        from collections import Counter

        from repro.allocator.spill import step_touches
        from repro.runtime.plan_executor import (
            _STEP_COPY,
            _STEP_DIRECT,
            _STEP_INPUT,
            _STEP_MOVE,
        )
        from repro.scheduler.memory import BufferModel

        cell = spill_suite(key)
        spill = (
            _spill_plan(cell, 0.5) if mode == "whole" else _tiled_plan(cell, 8)
        )
        if spill is None or spill.is_trivial:
            pytest.skip(f"{key}: nothing spills in {mode} mode")
        touches = step_touches(
            cell["graph"], cell["schedule"], BufferModel.of(cell["graph"])
        )

        def touched_steps(b: int, step: int) -> list[int]:
            """Steps touching ``b`` inside its window covering ``step``."""
            (w,) = [w for w in spill.windows[b] if w.start <= step < w.end]
            return [s for s in range(w.start, w.end) if b in touches[s]]

        tables = {}
        for prefetch in (False, True):
            px = PlanExecutor(
                cell["graph"], cell["schedule"], cell["plan"],
                params=cell["params"], spill=spill, prefetch=prefetch,
            )
            try:
                plan = px._run_plans[1]
                tables[prefetch] = (plan, _transfer_jobs(px, plan))
                assert px.prefetch_active == (
                    prefetch and spill.prefetch is not None
                )
            finally:
                px.close()

        plan, jobs = tables[False]
        assert {row[0] for row in plan.steps} <= {
            _STEP_INPUT, _STEP_DIRECT, _STEP_COPY, _STEP_MOVE
        }
        assert len(jobs) == plan.spill_fetches + plan.spill_writebacks > 0
        for before, direction, b, _piece in jobs:
            if direction == "fetch":
                # between kernel row before-1 and the window's first touch
                assert before == touched_steps(b, before)[0]
            else:
                assert direction == "writeback"
                assert before - 1 == touched_steps(b, before - 1)[-1]

        # same pieces either way: (direction, buffer, byte range)
        _, engine_jobs = tables[True]
        assert Counter(j[1:] for j in jobs) == Counter(
            j[1:] for j in engine_jobs
        )


class TestStaticWindows:
    """Every run replays the whole schedule, so a window is always
    entered at its start step and left at its last: the transfers are
    read off the spill plan's windows alone and are the same at every
    batch width — per-sample traffic is a constant of the plan."""

    @pytest.mark.parametrize("key", [c.key for c in suite_cells()])
    def test_traffic_is_a_constant_of_the_plan(self, spill_suite, key):
        cell = spill_suite(key)
        spill = _spill_plan(cell, 0.5)
        assert not spill.is_trivial
        pos = {name: i for i, name in enumerate(cell["schedule"])}
        # a buffer's first window opens where it is produced; every
        # later one is fetched once, at its start
        fetched = {
            (b, w.start) for b in spill.spilled for w in spill.windows[b][1:]
        }
        # only a window with a successor can need a writeback
        leavable = {
            (b, w.end - 1) for b in spill.spilled for w in spill.windows[b][:-1]
        }
        _, stacked, _ = _references(cell, 3)
        px = PlanExecutor(
            cell["graph"], cell["schedule"], cell["plan"],
            params=cell["params"], batch_size=3, spill=spill, prefetch=False,
        )
        try:
            transfers = {}
            for n in (1, 2, 3):
                px.run_batch({k: v[:n] for k, v in stacked.items()}, batch=n)
                plan = px._run_plans[n]
                names = [row[1] for row in plan.steps]
                fetches, writebacks = [], []
                for i, name in enumerate(names):
                    if name.startswith("<fetch:b"):
                        after = next(m for m in names[i:] if m in pos)
                        fetches.append((int(name[8:-1]), pos[after]))
                    elif name.startswith("<writeback:b"):
                        before = next(m for m in reversed(names[:i]) if m in pos)
                        writebacks.append((int(name[12:-1]), pos[before]))
                assert sorted(fetches) == sorted(fetched)
                assert set(writebacks) <= leavable
                assert len(writebacks) == len(set(writebacks))
                assert plan.spill_fetches == len(fetches)
                assert plan.spill_writebacks == len(writebacks)
                transfers[n] = (
                    [m for m in names if m not in pos],
                    plan.spill_bytes_in,
                    plan.spill_bytes_out,
                    plan.spill_accesses,
                )
                assert px.last_stats.spill_bytes_total == n * (
                    plan.spill_bytes_in + plan.spill_bytes_out
                )
            assert transfers[1] == transfers[2] == transfers[3]
        finally:
            px.close()


class TestSpillSemantics:
    def test_batched_traffic_is_n_times_solo(self, spill_suite):
        cell = spill_suite("randwire-c100-c")
        spill = _spill_plan(cell, 0.5)
        assert not spill.is_trivial
        solo = PlanExecutor(
            cell["graph"], cell["schedule"], cell["plan"],
            params=cell["params"], spill=spill,
        )
        feeds, stacked, _ = _references(cell, 8)
        solo.run(feeds[0])
        per_sample = solo.last_stats.spill_bytes_total
        batched = PlanExecutor(
            cell["graph"], cell["schedule"], cell["plan"],
            params=cell["params"], batch_size=8, spill=spill,
        )
        batched.run_batch(stacked)
        assert batched.last_stats.spill_bytes_total == 8 * per_sample

    def test_traffic_report_units(self, spill_suite):
        cell = spill_suite("randwire-c10-b")
        spill = _spill_plan(cell, 0.5)
        px = PlanExecutor(
            cell["graph"], cell["schedule"], cell["plan"],
            params=cell["params"], spill=spill,
        )
        feeds, _, _ = _references(cell, 1)
        px.run(feeds[0])
        stats = px.last_stats
        report = stats.traffic
        assert report.capacity_bytes == spill.capacity_bytes
        assert report.policy == spill.policy
        assert report.bytes_in > 0 and report.bytes_out > 0
        assert report.bypass_bytes == 0 and report.accesses > 0
        assert report.total_bytes == stats.spill_bytes_total
        assert report.fetches == stats.spill_fetches
        assert report.writebacks == stats.spill_writebacks
        assert not report.eliminated

    def test_unspilled_traffic_report_is_zero(self, spill_suite):
        cell = spill_suite("randwire-c10-b")
        px = PlanExecutor(
            cell["graph"], cell["schedule"], cell["plan"],
            params=cell["params"],
        )
        feeds, _, _ = _references(cell, 1)
        px.run(feeds[0])
        report = px.last_stats.traffic
        assert report.eliminated
        assert report.policy == "resident"
        assert report.capacity_bytes == cell["plan"].arena_bytes

    def test_aliased_home_slots_rejected(self, spill_suite):
        """A corrupt plan whose home slots overlap must fail at
        construction, not corrupt data at run time: the executor asks
        the verifier's spill checker, which names the invariant."""
        from dataclasses import replace

        from repro.exceptions import SpillError

        cell = spill_suite("randwire-c10-b")
        spill = _spill_plan(cell, 0.5)
        assert len(spill.spilled) >= 2
        homes = dict(spill.home_offsets)
        a, b = sorted(spill.spilled)[:2]
        homes[b] = homes[a]  # alias two buffers onto one home slot
        corrupt = replace(spill, home_offsets=homes)
        with pytest.raises(SpillError, match="SPILL_HOME_OVERLAP"):
            PlanExecutor(
                cell["graph"], cell["schedule"], cell["plan"],
                params=cell["params"], spill=corrupt,
            )

    def test_interleaved_solo_and_batched_spilled(self, spill_suite):
        """Solo runs on row 0 interleave with batched runs over the
        same spilled arena without corrupting either."""
        cell = spill_suite("randwire-c100-c")
        spill = _spill_plan(cell, 0.75)
        px = PlanExecutor(
            cell["graph"], cell["schedule"], cell["plan"],
            params=cell["params"], batch_size=4, spill=spill,
        )
        feeds, _, want1 = _references(cell, 1)
        feeds4, stacked4, want4 = _references(cell, 4)
        for _ in range(2):
            got = px.run(feeds[0])
            for k in want1[0]:
                np.testing.assert_array_equal(want1[0][k], got[k])
            gotb = px.run_batch(stacked4)
            for b in range(4):
                for k in want4[b]:
                    np.testing.assert_array_equal(want4[b][k], gotb[k][b])
