"""Runtime byte-bounds shadow checker over compiled executor tables."""

from functools import lru_cache

import pytest

from repro.compiler.pipeline import CompilationPipeline
from repro.models.suite import get_cell


@pytest.fixture(scope="module")
def compiled():
    return CompilationPipeline("greedy").compile(
        get_cell("swiftnet-c").factory()
    )


def _spill_capacity(model):
    return max(model.spill_floor_bytes, model.plan.arena_bytes // 2)


class TestCleanExecutors:
    def test_plain(self, compiled):
        report = compiled.executor(seed=0).shadow_check()
        assert report.ok and len(report) == 0, report.summary()
        assert report.checks == ("shadow@batch1",)

    def test_batched(self, compiled):
        report = compiled.executor(seed=0, batch_size=4).shadow_check()
        assert report.ok and len(report) == 0, report.summary()
        assert "shadow@batch4" in report.checks

    def test_spill_inline(self, compiled):
        px = compiled.executor(
            seed=0, capacity_bytes=_spill_capacity(compiled), prefetch=False
        )
        report = px.shadow_check()
        assert report.ok and len(report) == 0, report.summary()

    def test_spill_prefetch(self, compiled):
        px = compiled.executor(
            seed=0, capacity_bytes=_spill_capacity(compiled), prefetch=True
        )
        report = px.shadow_check()
        assert report.ok and len(report) == 0, report.summary()

    def test_spill_prefetch_batched(self, compiled):
        px = compiled.executor(
            seed=0,
            batch_size=4,
            capacity_bytes=_spill_capacity(compiled),
            prefetch=True,
        )
        report = px.shadow_check()
        assert report.ok and len(report) == 0, report.summary()

    def test_tiled_below_whole_floor(self, compiled):
        """The shadow replay covers tile-granularity transfer rows —
        at a capacity whole-buffer staging cannot even plan."""
        whole = compiled.spill_floor_bytes
        tile_floor = compiled.spill_floor_for(8192)
        cap = max(tile_floor, min(whole - 1, tile_floor * 2))
        if cap >= whole:
            pytest.skip("no tile headroom below the whole floor")
        px = compiled.executor(
            seed=0, capacity_bytes=cap, tile_bytes=8192, prefetch=False
        )
        report = px.shadow_check()
        assert report.ok and len(report) == 0, report.summary()

    def test_tiled_prefetch_batched(self, compiled):
        px = compiled.executor(
            seed=0,
            batch_size=4,
            capacity_bytes=_spill_capacity(compiled),
            tile_bytes=8192,
            prefetch=True,
        )
        report = px.shadow_check()
        assert report.ok and len(report) == 0, report.summary()

    def test_width_first_run_later_is_walked(self, compiled):
        """A width compiled on its first run is a table like the two
        built at construction: the replay walks it too."""
        import numpy as np

        from repro.runtime import random_feeds

        px = compiled.executor(seed=0, batch_size=4)
        feeds = random_feeds(compiled.graph, seed=0)
        px.run_batch({k: np.stack([v, v]) for k, v in feeds.items()}, batch=2)
        report = px.shadow_check()
        assert report.ok and len(report) == 0, report.summary()
        assert report.checks == (
            "shadow@batch1", "shadow@batch2", "shadow@batch4"
        )

    def test_outputs_unaffected_by_checking(self, compiled):
        import numpy as np

        px = compiled.executor(seed=0)
        feeds = {
            n: np.zeros(compiled.graph.node(n).output.shape)
            for n in compiled.graph.node_names
            if not compiled.graph.node(n).inputs
            and compiled.graph.node(n).op == "input"
        }
        before = px.run(feeds)
        px.shadow_check()
        after = px.run(feeds)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])


def _understate_arena(px, arena_bytes):
    """Declare a smaller arena on the executor's own copy of its plan
    (the module's compiled model stays intact for later tests)."""
    from dataclasses import replace

    px.plan = replace(px.plan, arena_bytes=arena_bytes)


class TestSeededCorruption:
    def test_understated_region_is_flagged(self, compiled):
        px = compiled.executor(seed=0)
        # shrink the declared arena budget under the executor's real
        # bindings: every view past the new byte line must turn OOB
        _understate_arena(px, px.plan.arena_bytes // 2)
        report = px.shadow_check()
        assert not report.ok
        assert "SHADOW_OOB" in report.codes()

    def test_diagnostics_name_real_sites(self, compiled):
        px = compiled.executor(seed=0)
        _understate_arena(px, 1)
        report = px.shadow_check()
        found = report.by_code("SHADOW_OOB")
        assert found and all(d.node is not None for d in found)
        assert all(d.byte_range is not None for d in found)


def _tiled_capacity(model):
    whole = model.spill_floor_bytes
    tile_floor = model.spill_floor_for(8192)
    return max(tile_floor, min(whole - 1, tile_floor * 2))


def _with_row(px, index, row, n=1):
    """Swap one row of the width-``n`` table for a tampered one."""
    from dataclasses import replace

    plan = px._run_plans[n]
    rows = list(plan.steps)
    rows[index] = row
    px._run_plans[n] = replace(plan, steps=tuple(rows))


class TestTransferRows:
    """Transfers are hop lists; the walker models the row kinds that
    carry them (move, enqueue, sync) and nothing else."""

    def test_tampered_inline_move_reads_unwritten_slot(self, compiled):
        from repro.runtime.plan_executor import _STEP_MOVE

        px = compiled.executor(
            seed=0, capacity_bytes=_tiled_capacity(compiled),
            tile_bytes=8192, prefetch=False,
        )
        steps = px._run_plans[1].steps
        # the table's first transfer is a writeback through a tile slot
        # nothing has filled yet: scratch -> slot, then slot -> home
        index = next(i for i, r in enumerate(steps) if r[0] == _STEP_MOVE)
        row = steps[index]
        (slot, scr, on_chip), to_home = row[5]
        assert row[1].startswith("<writeback:") and not on_chip
        # swap slot and scratch in the on-chip hop: the move now reads
        # the empty slot, and the linked hop ships those bytes home
        _with_row(px, index, row[:5] + (((scr, slot, False), to_home),) + row[6:])
        report = px.shadow_check()
        found = report.by_code("SHADOW_UNWRITTEN_READ")
        assert found and all(d.node == row[1] for d in found)
        assert all(d.step == index for d in found)

    def test_tampered_enqueued_hop_races_the_next_kernel(self, compiled):
        from repro.runtime.plan_executor import (
            _STEP_COPY,
            _STEP_DIRECT,
            _STEP_ENQUEUE,
        )

        px = compiled.executor(
            seed=0, capacity_bytes=_tiled_capacity(compiled),
            tile_bytes=8192, prefetch=True,
        )
        try:
            steps = px._run_plans[1].steps
            index = next(
                i
                for i, r in enumerate(steps[:-1])
                if r[0] == _STEP_ENQUEUE
                and steps[i + 1][0] in (_STEP_DIRECT, _STEP_COPY)
            )
            row, kernel = steps[index], steps[index + 1]
            # retarget the job's last hop at the site the very next
            # kernel writes, with no sync in between
            *head, (_dst, src, linked) = row[5]
            hops = tuple(head) + ((kernel[2], src, linked),)
            _with_row(px, index, row[:5] + (hops,) + row[6:])
            report = px.shadow_check()
            races = report.by_code("SHADOW_RACE")
            assert races and races[0].node == kernel[1]
            assert races[0].step == index + 1
        finally:
            px.close()

    def test_every_spill_table_kind_is_modelled(self, compiled):
        from repro.runtime import plan_executor as pe

        modelled = {
            pe._STEP_INPUT, pe._STEP_DIRECT, pe._STEP_COPY,
            pe._STEP_MOVE, pe._STEP_ENQUEUE, pe._STEP_SYNC,
        }
        seen = set()
        for tile_bytes, cap in (
            (None, _spill_capacity(compiled)),
            (8192, _tiled_capacity(compiled)),
        ):
            for prefetch in (False, True):
                px = compiled.executor(
                    seed=0, batch_size=4, capacity_bytes=cap,
                    tile_bytes=tile_bytes, prefetch=prefetch,
                )
                try:
                    for plan in px._run_plans.values():
                        seen |= {r[0] for r in plan.steps}
                    report = px.shadow_check()
                    assert report.ok and len(report) == 0, report.summary()
                finally:
                    px.close()
        assert seen <= modelled
        assert {pe._STEP_MOVE, pe._STEP_ENQUEUE, pe._STEP_SYNC} <= seen

    def test_unknown_kind_is_reported_not_skipped(self, compiled):
        px = compiled.executor(seed=0)
        row = px._run_plans[1].steps[-1]
        _with_row(px, len(px._run_plans[1].steps) - 1, (99,) + row[1:])
        report = px.shadow_check()
        assert any(
            "unknown step kind 99" in d.message
            for d in report.by_code("SHADOW_REGION")
        )

    def test_tampered_width_first_run_later_is_reported(self, compiled):
        """Only the width-3 table, compiled by its first run, is
        tampered: the diagnostic can come from nowhere else."""
        import numpy as np

        from repro.runtime import random_feeds

        px = compiled.executor(seed=0, batch_size=4)
        feeds = random_feeds(compiled.graph, seed=0)
        px.run_batch({k: np.stack([v] * 3) for k, v in feeds.items()}, batch=3)
        assert px.shadow_check().ok
        steps = px._run_plans[3].steps
        _with_row(px, len(steps) - 1, (99,) + steps[-1][1:], n=3)
        report = px.shadow_check()
        assert any(
            "unknown step kind 99" in d.message
            for d in report.by_code("SHADOW_REGION")
        )


#: whole-buffer configurations (cell, strategy, capacity, prefetch,
#: off-chip bytes per run before the fix) whose writeback of a partially
#: produced buffer shipped never-written slot bytes home, and whose next
#: fetch copied them back: staging now applies the tile rule with the
#: whole buffer as its one span, moving only produced / homed bytes
_PARTIAL_WRITEBACKS = [
    ("darts-normal", "serenity", 903168, False, 5870592),
    ("darts-normal", "serenity", 1016064, False, 5870592),
    ("swiftnet-a", "greedy", 197568, False, 1317120),
    ("swiftnet-a", "greedy", 197568, True, 1317120),
    ("swiftnet-a", "greedy", 223440, False, 1317120),
    ("swiftnet-a", "greedy", 223440, True, 1317120),
    ("swiftnet-b", "greedy", 86240, False, 297920),
    ("swiftnet-b", "greedy", 86240, True, 297920),
]


@lru_cache(maxsize=None)
def _suite_model(key, strategy):
    return CompilationPipeline(strategy).compile(get_cell(key).factory())


class TestPartialWritebacks:
    @pytest.mark.parametrize(
        "key,strategy,cap,prefetch,old_bytes", _PARTIAL_WRITEBACKS
    )
    def test_whole_buffer_staging_moves_only_written_bytes(
        self, key, strategy, cap, prefetch, old_bytes
    ):
        from repro.runtime import random_feeds

        model = _suite_model(key, strategy)
        px = model.executor(seed=0, capacity_bytes=cap, prefetch=prefetch)
        try:
            report = px.shadow_check()
            assert report.ok and len(report) == 0, report.summary()
            px.run(random_feeds(model.graph, seed=0))
            assert 0 < px.last_stats.spill_bytes_total <= old_bytes
        finally:
            px.close()
