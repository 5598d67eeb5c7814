"""Batch-native PlanExecutor: per-sample bitwise parity across the
suite, strided N x arena accounting, partial batches, static overflow."""

from dataclasses import replace

import numpy as np
import pytest

from repro.allocator.arena import plan_allocation
from repro.exceptions import ExecutionError
from repro.models.suite import suite_cells
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.runtime.plan_executor import PlanExecutor
from repro.scheduler.registry import run_strategy
from repro.scheduler.schedule import Schedule

BATCH_WIDTHS = (1, 2, 8)
#: the two persistent-arena scrub policies (``fresh`` reallocates and
#: is covered separately)
SCRUBS = ("never", "zero")


def stack_feeds(graph, n, seed=0):
    """n per-sample feed dicts plus their stacked (n, ...) form."""
    feeds = [random_feeds(graph, seed=seed + i) for i in range(n)]
    stacked = {k: np.stack([f[k] for f in feeds]) for k in feeds[0]}
    return feeds, stacked


@pytest.fixture(scope="module")
def compiled_suite():
    """One greedy compilation + reference outputs per cell, shared by
    every (batch width, scrub) combination in this module."""
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
                "ref": Executor(graph, params=params),
                "want": {},  # (n,) -> list of per-sample reference outputs
            }
        return cache[key]

    return get


class TestSuiteBatchedParity:
    """Every benchmark cell, batched at N in {1, 2, 8}, under both
    persistent-arena scrub policies: sample b of every stacked output is
    bitwise the reference executor's — twice, the second run over the
    first run's stale arena bytes."""

    @pytest.mark.parametrize("scrub", SCRUBS)
    @pytest.mark.parametrize("n", BATCH_WIDTHS)
    @pytest.mark.parametrize("key", [c.key for c in suite_cells()])
    def test_cell_batched_parity(self, compiled_suite, key, n, scrub):
        cell = compiled_suite(key)
        graph = cell["graph"]
        if n not in cell["want"]:
            feeds, stacked = stack_feeds(graph, n)
            cell["want"][n] = (
                feeds,
                stacked,
                [cell["ref"].run(f) for f in feeds],
            )
        feeds, stacked, want = cell["want"][n]
        px = PlanExecutor(
            graph,
            cell["schedule"],
            cell["plan"],
            params=cell["params"],
            batch_size=n,
            scrub=scrub,
        )
        for round_ in range(2):
            got = px.run_batch(stacked)
            assert set(got) == set(want[0])
            for b in range(n):
                for name in want[b]:
                    assert got[name].shape == (n,) + want[b][name].shape
                    np.testing.assert_array_equal(want[b][name], got[name][b])
            stats = px.last_stats
            assert stats is not None
            assert stats.batch == n
            assert stats.measured_peak_bytes <= cell["plan"].arena_bytes
            assert stats.arena_reused == (round_ > 0)


class TestBatchedArenaLayout:
    def compiled(self, graph):
        schedule = Schedule.of(graph, graph.node_names)
        return schedule, plan_allocation(graph, schedule)

    def test_arena_is_batch_times_per_sample_rows(self, chain_graph):
        schedule, plan = self.compiled(chain_graph)
        solo = PlanExecutor(chain_graph, schedule, plan)
        batched = PlanExecutor(chain_graph, schedule, plan, batch_size=8)
        assert batched.arena_nbytes == 8 * solo.arena_nbytes

    def test_batched_sites_are_views_of_one_arena(self, chain_graph):
        """Stacked execution must not silently copy: every (n, ...)
        site is a strided view into the executor's single allocation."""
        schedule, plan = self.compiled(chain_graph)
        px = PlanExecutor(chain_graph, schedule, plan, batch_size=4)
        for n in (1, 3, 4):
            for site in px._sites_for(n).values():
                assert site.base is not None
                assert np.shares_memory(site, px._arena)
        # the width-1 views are row 0 of the wider ones, byte for byte
        solo_sites = px._sites_for(1)
        for name, site in px._sites_for(4).items():
            assert solo_sites[name].shape == (1,) + site.shape[1:]
            assert np.shares_memory(site[0], solo_sites[name])
            assert not np.shares_memory(site[1:], solo_sites[name])

    def test_run_on_batched_executor_stays_solo_bitwise(self, diamond_graph):
        """run() on a batch-capable executor is the width-1 call on row 0."""
        schedule, plan = self.compiled(diamond_graph)
        params = init_params(diamond_graph, seed=0)
        ref = Executor(diamond_graph, params=params)
        px = PlanExecutor(
            diamond_graph, schedule, plan, params=params, batch_size=8
        )
        feeds = random_feeds(diamond_graph)
        got = px.run(feeds)
        want = ref.run(feeds)
        for name in want:
            np.testing.assert_array_equal(want[name], got[name])
        assert px.last_stats.batch == 1

    def test_interleaved_solo_and_batched_runs(self, diamond_graph):
        """Solo and stacked runs share the arena; neither corrupts the
        other's results across interleavings."""
        schedule, plan = self.compiled(diamond_graph)
        params = init_params(diamond_graph, seed=0)
        ref = Executor(diamond_graph, params=params)
        px = PlanExecutor(
            diamond_graph, schedule, plan, params=params, batch_size=3
        )
        feeds, stacked = stack_feeds(diamond_graph, 3)
        for _ in range(2):
            got_solo = px.run(feeds[1])
            got_batch = px.run_batch(stacked)
            want = ref.run(feeds[1])
            for name in want:
                np.testing.assert_array_equal(want[name], got_solo[name])
                np.testing.assert_array_equal(want[name], got_batch[name][1])


class TestPartialBatches:
    def test_partial_batch_runs_at_true_size(self, chain_graph):
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        params = init_params(chain_graph, seed=0)
        ref = Executor(chain_graph, params=params)
        px = PlanExecutor(
            chain_graph, schedule, plan, params=params, batch_size=8
        )
        feeds, _ = stack_feeds(chain_graph, 8)
        for n in (1, 3, 8):
            stacked = {
                k: np.stack([feeds[i][k] for i in range(n)]) for k in feeds[0]
            }
            got = px.run_batch(stacked)
            assert px.last_stats.batch == n
            for b in range(n):
                want = ref.run(feeds[b])
                for name in want:
                    assert got[name].shape[0] == n
                    np.testing.assert_array_equal(want[name], got[name][b])

    def test_batch_width_over_capacity_rejected(self, chain_graph):
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        px = PlanExecutor(chain_graph, schedule, plan, batch_size=2)
        _, stacked = stack_feeds(chain_graph, 3)
        with pytest.raises(ExecutionError, match="capacity"):
            px.run_batch(stacked)

    def test_inconsistent_feed_widths_rejected(self, diamond_graph):
        # diamond has one input; build a two-input graph inline
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder("two-in")
        x = b.input("x", (2, 4, 4))
        y = b.input("y", (2, 4, 4))
        b.add(x, y, name="sum")
        g = b.build()
        schedule = Schedule.of(g, g.node_names)
        plan = plan_allocation(g, schedule)
        px = PlanExecutor(g, schedule, plan, batch_size=4)
        feeds = {
            "x": np.zeros((2, 2, 4, 4)),
            "y": np.zeros((3, 2, 4, 4)),
        }
        with pytest.raises(ExecutionError, match="batch width"):
            px.run_batch(feeds)

    def test_misshapen_stacked_feed_rejected(self, chain_graph):
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        px = PlanExecutor(chain_graph, schedule, plan, batch_size=2)
        bad = {"x": np.zeros((2, 4, 8, 7))}  # wrong W
        with pytest.raises(ExecutionError, match="shape"):
            px.run_batch(bad)

    def test_invalid_batch_size_rejected(self, chain_graph):
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        with pytest.raises(ExecutionError, match="batch_size"):
            PlanExecutor(chain_graph, schedule, plan, batch_size=0)


class TestStaticOverflow:
    def test_undersized_plan_rejected_before_batched_kernels(self, chain_graph):
        """The N x arena's per-row peak is a property of the compiled
        plan: an understated plan raises at run_batch before any kernel
        executes, at every batch width."""
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        lying = replace(plan, arena_bytes=plan.arena_bytes // 2)
        px = PlanExecutor(chain_graph, schedule, lying, batch_size=8)
        _, stacked = stack_feeds(chain_graph, 8)
        # the arena holds no data yet: failure must be the static check
        with pytest.raises(ExecutionError, match="arena overflow"):
            px.run_batch(stacked)
        assert px.runs == 0
        assert not px._arena.any()  # no kernel ever touched the rows
