"""Both executors compute in the dtype the plan prices.

Every planned tensor is float32, so the arena plan, the spill traffic
and the pool's prices are float32 bytes. The executors compute in
:data:`~repro.runtime.executor.EXEC_DTYPE` (float32) to match: the host
holds the planned bytes, the modeled link is charged the planned
traffic, and the two executors stay bitwise-equal whatever dtype their
feeds and parameters arrive in.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.allocator.arena import plan_allocation
from repro.allocator.spill import min_capacity_bytes, plan_spill
from repro.compiler import CompilationPipeline
from repro.memsim import OffchipLink
from repro.models.suite import get_cell, suite_cells
from repro.runtime.executor import (
    EXEC_DTYPE,
    Executor,
    init_params,
    random_feeds,
)
from repro.runtime.plan_executor import PlanExecutor
from repro.scheduler.registry import run_strategy

CELLS = [c.key for c in suite_cells()]


# ----------------------------------------------------------------------
# the modeled link is charged the planned traffic
# ----------------------------------------------------------------------
#: the spill serving configurations of the repo benchmark on
#: randwire-c100-a: (on-chip bytes, tile bytes)
SPILL_CONFIGS = {"whole": (491520, None), "tiled": (114688, 8192)}


@pytest.fixture(scope="module")
def c100a():
    graph = get_cell("randwire-c100-a").factory()
    return CompilationPipeline("greedy").compile(graph)


@dataclass(frozen=True)
class _RecordingLink(OffchipLink):
    """An :class:`OffchipLink` that records every byte count it is
    charged."""

    charged: list[int] = field(default_factory=list, compare=False, hash=False)

    def transfer_s(self, nbytes: int) -> float:
        self.charged.append(nbytes)
        return super().transfer_s(nbytes)


@pytest.mark.parametrize("config", sorted(SPILL_CONFIGS))
def test_link_is_charged_the_planned_bytes(c100a, config):
    capacity, tile = SPILL_CONFIGS[config]
    link = _RecordingLink(512e6, 0.0)
    px = c100a.executor(capacity_bytes=capacity, tile_bytes=tile, link=link)
    try:
        px.run(random_feeds(c100a.graph, seed=0))
        planned = px.last_stats.traffic.total_bytes
        assert planned > 0
        assert sum(link.charged) == planned
    finally:
        px.close()


# ----------------------------------------------------------------------
# the host holds the planned bytes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def greedy_cells():
    cache: dict = {}

    def get(key: str):
        if key not in cache:
            out = run_strategy("greedy", get_cell(key).factory())
            graph = out.scheduled_graph
            cache[key] = (graph, out.schedule, plan_allocation(graph, out.schedule))
        return cache[key]

    return get


def _whole_elems_bytes(nbytes: int, itemsize: int) -> int:
    """``nbytes`` rounded up to whole elements, as the executor sizes
    its regions."""
    return -(-nbytes // itemsize) * itemsize


@pytest.mark.parametrize("key", CELLS)
@pytest.mark.parametrize("batch", [1, 3])
def test_host_holds_the_planned_bytes(greedy_cells, key, batch):
    graph, schedule, plan = greedy_cells(key)
    itemsizes = {graph.node(name).output.dtype.itemsize for name in graph.node_names}
    assert itemsizes == {4}, "suite cells are float32"
    cap = max(plan.arena_bytes // 2, min_capacity_bytes(graph, schedule))
    spill = plan_spill(graph, schedule, plan, cap)
    for sp in (None, spill):
        px = PlanExecutor(graph, schedule, plan, batch_size=batch, spill=sp)
        try:
            resident = plan.arena_bytes if sp is None else px._layout.resident_bytes
            spilled = 0 if sp is None else sp.spill_bytes
            assert px.arena_nbytes == batch * _whole_elems_bytes(resident, 4)
            assert px.spill_nbytes == batch * _whole_elems_bytes(spilled, 4)
            # the workspace is conv scratch the executor sizes in
            # elements, not a planned region; it too is held in the
            # planned dtype
            assert px._workspace.dtype == EXEC_DTYPE
        finally:
            px.close()


@pytest.mark.parametrize("key", CELLS)
def test_both_executors_return_exec_dtype(greedy_cells, key):
    graph, schedule, plan = greedy_cells(key)
    feeds = random_feeds(graph, seed=0)
    assert all(v.dtype == EXEC_DTYPE for v in feeds.values())
    ref = Executor(graph).run(feeds)
    px = PlanExecutor(graph, schedule, plan)
    try:
        got = px.run(feeds)
    finally:
        px.close()
    for name in ref:
        assert ref[name].dtype == EXEC_DTYPE
        assert got[name].dtype == EXEC_DTYPE
        np.testing.assert_array_equal(ref[name], got[name])


# ----------------------------------------------------------------------
# parameters and feeds are cast once, to the compute dtype
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", ["swiftnet-a", "randwire-c10-b", "darts-normal"])
def test_float64_params_and_feeds_keep_bitwise_parity(greedy_cells, key):
    graph, schedule, plan = greedy_cells(key)
    # drawn in float64, so no value is exactly a float32 one
    rng = np.random.default_rng(1)
    wide = {
        name: {key: rng.standard_normal(v.shape) * 0.1 for key, v in entry.items()}
        for name, entry in init_params(graph).items()
    }
    feeds = {
        name: rng.standard_normal(v.shape) for name, v in random_feeds(graph).items()
    }
    ref = Executor(graph, params=wide)
    px = PlanExecutor(graph, schedule, plan, params=wide)
    try:
        for ex in (ref, px):
            assert all(
                value.dtype == EXEC_DTYPE
                for entry in ex.params.values()
                for value in entry.values()
            )
        want = ref.run(feeds)
        got = px.run(feeds)
    finally:
        px.close()
    for name in want:
        assert want[name].dtype == got[name].dtype == EXEC_DTYPE
        np.testing.assert_array_equal(want[name], got[name])

