"""Differential oracle: the DP array kernel vs the dict loop it replaced.

``repro.scheduler.dp`` promises to be *the same function* as
``_reference_dp.ReferenceDPScheduler`` — same schedule, same peak, same
three counters, and the same exception at the same search step — under
every combination of the pruning controls. These tests hold it to that
on generated graphs with buffer aliasing (whole and partial views,
in-place chains), and on narrow graphs around the 64-node word boundary
where the downset spills into a second and third ``uint64`` column.
Two small graphs pin the packed-rank dedup: equal parallel branches,
where only the parent's mask order breaks ties, and a diamond of
tensors so large that the rank would overflow ``int64`` and the kernel
ranks peaks densely. The last tests pin what the mask-order tie-break
buys: no budget at or above the optimum moves the schedule, so
Algorithm 2 may prune with its tightest cheap upper bound.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoSolutionError, StepTimeoutError
from repro.graph.graph import Graph
from repro.graph.node import MemorySemantics, Node
from repro.graph.tensor import TensorSpec
from repro.scheduler.budget import AdaptiveSoftBudgetScheduler
from repro.scheduler.dp import DPScheduler
from repro.scheduler.greedy import greedy_schedule
from repro.scheduler.memory import peak_of
from repro.scheduler.topological import kahn_schedule

from tests.conftest import random_dag_graph
from tests.scheduler._reference_dp import ReferenceDPScheduler


def aliasing_dag(n_nodes: int, seed: int, window: int | None = None) -> Graph:
    """Random DAG whose nodes alias their inputs' buffers at random.

    With ``window`` set, every node consumes its immediate predecessor
    most of the time and otherwise something among the last ``window``
    nodes, which keeps the number of downsets small however long the
    graph is (the narrow graphs of the word-boundary tests).
    """
    rng = random.Random(seed)
    g = Graph(f"alias{seed}")
    names: list[str] = []
    for i in range(n_nodes):
        pool = names if window is None else names[-window:]
        preds = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        if window is not None and names and (not preds or rng.random() < 0.8):
            preds = list(dict.fromkeys([names[-1], *preds]))
        shape = (rng.randint(1, 6), 2, 2)
        memory, attrs, kind = MemorySemantics(), {}, rng.random()
        if preds and kind < 0.25:
            target = rng.randrange(len(preds))
            memory = MemorySemantics(inplace_of=target)
            shape = g.node(preds[target]).output.shape
        elif len(preds) >= 2 and kind < 0.5:
            memory = MemorySemantics(view=True)
            shape = (sum(g.node(p).output.shape[0] for p in preds), 2, 2)
            if rng.random() < 0.5:
                attrs["view_inputs"] = sorted(
                    rng.sample(range(len(preds)), rng.randint(1, len(preds)))
                )
        g.add(
            Node(
                name=f"n{i}",
                op="blob" if preds else "input",
                inputs=tuple(preds),
                output=TensorSpec(shape),
                attrs=attrs,
                memory=memory,
            )
        )
        names.append(f"n{i}")
    return g


def outcome(scheduler_cls, graph, **kwargs):
    """Everything the two implementations must agree on, as one value."""
    try:
        res = scheduler_cls(**kwargs).schedule(graph)
    except StepTimeoutError as exc:
        return ("timeout", exc.step, exc.states)
    except NoSolutionError as exc:
        return ("no solution", str(exc))
    return (
        "solution",
        res.schedule.order,
        res.peak_bytes,
        res.states_expanded,
        res.states_memoized,
        res.max_step_states,
    )


def led_by(graph, preallocated, schedule):
    """Peak of ``schedule`` with the preallocated prefix moved to the front."""
    rest = [n for n in schedule.order if n not in preallocated]
    return peak_of(graph, [*preallocated, *rest])


def budgets(graph, preallocated):
    """None, the optimum, just below it, and Kahn's (feasible) peak."""
    opt = ReferenceDPScheduler(preallocated=preallocated).schedule(graph).peak_bytes
    return (None, opt, opt - 1, led_by(graph, preallocated, kahn_schedule(graph)))


def assert_agree(graph, preallocated=(), caps=(None, 1, 8)):
    for budget in budgets(graph, preallocated):
        for cap in caps:
            kwargs = dict(
                budget=budget, max_states_per_step=cap, preallocated=preallocated
            )
            assert outcome(DPScheduler, graph, **kwargs) == outcome(
                ReferenceDPScheduler, graph, **kwargs
            ), kwargs


graphs = st.one_of(
    st.builds(aliasing_dag, n_nodes=st.integers(1, 11), seed=st.integers(0, 10_000)),
    st.builds(
        random_dag_graph,
        n_nodes=st.integers(1, 11),
        seed=st.integers(0, 10_000),
        with_views=st.booleans(),
    ),
)


@settings(max_examples=120, deadline=None)
@given(g=graphs, n_pre=st.integers(0, 2))
def test_kernel_is_the_reference_function(g, n_pre):
    # insertion order is topological, so any prefix of it is a valid
    # preallocated set
    assert_agree(g, preallocated=g.node_names[:n_pre])


@pytest.mark.parametrize("n_nodes", [63, 64, 65, 81, 130])
@pytest.mark.parametrize("seed", range(3))
def test_agreement_across_the_word_boundary(n_nodes, seed):
    g = aliasing_dag(n_nodes, seed, window=3)
    assert_agree(g, preallocated=g.node_names[: seed % 2], caps=(None, 4))


def test_equal_branches_are_decided_by_mask_order():
    # every downset of k identical branches between one input and one
    # join is reached by several transitions with equal (peak, adj): only
    # the (parent mask, u) key tells them apart, which the packed rank
    # must carry
    k = 6
    g = Graph(f"fan{k}")
    g.add(Node(name="x", op="input", inputs=(), output=TensorSpec((4, 2, 2))))
    for i in range(k):
        g.add(Node(name=f"b{i}", op="blob", inputs=("x",), output=TensorSpec((4, 2, 2))))
    branches = tuple(f"b{i}" for i in range(k))
    g.add(Node(name="cat", op="blob", inputs=branches, output=TensorSpec((4 * k, 2, 2))))
    assert_agree(g)
    assert_agree(g, preallocated=("x",))


def test_rank_overflow_falls_back_to_dense_peaks(monkeypatch):
    # 2**58 bytes per channel (shapes are only multiplied, never
    # allocated): every footprint fits int64, but (2 * peak + 1) * span
    # does not, and an overflowing pack would pick the wrong order here
    g = Graph("huge-diamond")
    for name, inputs, channels in [
        ("x", (), 8), ("left", ("x",), 2), ("right", ("x",), 6),
        ("down", ("left",), 7), ("join", ("down", "right"), 7),
    ]:
        spec = TensorSpec((channels, 2**28, 2**28))
        g.add(Node(name=name, op="blob" if inputs else "input", inputs=inputs, output=spec))
    assert sum(g.node(n).output_bytes for n in g.node_names) < 2**63
    calls, unique = [], np.unique

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    assert_agree(g)  # unpruned, under budgets and under state caps
    assert calls  # the dense-rank branch ran


def test_zero_step_timeout_fires_on_the_first_step(diamond_graph):
    with pytest.raises(StepTimeoutError) as exc:
        DPScheduler(step_timeout_s=0.0).schedule(diamond_graph)
    assert exc.value.step == 0


class TestFailedProbesAreCounted:
    def test_exceptions_carry_the_expansion_count(self, hourglass_graph):
        full = DPScheduler().schedule(hourglass_graph)
        with pytest.raises(NoSolutionError) as nosol:
            DPScheduler(budget=full.peak_bytes - 1).schedule(hourglass_graph)
        assert 0 < nosol.value.states_expanded < full.states_expanded
        with pytest.raises(StepTimeoutError) as timeout:
            DPScheduler(max_states_per_step=1).schedule(hourglass_graph)
        assert 0 < timeout.value.states_expanded < full.states_expanded

    def test_budget_search_totals_include_failed_probes(self, hourglass_graph):
        res = AdaptiveSoftBudgetScheduler(max_states_per_step=1).schedule(
            hourglass_graph
        )
        failed = [p for p in res.probes if p.outcome != "solution"]
        assert failed and all(p.states_expanded > 0 for p in failed)
        assert res.total_states_expanded == sum(p.states_expanded for p in res.probes)
        assert res.total_states_expanded > res.result.states_expanded


class TestPruningCannotChangeTheAnswer:
    @settings(max_examples=120, deadline=None)
    @given(g=graphs, n_pre=st.integers(0, 2))
    def test_every_feasible_budget_returns_the_unpruned_order(self, g, n_pre):
        pre = tuple(g.node_names[:n_pre])
        unpruned = DPScheduler(preallocated=pre).schedule(g)
        opt = unpruned.peak_bytes
        for budget in (
            None,
            opt,
            led_by(g, pre, greedy_schedule(g)),
            led_by(g, pre, kahn_schedule(g)),
        ):
            res = DPScheduler(budget=budget, preallocated=pre).schedule(g)
            assert res.schedule.order == unpruned.schedule.order, budget
        for cap in (None, 8):
            asb = AdaptiveSoftBudgetScheduler(max_states_per_step=cap, preallocated=pre)
            assert asb.schedule(g).schedule.order == unpruned.schedule.order, cap

    @settings(max_examples=60, deadline=None)
    @given(g=graphs)
    def test_hard_budget_is_between_the_optimum_and_kahn(self, g):
        for n_pre in range(3):  # with and without a preallocated prefix
            pre = tuple(g.node_names[:n_pre])
            opt = DPScheduler(preallocated=pre).schedule(g).peak_bytes
            kahn = led_by(g, pre, kahn_schedule(g))
            greedy = led_by(g, pre, greedy_schedule(g))
            res = AdaptiveSoftBudgetScheduler(preallocated=pre).schedule(g)
            assert opt <= res.hard_budget == min(kahn, greedy) <= kahn, n_pre
