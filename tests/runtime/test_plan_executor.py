"""PlanExecutor: bitwise parity with the reference executor, arena
accounting, and aliasing edge cases feeding the arena."""

import numpy as np
import pytest

from repro.allocator.arena import plan_allocation
from repro.compiler import CompilationPipeline
from repro.exceptions import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.graph.node import MemorySemantics, Node
from repro.graph.tensor import TensorSpec
from repro.models.suite import suite_cells
from repro.rewriting import rewrite_graph
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.runtime.kernels import CONV_OPS
from repro.runtime.plan_executor import (
    _STEP_COPY,
    PlanExecutor,
    _workspace_view,
    intra_buffer_offsets,
)
from repro.runtime.verify import verify_execution
from repro.scheduler.memory import BufferModel
from repro.scheduler.registry import run_strategy
from repro.scheduler.schedule import Schedule


def assert_parity(graph, schedule, plan, seed=0, rounds=3):
    """Both executors, same weights: outputs must be bitwise equal — on
    the first run *and* on ``rounds - 1`` further runs over the stale
    bytes of the executor's reused arena (fresh feeds each round)."""
    params = init_params(graph, seed=seed)
    ref = Executor(graph, params=params)
    px = PlanExecutor(graph, schedule, plan, params=params)
    for round_ in range(rounds):
        feeds = random_feeds(graph, seed=seed + round_)
        want = ref.run(feeds)
        got = px.run(feeds)
        assert set(want) == set(got)
        for name in want:
            np.testing.assert_array_equal(want[name], got[name])
        assert px.last_stats is not None
        assert px.last_stats.measured_peak_bytes <= plan.arena_bytes
        assert px.last_stats.arena_reused == (round_ > 0)
    assert px.runs == rounds
    return px


def compile_with(graph, strategy="greedy", allocator="first_fit"):
    out = run_strategy(strategy, graph)
    plan = plan_allocation(
        out.scheduled_graph, out.schedule, strategy=allocator
    )
    return out.scheduled_graph, out.schedule, plan


class TestSuiteParity:
    """Every benchmark cell executes identically under the arena plan."""

    @pytest.mark.parametrize(
        "key", [c.key for c in suite_cells()]
    )
    def test_cell_parity(self, key):
        spec = next(c for c in suite_cells() if c.key == key)
        graph, schedule, plan = compile_with(spec.factory(), "greedy")
        assert_parity(graph, schedule, plan)

    @pytest.mark.parametrize(
        "key", [c.key for c in suite_cells()]
    )
    def test_cell_parity_greedy_by_size_arena(self, key):
        spec = next(c for c in suite_cells() if c.key == key)
        graph, schedule, plan = compile_with(
            spec.factory(), "kahn", allocator="greedy_by_size"
        )
        assert_parity(graph, schedule, plan)

    def test_rewritten_cell_parity(self):
        # serenity rewrites: inplace partial-conv chains and view
        # gather concats execute inside the arena
        spec = next(c for c in suite_cells() if c.key == "swiftnet-c")
        graph, schedule, plan = compile_with(spec.factory(), "serenity")
        assert any(n.memory.aliases for n in graph)
        assert_parity(graph, schedule, plan)


class TestAliasingEdgeCases:
    def test_inplace_chain(self):
        """acc += style chains share one buffer at one offset."""
        b = GraphBuilder("inplace")
        x = b.input("x", (4, 4, 4))
        b.relu(x, name="r")
        b.sigmoid(x, name="s")
        g = b.build()
        g.add(
            Node(
                name="acc",
                op="add",
                inputs=("r", "s"),
                output=TensorSpec((4, 4, 4)),
                memory=MemorySemantics(inplace_of=0),
            )
        )
        g.add(
            Node(
                name="acc2",
                op="add",
                inputs=("acc", "s"),
                output=TensorSpec((4, 4, 4)),
                memory=MemorySemantics(inplace_of=0),
            )
        )
        model = BufferModel.of(g)
        intra = intra_buffer_offsets(g, model)
        idx = model.index
        assert (
            model.buffer_of[idx.index["r"]]
            == model.buffer_of[idx.index["acc"]]
            == model.buffer_of[idx.index["acc2"]]
        )
        assert intra["r"] == intra["acc"] == intra["acc2"] == 0
        schedule = Schedule.of(g, g.node_names)
        assert_parity(g, schedule, plan_allocation(g, schedule))

    def test_view_concat_offsets_and_parity(self, concat_conv_graph):
        from repro.graph.transforms import mark_concat_views

        g = mark_concat_views(concat_conv_graph)
        assert g.node("cat").memory.view
        model = BufferModel.of(g)
        intra = intra_buffer_offsets(g, model)
        # operands land at their slice offsets inside the concat buffer
        assert intra["cat"] == 0
        assert intra["l"] == 0
        assert intra["m"] == g.node("l").output.bytes
        assert intra["r"] == intra["m"] + g.node("m").output.bytes
        schedule = Schedule.of(g, g.node_names)
        assert_parity(g, schedule, plan_allocation(g, schedule))

    def test_partial_view_copied_operand(self):
        """A graph-input operand stays outside the view buffer and is
        copied at concat time (``view_inputs`` partial aliasing)."""
        from repro.graph.transforms import mark_concat_views

        b = GraphBuilder("partial-view")
        x = b.input("x", (2, 4, 4))
        l = b.relu(x, name="l")
        cat = b.concat([x, l], name="cat")
        b.relu(cat, name="out")
        g = mark_concat_views(b.build())
        cat_node = g.node("cat")
        assert cat_node.memory.view and cat_node.attrs["view_inputs"] == (1,)
        model = BufferModel.of(g)
        intra = intra_buffer_offsets(g, model)
        # l aliases at its slice past x's (copied) region; x keeps its
        # own buffer at offset 0
        assert intra["l"] == g.node("x").output.bytes
        assert intra["x"] == 0
        idx = model.index
        assert model.buffer_of[idx.index["x"]] != model.buffer_of[idx.index["cat"]]
        schedule = Schedule.of(g, g.node_names)
        assert_parity(g, schedule, plan_allocation(g, schedule))

    def test_rewritten_graphs_parity(self, concat_conv_graph, concat_depthwise_graph):
        for base in (concat_conv_graph, concat_depthwise_graph):
            g = rewrite_graph(base).graph
            assert any(n.memory.aliases for n in g)
            schedule = Schedule.of(g, g.node_names)
            assert_parity(g, schedule, plan_allocation(g, schedule))

    def test_zero_use_outputs_persist(self):
        """A sink nobody consumes still occupies its planned bytes and
        is returned intact at the end."""
        b = GraphBuilder("multi-sink")
        x = b.input("x", (2, 4, 4))
        b.relu(x, name="dead_end")  # zero consumers
        c = b.conv2d(x, 4, kernel=3, name="c")
        b.relu(c, name="main")
        g = b.build()
        schedule = Schedule.of(g, g.node_names)
        plan = plan_allocation(g, schedule)
        px = assert_parity(g, schedule, plan)
        out = px.run(random_feeds(g))
        assert set(out) == {"dead_end", "main"}

    def test_inplace_overwrite_before_sibling_reader_rejected(self):
        """A schedule that runs an in-place writer before another
        consumer of its target would silently corrupt that read — the
        executor must refuse it (and accept the safe order)."""
        b = GraphBuilder("hazard")
        x = b.input("x", (2, 2, 2))
        b.relu(x, name="r")
        g = b.build()
        g.add(
            Node(
                name="over",
                op="sigmoid",
                inputs=("r",),
                output=TensorSpec((2, 2, 2)),
                memory=MemorySemantics(inplace_of=0),
            )
        )
        g.add(
            Node(
                name="z", op="relu", inputs=("r",), output=TensorSpec((2, 2, 2))
            )
        )
        unsafe = Schedule.of(g, ("x", "r", "over", "z"))
        with pytest.raises(ExecutionError, match="unsafe"):
            PlanExecutor(g, unsafe, plan_allocation(g, unsafe))
        safe = Schedule.of(g, ("x", "r", "z", "over"))
        assert_parity(g, safe, plan_allocation(g, safe))

    def test_two_inplace_writers_on_one_target_rejected(self):
        """Two independent in-place writers over the same bytes: in any
        order, the later one reads a clobbered target — every pair in
        the buffer must be checked, not just the first."""
        b = GraphBuilder("double-writer")
        x = b.input("x", (2, 2, 2))
        b.relu(x, name="t")
        g = b.build()
        for name, op in (("wa", "sigmoid"), ("wb", "tanh")):
            g.add(
                Node(
                    name=name,
                    op=op,
                    inputs=("t",),
                    output=TensorSpec((2, 2, 2)),
                    memory=MemorySemantics(inplace_of=0),
                )
            )
        for order in (("x", "t", "wa", "wb"), ("x", "t", "wb", "wa")):
            schedule = Schedule.of(g, order)
            with pytest.raises(ExecutionError, match="unsafe"):
                PlanExecutor(g, schedule, plan_allocation(g, schedule))


class TestArenaReuse:
    """The per-executor arena and its scrub policies."""

    def test_scrub_policies_all_bitwise_equal(self, concat_conv_graph):
        from repro.graph.transforms import mark_concat_views

        g = mark_concat_views(concat_conv_graph)
        schedule = Schedule.of(g, g.node_names)
        plan = plan_allocation(g, schedule)
        params = init_params(g)
        executors = {
            scrub: PlanExecutor(g, schedule, plan, params=params, scrub=scrub)
            for scrub in ("never", "zero")
        }
        ref = Executor(g, params=params)
        for seed in range(3):
            feeds = random_feeds(g, seed=seed)
            want = ref.run(feeds)
            for scrub, px in executors.items():
                got = px.run(feeds)
                for name in want:
                    np.testing.assert_array_equal(want[name], got[name])
                # every run after the first reuses the arena
                assert px.last_stats.arena_reused == (seed > 0)

    def test_unknown_scrub_policy_rejected(self, chain_graph):
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        with pytest.raises(ExecutionError, match="scrub"):
            PlanExecutor(chain_graph, schedule, plan, scrub="sometimes")

    def test_dirty_arena_not_rescrubbed_by_default(self, chain_graph):
        """scrub='never' really does leave stale bytes behind — parity
        holds because every read byte is rewritten, not because the
        arena is secretly cleaned."""
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        px = PlanExecutor(chain_graph, schedule, plan)
        px.run(random_feeds(chain_graph))
        assert np.any(px._arena != 0.0)
        before = px._arena.copy()
        px.run(random_feeds(chain_graph, seed=1))
        assert px.last_stats.arena_reused
        # same storage, different request: bytes actually changed in place
        assert not np.array_equal(before, px._arena)

    def test_returned_outputs_survive_later_runs(self, diamond_graph):
        """Responses are snapshots: a later request over the same arena
        must not mutate an earlier request's returned arrays."""
        schedule = Schedule.of(diamond_graph, diamond_graph.node_names)
        plan = plan_allocation(diamond_graph, schedule)
        px = PlanExecutor(diamond_graph, schedule, plan)
        first = px.run(random_feeds(diamond_graph, seed=0))
        kept = {k: v.copy() for k, v in first.items()}
        px.run(random_feeds(diamond_graph, seed=1))
        for k in kept:
            np.testing.assert_array_equal(kept[k], first[k])


class TestDirectWrites:
    def test_elementwise_ops_write_direct(self):
        b = GraphBuilder("direct")
        x = b.input("x", (4, 4, 4))
        r = b.relu(x, name="r")
        s = b.sigmoid(r, name="s")
        t = b.identity(r, name="t")
        b.add(s, t, name="out")
        g = b.build()
        schedule = Schedule.of(g, g.node_names)
        px = assert_parity(g, schedule, plan_allocation(g, schedule))
        assert px.last_stats.direct_writes == 4
        assert px.last_stats.copy_writes == 0

    def test_view_concat_writes_direct(self, concat_conv_graph):
        from repro.graph.transforms import mark_concat_views

        g = mark_concat_views(concat_conv_graph)
        schedule = Schedule.of(g, g.node_names)
        px = assert_parity(g, schedule, plan_allocation(g, schedule))
        # the aliased concat writes its (identical) bytes in place
        assert px.last_stats.direct_writes >= 1

    def test_inplace_chain_writes_direct(self):
        """An in-place accumulator's destination *is* its target input:
        the overlap is exact, so the direct path stays enabled."""
        b = GraphBuilder("inplace-direct")
        x = b.input("x", (4, 4, 4))
        b.relu(x, name="r")
        b.sigmoid(x, name="s")
        g = b.build()
        g.add(
            Node(
                name="acc",
                op="add",
                inputs=("r", "s"),
                output=TensorSpec((4, 4, 4)),
                memory=MemorySemantics(inplace_of=0),
            )
        )
        schedule = Schedule.of(g, g.node_names)
        px = assert_parity(g, schedule, plan_allocation(g, schedule))
        assert px.last_stats.direct_writes >= 3  # r, s, acc

    def test_nary_inplace_on_late_operand_falls_back(self):
        """A 3-input add writing in place over its *third* operand must
        not take the direct path: the ufunc chain reads operand 2 after
        the destination was already written. The planner must fall back
        to temp-and-copy, and parity must hold."""
        b = GraphBuilder("late-inplace")
        x = b.input("x", (4, 4, 4))
        b.relu(x, name="r0")
        b.sigmoid(x, name="r1")
        b.identity(x, name="r2")
        g = b.build()
        g.add(
            Node(
                name="acc",
                op="add",
                inputs=("r0", "r1", "r2"),
                output=TensorSpec((4, 4, 4)),
                memory=MemorySemantics(inplace_of=2),
            )
        )
        schedule = Schedule.of(g, g.node_names)
        plan = plan_allocation(g, schedule)
        px = assert_parity(g, schedule, plan)
        assert "acc" not in px._direct
        # in-place over operand 0 or 1 stays direct (lockstep-safe)
        g2 = GraphBuilder("early-inplace")
        x2 = g2.input("x", (4, 4, 4))
        g2.relu(x2, name="r0")
        g2.sigmoid(x2, name="r1")
        g2b = g2.build()
        g2b.add(
            Node(
                name="acc",
                op="add",
                inputs=("r0", "r1"),
                output=TensorSpec((4, 4, 4)),
                memory=MemorySemantics(inplace_of=1),
            )
        )
        schedule2 = Schedule.of(g2b, g2b.node_names)
        px2 = assert_parity(g2b, schedule2, plan_allocation(g2b, schedule2))
        assert "acc" in px2._direct

    def test_conv_ops_write_direct(self, chain_graph):
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        px = assert_parity(chain_graph, schedule, plan_allocation(chain_graph, schedule))
        assert px.last_stats.copy_writes == 0  # both convs bind the arena

    @pytest.mark.parametrize("key", [c.key for c in suite_cells()])
    @pytest.mark.parametrize("strategy", ["greedy", "serenity"])
    def test_no_suite_conv_takes_the_copy_path(self, key, strategy):
        """Unspilled, every conv-family node (the rewriter's in-place
        partial chains included) is a direct row; what is left on the
        copy path is pools, dense and aliased layouts."""
        spec = next(c for c in suite_cells() if c.key == key)
        graph, schedule, plan = compile_with(spec.factory(), strategy)
        px = PlanExecutor(graph, schedule, plan)
        copied = {
            graph.node(row[1]).op
            for row in px._run_plans[1].steps
            if row[0] == _STEP_COPY
        }
        assert not copied & CONV_OPS
        assert set(px._lowered) == {n.name for n in graph if n.op in CONV_OPS}

    def test_conv_over_its_own_input_falls_back_to_copy(self):
        """A GEMM reads its operand while it fills the destination: a
        conv planned in place over its input must keep the temporary."""
        b = GraphBuilder("conv-inplace")
        x = b.input("x", (4, 6, 6))
        b.relu(x, name="r")
        g = b.build()
        g.add(
            Node(
                name="c",
                op="conv2d",
                inputs=("r",),
                output=TensorSpec((4, 6, 6)),
                attrs={"out_channels": 4, "kernel": 3},
                memory=MemorySemantics(inplace_of=0),
            )
        )
        schedule = Schedule.of(g, g.node_names)
        px = assert_parity(g, schedule, plan_allocation(g, schedule))
        assert px._elem_range("c") == px._elem_range("r")
        assert "c" not in px._direct and "c" not in px._lowered
        assert px.last_stats.copy_writes == 1

    def test_accumulating_partial_conv_writes_over_its_accumulator(
        self, concat_conv_graph
    ):
        g = rewrite_graph(concat_conv_graph).graph
        chain = [n for n in g if n.op == "partial_conv2d"]
        assert any(n.memory.inplace_of == 1 for n in chain)
        schedule = Schedule.of(g, g.node_names)
        px = assert_parity(g, schedule, plan_allocation(g, schedule))
        assert {n.name for n in chain} <= set(px._lowered)

    def test_conv_steps_allocate_nothing_per_run(self):
        """Pad maps, im2col columns and fused intermediates live in the
        executor's workspace: all a run allocates is its output snapshot
        and NumPy's own fixed-size ufunc buffer (the broadcast bias
        add) — not one feature map, where the tap loops allocated ~20
        per conv."""
        import tracemalloc

        spec = next(c for c in suite_cells() if c.key == "randwire-c10-a")
        graph, schedule, plan = compile_with(spec.factory(), "greedy")
        px = PlanExecutor(graph, schedule, plan)
        feeds = random_feeds(graph)
        snapshot_bytes = sum(v.nbytes for v in px.run(feeds).values())  # warm
        feature_map_bytes = feeds["x"].nbytes
        ufunc_buffer_bytes = np.getbufsize() * feeds["x"].itemsize
        assert feature_map_bytes >= 2 * ufunc_buffer_bytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = px.run(feeds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sum(v.nbytes for v in out.values()) == snapshot_bytes
        # views, stats and dict entries are a few hundred bytes each
        assert peak < snapshot_bytes + ufunc_buffer_bytes + 8192
        assert peak < snapshot_bytes + feature_map_bytes
        assert px.workspace_nbytes == px._workspace.nbytes > 0

    @pytest.mark.parametrize("ran", [False, True])
    def test_dropped_executor_frees_its_arena_without_the_collector(self, ran):
        """The step table's bound callables must not refer back to the
        executor: a pool that closes an executor expects its arena,
        workspace and parameters back at once, not at the next gen-2
        collection."""
        import gc
        import weakref

        spec = next(c for c in suite_cells() if c.key == "swiftnet-c")
        graph, schedule, plan = compile_with(spec.factory(), "greedy")
        gc.disable()
        try:
            px = PlanExecutor(graph, schedule, plan)
            if ran:
                px.run(random_feeds(graph))
            refs = [weakref.ref(px), weakref.ref(px._arena), weakref.ref(px._workspace)]
            del px
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_workspace_is_sized_per_sample_and_borders_stay_zero(self):
        spec = next(c for c in suite_cells() if c.key == "swiftnet-a")
        graph, schedule, plan = compile_with(spec.factory(), "greedy")
        solo = PlanExecutor(graph, schedule, plan)
        wide = PlanExecutor(graph, schedule, plan, batch_size=4, scrub="zero")
        assert wide.workspace_nbytes == 4 * solo.workspace_nbytes
        assert wide.arena_nbytes == 4 * solo.arena_nbytes  # workspace not in it
        feeds = random_feeds(graph)
        stacked = {k: np.stack([v] * 3) for k, v in feeds.items()}
        want = solo.run(feeds)
        for _round in range(2):
            got = wide.run_batch(stacked)
            for name in want:
                for b in range(3):
                    np.testing.assert_array_equal(want[name], got[name][b])
        # every pad map: interior written, border still exactly zero
        for low in wide._lowered.values():
            if low.pad_shape is None:
                continue
            pad = _workspace_view(
                wide._workspace, 4, wide._pad_elem[low.pad_key], low.pad_shape, 3
            )
            border = np.ones(pad.shape, dtype=bool)
            border[low._interior] = False
            assert np.all(pad[border] == 0.0) and np.any(pad[~border] != 0.0)


class TestOutputPruning:
    """Requesting a subset executes (and feeds) only its ancestors — on
    the reference executor, the oracle; the plan executor always runs
    the whole schedule."""

    def test_subset_needs_only_ancestor_feeds(self):
        b = GraphBuilder("two-branch")
        x = b.input("x", (2, 4, 4))
        y = b.input("y", (2, 4, 4))
        b.sigmoid(b.relu(x, name="bx"), name="out_x")
        b.sigmoid(b.relu(y, name="by"), name="out_y")
        g = b.build()
        feeds_x = {"x": random_feeds(g)["x"]}
        run = Executor(g).run
        out = run(feeds_x, outputs=["out_x"])
        assert set(out) == {"out_x"}
        # the full graph still demands the other feed
        with pytest.raises(ExecutionError, match="missing feed"):
            run(feeds_x)


class TestPlanExecutorErrors:
    def test_plan_graph_mismatch_rejected(self, chain_graph, diamond_graph):
        from repro.exceptions import ReproError

        schedule = Schedule.of(diamond_graph, diamond_graph.node_names)
        plan = plan_allocation(diamond_graph, schedule)
        with pytest.raises(ReproError):
            PlanExecutor(chain_graph, schedule, plan)

    def test_missing_feed(self, chain_graph):
        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        with pytest.raises(ExecutionError, match="missing feed"):
            PlanExecutor(chain_graph, schedule, plan).run({})

    def test_mixed_itemsize_rejected(self):
        g = Graph("mixed")
        g.add(Node(name="x", op="input", inputs=(), output=TensorSpec((2, 2))))
        g.add(
            Node(
                name="y",
                op="identity",
                inputs=("x",),
                output=TensorSpec((2, 2), "int8"),
            )
        )
        schedule = Schedule.of(g, g.node_names)
        plan = plan_allocation(g, schedule)
        with pytest.raises(ExecutionError, match="itemsize"):
            PlanExecutor(g, schedule, plan)

    def test_undersized_plan_overflows(self, chain_graph):
        """A plan whose arena lies about its capacity is caught mid-run."""
        from dataclasses import replace

        schedule = Schedule.of(chain_graph, chain_graph.node_names)
        plan = plan_allocation(chain_graph, schedule)
        lying = replace(plan, arena_bytes=plan.arena_bytes // 2)
        with pytest.raises(ExecutionError, match="arena overflow"):
            PlanExecutor(chain_graph, schedule, lying).run(
                random_feeds(chain_graph)
            )


class TestVerifyExecution:
    def test_verify_execution_reports_equivalence(self, diamond_graph):
        model = CompilationPipeline("greedy").compile(diamond_graph)
        report = verify_execution(model)
        assert report.equivalent
        assert report.max_abs_error == 0.0

    def test_one_step_table_compile_per_verification(
        self, diamond_graph, monkeypatch
    ):
        """Verification runs the width-1 table compiled at construction;
        a batch-capable executor compiles widths 1 and ``batch_size`` up
        front, every other width once, on its first run."""
        model = CompilationPipeline("greedy").compile(diamond_graph)
        compiles = []
        inner = PlanExecutor._compile_run_plan

        def spy(self, n):
            compiles.append(n)
            return inner(self, n)

        monkeypatch.setattr(PlanExecutor, "_compile_run_plan", spy)
        assert verify_execution(model).equivalent
        assert compiles == [1]

        px = PlanExecutor(
            model.graph, model.schedule, model.plan, batch_size=4
        )
        assert compiles == [1, 1, 4]
        feeds = random_feeds(model.graph)
        for _ in range(2):
            for n in range(1, 5):
                px.run_batch(
                    {k: np.stack([v] * n) for k, v in feeds.items()}, batch=n
                )
        assert compiles == [1, 1, 4, 2, 3]
