"""Precision casting: int8 what-if studies."""

import pytest

from repro.analysis.quantization import cast_graph
from repro.graph.tensor import DType
from repro.scheduler.dp import dp_schedule
from repro.scheduler.memory import simulate_schedule
from repro.scheduler.topological import kahn_schedule


class TestCastGraph:
    def test_all_tensors_retyped(self, concat_conv_graph):
        g8 = cast_graph(concat_conv_graph, "int8")
        assert all(n.output.dtype is DType.INT8 for n in g8)

    def test_shapes_and_wiring_preserved(self, concat_conv_graph):
        g8 = cast_graph(concat_conv_graph, "int8")
        for node in concat_conv_graph:
            assert g8.node(node.name).output.shape == node.output.shape
            assert g8.node(node.name).inputs == node.inputs

    def test_input_attr_updated(self, concat_conv_graph):
        g8 = cast_graph(concat_conv_graph, "int8")
        assert g8.node("x").attrs["dtype"] == "int8"

    def test_peak_scales_by_width_ratio(self, concat_conv_graph):
        g8 = cast_graph(concat_conv_graph, "int8")
        sched = kahn_schedule(concat_conv_graph)
        sched8 = kahn_schedule(g8)
        p32 = simulate_schedule(concat_conv_graph, sched).peak_bytes
        p8 = simulate_schedule(g8, sched8).peak_bytes
        assert p32 == 4 * p8

    def test_fp16_halves(self, chain_graph):
        g16 = cast_graph(chain_graph, DType.FLOAT16)
        sched = kahn_schedule(chain_graph)
        p32 = simulate_schedule(chain_graph, sched).peak_bytes
        p16 = simulate_schedule(g16, kahn_schedule(g16)).peak_bytes
        assert p32 == 2 * p16

    def test_optimal_reduction_invariant(self, concat_conv_graph):
        """Quantisation rescales peaks but not the scheduler's *relative*
        win — the ratio is dtype-independent."""
        g8 = cast_graph(concat_conv_graph, "int8")

        def ratio(g):
            base = simulate_schedule(g, kahn_schedule(g)).peak_bytes
            return base / dp_schedule(g).peak_bytes

        assert ratio(concat_conv_graph) == pytest.approx(ratio(g8))

    def test_quantization_can_unlock_devices(self):
        from repro.models.swiftnet import swiftnet_cell_a
        from repro.scheduler.device import DeviceSpec, fit_to_device

        g = swiftnet_cell_a()
        tiny = DeviceSpec("tiny", 96 * 1024)
        assert not fit_to_device(g, tiny).fits
        assert fit_to_device(cast_graph(g, "int8"), tiny).fits

    def test_executable_after_cast(self, chain_graph):
        """The executor still runs a cast graph (it computes in its own
        float32 whatever the graph's dtypes; they drive the memory
        model)."""
        from repro.runtime.executor import Executor, random_feeds

        g8 = cast_graph(chain_graph, "int8")
        out = Executor(g8).run(random_feeds(g8))
        assert out
