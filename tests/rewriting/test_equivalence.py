"""Numerical identity of graph rewriting (the paper's 'not an
approximation method' claim), via the NumPy executor."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.rewriting.rewriter import rewrite_graph
from repro.runtime.verify import verify_rewrite


def _assert_identity(graph, seed=0):
    res = rewrite_graph(graph)
    assert res.applied >= 1, "pattern did not fire"
    report = verify_rewrite(graph, res, seed=seed)
    assert report.equivalent, f"max error {report.max_abs_error}"
    return report


class TestChannelWiseIdentity:
    def test_three_branches(self, concat_conv_graph):
        _assert_identity(concat_conv_graph)

    def test_stride_and_padding_variants(self):
        for stride, padding in ((1, "same"), (2, "same"), (1, "valid"), (2, 1)):
            b = GraphBuilder(f"cc-{stride}-{padding}")
            x = b.input("x", (3, 9, 9))
            l = b.conv2d(x, 2, kernel=3, name="l")
            r = b.conv2d(x, 5, kernel=1, name="r")
            cat = b.concat([l, r], name="cat")
            b.conv2d(cat, 4, kernel=3, stride=stride, padding=padding, name="head")
            _assert_identity(b.build())

    def test_without_bias(self):
        b = GraphBuilder("nobias")
        x = b.input("x", (3, 6, 6))
        l = b.conv2d(x, 2, name="l")
        r = b.conv2d(x, 3, name="r")
        cat = b.concat([l, r], name="cat")
        b.conv2d(cat, 4, kernel=3, use_bias=False, name="head")
        _assert_identity(b.build())

    def test_many_branches(self):
        b = GraphBuilder("wide")
        x = b.input("x", (2, 5, 5))
        branches = [b.conv2d(x, i + 1, name=f"b{i}") for i in range(5)]
        cat = b.concat(branches, name="cat")
        b.conv2d(cat, 3, kernel=3, name="head")
        _assert_identity(b.build())

    @pytest.mark.parametrize("seed", range(3))
    def test_seed_insensitive(self, concat_conv_graph, seed):
        _assert_identity(concat_conv_graph, seed=seed)

    def test_oracle_runs_in_float64(self, concat_conv_graph):
        """A float32 run of the split convolution differs by about 2e-7;
        only a float64 oracle gets below 1e-12."""
        assert _assert_identity(concat_conv_graph).max_abs_error < 1e-12


class TestKernelWiseIdentity:
    def test_two_branches_multiplier2(self, concat_depthwise_graph):
        _assert_identity(concat_depthwise_graph)

    def test_multiplier_one_strided(self):
        b = GraphBuilder("dw1")
        x = b.input("x", (3, 8, 8))
        l = b.conv2d(x, 2, name="l")
        r = b.conv2d(x, 4, name="r")
        cat = b.concat([l, r], name="cat")
        b.depthwise_conv2d(cat, kernel=3, stride=2, name="head")
        _assert_identity(b.build())

    def test_three_branches(self):
        b = GraphBuilder("dw3")
        x = b.input("x", (2, 6, 6))
        branches = [b.conv2d(x, i + 2, name=f"b{i}") for i in range(3)]
        cat = b.concat(branches, name="cat")
        b.depthwise_conv2d(cat, kernel=5, name="head")
        _assert_identity(b.build())


class TestCombined:
    def test_both_patterns_in_one_graph(self):
        b = GraphBuilder("both")
        x = b.input("x", (4, 8, 8))
        l = b.conv2d(x, 4, name="l")
        r = b.conv2d(x, 4, name="r")
        c1 = b.concat([l, r], name="c1")
        m = b.conv2d(c1, 6, kernel=3, name="m")
        p = b.conv2d(m, 4, name="p")
        q = b.conv2d(m, 4, name="q")
        c2 = b.concat([p, q], name="c2")
        b.depthwise_conv2d(c2, kernel=3, name="dw")
        _assert_identity(b.build())

    def test_swiftnet_cells_are_identities(self):
        from repro.models.swiftnet import swiftnet_cell_b, swiftnet_cell_c

        for factory in (swiftnet_cell_b, swiftnet_cell_c):
            _assert_identity(factory())

    def test_downstream_consumers_see_identical_values(self):
        """Equivalence holds at the *sink*, i.e. through ops consuming
        the rewritten subgraph's output."""
        b = GraphBuilder("deep")
        x = b.input("x", (3, 6, 6))
        l = b.conv2d(x, 2, name="l")
        r = b.conv2d(x, 3, name="r")
        cat = b.concat([l, r], name="cat")
        h = b.conv2d(cat, 4, kernel=3, name="head")
        g1 = b.global_avg_pool(h, name="gap")
        b.flatten(g1, name="flat")
        _assert_identity(b.build())
