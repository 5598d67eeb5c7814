"""Model zoo: structure, determinism, paper-matched facts."""

import pytest

from repro.graph.partition import find_cut_nodes, partition_at_cuts
from repro.models.darts import DARTS_V2_NORMAL, darts_normal_cell
from repro.models.nasnet import nasnet_a_cell
from repro.models.randwire import random_dag, randwire_stage
from repro.models.suite import BENCHMARK_SUITE, get_cell, suite_cells
from repro.models.swiftnet import (
    SWIFTNET_PARTITION,
    swiftnet_cell_a,
    swiftnet_cell_b,
    swiftnet_cell_c,
    swiftnet_hpd,
)
from repro.rewriting.rewriter import rewrite_graph


class TestSwiftNet:
    def test_cell_node_counts(self):
        assert len(swiftnet_cell_a()) == 21
        assert len(swiftnet_cell_b()) == 20  # 19 owned + boundary stub
        assert len(swiftnet_cell_c()) == 23  # 22 owned + boundary stub

    def test_full_network_62_nodes(self):
        assert len(swiftnet_hpd()) == 62

    def test_table2_partition(self):
        """62 = {21, 19, 22} at the two cell boundaries."""
        g = swiftnet_hpd()
        segs = partition_at_cuts(
            g,
            cuts=[
                c
                for c in find_cut_nodes(g)
                if c.name in ("A/tail_dw", "B/tail_pw")
            ],
            min_segment_nodes=2,
        )
        assert tuple(len(s.owned) for s in segs) == SWIFTNET_PARTITION

    def test_cell_boundaries_are_cuts(self):
        g = swiftnet_hpd()
        cuts = {c.name for c in find_cut_nodes(g)}
        assert {"A/tail_dw", "B/tail_pw"} <= cuts

    def test_rewriting_fires_on_every_cell(self):
        for factory in (swiftnet_cell_a, swiftnet_cell_b, swiftnet_cell_c):
            res = rewrite_graph(factory())
            assert res.applied == 2  # one channel-wise + one kernel-wise

    def test_cells_stack_shape_compatible(self):
        a = swiftnet_cell_a()
        out_a = a.node(a.sinks[0]).output.shape
        b = swiftnet_cell_b(out_a)
        out_b = b.node(b.sinks[0]).output.shape
        swiftnet_cell_c(out_b)

    def test_concats_marked_as_views(self):
        g = swiftnet_cell_a()
        cats = [n for n in g if n.op == "concat"]
        assert cats and all(c.memory.view for c in cats)

    def test_graphs_validate(self):
        for factory in (
            swiftnet_cell_a,
            swiftnet_cell_b,
            swiftnet_cell_c,
            swiftnet_hpd,
        ):
            factory().validate()


class TestDARTS:
    def test_genotype_is_published_v2(self):
        ops = [op for op, _ in DARTS_V2_NORMAL]
        assert ops.count("sep_conv_3x3") == 5
        assert ops.count("skip_connect") == 2
        assert ops.count("dil_conv_3x3") == 1

    def test_two_inputs(self):
        g = darts_normal_cell()
        assert g.input_nodes == ["c_km2", "c_km1"]

    def test_concat_is_sink_so_no_rewrites(self):
        g = darts_normal_cell()
        assert rewrite_graph(g).applied == 0

    def test_intermediate_states_concatenated(self):
        g = darts_normal_cell(channels=16, hw=8)
        out = g.node("cell_out")
        assert out.op == "concat"
        assert out.output.shape == (64, 8, 8)  # 4 states x 16 channels

    def test_rounds_scale_node_count(self):
        one = darts_normal_cell(rounds=1)
        two = darts_normal_cell(rounds=2)
        assert len(two) > len(one)

    def test_skip_connect_feeds_add_directly(self):
        g = darts_normal_cell()
        # node 4's second op and node 5's first op are skips of s0
        add4 = g.node("n4/add")
        assert "pre0/conv" in add4.inputs

    def test_validates(self):
        darts_normal_cell().validate()


class TestRandWire:
    def test_dag_acyclic_and_seeded(self):
        import networkx as nx

        d1 = random_dag(16, "ws", seed=3)
        d2 = random_dag(16, "ws", seed=3)
        assert nx.is_directed_acyclic_graph(d1)
        assert set(d1.edges) == set(d2.edges)

    def test_different_seeds_differ(self):
        d1 = random_dag(16, "ws", seed=1)
        d2 = random_dag(16, "ws", seed=2)
        assert set(d1.edges) != set(d2.edges)

    @pytest.mark.parametrize("gen", ["ws", "er", "ba"])
    def test_generators_supported(self, gen):
        g = randwire_stage(n=10, channels=4, hw=8, generator=gen, seed=0)
        g.validate()

    def test_unknown_generator(self):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            random_dag(8, "zz", seed=0)

    def test_native_ws_wiring_is_networkx_draw_for_draw(self):
        """The suite and serving cells, then 20 random settings (tiny
        and saturated rings, p at both ends, k == n included): the
        native generator's edges are the ones networkx produces."""
        import random

        import networkx as nx

        from repro.models.randwire import _dag_edges

        settings = [  # (n, k, p, seed) of every WS cell the repo builds
            (24, 4, 0.75, 10), (20, 4, 0.75, 11), (24, 4, 0.75, 100),
            (20, 4, 0.75, 101), (16, 4, 0.75, 102), (10, 4, 0.75, 7),
            (10, 4, 0.75, 11),
        ]
        rng = random.Random(2020)
        for _ in range(20):
            n = rng.randint(3, 40)
            settings.append(
                (n, rng.randint(2, n), rng.choice([0.0, 0.1, 0.5, 0.75, 1.0]),
                 rng.randrange(10**6))
            )
        for n, k, p, seed in settings:
            und = nx.connected_watts_strogatz_graph(n, k, p, seed=seed)
            want = {(min(u, v), max(u, v)) for u, v in und.edges()}
            assert _dag_edges(n, "ws", seed, k=k, p=p) == want, (n, k, p, seed)

    def test_ws_cells_build_without_importing_networkx(self):
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.models.suite import BENCHMARK_SUITE, serving_suite\n"
            "for spec in BENCHMARK_SUITE.values(): spec.factory()\n"
            "for factory in serving_suite().values(): factory()\n"
            "assert 'networkx' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)

    def test_ws_needs_k_at_most_n(self):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError, match="k <= n"):
            randwire_stage(n=3, channels=4, hw=8, k=4)

    def test_stage_deterministic(self):
        a = randwire_stage(n=12, channels=4, hw=8, seed=5)
        b = randwire_stage(n=12, channels=4, hw=8, seed=5)
        assert a == b

    def test_no_concat_so_rewriting_is_noop(self):
        g = randwire_stage(n=12, channels=4, hw=8, seed=5)
        assert rewrite_graph(g).applied == 0

    def test_single_sink_projection(self):
        g = randwire_stage(n=12, channels=4, hw=8, seed=5)
        assert g.sinks == ["out/proj"]


class TestNASNet:
    def test_builds_and_validates(self):
        nasnet_a_cell(channels=8, hw=8).validate()

    def test_concat_collects_loose_states(self):
        g = nasnet_a_cell(channels=8, hw=8)
        assert g.node("cell_out").op == "concat"


class TestSuite:
    def test_nine_cells_in_paper_order(self):
        keys = [c.key for c in suite_cells()]
        assert keys == [
            "darts-normal",
            "swiftnet-a",
            "swiftnet-b",
            "swiftnet-c",
            "randwire-c10-a",
            "randwire-c10-b",
            "randwire-c100-a",
            "randwire-c100-b",
            "randwire-c100-c",
        ]

    def test_paper_ratios_consistent_with_raw_kb(self):
        for spec in suite_cells():
            assert spec.paper_ratio_dp == pytest.approx(
                spec.paper_tflite_kb / spec.paper_dp_kb
            )
            assert spec.paper_ratio_gr >= spec.paper_ratio_dp - 1e-9

    def test_factories_produce_valid_graphs(self):
        for spec in suite_cells():
            spec.factory().validate()

    def test_get_cell_unknown(self):
        with pytest.raises(KeyError, match="unknown benchmark cell"):
            get_cell("bogus")

    def test_registry_is_keyed_consistently(self):
        for key, spec in BENCHMARK_SUITE.items():
            assert spec.key == key
