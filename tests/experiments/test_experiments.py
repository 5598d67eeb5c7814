"""Experiment harnesses: structure and paper-vs-measured rendering.

These run on the *small* suite cells (SwiftNet B/C) to stay fast; the
full suite is exercised by the benchmarks.
"""

import pytest

from repro.experiments import (
    ablations,
    common,
    fig2_pareto,
    fig3_cdf,
    fig10_peak,
    fig11_offchip,
    fig12_trace,
    table1_networks,
    table2_ablation,
)

FAST = ["swiftnet-b", "swiftnet-c"]


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    common.clear_cache()
    yield
    common.clear_cache()


class TestCommon:
    def test_compiled_is_cached(self):
        spec = next(s for s in _cells() if s.key == "swiftnet-c")
        a = common.compiled(spec, rewrite=False)
        b = common.compiled(spec, rewrite=False)
        assert a is b

    def test_suite_runs_subset(self):
        runs = common.suite_runs(FAST)
        assert [r.spec.key for r in runs] == FAST

    def test_compile_model_freezes_memoised_report(self):
        spec = next(s for s in _cells() if s.key == "swiftnet-c")
        report = common.compiled(spec, rewrite=True)
        model = common.compile_model(spec, rewrite=True)
        assert model.schedule.order == report.schedule.order
        assert model.arena_bytes == report.arena_bytes
        assert model.graph == report.scheduled_graph

    def test_cache_keys_follow_a_registry_version_bump(
        self, monkeypatch, tmp_path
    ):
        """The figure harness reads and writes the persistent cache
        under the registry's key, so a strategy ``version`` bump cannot
        leave it serving (or refreshing) the old behaviour's entries."""
        from dataclasses import replace

        from repro.graph.serialization import graph_signature
        from repro.scheduler import registry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        spec = next(s for s in _cells() if s.key == "swiftnet-c")
        signature = graph_signature(spec.factory())
        old = registry.get_strategy("serenity-dp")
        bumped = replace(old, version=old.version + "-bumped")
        monkeypatch.setitem(registry._REGISTRY, "serenity-dp", bumped)
        try:
            common.clear_cache()
            fresh = common.compiled(spec, rewrite=False)
            assert not fresh.from_cache
            cache = common.persistent_cache()
            assert cache.get(signature, bumped.cache_key) is not None
            assert cache.get(signature, old.cache_key) is None
            common.clear_cache()
            assert common.compiled(spec, rewrite=False).from_cache
        finally:
            common.clear_cache()


    @pytest.mark.parametrize("rewrite", [False, True])
    def test_cache_served_report_equals_a_direct_compile(
        self, monkeypatch, tmp_path, rewrite
    ):
        """Both are ``measure``d the same way: everything but the search
        statistics, the provenance flag and the wall clock agrees."""
        from repro.scheduler.serenity import Serenity

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        spec = next(s for s in _cells() if s.key == "swiftnet-b")
        try:
            common.clear_cache()
            common.compiled(spec, rewrite=rewrite)  # warm the directory
            common.clear_cache()
            served = common.compiled(spec, rewrite=rewrite)
        finally:
            common.clear_cache()
        direct = Serenity(common.default_config(rewrite)).compile(spec.factory())
        assert served.from_cache and not direct.from_cache
        assert served.divide is None and direct.divide is not None
        for attr in (
            "config",
            "graph",
            "scheduled_graph",
            "schedule",
            "peak_bytes",
            "arena_bytes",
            "baseline_peak_bytes",
            "baseline_arena_bytes",
            "rewrite_count",
            "reduction_no_alloc",
            "reduction_with_alloc",
        ):
            assert getattr(served, attr) == getattr(direct, attr), attr
        assert served.outcome.strategy == direct.outcome.strategy
        assert served.outcome.plan.offsets == direct.outcome.plan.offsets
        assert (served.trace().transients == direct.trace().transients).all()


def _cells():
    from repro.models.suite import suite_cells

    return suite_cells()


class TestFig10:
    def test_rows_and_ratios(self):
        rows = fig10_peak.run(FAST)
        assert len(rows) == 2
        for row in rows:
            assert row.ratio_dp >= 1.0
            assert row.ratio_gr >= row.ratio_dp - 1e-9

    def test_render_includes_paper_refs(self):
        out = fig10_peak.render(fig10_peak.run(FAST))
        assert "GEOMEAN" in out and "paper" in out


class TestFig11:
    def test_na_and_elimination_semantics(self):
        cells = fig11_offchip.run(FAST)
        for cell in cells:
            for cap, (base, ours, ratio) in cell.by_capacity.items():
                if ratio is None:
                    assert base == 0 and ours == 0
                if cell.eliminated_at(cap):
                    assert ours == 0 and base > 0

    def test_render(self):
        out = fig11_offchip.render(fig11_offchip.run(FAST))
        assert "32KB" in out and "256KB" in out

    def test_alternate_policy_from_shared_registry(self):
        """The --policy CLI knob resolves through the same registry the
        runtime spill planner uses; lru must simulate cleanly."""
        cells = fig11_offchip.run(FAST, policy="lru")
        for cell in cells:
            for base, ours, _ratio in cell.by_capacity.values():
                assert base >= 0 and ours >= 0


class TestFig12:
    def test_traces_structural(self):
        pairs = fig12_trace.run("swiftnet-c")
        dp, gr = pairs["dp"], pairs["dp+rewriting"]
        assert dp.alloc.max() >= dp.noalloc.max()  # arena can't beat ideal
        assert gr.peak_noalloc_kb <= dp.peak_noalloc_kb + 1e-9

    def test_arena_occupancy_matches_plan_peak(self):
        from repro.models.suite import get_cell

        rep = common.compiled(get_cell("swiftnet-c"), rewrite=False)
        occ = fig12_trace.arena_occupancy(rep)
        assert int(occ.max()) == rep.arena_bytes

    def test_render(self):
        out = fig12_trace.render(fig12_trace.run("swiftnet-c"))
        assert "rewriting reduction" in out


class TestFig3:
    def test_fractions_in_unit_interval(self):
        res = fig3_cdf.run("swiftnet-c", samples=200)
        assert 0 <= res.fraction_within_budget <= 1
        # optimal schedules are *rare* (the paper's 0.04% point): a small
        # sample may legitimately contain none
        assert 0 <= res.fraction_optimal <= 1

    def test_optimal_no_sample_beats_dp(self):
        res = fig3_cdf.run("swiftnet-c", samples=200)
        assert res.cdf.optimal_bytes >= res.optimal_bytes

    def test_render(self):
        out = fig3_cdf.render(fig3_cdf.run("swiftnet-c", samples=100))
        assert "cumulative distribution" in out


class TestTables:
    def test_table1_rows(self):
        rows = table1_networks.run()
        names = {r.network for r in rows}
        assert names == {
            "DARTS",
            "SwiftNet",
            "RandWire-CIFAR10",
            "RandWire-CIFAR100",
        }
        for r in rows:
            assert r.measured.macs > 0 and r.measured.weights > 0
        out = table1_networks.render(rows)
        assert "57.4" in out  # paper's SwiftNet MACs quoted

    def test_table2_swiftnet(self):
        rows = table2_ablation.run(include_auto_cuts=True)
        partitions = {
            r.partitions for r in rows if r.algorithm == "1+2" and not r.rewriting
        }
        assert (21, 19, 22) in partitions
        out = table2_ablation.render(rows)
        assert "62={21,19,22}" in out

    def test_fig2(self):
        out = fig2_pareto.render(fig2_pareto.run())
        assert "Pareto frontier" in out


class TestAblations:
    def test_allocator_rows(self):
        rows = ablations.allocator_ablation(FAST)
        for r in rows:
            assert r.first_fit_kb >= r.ideal_kb - 1e-9
            assert r.greedy_kb >= r.ideal_kb - 1e-9
        assert "overhead" in ablations.render_allocator(rows)

    def test_policy_rows(self):
        rows = ablations.policy_ablation(64, FAST)
        for _, t in rows:
            assert t["belady"] <= t["lru"]
        assert "belady" in ablations.render_policy(rows, 64)

    def test_asb_trajectory(self, hourglass_graph):
        res = ablations.asb_trajectory(hourglass_graph, max_states_per_step=2)
        out = ablations.render_trajectory(res)
        assert "probe" in out and res.probes[-1].outcome == "solution"
