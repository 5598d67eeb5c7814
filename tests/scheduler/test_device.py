"""Device-targeted compilation (fit_to_device escalation)."""


from repro.scheduler.device import (
    AMBIQ_APOLLO3,
    KNOWN_DEVICES,
    SPARKFUN_EDGE,
    DeviceSpec,
    fit_to_device,
)


class TestDeviceSpecs:
    def test_sparkfun_budget_matches_paper(self):
        assert SPARKFUN_EDGE.sram_bytes == 250 * 1024
        assert SPARKFUN_EDGE.sram_kib == 250.0

    def test_registry(self):
        assert KNOWN_DEVICES["SparkFun Edge"] is SPARKFUN_EDGE
        assert len(KNOWN_DEVICES) >= 3


class TestFitToDevice:
    def test_tiny_graph_fits_at_baseline(self, chain_graph):
        fit = fit_to_device(chain_graph, SPARKFUN_EDGE)
        assert fit.fits and fit.stage == "baseline"
        assert len(fit.stages) == 1  # stop_early skipped later stages

    def test_stop_early_false_measures_all(self, concat_conv_graph):
        fit = fit_to_device(concat_conv_graph, SPARKFUN_EDGE, stop_early=False)
        assert [s.name for s in fit.stages] == ["baseline", "dp", "dp+rewriting"]

    def test_escalation_monotone(self, concat_conv_graph):
        fit = fit_to_device(concat_conv_graph, SPARKFUN_EDGE, stop_early=False)
        by = {s.name: s for s in fit.stages}
        assert by["dp"].peak_bytes <= by["baseline"].peak_bytes
        assert by["dp+rewriting"].peak_bytes <= by["dp"].peak_bytes

    def test_impossible_budget_reported(self, concat_conv_graph):
        nano = DeviceSpec("nano", 64)
        fit = fit_to_device(concat_conv_graph, nano)
        assert not fit.fits
        assert fit.stage is None
        assert fit.headroom_bytes < 0

    def test_dp_stage_unlocks_midsize_device(self):
        """A budget between the baseline peak and the DP peak should be
        satisfied exactly at the 'dp' stage."""
        from repro.models.swiftnet import swiftnet_cell_a
        from repro.scheduler.topological import kahn_schedule
        from repro.allocator.arena import arena_peak_bytes
        from repro.scheduler.divide import DivideAndConquerScheduler

        g = swiftnet_cell_a()
        baseline = arena_peak_bytes(g, kahn_schedule(g))
        dp = DivideAndConquerScheduler().schedule(g)
        dp_arena = arena_peak_bytes(g, dp.schedule)
        assert dp_arena < baseline
        midsize = DeviceSpec("midsize", (dp_arena + baseline) // 2)
        fit = fit_to_device(g, midsize)
        assert fit.fits and fit.stage == "dp"

    def test_summary_text(self, chain_graph):
        fit = fit_to_device(chain_graph, AMBIQ_APOLLO3)
        text = fit.summary()
        assert "Apollo3" in text and "DEPLOYABLE" in text

    def test_best_stage_has_lowest_arena(self, concat_conv_graph):
        fit = fit_to_device(concat_conv_graph, SPARKFUN_EDGE, stop_early=False)
        assert fit.best.arena_bytes == min(s.arena_bytes for s in fit.stages)

    def test_schedules_are_valid(self, concat_conv_graph):
        fit = fit_to_device(concat_conv_graph, SPARKFUN_EDGE, stop_early=False)
        by = {s.name: s for s in fit.stages}
        by["baseline"].schedule.validate(concat_conv_graph)
        by["dp"].schedule.validate(concat_conv_graph)

    def test_stages_are_the_registry_strategies(self, concat_conv_graph):
        """The ladder is three registry names: each stage carries exactly
        what ``run_strategy`` measures for its strategy."""
        from repro.scheduler.registry import run_strategy

        fit = fit_to_device(concat_conv_graph, SPARKFUN_EDGE, stop_early=False)
        ladder = ("kahn", "serenity-dp", "serenity")
        for stage, strategy in zip(fit.stages, ladder, strict=True):
            out = run_strategy(strategy, concat_conv_graph)
            assert stage.schedule == out.schedule
            assert (stage.peak_bytes, stage.arena_bytes) == (
                out.peak_bytes,
                out.arena_bytes,
            )
            assert stage.fits == out.fits(SPARKFUN_EDGE.sram_bytes)
