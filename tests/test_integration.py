"""End-to-end integration across subsystems.

Whole-network compilations, cross-subsystem consistency (scheduler ↔
allocator ↔ memsim ↔ executor), quantised and alternative-generator
variants — the paths a downstream user actually strings together.
"""

import pytest

from repro import (
    DeviceSpec,
    Serenity,
    SerenityConfig,
    cast_graph,
    fit_to_device,
    kahn_schedule,
    offchip_traffic,
    simulate_schedule,
    verify_rewrite,
)
from repro.models import randwire_stage, swiftnet_hpd
from repro.rewriting import rewrite_graph


@pytest.fixture(scope="module")
def hpd_report():
    return Serenity(SerenityConfig(max_states_per_step=20_000)).compile(
        swiftnet_hpd()
    )


class TestFullSwiftNet:
    def test_pipeline_reduces_peak(self, hpd_report):
        assert hpd_report.reduction_with_alloc > 1.5

    def test_rewrites_fired_in_every_cell(self, hpd_report):
        assert hpd_report.rewrite_count == 6  # 2 patterns x 3 cells

    def test_partitioned_into_many_segments(self, hpd_report):
        assert hpd_report.divide is not None
        assert len(hpd_report.divide.partition_sizes) >= 3

    def test_schedule_simulates_to_reported_peak(self, hpd_report):
        sim = simulate_schedule(
            hpd_report.scheduled_graph, hpd_report.schedule, validate=True
        )
        assert sim.peak_bytes == hpd_report.peak_bytes

    def test_rewrite_of_full_network_is_identity(self):
        g = swiftnet_hpd()
        res = rewrite_graph(g)
        report = verify_rewrite(g, res)
        assert report.equivalent
        assert report.max_abs_error < 1e-9

    def test_traffic_improves_at_256kb(self, hpd_report):
        g = hpd_report.graph
        base = offchip_traffic(g, kahn_schedule(g), 256 * 1024).total_bytes
        ours = offchip_traffic(
            hpd_report.scheduled_graph, hpd_report.schedule, 256 * 1024
        ).total_bytes
        assert ours < base

    def test_int8_fits_a_quarter_budget(self, hpd_report):
        g8 = cast_graph(swiftnet_hpd(), "int8")
        fp32_arena = hpd_report.arena_bytes
        fit = fit_to_device(g8, DeviceSpec("quarter", fp32_arena // 3))
        assert fit.fits


class TestAlternativeGenerators:
    @pytest.mark.parametrize("generator", ["er", "ba"])
    def test_full_pipeline_on_other_random_families(self, generator):
        g = randwire_stage(n=14, channels=8, hw=8, generator=generator, seed=2)
        rep = Serenity(SerenityConfig(max_states_per_step=20_000)).compile(g)
        rep.schedule.validate(rep.scheduled_graph)
        assert rep.peak_bytes <= rep.baseline_peak_bytes
        assert rep.rewrite_count == 0  # no concats in RandWire units


class TestCrossSubsystemConsistency:
    def test_arena_never_below_sum_of_live(self, hpd_report):
        assert hpd_report.arena_bytes >= hpd_report.peak_bytes

    def test_trace_final_footprint_is_outputs(self, hpd_report):
        trace = hpd_report.trace()
        g = hpd_report.scheduled_graph
        from repro.scheduler.memory import BufferModel

        model = BufferModel.of(g)
        persistent = sum(
            model.buf_size[b]
            for b in range(model.n_buffers)
            if model.buf_persistent[b]
        )
        assert trace.final_bytes == persistent

    def test_quantized_graph_full_pipeline(self):
        g8 = cast_graph(swiftnet_hpd(), "int8")
        rep = Serenity(SerenityConfig(max_states_per_step=20_000)).compile(g8)
        assert rep.peak_bytes * 4 == pytest.approx(
            Serenity(SerenityConfig(max_states_per_step=20_000))
            .compile(swiftnet_hpd())
            .peak_bytes,
            rel=1e-12,
        )

    def test_serialization_round_trip_preserves_scheduling(self, tmp_path):
        from repro.graph import load_graph, save_graph
        g = swiftnet_hpd()
        path = tmp_path / "hpd.json"
        save_graph(g, path)
        g2 = load_graph(path)
        from repro.scheduler.divide import DivideAndConquerScheduler

        p1 = DivideAndConquerScheduler().schedule(g).peak_bytes
        p2 = DivideAndConquerScheduler().schedule(g2).peak_bytes
        assert p1 == p2
