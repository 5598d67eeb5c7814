"""Static plan verifier: clean passes, targeted invariant triggers,
report/diagnostic mechanics, and the load-time verification hook."""

import json
from dataclasses import replace

import pytest

from repro.allocator.spill import min_capacity_bytes, plan_spill
from repro.analysis import analyze_artifact, analyze_model, analyze_plan
from repro.analysis.diagnostics import ERROR, WARNING, AnalysisReport, Diagnostic
from repro.compiler.model import CompiledModel
from repro.compiler.pipeline import CompilationPipeline
from repro.exceptions import PlanVerificationError
from repro.models.suite import get_cell


@pytest.fixture(scope="module")
def compiled():
    """One suite cell compiled with an embedded spill + prefetch plan."""
    model = CompilationPipeline("greedy").compile(
        get_cell("swiftnet-a").factory()
    )
    floor = min_capacity_bytes(model.graph, model.schedule)
    cap = max(floor, model.plan.arena_bytes // 2)
    sp = plan_spill(
        model.graph, model.schedule, model.plan, cap, prefetch_lead=8
    )
    return replace(model, spill_plans=(sp,))


class _RawPlan:
    """The duck-typed plan surface ``analyze_plan`` accepts."""

    def __init__(self, offsets, arena_bytes):
        self.offsets = offsets
        self.arena_bytes = arena_bytes


def _raw(compiled, **override):
    offsets = dict(override.pop("offsets", compiled.plan.offsets))
    arena = override.pop("arena_bytes", compiled.plan.arena_bytes)
    assert not override
    return _RawPlan(offsets, arena)


class TestCleanPlans:
    def test_compiled_model_passes_full(self, compiled):
        report = analyze_model(compiled, level="full", batch_sizes=(1, 8))
        assert report.ok
        assert len(report) == 0
        for family in ("schedule", "hazards", "arena", "reads", "spill",
                       "prefetch"):
            assert family in report.checks
        assert "PASS" in report.summary()

    def test_artifact_document_passes(self, compiled):
        report = analyze_artifact(compiled.to_doc(), level="full")
        assert report.ok and report.checks[0] == "artifact"

    def test_level_none_skips_everything(self, compiled):
        report = analyze_model(compiled, level="none")
        assert report.ok and report.checks == ()

    def test_level_basic_skips_read_replay(self, compiled):
        report = analyze_model(compiled, level="basic")
        assert report.ok
        assert "reads" not in report.checks and "arena" in report.checks

    def test_unknown_level_rejected(self, compiled):
        with pytest.raises(ValueError, match="verify level"):
            analyze_model(compiled, level="paranoid")


class TestScheduleInvariants:
    def test_duplicate_blocks_byte_analysis(self, compiled):
        order = list(compiled.schedule.order)
        order[-1] = order[0]
        report = analyze_plan(compiled.graph, order, compiled.plan)
        assert not report.ok
        assert {"SCHED_DUPLICATE", "SCHED_COVERAGE"} <= report.codes()
        # an unusable order gates every byte-level family
        assert report.checks == ("schedule",)

    def test_missing_node(self, compiled):
        order = list(compiled.schedule.order)[:-1]
        report = analyze_plan(compiled.graph, order, compiled.plan)
        assert "SCHED_COVERAGE" in report.codes()

    def test_topological_violation(self, compiled):
        order = list(reversed(compiled.schedule.order))
        report = analyze_plan(compiled.graph, order, compiled.plan)
        assert "SCHED_TOPO" in report.codes()
        # a complete (if misordered) schedule still gets arena checks
        assert "arena" in report.checks


class TestArenaInvariants:
    def test_live_overlap(self, compiled):
        lts = compiled.plan.lifetimes
        pair = next(
            (a, b)
            for i, a in enumerate(lts)
            for b in lts[i + 1 :]
            if a.overlaps(b)
        )
        offsets = dict(compiled.plan.offsets)
        offsets[pair[1].buffer_id] = offsets[pair[0].buffer_id]
        report = analyze_plan(
            compiled.graph,
            compiled.schedule,
            _raw(compiled, offsets=offsets),
        )
        assert "ARENA_OVERLAP" in report.codes()
        found = report.by_code("ARENA_OVERLAP")[0]
        assert found.buffer is not None and found.byte_range is not None

    def test_out_of_bounds(self, compiled):
        offsets = dict(compiled.plan.offsets)
        offsets[0] = compiled.plan.arena_bytes
        report = analyze_plan(
            compiled.graph,
            compiled.schedule,
            _raw(compiled, offsets=offsets),
        )
        assert "ARENA_BOUNDS" in report.codes()

    def test_stale_peak(self, compiled):
        report = analyze_plan(
            compiled.graph,
            compiled.schedule,
            _raw(compiled, arena_bytes=compiled.plan.arena_bytes + 64),
        )
        assert "ARENA_PEAK" in report.codes()

    def test_batched_row_overlap(self, compiled):
        raw = _raw(compiled, arena_bytes=compiled.plan.arena_bytes - 1)
        batched = analyze_plan(
            compiled.graph, compiled.schedule, raw, batch_sizes=(1, 8)
        )
        assert "ARENA_ROW_OVERLAP" in batched.codes()
        # at batch 1 the stride never replicates: bounds still fire,
        # but the row-aliasing verdict is batch-specific
        single = analyze_plan(compiled.graph, compiled.schedule, raw)
        assert "ARENA_ROW_OVERLAP" not in single.codes()
        assert "ARENA_BOUNDS" in single.codes()

    def test_dropped_offset(self, compiled):
        offsets = dict(compiled.plan.offsets)
        offsets.pop(max(offsets))
        report = analyze_plan(
            compiled.graph,
            compiled.schedule,
            _raw(compiled, offsets=offsets),
        )
        assert "ARENA_COVERAGE" in report.codes()


class TestArtifactLeniency:
    def test_wrong_format(self):
        report = analyze_artifact({"format": "not-a-model/9"})
        assert not report.ok and "ARTIFACT_FORMAT" in report.codes()

    def test_signature_mismatch_still_analyzes(self, compiled):
        doc = compiled.to_doc()
        doc["signature"] = "0" * len(doc["signature"])
        report = analyze_artifact(doc)
        assert "ARTIFACT_SIGNATURE" in report.codes()
        # the plan checks still ran despite the tampered signature
        assert "arena" in report.checks

    def test_unreadable_plan_reports_not_raises(self, compiled):
        doc = compiled.to_doc()
        doc["plan"] = {"schedule": None}
        report = analyze_artifact(doc)
        assert not report.ok and "ARTIFACT_PARSE" in report.codes()


class TestDiagnosticMechanics:
    def test_format_names_the_site(self):
        d = Diagnostic(
            code="ARENA_OVERLAP",
            severity=ERROR,
            message="boom",
            step=3,
            node="n1",
            buffer=7,
            byte_range=(0, 64),
        )
        s = d.format()
        assert "ARENA_OVERLAP" in s and "step 3" in s
        assert "'n1'" in s and "buffer 7" in s and "[0, 64)" in s

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="X", severity="fatal", message="m")

    def test_report_partitions_and_serializes(self):
        diags = (
            Diagnostic(code="A", severity=ERROR, message="e"),
            Diagnostic(code="B", severity=WARNING, message="w"),
        )
        report = AnalysisReport(
            target="t", diagnostics=diags, checks=("arena",), level="full"
        )
        assert not report.ok
        assert [d.code for d in report.errors] == ["A"]
        assert [d.code for d in report.warnings] == ["B"]
        doc = json.loads(json.dumps(report.to_doc()))
        assert doc["ok"] is False and len(doc["diagnostics"]) == 2
        assert "FAIL" in report.summary()

    def test_warnings_alone_still_pass(self):
        report = AnalysisReport(
            target="t",
            diagnostics=(Diagnostic(code="B", severity=WARNING, message="w"),),
            checks=("arena",),
            level="full",
        )
        assert report.ok and "warning" in report.summary()


class TestTiledSpillInvariants:
    """Tile-streamed plans: clean passes below the whole-buffer floor,
    and the tile-specific invariants trigger on corruption."""

    @pytest.fixture(scope="class")
    def tiled(self, compiled):
        """The compiled model with a tiled plan embedded at a capacity
        whole-buffer staging cannot plan."""
        floor = min_capacity_bytes(compiled.graph, compiled.schedule)
        tile_floor = min_capacity_bytes(
            compiled.graph, compiled.schedule, tile_bytes=8192
        )
        cap = max(tile_floor, min(floor - 1, tile_floor * 2))
        assert cap < floor, "fixture cell must have tile headroom"
        sp = plan_spill(
            compiled.graph,
            compiled.schedule,
            compiled.plan,
            cap,
            prefetch_lead=8,
            tile_bytes=8192,
        )
        return replace(compiled, spill_plans=(sp,)), sp

    def test_clean_tiled_plan_passes_full(self, tiled):
        model, sp = tiled
        assert sp.tile_bytes == 8192
        report = analyze_model(model, level="full", batch_sizes=(1, 8))
        assert report.ok and len(report) == 0, report.summary()

    def test_tiled_artifact_round_trip_passes(self, tiled):
        model, _ = tiled
        doc = json.loads(json.dumps(model.to_doc()))
        report = analyze_artifact(doc, level="full")
        assert report.ok and len(report) == 0, report.summary()

    def test_nonpositive_tile_flags_geometry(self, tiled):
        model, sp = tiled
        # bypass from_doc validation: corrupt the in-memory plan
        bad = replace(sp, tile_bytes=-8)
        report = analyze_plan(
            model.graph, model.schedule, model.plan, (bad,), level="full"
        )
        assert not report.ok
        assert "SPILL_TILE_GEOMETRY" in report.codes()

    def test_whole_buffer_capacity_now_below_tiled_floor(self, tiled):
        """Stripping tile_bytes from a below-floor tiled plan leaves a
        capacity no whole-buffer configuration can execute."""
        model, sp = tiled
        bad = replace(sp, tile_bytes=None)
        report = analyze_plan(
            model.graph, model.schedule, model.plan, (bad,), level="full"
        )
        assert not report.ok
        assert "SPILL_FLOOR" in report.codes()

    def test_shrunk_tile_breaks_slot_layout(self, tiled):
        """Window offsets are laid out for min(size, tile) slots; a
        different tile size must be caught, not silently reinterpreted."""
        model, sp = tiled
        bad = replace(sp, tile_bytes=sp.tile_bytes * 64)
        report = analyze_plan(
            model.graph, model.schedule, model.plan, (bad,), level="full"
        )
        assert not report.ok, "64x tile slots must not fit the same layout"


class TestBothLayoutsCheckedAlike:
    """One ``_check_layout`` runs on the base and the prefetch layout:
    the same corruption draws the same finding, in its own family."""

    @pytest.mark.parametrize(
        "which, code", [("base", "SPILL_BOUNDS"), ("prefetch", "PREFETCH_BOUNDS")]
    )
    def test_resident_slot_escaping_the_region(self, compiled, which, code):
        (sp,) = compiled.spill_plans
        layout = getattr(sp, which)
        b = max(layout.resident_offsets, key=layout.resident_offsets.get)
        moved = {**layout.resident_offsets, b: layout.resident_bytes}
        bad = replace(sp, **{which: replace(layout, resident_offsets=moved)})
        report = analyze_plan(
            compiled.graph, compiled.schedule, compiled.plan, (bad,)
        )
        assert code in report.codes(), report.summary()

    def test_layout_selection(self, compiled):
        (sp,) = compiled.spill_plans
        assert sp.layout(prefetch=True) is sp.prefetch
        assert sp.layout(prefetch=False) is sp.base
        assert replace(sp, prefetch=None).layout(prefetch=True) is sp.base
        assert (sp.resident_bytes, sp.windows) == (
            sp.base.resident_bytes,
            sp.base.windows,
        )


class TestLoadVerification:
    def test_corrupt_artifact_fails_load(self, compiled, tmp_path):
        doc = compiled.to_doc()
        doc["plan"]["arena_bytes"] = int(doc["plan"]["arena_bytes"]) + 4096
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlanVerificationError) as exc:
            CompiledModel.load(path)
        assert "ARENA_PEAK" in exc.value.report.codes()
        assert "ARENA_PEAK" in str(exc.value)

    def test_verify_none_skips_the_analyzer(self, compiled, tmp_path):
        doc = compiled.to_doc()
        doc["plan"]["arena_bytes"] = int(doc["plan"]["arena_bytes"]) + 4096
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        model = CompiledModel.load(path, verify="none")
        assert model.plan.arena_bytes == compiled.plan.arena_bytes + 4096

    def test_clean_artifact_loads_at_full(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "m.json")
        model = CompiledModel.load(path, verify="full")
        assert model.signature == compiled.signature

    def test_unknown_verify_level_rejected(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "m.json")
        with pytest.raises(ValueError, match="verify level"):
            CompiledModel.load(path, verify="paranoid")
