"""One statement of the spill-plan invariants: every site that accepts a
``SpillPlan`` refuses exactly the plans the static verifier rejects.

The mutation corpus runs over artifacts built the way
``scripts/compile_suite.py`` builds them (whole-buffer plans at the
floor, 50% and 75% of the arena, plus one 8 KiB tiled plan below the
whole-buffer floor). For every spill-family mutant,
``CompiledModel.from_doc`` raises :class:`SpillError` exactly when
``analyze_artifact`` reports a ``SPILL_*`` / ``PREFETCH_*`` error, and a
``PlanExecutor`` handed the mutated plan refuses it at construction —
before a single view is bound, so nothing runs a plan the verifier
rejects."""

import json
from dataclasses import replace

import pytest

from repro.allocator.spill import SpillPlan, min_capacity_bytes, plan_spill
from repro.analysis import analyze_artifact, iter_mutants
from repro.compiler.model import CompiledModel
from repro.compiler.pipeline import CompilationPipeline
from repro.exceptions import AllocationError, SpillError
from repro.models.suite import get_cell, suite_cells
from repro.runtime.executor import init_params
from repro.runtime.plan_executor import PlanExecutor

SPILL_CLASSES = frozenset(
    {
        "capacity_floor",
        "tile_floor",
        "dropped_fetch",
        "dropped_tile_fetch",
        "home_overlap",
        "overlapping_prefetch_lead",
        "overlapping_tile_slot",
        "premature_writeback",
        "truncated_lifetime",
    }
)


def _suite_artifact(key: str):
    """``(model, doc)``: one cell compiled and spill-planned as
    ``scripts/compile_suite.py`` does, the doc JSON round-tripped."""
    model = CompilationPipeline("greedy").compile(get_cell(key).factory())
    graph, schedule, plan = model.graph, model.schedule, model.plan
    floor = min_capacity_bytes(graph, schedule)
    arena = plan.arena_bytes
    caps = sorted({max(floor, arena // 2), max(floor, arena * 3 // 4), floor})
    spills = [plan_spill(graph, schedule, plan, cap) for cap in caps]
    tile_floor = min_capacity_bytes(graph, schedule, tile_bytes=8192)
    tiled_cap = max(tile_floor, min(floor - 1, tile_floor * 2))
    if tiled_cap < floor:
        spills.append(
            plan_spill(graph, schedule, plan, tiled_cap, tile_bytes=8192)
        )
    doc = replace(model, spill_plans=tuple(spills)).to_doc()
    return model, json.loads(json.dumps(doc))


def _spill_rejected(doc) -> bool:
    report = analyze_artifact(doc, level="basic")
    return any(d.code.startswith(("SPILL_", "PREFETCH_")) for d in report.errors)


def _assert_every_site_refuses(model, clean, mutated, params):
    """The verifier rejects ``mutated``, ``from_doc`` raises
    :class:`SpillError`, and an executor refuses each changed plan."""
    assert _spill_rejected(mutated)
    with pytest.raises(SpillError):
        CompiledModel.from_doc(mutated)
    changed = [
        SpillPlan.from_doc(sp)
        for sp, was in zip(mutated["spill_plans"], clean["spill_plans"])
        if sp != was
    ]
    assert changed
    for sp in changed:
        with pytest.raises(SpillError):
            PlanExecutor(
                model.graph, model.schedule, model.plan, params=params, spill=sp
            )


@pytest.mark.parametrize("key", [cell.key for cell in suite_cells()])
def test_every_site_agrees_with_the_verifier(key):
    model, doc = _suite_artifact(key)
    # clean: the verifier reads zero findings and from_doc accepts
    assert not analyze_artifact(doc, level="basic").diagnostics
    CompiledModel.from_doc(doc)
    params = init_params(model.graph, 0)
    seen = set()
    for mutant in iter_mutants(doc):
        if mutant.name in SPILL_CLASSES:
            seen.add(mutant.name)
            _assert_every_site_refuses(model, doc, mutant.doc, params)
    assert seen == SPILL_CLASSES


class TestHandMadeOverruns:
    """Slots that start inside their region but end 8 bytes past it:
    the verifier's bounds codes name them and every site refuses them."""

    @pytest.fixture(scope="class")
    def artifact(self):
        model, doc = _suite_artifact("randwire-c10-b")
        return model, doc, init_params(model.graph, 0)

    def test_home_slot_past_the_spill_region(self, artifact):
        model, doc, params = artifact
        bad = json.loads(json.dumps(doc))
        sp = bad["spill_plans"][0]
        last = max(sp["home_offsets"], key=sp["home_offsets"].get)
        sp["home_offsets"][last] = sp["spill_bytes"] - 8
        codes = analyze_artifact(bad, level="basic").codes()
        assert codes == {"SPILL_HOME_BOUNDS"}
        _assert_every_site_refuses(model, doc, bad, params)

    def test_staging_slot_past_the_resident_region(self, artifact):
        model, doc, params = artifact
        bad = json.loads(json.dumps(doc))
        sp = bad["spill_plans"][0]
        ws = next(iter(sp["windows"].values()))
        ws[0][2] = sp["resident_bytes"] - 8
        assert "SPILL_BOUNDS" in analyze_artifact(bad, level="basic").codes()
        _assert_every_site_refuses(model, doc, bad, params)


def test_dropped_offset_is_an_allocation_error(tmp_path):
    """An artifact whose plan lost a buffer's offset fails to load with
    a plan error naming the buffer, at every verify level."""
    _, doc = _suite_artifact("swiftnet-a")
    (mutant,) = [m for m in iter_mutants(doc) if m.name == "dropped_offset"]
    names_it = f"no offset for buffer {doc['plan']['buffers'][-1]['id']}"
    with pytest.raises(AllocationError, match=names_it):
        CompiledModel.from_doc(mutant.doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(mutant.doc))
    for level in ("none", "basic", "full"):
        with pytest.raises(AllocationError, match=names_it):
            CompiledModel.load(path, verify=level)
