"""The benchmark harness's contract with the library.

``benchmarks/e2e`` is outside ``testpaths`` and changes only with the
benchmark itself, yet it imports names from ``src/`` that nothing else
here pins: ``store_outcome``, ``StrategyOutcome``'s keywords, a
strategy's ``rewrites``/``name``/``cache_key``, ``CompilationPipeline``
and ``Serenity(SerenityConfig(rewrite=False))``. Importing its modules
and driving its compile side over one cell per workload turns a deleted
or renamed name into a failure here instead of a benchmark run that
cannot start.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]

import layers  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_harness_modules_import():
    assert callable(layers.compile_peel) and callable(layers.request_peel)
    assert callable(loadgen.closed_loop) and callable(loadgen.open_loop)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_compile_peel_on_one_cell(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    cell = wl.cells[0]
    models, paths, counts = layers.compile_peel(
        replace(wl, cells=(cell,)), tmp_path, tracing.Tracer(False)
    )
    assert set(models) == set(paths) == {cell}
    model = models[cell]
    assert model.strategy == wl.strategy
    # the pipeline served the entry the harness stored by hand
    assert model.meta["cached"] is True
    assert counts["cache_hit_rate"] == 1.0
    assert counts["arena"] == model.arena_bytes
    assert counts["diagnostics"] == 0
    if wl.strategy == "serenity":
        assert counts["states"] > 0
