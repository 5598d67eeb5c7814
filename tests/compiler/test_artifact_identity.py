"""Golden identity of the compile artifact on the paper's suite.

``artifact_golden.json`` was recorded from the last commit that measured
a schedule at seven sites and assembled artifacts in two functions, by
running this file as a script. The one-path pipeline (strategy ->
``registry.measure`` -> ``pipeline.freeze``) must reproduce every
artifact byte for byte — graph, order, offsets, signatures, metadata
and its key order — cold and served from the schedule cache. Only the
two wall-clock fields are dropped before hashing.

Re-record only together with a ``StrategySpec.version`` bump or an
``ARTIFACT_FORMAT`` change:

    PYTHONPATH=src python tests/compiler/test_artifact_identity.py \
        > tests/compiler/artifact_golden.json
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.compiler.pipeline import CompilationPipeline
from repro.models.suite import BENCHMARK_SUITE
from repro.scheduler.cache import ScheduleCache

STRATEGIES = ("kahn", "greedy", "serenity")
GOLDEN_PATH = Path(__file__).with_name("artifact_golden.json")
TIME_FIELDS = ("schedule_time_s", "compile_time_s")


def artifact_sha256(model) -> str:
    doc = model.to_doc()
    for field in TIME_FIELDS:
        doc["meta"].pop(field, None)
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def measure(cell: str, strategy: str, cache_dir) -> dict:
    """Cold then warm compile of one cell through one cache directory."""
    pipeline = CompilationPipeline(strategy, cache=ScheduleCache(cache_dir))
    graph = BENCHMARK_SUITE[cell].factory
    cold, warm = pipeline.compile(graph()), pipeline.compile(graph())
    assert not cold.meta["cached"] and warm.meta["cached"]
    return {"cold": artifact_sha256(cold), "warm": artifact_sha256(warm)}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("cell", list(BENCHMARK_SUITE))
def test_matches_recorded_golden(cell, strategy, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert measure(cell, strategy, tmp_path) == golden[f"{cell}/{strategy}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(
            json.dumps(
                {
                    f"{c}/{s}": measure(c, s, Path(tmp) / c / s)
                    for c in BENCHMARK_SUITE
                    for s in STRATEGIES
                },
                indent=1,
            )
        )
