"""Arena PlanExecutor vs reference dict Executor: wall-time and memory.

Executes suite cells under both runtimes on identical weights/inputs
and reports, per cell:

* wall-clock per inference (median of a few runs);
* Python-heap peak (``tracemalloc``) during execution — the dict
  executor allocates one fresh array per node and frees by refcount,
  while the arena executor pays one upfront arena allocation;
* the arena executor's measured high-water mark vs its plan;
* batched throughput: one ``run_batch`` over 8 stacked samples vs 8
  solo arena runs (per-sample wall time), on the paper's benchmark
  cells — these are compute-heavier than the micro serving suite, so
  the dispatch-amortisation win is smaller here; the figure tracks
  where batching stops paying.

Hard assertions are host-independent: outputs bitwise-equal (batched
samples included), measured arena peak within the plan. Timings are
reported, not asserted (NumPy kernel temporaries dominate both
executors) — and written machine-readable to
``benchmarks/results/BENCH_executor.json`` so the perf trajectory is
tracked across PRs.

Marked ``slow``; set ``REPRO_BENCH_QUICK=1`` (as CI does) to run a
single small cell.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.compiler import CompilationPipeline
from repro.models.suite import get_cell
from repro.runtime.executor import Executor, init_params, random_feeds

pytestmark = pytest.mark.slow

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
CELLS = ["swiftnet-c"] if QUICK else ["swiftnet-c", "swiftnet-b", "darts-normal"]
ROUNDS = 2 if QUICK else 5
BATCH = 8


def _timed(fn, rounds: int):
    """(median seconds, tracemalloc peak bytes, last result)."""
    times = []
    result = None
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return sorted(times)[len(times) // 2], peak, result


def run() -> list[dict]:
    rows = []
    for key in CELLS:
        graph = get_cell(key).factory()
        model = CompilationPipeline("serenity").compile(graph)
        params = init_params(model.graph)
        feeds = random_feeds(model.graph)

        ref = Executor(model.graph, params=params)
        ref_s, ref_peak, ref_out = _timed(lambda: ref.run(feeds), ROUNDS)

        px = model.executor(params=params)
        plan_s, plan_peak, plan_out = _timed(lambda: px.run(feeds), ROUNDS)

        # batched: one stacked pass over BATCH samples vs BATCH solo runs
        batched = model.executor(params=params, batch_size=BATCH)
        sample_feeds = [random_feeds(model.graph, seed=i) for i in range(BATCH)]
        stacked = {
            k: np.stack([f[k] for f in sample_feeds]) for k in sample_feeds[0]
        }
        batch_out = batched.run_batch(stacked)  # warm + parity source
        solo_s, _, _ = _timed(
            lambda: [px.run(f) for f in sample_feeds], ROUNDS
        )
        batch_s, _, _ = _timed(lambda: batched.run_batch(stacked), ROUNDS)
        batch_refs = [ref.run(f) for f in sample_feeds]

        rows.append(
            {
                "key": key,
                "nodes": len(model.graph),
                "ref_s": ref_s,
                "ref_peak": ref_peak,
                "plan_s": plan_s,
                "plan_peak": plan_peak,
                "arena_bytes": model.arena_bytes,
                "measured": px.last_stats.measured_peak_bytes,
                "ref_out": ref_out,
                "plan_out": plan_out,
                "solo_batch_s": solo_s,
                "batch_s": batch_s,
                "batch_speedup": solo_s / batch_s if batch_s else float("inf"),
                "batch_out": batch_out,
                "batch_refs": batch_refs,
                "arena_bytes_batched": model.arena_bytes_for(BATCH),
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        "arena PlanExecutor vs reference dict Executor "
        f"({'quick' if QUICK else 'full'} mode, {ROUNDS} rounds)",
        "",
        f"  {'cell':<14s} {'nodes':>5s} {'dict ms':>9s} {'arena ms':>9s}"
        f" {'dict heap KB':>13s} {'arena heap KB':>14s} {'plan KB':>8s}"
        f" {'batch8':>7s}",
    ]
    for r in rows:
        lines.append(
            f"  {r['key']:<14s} {r['nodes']:>5d} {r['ref_s'] * 1e3:>9.2f}"
            f" {r['plan_s'] * 1e3:>9.2f} {r['ref_peak'] / 1024:>13.1f}"
            f" {r['plan_peak'] / 1024:>14.1f} {r['arena_bytes'] / 1024:>8.1f}"
            f" {r['batch_speedup']:>6.2f}x"
        )
    lines.append("")
    lines.append(
        "  (heap = tracemalloc peak during execution; the arena run pays "
        "one upfront arena allocation, the dict run per-node arrays; "
        f"batch8 = samples/s of one run_batch({BATCH}) over {BATCH} solo "
        "arena runs)"
    )
    return "\n".join(lines)


def payload(rows: list[dict]) -> dict:
    """The machine-readable BENCH_executor.json document."""
    return {
        "quick": QUICK,
        "rounds": ROUNDS,
        "batch": BATCH,
        "cells": [
            {
                "cell": r["key"],
                "nodes": r["nodes"],
                "dict_ms": r["ref_s"] * 1e3,
                "arena_ms": r["plan_s"] * 1e3,
                "dict_heap_peak_bytes": r["ref_peak"],
                "arena_heap_peak_bytes": r["plan_peak"],
                "arena_bytes": r["arena_bytes"],
                "arena_bytes_batched": r["arena_bytes_batched"],
                "measured_peak_bytes": r["measured"],
                "samples_per_s_solo": BATCH / r["solo_batch_s"],
                "samples_per_s_batched": BATCH / r["batch_s"],
                "batch_speedup": r["batch_speedup"],
            }
            for r in rows
        ],
    }


def test_executor_smoke(benchmark, save_result, save_json):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("executor_smoke", render(rows))
    save_json("executor", payload(rows))

    for r in rows:
        # the plan executor is an executor, not an approximation
        assert set(r["ref_out"]) == set(r["plan_out"])
        for name in r["ref_out"]:
            np.testing.assert_array_equal(r["ref_out"][name], r["plan_out"][name])
        # batched samples are bitwise the reference executor's too
        for b, want in enumerate(r["batch_refs"]):
            assert set(want) == set(r["batch_out"])
            for name in want:
                np.testing.assert_array_equal(
                    want[name], r["batch_out"][name][b]
                )
        # and its plan holds at runtime
        assert r["measured"] <= r["arena_bytes"]


if __name__ == "__main__":  # pragma: no cover - manual profiling entry
    print(render(run()))
