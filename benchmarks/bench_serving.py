"""Serving throughput: stacked tensor batching, arena reuse, baselines.

Two layers of measurement over the micro serving suite (small irregular
stages where per-request churn and per-node NumPy dispatch — not kernel
compute — dominate, the paper's edge regime):

* **executor-level** — one batch-8 ``PlanExecutor.run_batch`` over
  stacked samples vs the same samples run solo, per model. This
  isolates the tentpole win: every kernel dispatches once per node per
  batch instead of once per node per sample.
* **serving-level** — identical synthetic workloads driven through the
  full runtime (registry -> arena pool -> request scheduler) under
  two configurations: stacked batching (``max_batch 8``, batch-
  capable pooled executors, preloaded) and solo pooled (``max_batch
  1``) — beside the fresh-allocation-per-request strawman, which this
  file builds itself (a fresh executor per request, run once,
  discarded): the pool has one mode, and the baseline it is measured
  against is a benchmark's business, not the product's.

A third layer measures the scaling story:

* **thread-workers sweep** (1/2/4) — the honest GIL baseline: NumPy
  kernels hold the GIL for most of a micro-cell run, so thread workers
  plateau. Recorded, not asserted — it is the wall the shards beat.
* **sharded A/B** — the identical workload through ``shards=1`` vs
  ``shards=N`` worker *processes* (sticky rendezvous routing, zero-copy
  shared-memory tensor rings), plus a separate sharded run with
  per-request **bitwise verification** on.

Hard assertions:

* batch 8 sustains **>= 2x** the samples/sec of batch 1 at the
  executor, with **per-sample bitwise parity** against the reference
  executor for every stacked sample. The same ratio through the full
  serving stack is recorded, not asserted: since the convolutions
  became prebound GEMMs a solo run is too fast for stacking to double
  it (1.20-1.39x on ten of ten QUICK repeats); the bound on the stacked
  serving path is ``serve-micro``'s ``req_per_s`` / ``p50_ms`` in
  ``BENCHMARK.json``;
* pooled serving stays **>= 2x** the fresh strawman's requests/sec (the
  PR-3 guarantee, unregressed);
* a concurrent verified run (4+ clients, 2 models, stacking on) returns
  outputs bitwise-equal to the reference executor for every request —
  and so does the sharded verified run, across processes;
* sharded req/s >= 1.8x single-process at 4 shards (full mode; QUICK
  asserts >= 1.0x at 2 shards). Process speedup needs processors: the
  bar is only *asserted* when the host has the cores to honestly pass
  it (>= 4 CPUs full, >= 2 quick); on smaller hosts the A/B still runs
  and is recorded, correctness still asserted.

Results are written machine-readable to
``benchmarks/results/BENCH_serving.json`` (req/s, samples/s, p50/p99,
arena peaks, workers sweep, per-shard stats) so the perf trajectory is
tracked across PRs. The two tests merge into the same document, so CI
can run them as separate steps (``-k "not sharded"`` / ``-k sharded``).

Marked ``slow``; set ``REPRO_BENCH_QUICK=1`` (as CI does) to shrink the
request counts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import CompilationPipeline
from repro.models.suite import serving_suite
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.serving import ModelRegistry, run_load

pytestmark = pytest.mark.slow

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REQUESTS = 120 if QUICK else 320
CLIENTS = 32  # deep client pool so worker queues actually form batches
# one worker serialises kernel execution, so the A/B isolates per-run
# dispatch amortisation; multi-worker thread scaling is measured (and
# shown to plateau) by the workers sweep, and beaten by the shards
WORKERS = 1
BATCH = 8
EXEC_ROUNDS = 20 if QUICK else 60
WORKER_SWEEP = (1, 2, 4)
SHARDS = 2 if QUICK else 4
CPUS = os.cpu_count() or 1
#: the sharded speedup bar is asserted only on hosts with the cores to
#: honestly pass it; below that it is recorded, correctness-only
SPEEDUP_BAR = (1.0, 2) if QUICK else (1.8, 4)


def build_registry() -> ModelRegistry:
    registry = ModelRegistry()
    pipeline = CompilationPipeline("greedy")
    for name, factory in serving_suite().items():
        registry.register(pipeline.compile(factory()), name=name)
    return registry


def measure_executor_batching(registry: ModelRegistry) -> list[dict]:
    """Per model: samples/s of one stacked run_batch vs solo runs.

    Also proves the batching contract — every stacked sample bitwise
    equals the reference executor on the same weights and feeds.
    """
    rows = []
    for name in registry.names():
        model = registry.get(name)
        graph = model.graph
        params = init_params(graph, seed=0)
        solo = model.executor(params=params, batch_size=1)
        batched = model.executor(params=params, batch_size=BATCH)
        feeds = [random_feeds(graph, seed=i) for i in range(BATCH)]
        stacked = {
            k: np.stack([f[k] for f in feeds]) for k in feeds[0]
        }

        # parity first (also warms both arenas before timing)
        ref = Executor(graph, params=params)
        outs = batched.run_batch(stacked)
        mismatched = 0
        for b in range(BATCH):
            want = ref.run(feeds[b])
            for k in want:
                if not np.array_equal(want[k], outs[k][b]):
                    mismatched += 1
        for f in feeds:
            solo.run(f)

        t0 = time.perf_counter()
        for _ in range(EXEC_ROUNDS):
            for f in feeds:
                solo.run(f)
        solo_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(EXEC_ROUNDS):
            batched.run_batch(stacked)
        batch_s = time.perf_counter() - t0

        samples = EXEC_ROUNDS * BATCH
        rows.append(
            {
                "model": name,
                "nodes": len(graph),
                "solo_samples_per_s": samples / solo_s,
                "batched_samples_per_s": samples / batch_s,
                "speedup": solo_s / batch_s,
                "bitwise_mismatches": mismatched,
                "arena_bytes_per_sample": model.arena_bytes,
                "arena_bytes_batched": model.arena_bytes_for(BATCH),
                "measured_peak_bytes": batched.last_stats.measured_peak_bytes,
            }
        )
    return rows


def measure_fresh(registry: ModelRegistry, requests: int = REQUESTS) -> dict:
    """The strawman arena reuse is measured against: every request
    builds its own executor (arena allocation, placement solving,
    parameter init), runs once and discards it.

    One thread, like the single worker the pooled runs execute on, over
    the request sequence ``run_load`` drives (request *i* targets
    ``names[i % len(names)]`` with feeds seeded ``i``)."""
    names = registry.names()
    latencies = []
    t0 = time.perf_counter()
    for i in range(requests):
        model = registry.get(names[i % len(names)])
        feeds = random_feeds(model.graph, seed=i)
        t1 = time.perf_counter()
        executor = model.executor(seed=0)
        executor.run(feeds)
        latencies.append(time.perf_counter() - t1)
    wall_s = time.perf_counter() - t0
    p50_s, p99_s = np.percentile(latencies, [50, 99])
    return {
        "requests": requests,
        "req_per_s": requests / wall_s,
        "p50_ms": float(p50_s) * 1e3,
        "p99_ms": float(p99_s) * 1e3,
    }


def run() -> dict:
    registry = build_registry()
    exec_rows = measure_executor_batching(registry)

    common = dict(
        requests=REQUESTS, clients=CLIENTS, workers=WORKERS, seed=0
    )
    # warm every path once so none pays first-touch costs in the
    # measured window
    run_load(registry, requests=CLIENTS, clients=CLIENTS, workers=WORKERS)
    measure_fresh(registry, requests=CLIENTS)
    # both measured pooled configs preload, so neither pays cold-start
    # builds in the measured window — the A/B isolates stacking
    batched = run_load(registry, max_batch=BATCH, preload=True, **common)
    solo = run_load(registry, max_batch=1, preload=True, **common)
    fresh = measure_fresh(registry)
    verified = run_load(
        registry,
        requests=max(24, REQUESTS // 4),
        clients=CLIENTS,
        workers=WORKERS,
        max_batch=BATCH,
        preload=True,
        verify=True,
    )
    # the GIL plateau the shards must beat: thread workers 1/2/4 over
    # the identical stacked-batching workload (recorded, not asserted)
    sweep = []
    for w in WORKER_SWEEP:
        r = run_load(
            registry, requests=REQUESTS, clients=CLIENTS, workers=w,
            max_batch=BATCH, preload=True, seed=0,
        )
        sweep.append(
            {
                "workers": w,
                "req_per_s": r.rps,
                "p50_ms": r.stats.p50_s * 1e3,
                "p99_ms": r.stats.p99_s * 1e3,
                "mean_batch": r.stats.mean_batch,
                "errors": r.errors,
            }
        )
    return {
        "exec": exec_rows,
        "batched": batched,
        "solo": solo,
        "fresh": fresh,
        "verified": verified,
        "workers_sweep": sweep,
    }


def run_sharded() -> dict:
    """The sharded-vs-single A/B plus a sharded bitwise-verified run.

    The timed pair differs in exactly one knob — ``shards`` — so the
    ratio is the process-sharding win and nothing else. Verification is
    deliberately *outside* the timed pair: the reference executor runs
    on the parent's CPU and would serialise the very parallelism being
    measured.
    """
    registry = build_registry()
    common = dict(
        requests=REQUESTS, clients=CLIENTS, workers=WORKERS,
        max_batch=BATCH, seed=0, preload=True,
    )
    # warm first-touch costs (schedule cache, imports) outside the A/B
    run_load(registry, requests=CLIENTS, clients=CLIENTS, workers=WORKERS)
    single = run_load(registry, **common)
    sharded = run_load(registry, shards=SHARDS, **common)
    verified = run_load(
        registry,
        requests=max(24, REQUESTS // 4),
        clients=CLIENTS,
        workers=WORKERS,
        max_batch=BATCH,
        preload=True,
        verify=True,
        shards=SHARDS,
    )
    return {"single": single, "sharded": sharded, "verified": verified}


def render(result: dict) -> str:
    batched, solo, fresh = result["batched"], result["solo"], result["fresh"]
    verified = result["verified"]
    lines = [
        "serving throughput: stacked batching vs solo vs fresh per request "
        f"({'quick' if QUICK else 'full'} mode)",
        "",
        f"executor-level: one run_batch({BATCH}) vs {BATCH} solo runs "
        f"({EXEC_ROUNDS} rounds)",
        f"  {'model':<14s} {'nodes':>5s} {'solo /s':>10s} {'batch /s':>10s}"
        f" {'speedup':>8s}",
    ]
    for r in result["exec"]:
        lines.append(
            f"  {r['model']:<14s} {r['nodes']:>5d}"
            f" {r['solo_samples_per_s']:>10.0f}"
            f" {r['batched_samples_per_s']:>10.0f}"
            f" {r['speedup']:>7.2f}x"
        )
    lines += [
        "",
        batched.summary(),
        "",
        solo.summary(),
        "",
        f"fresh executor per request: {fresh['requests']} requests, "
        f"{fresh['req_per_s']:.1f} req/s, p50 / p99 "
        f"{fresh['p50_ms']:.2f} / {fresh['p99_ms']:.2f} ms",
        "",
        f"batching speedup        : "
        f"{batched.rps / solo.rps:9.2f}x samples/sec "
        f"(batch {BATCH} vs batch 1)",
        f"arena reuse speedup     : "
        f"{batched.rps / fresh['req_per_s']:9.2f}x requests/sec vs a "
        "fresh executor per request",
        "",
        "concurrent verification run (stacking on):",
        verified.summary(),
    ]
    sweep = result["workers_sweep"]
    base = sweep[0]["req_per_s"] or 1.0
    lines += [
        "",
        f"thread-workers sweep (the GIL plateau, {CPUS} cpus):",
        f"  {'workers':>7s} {'req/s':>10s} {'vs 1':>6s} {'p99 ms':>8s}",
    ]
    for row in sweep:
        lines.append(
            f"  {row['workers']:>7d} {row['req_per_s']:>10.1f}"
            f" {row['req_per_s'] / base:>5.2f}x {row['p99_ms']:>8.2f}"
        )
    lines.append(
        "  (NumPy kernels hold the GIL for most of a micro-cell run; "
        "thread workers plateau — process shards are the multiplier)"
    )
    return "\n".join(lines)


def render_sharded(result: dict) -> str:
    single, sharded = result["single"], result["sharded"]
    verified = result["verified"]
    bar, need_cpus = SPEEDUP_BAR
    speedup = sharded.rps / single.rps if single.rps else float("inf")
    verdict = (
        f"asserted >= {bar:.1f}x"
        if CPUS >= need_cpus
        else f"recorded only ({CPUS} cpus < {need_cpus}; bar {bar:.1f}x "
        "needs cores to be honest)"
    )
    lines = [
        f"sharded serving A/B: {SHARDS} processes vs single "
        f"({'quick' if QUICK else 'full'} mode, {CPUS} cpus)",
        "",
        single.summary(),
        "",
        sharded.summary(),
        "",
        f"sharding speedup        : {speedup:9.2f}x requests/sec "
        f"({SHARDS} shards vs 1 process; {verdict})",
        "",
        "sharded verification run (bitwise, across processes):",
        verified.summary(),
    ]
    return "\n".join(lines)


def payload(result: dict) -> dict:
    """The machine-readable BENCH_serving.json document."""

    batched, solo, fresh = result["batched"], result["solo"], result["fresh"]
    return {
        "quick": QUICK,
        "batch": BATCH,
        "cpus": CPUS,
        "executor": result["exec"],
        "serving": {
            "batched": load_doc(batched),
            "solo": load_doc(solo),
            "fresh": fresh,
            "verified": load_doc(result["verified"]),
        },
        "workers_sweep": result["workers_sweep"],
        "speedups": {
            "batched_vs_solo_samples_per_s": (
                batched.rps / solo.rps
            ),
            "pooled_vs_fresh_req_per_s": batched.rps / fresh["req_per_s"],
            "executor_batched_vs_solo": [
                {"model": r["model"], "speedup": r["speedup"]}
                for r in result["exec"]
            ],
        },
        "verified_bitwise": result["verified"].verified,
    }


def load_doc(report) -> dict:
    doc = {
        "requests": report.requests,
        "clients": report.clients,
        "workers": report.workers,
        "max_batch": report.max_batch,
        "batch_size": report.batch_size,
        "preloaded": report.preloaded,
        "req_per_s": report.rps,
        "samples_per_s": report.rps,  # one sample per request
        "p50_ms": report.stats.p50_s * 1e3,
        "p99_ms": report.stats.p99_s * 1e3,
        "mean_batch": report.stats.mean_batch,
        "arena_hit_rate": report.stats.pool.hit_rate,
        "resident_arena_bytes": report.stats.pool.resident_bytes,
        "errors": report.errors,
        "shards": report.shards,
    }
    if report.shards > 1:
        doc["shard_stats"] = [s.to_doc() for s in report.shard_stats]
    return doc


def sharded_payload(result: dict) -> dict:
    """The ``sharded`` section of BENCH_serving.json."""
    single, sharded = result["single"], result["sharded"]
    bar, need_cpus = SPEEDUP_BAR
    return {
        "shards": SHARDS,
        "cpus": CPUS,
        "single": load_doc(single),
        "sharded": load_doc(sharded),
        "verified": load_doc(result["verified"]),
        "speedup_req_per_s": (
            sharded.rps / single.rps if single.rps else None
        ),
        "speedup_bar": bar,
        "speedup_asserted": CPUS >= need_cpus,
        "verified_bitwise": result["verified"].verified,
    }


def merged_payload(extra: dict) -> dict:
    """Existing BENCH_serving.json keys + ``extra``.

    The smoke test and the sharded test run as separate CI steps but
    share one document; whichever runs second must not clobber the
    first's sections.
    """
    path = Path(__file__).parent / "results" / "BENCH_serving.json"
    doc: dict = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
        doc.pop("bench", None)
        doc.pop("host", None)
    doc.update(extra)
    return doc


def test_serving_smoke(benchmark, save_result, save_json):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("serving_smoke", render(result))
    save_json("serving", merged_payload(payload(result)))

    # the GIL-plateau sweep is recorded, not asserted — but it must at
    # least have run cleanly at every worker count
    assert [row["workers"] for row in result["workers_sweep"]] == list(
        WORKER_SWEEP
    )
    assert all(row["errors"] == 0 for row in result["workers_sweep"])

    batched, solo, fresh = result["batched"], result["solo"], result["fresh"]
    verified = result["verified"]
    assert not batched.errors and not solo.errors
    assert not verified.errors

    # the serving layer is an executor, not an approximation: every
    # concurrently served response — including samples scattered out of
    # stacked batched runs — is bitwise the reference executor's
    assert len(verified.models) >= 2
    assert verified.clients >= 4
    assert verified.stats.mean_batch > 1.0  # stacking actually happened
    assert verified.verified is True

    # executor-level: stacked batching amortises dispatch >= 2x, with
    # per-sample bitwise parity on every stacked sample
    for row in result["exec"]:
        assert row["bitwise_mismatches"] == 0, row
        assert row["measured_peak_bytes"] <= row["arena_bytes_per_sample"]
        assert row["speedup"] >= 2.0, (
            f"{row['model']}: batched {row['batched_samples_per_s']:.0f} "
            f"samples/s vs solo {row['solo_samples_per_s']:.0f} "
            f"({row['speedup']:.2f}x < 2x)"
        )

    # serving-level: stacking happened. The batched/solo samples-per-sec
    # ratio through the full stack is recorded in BENCH_serving.json,
    # not asserted — it read 1.20-1.39x on ten of ten QUICK repeats
    # once a solo micro-cell run became ~0.1 ms; the stacked serving
    # path is bounded by serve-micro's req_per_s / p50_ms in
    # BENCHMARK.json instead
    assert batched.stats.mean_batch > 1.5

    # arena reuse still pays >= 2x over the fresh baseline (PR-3 bar)
    assert batched.stats.pool.hit_rate > 0.5
    assert batched.rps >= 2.0 * fresh["req_per_s"], (
        f"pooled {batched.rps:.1f} req/s vs fresh "
        f"{fresh['req_per_s']:.1f} req/s "
        f"({batched.rps / fresh['req_per_s']:.2f}x < 2x)"
    )


def test_sharded_serving(save_result, save_json):
    result = run_sharded()
    save_result("serving_sharded", render_sharded(result))
    save_json("serving", merged_payload({"sharded": sharded_payload(result)}))

    single, sharded = result["single"], result["sharded"]
    verified = result["verified"]
    assert not single.errors and not sharded.errors and not verified.errors

    # the zero-copy process boundary preserves the executor contract:
    # every response, scattered out of a stacked run in some worker
    # process and shipped back through the response ring, is bitwise
    # the reference executor's
    assert verified.shards == SHARDS
    assert verified.verified is True

    # sticky routing spread the suite across shards and kept arenas
    # warm inside each: requests flowed to >= 2 shards, models never
    # duplicated, and each busy shard's pool re-served its arenas
    stats = sharded.shard_stats
    assert len(stats) == SHARDS
    assert sorted(m for s in stats for m in s.models) == list(sharded.models)
    busy = [s for s in stats if s.requests > 0]
    assert len(busy) >= min(len(sharded.models), SHARDS)
    for s in busy:
        assert s.served.pool is not None and s.served.pool.hits > 0, s
        assert s.req_ring_peak > 0

    bar, need_cpus = SPEEDUP_BAR
    speedup = sharded.rps / single.rps if single.rps else float("inf")
    if CPUS >= need_cpus:
        assert speedup >= bar, (
            f"sharded {sharded.rps:.1f} req/s vs single {single.rps:.1f} "
            f"req/s ({speedup:.2f}x < {bar:.1f}x at {SHARDS} shards, "
            f"{CPUS} cpus)"
        )


if __name__ == "__main__":  # pragma: no cover - manual profiling entry
    print(render(run()))
    print()
    print(render_sharded(run_sharded()))
