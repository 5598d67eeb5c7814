"""Tiered arenas: off-chip-aware serving, with prefetch hiding the traffic.

The ISSUE-5/ISSUE-6 acceptance benchmark. One model whose arena exceeds
the serving budget — exactly the request the pool used to refuse with
:class:`AdmissionError` — is driven through the runtime:

* **constrained**: pool budget midway between the schedule's staging
  floor and the planned arena, ``spill=auto`` — admission degrades to
  a spill-planned executor, every response is verified **bitwise**
  against the reference executor, and the measured off-chip traffic is
  recorded in :class:`~repro.memsim.hierarchy.TrafficReport` units;
* **unconstrained**: same workload, no budget — the zero-traffic
  baseline the constrained run is compared against (req/s cost of
  spilling);
* **prefetch A/B** (the ISSUE-6 acceptance): at capacity = 50% of the
  unconstrained peak, with a modeled off-chip link calibrated so
  transfer time is comparable to compute, constrained serving runs
  twice — double-buffered prefetch vs inline transfers — and the
  prefetch run must clear **1.3x** the inline req/s with a nonzero
  hidden-transfer fraction.

An executor-level capacity sweep (100% / 75% / floor of the planned
peak) records the traffic curve, asserting zero bytes at full capacity,
monotonically non-decreasing traffic as capacity shrinks, and bitwise
parity at every point — solo **and** batched (prefetch on).

A **tile-staging sweep** (the PR-10 acceptance) drives the same model
at a budget *strictly below* the whole-buffer staging floor: the
whole-buffer path must refuse the admission even with ``spill=auto``,
while ``tile_bytes``-streaming serves it live with zero errors and
bitwise-verified outputs — and at equal capacity over the calibrated
link, tiled prefetch must stall no longer than whole-buffer prefetch.

Hard assertions:

* ``spill='never'`` still raises :class:`AdmissionError` (with the
  needed-vs-available diagnostic);
* the same admission under ``spill='auto'`` serves every request with
  **zero errors**, **nonzero** measured traffic, and bitwise-verified
  outputs;
* the full-capacity spill plan is trivial: no traffic;
* the prefetch run hides a nonzero fraction of transfer time (quick
  and full mode) and clears 1.3x inline req/s (full mode; the quick
  smoke keeps a loose sanity floor so CI noise cannot flake it).

Results land in ``benchmarks/results/BENCH_spill.json`` (traffic
bytes, req/s constrained vs unconstrained, stall vs hidden transfer
seconds) and CI uploads them as an artifact + step summary like the
serving/executor benches.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.compiler import CompilationPipeline
from repro.exceptions import AdmissionError
from repro.memsim import OffchipLink
from repro.models.suite import get_cell
from repro.runtime.executor import Executor, init_params, random_feeds
from repro.serving import ModelRegistry, run_load
from repro.serving.pool import ArenaPool

pytestmark = pytest.mark.slow

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REQUESTS = 32 if QUICK else 128
CLIENTS = 4
WORKERS = 2
CELL = "randwire-c100-a"
#: prefetch A/B: requests per measured pass, passes per mode (the
#: compared number is each mode's best pass — the minimum-time
#: estimator — because host scheduling noise between passes is larger
#: than the effect of interest; medians are reported alongside)
AB_REQUESTS = 24 if QUICK else 96
AB_REPS = 3 if QUICK else 5
CALIB_REPS = 3 if QUICK else 7
#: modeled link bandwidth = this multiple of (traffic / compute time) —
#: transfer comparable to compute, the regime where overlap matters
LINK_COMPUTE_RATIO = 2.0
BATCH_WIDTH = 4
#: staging tile size for the tile-streaming sweep
TILE_BYTES = 8192
TILE_REPS = 3 if QUICK else 5


def build_registry() -> ModelRegistry:
    registry = ModelRegistry()
    pipeline = CompilationPipeline("greedy")
    registry.register(pipeline.compile(get_cell(CELL).factory()), name=CELL)
    return registry


def measure_capacity_sweep(registry: ModelRegistry) -> list[dict]:
    """Executor-level traffic at 100% / 75% / floor capacity, each
    point bitwise-verified against the reference executor — solo and
    as one stacked ``run_batch`` (prefetch active on both)."""
    model = registry.get(CELL)
    graph = model.graph
    params = init_params(graph, seed=0)
    ref = Executor(graph, params=params)
    feed_set = [random_feeds(graph, seed=1 + i) for i in range(BATCH_WIDTH)]
    want_set = [ref.run(f) for f in feed_set]
    feeds, want = feed_set[0], want_set[0]
    stacked = {
        k: np.stack([np.asarray(f[k]) for f in feed_set]) for k in feeds
    }
    floor, arena = model.spill_floor_bytes, model.arena_bytes
    rows = []
    for label, cap in (
        ("100%", arena),
        ("75%", max(int(arena * 0.75), floor)),
        ("floor", floor),
    ):
        px = model.executor(params=params, capacity_bytes=cap)
        got = px.run(feeds)
        mismatched = sum(
            0 if np.array_equal(want[k], got[k]) else 1 for k in want
        )
        traffic = px.last_stats.traffic
        bx = model.executor(
            params=params, capacity_bytes=cap, batch_size=BATCH_WIDTH
        )
        got_batch = bx.run_batch(stacked)
        mismatched_batched = sum(
            0 if np.array_equal(want_set[i][k], got_batch[k][i]) else 1
            for i in range(BATCH_WIDTH)
            for k in want_set[i]
        )
        rows.append(
            {
                "capacity": label,
                "capacity_bytes": cap,
                "spilled_buffers": len(px.spill.spilled),
                "resident_bytes": px.spill.resident_bytes,
                "traffic_bytes": traffic.total_bytes,
                "fetches": traffic.fetches,
                "writebacks": traffic.writebacks,
                "bitwise_mismatches": mismatched,
                "bitwise_mismatches_batched": mismatched_batched,
            }
        )
    return rows


def measure_prefetch_ab(registry: ModelRegistry) -> dict:
    """Constrained serving at 50% of the unconstrained peak: prefetch
    vs inline transfers over a calibrated off-chip link.

    The link bandwidth is set so one run's transfer time is
    ``1/LINK_COMPUTE_RATIO`` of its compute time — slow enough that
    stall shows up in req/s, fast enough that a double-buffered
    schedule can hide it. Each mode runs ``AB_REPS`` measured passes
    (``workers=1`` so the pipeline cannot hide stall behind a second
    request) and each mode's **best** pass is compared (minimum-time
    estimator; host noise between passes exceeds the effect under
    study); one small verified pass per mode proves bitwise parity
    under the link.
    """
    model = registry.get(CELL)
    floor, arena = model.spill_floor_bytes, model.arena_bytes
    cap = max(arena // 2, floor)
    graph = model.graph
    params = init_params(graph, seed=0)
    feeds = random_feeds(graph, seed=1)

    # calibrate: inline spill run without a link -> compute time and
    # traffic of one constrained run
    px = model.executor(params=params, capacity_bytes=cap, prefetch=False)
    px.run(feeds)
    times = []
    for _ in range(CALIB_REPS):
        t0 = time.perf_counter()
        px.run(feeds)
        times.append(time.perf_counter() - t0)
    t_compute = min(times)  # the reproducible (noise-free) estimate
    traffic_bytes = px.last_stats.traffic.total_bytes
    link = OffchipLink(
        bandwidth_bytes_per_s=LINK_COMPUTE_RATIO * traffic_bytes / t_compute
    )

    common = dict(
        clients=2,
        workers=1,
        max_batch=1,
        seed=0,
        budget=cap,
        spill="auto",
        preload=True,
        link=link,
    )
    verified_ok = {}
    reports: dict[bool, list] = {True: [], False: []}
    for mode in (False, True):
        parity = run_load(
            registry, requests=8, verify=True, prefetch=mode, **common
        )
        verified_ok[mode] = parity.verified is True and parity.errors == 0
    for _ in range(AB_REPS):
        for mode in (False, True):
            reports[mode].append(
                run_load(
                    registry, requests=AB_REQUESTS, prefetch=mode, **common
                )
            )

    def best_report(mode: bool):
        return max(reports[mode], key=lambda r: r.rps)

    def median_rps(mode: bool) -> float:
        ranked = sorted(r.rps for r in reports[mode])
        return ranked[len(ranked) // 2]

    inline = best_report(False)
    prefetch = best_report(True)
    return {
        "capacity_bytes": cap,
        "capacity_fraction": cap / arena,
        "link_mbps": link.bandwidth_bytes_per_s / 1e6,
        "calib_compute_s": t_compute,
        "calib_traffic_bytes": traffic_bytes,
        "reps": AB_REPS,
        "inline": inline,
        "prefetch": prefetch,
        "inline_verified": verified_ok[False],
        "prefetch_verified": verified_ok[True],
        "speedup": prefetch.rps / inline.rps if inline.rps else None,
        "speedup_median": (
            median_rps(True) / median_rps(False) if median_rps(False) else None
        ),
    }


def measure_tile_staging(registry: ModelRegistry) -> dict:
    """Tile-streaming vs whole-buffer staging.

    Two measurements:

    * **below-floor serving**: at a budget under the whole-buffer
      staging floor (but over the tile floor), whole-buffer spill
      planning must refuse the admission while ``TILE_BYTES`` streaming
      serves it — zero errors, bitwise-verified;
    * **stall at equal capacity**: at the prefetch-A/B capacity over a
      link calibrated the same way, tiled prefetch must stall no longer
      than whole-buffer prefetch (min over ``TILE_REPS`` passes — tiles
      arrive earlier and range-clipping moves fewer bytes).
    """
    model = registry.get(CELL)
    graph = model.graph
    params = init_params(graph, seed=0)
    feeds = random_feeds(graph, seed=1)
    want = Executor(graph, params=params).run(feeds)
    floor, arena = model.spill_floor_bytes, model.arena_bytes
    tile_floor = model.spill_floor_for(TILE_BYTES)
    below = max(tile_floor, min(floor - 1, tile_floor * 2))

    # the whole-buffer path cannot admit this budget even with spilling
    whole_refusal = None
    try:
        ArenaPool(registry, below, spill="auto").acquire(CELL)
    except AdmissionError as exc:
        whole_refusal = str(exc)

    # tiled executor at the same budget: bitwise, per-tile traffic
    px = model.executor(
        params=params, capacity_bytes=below, tile_bytes=TILE_BYTES
    )
    got = px.run(feeds)
    mismatched = sum(
        0 if np.array_equal(want[k], got[k]) else 1 for k in want
    )
    traffic = px.last_stats.traffic

    # tiled *serving* strictly below the whole-buffer floor
    served = run_load(
        registry,
        requests=REQUESTS // 2,
        clients=CLIENTS,
        workers=WORKERS,
        max_batch=1,
        seed=0,
        budget=below,
        spill="auto",
        tile_bytes=TILE_BYTES,
        verify=True,
        preload=True,
    )

    # stall A/B at equal capacity: calibrate a link off the inline
    # whole-buffer run (same recipe as measure_prefetch_ab), then race
    # whole-buffer vs tiled prefetch over it
    cap_eq = max(arena // 2, floor)
    px = model.executor(params=params, capacity_bytes=cap_eq, prefetch=False)
    px.run(feeds)
    times = []
    for _ in range(CALIB_REPS):
        t0 = time.perf_counter()
        px.run(feeds)
        times.append(time.perf_counter() - t0)
    t_compute = min(times)
    calib_bytes = px.last_stats.traffic.total_bytes
    link = OffchipLink(
        bandwidth_bytes_per_s=LINK_COMPUTE_RATIO * calib_bytes / t_compute
    )

    stall = {}
    moved = {}
    for label, tile in (("whole", None), ("tiled", TILE_BYTES)):
        ex = model.executor(
            params=params, capacity_bytes=cap_eq, tile_bytes=tile, link=link
        )
        best = None
        for _ in range(TILE_REPS):
            out = ex.run(feeds)
            rep = ex.last_stats.traffic
            best = rep.stall_s if best is None else min(best, rep.stall_s)
        assert all(np.array_equal(want[k], out[k]) for k in want)
        stall[label] = best
        moved[label] = ex.last_stats.traffic.total_bytes

    return {
        "tile_bytes": TILE_BYTES,
        "whole_floor_bytes": floor,
        "tile_floor_bytes": tile_floor,
        "below_budget_bytes": below,
        "whole_refusal": whole_refusal,
        "bitwise_mismatches": mismatched,
        "traffic_bytes": traffic.total_bytes,
        "fetches": traffic.fetches,
        "writebacks": traffic.writebacks,
        "traffic_tile_bytes": traffic.tile_bytes,
        "served": served,
        "equal_capacity_bytes": cap_eq,
        "link_mbps": link.bandwidth_bytes_per_s / 1e6,
        "stall_whole_s": stall["whole"],
        "stall_tiled_s": stall["tiled"],
        "moved_whole_bytes": moved["whole"],
        "moved_tiled_bytes": moved["tiled"],
    }


def run() -> dict:
    registry = build_registry()
    model = registry.get(CELL)
    floor, arena = model.spill_floor_bytes, model.arena_bytes
    budget = (floor + arena) // 2

    # the old behaviour: this admission is refused outright
    admission_error = None
    try:
        ArenaPool(registry, budget).acquire(CELL)
    except AdmissionError as exc:
        admission_error = str(exc)

    sweep = measure_capacity_sweep(registry)
    prefetch_ab = measure_prefetch_ab(registry)
    tile_staging = measure_tile_staging(registry)

    common = dict(
        requests=REQUESTS,
        clients=CLIENTS,
        workers=WORKERS,
        max_batch=1,
        seed=0,
        preload=True,
    )
    # warm both paths outside the measured window
    run_load(registry, requests=CLIENTS, clients=CLIENTS, workers=WORKERS,
             budget=budget, spill="auto")
    run_load(registry, requests=CLIENTS, clients=CLIENTS, workers=WORKERS)
    constrained = run_load(
        registry, budget=budget, spill="auto", verify=True, **common
    )
    unconstrained = run_load(registry, verify=True, **common)
    return {
        "model": CELL,
        "arena_bytes": arena,
        "floor_bytes": floor,
        "budget_bytes": budget,
        "admission_error": admission_error,
        "sweep": sweep,
        "prefetch_ab": prefetch_ab,
        "tile_staging": tile_staging,
        "constrained": constrained,
        "unconstrained": unconstrained,
    }


def render(result: dict) -> str:
    constrained = result["constrained"]
    unconstrained = result["unconstrained"]
    ab = result["prefetch_ab"]
    lines = [
        "tiered arenas: off-chip-aware serving with prefetch overlap "
        f"({'quick' if QUICK else 'full'} mode)",
        "",
        f"model {result['model']}: arena "
        f"{result['arena_bytes'] / 1024:.1f}KB, staging floor "
        f"{result['floor_bytes'] / 1024:.1f}KB, serving budget "
        f"{result['budget_bytes'] / 1024:.1f}KB",
        "",
        "spill='never' (the old behaviour):",
        f"  {result['admission_error']}",
        "",
        "executor-level capacity sweep (bitwise-verified at every point, "
        f"solo + batch {BATCH_WIDTH}):",
        f"  {'capacity':>9s} {'spilled':>8s} {'resident KB':>12s} "
        f"{'traffic KB':>11s} {'fetch/wb':>9s}",
    ]
    for row in result["sweep"]:
        lines.append(
            f"  {row['capacity']:>9s} {row['spilled_buffers']:>8d}"
            f" {row['resident_bytes'] / 1024:>12.1f}"
            f" {row['traffic_bytes'] / 1024:>11.1f}"
            f" {row['fetches']:>4d}/{row['writebacks']:<4d}"
        )
    lines += [
        "",
        "prefetch A/B at 50% capacity "
        f"({ab['capacity_bytes'] / 1024:.1f}KB on-chip, modeled link "
        f"{ab['link_mbps']:.0f}MB/s, best of {ab['reps']} passes):",
        f"  inline transfers        : {ab['inline'].rps:9.1f} req/s "
        f"(stall {ab['inline'].stats.spill_stall_s * 1e3:.1f}ms, "
        f"hidden {ab['inline'].stats.spill_hidden_s * 1e3:.1f}ms)",
        f"  double-buffered prefetch: {ab['prefetch'].rps:9.1f} req/s "
        f"(stall {ab['prefetch'].stats.spill_stall_s * 1e3:.1f}ms, "
        f"hidden {ab['prefetch'].stats.spill_hidden_s * 1e3:.1f}ms, "
        f"{100.0 * ab['prefetch'].stats.hidden_fraction:.0f}% hidden)",
        f"  prefetch speedup        : {ab['speedup']:9.2f}x req/s "
        f"(median {ab['speedup_median']:.2f}x; bitwise-verified in "
        "both modes)",
        "",
        *(_render_tile_staging(result["tile_staging"])),
        "",
        "constrained serving (spill=auto over the same admission):",
        constrained.summary(),
        "",
        "unconstrained serving (no budget):",
        unconstrained.summary(),
        "",
        f"spill cost              : {unconstrained.rps / constrained.rps:9.2f}x "
        "req/s unconstrained vs constrained",
    ]
    return "\n".join(lines)


def _render_tile_staging(ts: dict) -> list[str]:
    served = ts["served"]
    return [
        f"tile staging ({ts['tile_bytes']}B tiles): whole-buffer floor "
        f"{ts['whole_floor_bytes'] / 1024:.1f}KB -> tile floor "
        f"{ts['tile_floor_bytes'] / 1024:.1f}KB",
        f"  below-floor budget      : {ts['below_budget_bytes'] / 1024:9.1f}KB "
        "(whole-buffer spill: refused; tiled: serves)",
        f"  tiled serving           : {served.rps:9.1f} req/s, "
        f"{served.errors} errors, verified={served.verified}",
        f"  tiled traffic           : "
        f"{ts['traffic_bytes'] / 1024:9.1f}KB "
        f"({ts['fetches']} fetches, {ts['writebacks']} writebacks)",
        f"  stall at equal capacity : whole "
        f"{ts['stall_whole_s'] * 1e3:.2f}ms vs tiled "
        f"{ts['stall_tiled_s'] * 1e3:.2f}ms "
        f"({ts['equal_capacity_bytes'] / 1024:.1f}KB on-chip, "
        f"{ts['moved_whole_bytes'] / 1024:.1f}KB vs "
        f"{ts['moved_tiled_bytes'] / 1024:.1f}KB moved)",
    ]


def payload(result: dict) -> dict:
    """The machine-readable BENCH_spill.json document."""
    constrained = result["constrained"]
    unconstrained = result["unconstrained"]
    ab = result["prefetch_ab"]

    def load_doc(report) -> dict:
        return {
            "requests": report.requests,
            "req_per_s": report.rps,
            "p50_ms": report.stats.p50_s * 1e3,
            "p99_ms": report.stats.p99_s * 1e3,
            "errors": report.errors,
            "verified_bitwise": report.verified,
            "spill": report.spill,
            "spill_bytes": report.stats.spill_bytes,
            "spilled_builds": report.stats.pool.spilled_builds,
            "prefetch_builds": report.stats.pool.prefetch_builds,
            "resident_arena_bytes": report.stats.pool.resident_bytes,
            "prefetch": report.prefetch,
            "tile_bytes": report.tile_bytes,
            "spill_stall_s": report.stats.spill_stall_s,
            "spill_hidden_s": report.stats.spill_hidden_s,
            "hidden_fraction": report.stats.hidden_fraction,
        }

    return {
        "quick": QUICK,
        "model": result["model"],
        "arena_bytes": result["arena_bytes"],
        "floor_bytes": result["floor_bytes"],
        "budget_bytes": result["budget_bytes"],
        "admission_error_without_spill": result["admission_error"],
        "capacity_sweep": result["sweep"],
        "prefetch_ab": {
            "capacity_bytes": ab["capacity_bytes"],
            "capacity_fraction": ab["capacity_fraction"],
            "link_mbps": ab["link_mbps"],
            "reps": ab["reps"],
            "inline": load_doc(ab["inline"]),
            "prefetch": load_doc(ab["prefetch"]),
            "inline_verified": ab["inline_verified"],
            "prefetch_verified": ab["prefetch_verified"],
            "req_per_s_prefetch_vs_inline": ab["speedup"],
            "req_per_s_prefetch_vs_inline_median": ab["speedup_median"],
        },
        "tile_staging": {
            key: (
                load_doc(value) if key == "served" else value
            )
            for key, value in result["tile_staging"].items()
        },
        "serving": {
            "constrained": load_doc(constrained),
            "unconstrained": load_doc(unconstrained),
        },
        "req_per_s_unconstrained_vs_constrained": (
            unconstrained.rps / constrained.rps if constrained.rps else None
        ),
    }


def test_spill_smoke(benchmark, save_result, save_json):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("spill_smoke", render(result))
    save_json("spill", payload(result))

    # the old behaviour is still the default, with a useful diagnostic
    assert result["admission_error"] is not None
    assert "spill='auto'" in result["admission_error"]

    # capacity sweep: bitwise everywhere (solo and batched), zero
    # traffic at full capacity, non-decreasing traffic as capacity
    # shrinks
    sweep = result["sweep"]
    assert all(row["bitwise_mismatches"] == 0 for row in sweep)
    assert all(row["bitwise_mismatches_batched"] == 0 for row in sweep)
    assert sweep[0]["traffic_bytes"] == 0 and sweep[0]["spilled_buffers"] == 0
    assert sweep[1]["traffic_bytes"] > 0
    traffics = [row["traffic_bytes"] for row in sweep]
    assert traffics == sorted(traffics)
    for row in sweep:
        assert row["resident_bytes"] <= row["capacity_bytes"]

    # the ISSUE-6 acceptance: at 50% capacity over a calibrated link,
    # double-buffered prefetch hides a nonzero fraction of transfer
    # time and beats inline-spill serving
    ab = result["prefetch_ab"]
    assert ab["inline_verified"] and ab["prefetch_verified"]
    assert ab["inline"].errors == 0 and ab["prefetch"].errors == 0
    assert ab["prefetch"].stats.hidden_fraction > 0.0
    assert ab["prefetch"].stats.spill_hidden_s > 0.0
    assert ab["inline"].stats.spill_hidden_s == 0.0
    assert ab["inline"].stats.spill_stall_s > 0.0
    if QUICK:
        # the quick CI smoke keeps a loose floor so noise cannot flake
        assert ab["speedup"] >= 1.0
    else:
        assert ab["speedup"] >= 1.3

    # the PR-10 acceptance: tile streaming admits and serves strictly
    # below the whole-buffer floor, bitwise, while whole-buffer spill
    # planning refuses the same budget even with spill=auto — and at
    # equal capacity tiled prefetch stalls no longer than whole-buffer
    ts = result["tile_staging"]
    assert ts["below_budget_bytes"] < ts["whole_floor_bytes"]
    assert ts["below_budget_bytes"] >= ts["tile_floor_bytes"]
    assert ts["whole_refusal"] is not None
    assert "even with spilling" in ts["whole_refusal"]
    assert ts["bitwise_mismatches"] == 0
    assert ts["traffic_bytes"] > 0
    assert ts["traffic_tile_bytes"] == TILE_BYTES
    assert ts["served"].errors == 0
    assert ts["served"].verified is True
    assert ts["served"].tile_bytes == TILE_BYTES
    assert ts["served"].stats.spill_bytes > 0
    # range-clipped tiles never move more bytes than whole-buffer
    # windows, and finer granularity never lengthens the stall (5%
    # wall-clock tolerance: stall is measured, not modeled)
    assert ts["moved_tiled_bytes"] <= ts["moved_whole_bytes"]
    assert ts["stall_tiled_s"] <= ts["stall_whole_s"] * 1.05 + 1e-4

    # the ISSUE-5 acceptance assertion: the admission that raised
    # AdmissionError now serves under spill=auto — zero errors, nonzero
    # measured traffic, every output bitwise the reference executor's
    constrained = result["constrained"]
    assert constrained.errors == 0
    assert constrained.verified is True
    assert constrained.stats.spill_bytes > 0
    assert constrained.stats.pool.spilled_builds >= 1

    unconstrained = result["unconstrained"]
    assert unconstrained.errors == 0
    assert unconstrained.verified is True
    assert unconstrained.stats.spill_bytes == 0
    assert constrained.rps > 0


if __name__ == "__main__":  # pragma: no cover - manual profiling entry
    print(render(run()))
