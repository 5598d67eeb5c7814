#!/usr/bin/env python3
"""The repo benchmark: five workloads from compile to sharded serving.

    python3 benchmarks/e2e/run.py                      # all five, untraced
    python3 benchmarks/e2e/run.py --workload serve-micro --seed 3
    python3 benchmarks/e2e/run.py --workload serve-cells --trace 1 --trace-out t.json
    python3 benchmarks/e2e/run.py --repeat 2           # self-check: noise vs bounds

With ``--workload NAME`` the run happens in this process and the last
line of standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``. Without
it every workload runs in a fresh process each (so ``peak_rss_mb`` is
per workload) and a table is printed. The exit code is non-zero on any
bitwise mismatch, verifier error, failed request, leaked shared-memory
segment, stray child process or invalid (late) open-loop run.

See ``README.md`` in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: every file a run writes lives under here (inside the checkout) and is
#: removed when the run ends
WORK_ROOT = ROOT / ".bench_e2e"
SHM_DIR = Path("/dev/shm")

#: the two DP cells that cost seconds each: the reason the full
#: ``compile-suite`` run exists, and what a ``--smoke`` pass leaves out
SMOKE_DP_SKIP = ("randwire-c10-a", "randwire-c100-a")
#: an open-loop run whose generator ran later than this share of the
#: median latency measured the generator, not the server: invalid
MAX_LATE_SHARE = 0.10
#: a set-up cheaper than this is sampled in every round, a dearer one
#: only ``Budget.setup_reps`` times
SETUP_CHEAP_S = 0.25
#: unmeasured passes that open each round's slice of compile/load passes:
#: after an open-loop segment (mostly sleeping) the core is cold, and a
#: 4 ms pass read up to 2x until it had been busy for ~40 ms
HOT_PASSES = 2


@dataclass(frozen=True)
class Budget:
    """How much of everything one run does."""

    seconds: float
    #: rounds of (compile slice, closed-loop repetition, open-loop
    #: segment), interleaved so every metric samples the whole run and its
    #: best repetition only needs one quiet stretch of host time
    rounds: int = 5
    setup_reps: int = 3
    warm_passes: int = 20
    load_passes: int = 20
    peel_requests: int = 32
    smoke: bool = False


def smoke_budget() -> Budget:
    return Budget(
        seconds=0.5, rounds=1, setup_reps=1, warm_passes=2, load_passes=2,
        peel_requests=4, smoke=True,
    )


# ----------------------------------------------------------------------
# hermetic runs, leak accounting, host fingerprint
# ----------------------------------------------------------------------
def shm_segments() -> set[str]:
    """Python ``shared_memory`` segments on the host (``psm_*``: the
    shard rings); other programs' files in ``/dev/shm`` are not ours."""
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


def live_children() -> list[int]:
    """Pids of this process's live children (zombies included — an
    unreaped child is a leak too)."""
    pids: list[int] = []
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in task.read_text().split())
        except OSError:
            continue
    return pids


def stop_resource_tracker() -> None:
    """Stop (and reap) the helper process ``multiprocessing`` starts with
    the first shared-memory ring and otherwise leaves running until the
    interpreter exits: a run leaves no process behind. It restarts on
    demand, and its ``_stop`` is the only handle the stdlib offers."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without spawning git
    (the driver's checkout is not a repository: ``unknown`` there)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(seed: int, budget: Budget) -> dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit_id(),
        "seed": seed,
        "mode": "smoke" if budget.smoke else "full",
        "seconds": budget.seconds,
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, budget: Budget, trace: bool, trace_out: str | None
) -> dict[str, Any]:
    """Run one workload hermetically; returns the result document."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix=f"{name}-"))
    # nothing may land outside the checkout: the default schedule cache
    # and every tempfile of the program go to the run's own directory
    saved = {k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "TMPDIR")}
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    shm_before = shm_segments()
    try:
        doc = _measure(name, seed, budget, trace, trace_out, workdir)
    finally:
        tempfile.tempdir = None
        for key, old in saved.items():
            if old is None:
                del os.environ[key]
            else:
                os.environ[key] = old
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # unless a concurrent run still works in it
        except OSError:
            pass
    stop_resource_tracker()
    leaked = sorted(shm_segments() - shm_before)
    stray = live_children()
    doc["leaks"] = {"shm": leaked, "children": stray}
    if trace:
        doc["metrics"]["serving.shard.leaked_shm"] = float(len(leaked))
    if leaked or stray:
        doc["correct"] = False
        doc["notes"].append(f"leaked shm segments {leaked}, stray children {stray}")
    doc["host"] = fingerprint(seed, budget)
    return doc


def _measure(
    name: str, seed: int, budget: Budget, trace: bool, trace_out: str | None, workdir: Path
) -> dict[str, Any]:
    # imported here so ``--help`` and the multi-workload parent stay light
    import workloads as W
    from layers import compile_peel, request_peel
    from loadgen import closed_loop, median, open_loop, percentile
    from tracing import Tracer

    wl = W.WORKLOADS[name]
    dp_workload = wl.cold_passes is None
    if budget.smoke and dp_workload:
        wl = replace(wl, cells=tuple(c for c in wl.cells if c not in SMOKE_DP_SKIP))
    elif budget.smoke:
        wl = replace(wl, cold_passes=1)
    tracer = Tracer(trace)
    untraced = Tracer(False)
    notes: list[str] = []

    # -- compile side: the artifacts everything below serves --------------
    if trace:
        models, paths, counts = compile_peel(wl, workdir, tracer)
    else:
        stage = W.CompileStage(wl, W.build_graphs(wl), workdir)

        def per_round(total: int) -> int:
            return -(-total // budget.rounds)

        def compile_slice() -> None:
            """A slice of every repeated compile-side measurement; one per
            round, so each metric samples the whole run, not one instant."""
            for _ in range(HOT_PASSES):
                stage.warm_pass(measured=False)
            for _ in range(per_round(budget.warm_passes)):
                stage.warm_pass()
            for _ in range(per_round(budget.load_passes)):
                stage.load_pass()
            for _ in range(0 if dp_workload else per_round(wl.cold_passes)):
                stage.cold_pass()

        # the DP workload's cold pass is ~10 s and runs up front, twice (a
        # single one read 9.7-14.3 s over ten runs here), a slice after
        # each; the others' are ms and ride in the rounds
        stage.cold_pass()
        if dp_workload and not budget.smoke:
            compile_slice()
            stage.cold_pass()
        models, paths = stage.models, stage.paths
    bad_cells = W.check_artifacts(models, seed)
    if bad_cells:
        notes.append(f"artifacts failing verification: {bad_cells}")
    reference = W.Reference(models, seed)
    requests = W.build_requests({c: m.graph for c, m in models.items()}, seed)

    # -- set-up: artifact files on disk -> ready for the first request ----
    t0 = time.perf_counter()
    server = W.Server(wl, paths, seed, tracer)
    setups = [time.perf_counter() - t0]

    serve_s = budget.seconds * wl.serve_share
    keep = dict(keep_every=wl.keep_every, keep_offset=seed)
    closed: list = []
    opened: list = []
    opened_traced: list = []
    try:
        # warm-up, untimed: every executor compiles its run plans
        closed_loop(server.submit, requests, window=wl.window, seconds=max(0.1, 0.03 * serve_s))
        peel = (
            request_peel(wl, paths, server, requests, reference, seed,
                         budget.peel_requests, tracer)
            if trace else {}
        )
        # the traced run splits each round's open-loop share in two, one
        # half recording spans, so both halves see the same host weather
        open_s = serve_s * (0.07 if trace else 0.12) * 5 / budget.rounds
        closed_s = serve_s * (0.06 if trace else 0.08) * 5 / budget.rounds
        for r in range(budget.rounds):
            if not trace:
                compile_slice()
                if len(setups) < budget.setup_reps or max(setups) < SETUP_CHEAP_S:
                    t0 = time.perf_counter()
                    extra = W.Server(wl, paths, seed, untraced)
                    setups.append(time.perf_counter() - t0)
                    extra.close()
            start = r * 7919  # de-phase the rounds over the request pool
            closed.append(closed_loop(
                server.submit, requests, window=wl.window, seconds=closed_s,
                start=start, tracer=tracer if trace else None, **keep,
            ))
            opened.append(open_loop(
                server.submit, requests, rate=wl.rate, seconds=open_s, start=start, **keep,
            ))
            if trace:
                opened_traced.append(open_loop(
                    server.submit, requests, rate=wl.rate, seconds=open_s,
                    start=start, tracer=tracer, **keep,
                ))
        stats = server.scheduler.stats()
        shard_stats = server.scheduler.shard_stats() if wl.shards else []
    finally:
        server.close()

    # -- correctness, outside every timed window --------------------------
    phases = closed + opened + opened_traced
    kept = [pair for phase in phases for pair in phase.kept]
    mismatches = W.check_responses(reference, kept)
    sent = sum(p.sent for p in phases)
    failed_requests = sum(p.failed for p in phases)
    attempted = sent + len(models)
    failed = failed_requests + mismatches + len(bad_cells)
    if mismatches:
        notes.append(f"{mismatches} of {len(kept)} checked responses differ bitwise")
    if failed_requests:
        notes.append(f"{failed_requests} of {sent} requests failed or were refused")
    min_kept = 1 if budget.smoke else 32
    if len(kept) < min_kept:
        notes.append(f"only {len(kept)} responses checked (need {min_kept})")

    late = [x for o in opened + opened_traced for x in o.late_ms]
    p50 = latency_ms(opened, 0.50)
    late_p50 = percentile(late, 0.50)
    if not late_p50 <= MAX_LATE_SHARE * p50:
        notes.append(
            f"invalid open loop: generator lateness p50 {late_p50:.3f} ms exceeds "
            f"{MAX_LATE_SHARE:.0%} of p50 latency {p50:.3f} ms"
        )

    if trace:
        metrics = _layer_metrics(
            tracer, wl, counts, peel, stats, shard_stats, server, requests,
            closed, opened, opened_traced, mismatches,
        )
        if trace_out:
            tracer.write(trace_out)
    else:
        usage = resource.getrusage
        one_per_model = list({r.model: r for r in requests}.values())
        metrics = {
            # every repeated measurement reports its best repetition: host
            # noise here only adds time, for seconds or for whole minutes
            # (see README, "Estimators"); set-up alone reports its median
            "req_per_s": max(c.req_per_s for c in closed),
            "p50_ms": p50,
            "success_rate": 1.0 - failed / attempted,
            # spill traffic plus the request's own feeds in and outputs out
            # (the same for every request of a model: one of each will do)
            "offchip_bytes_per_req": stats.spill_bytes / max(1, stats.requests)
            + sum(map(reference.io_bytes, one_per_model)) / len(one_per_model),
            "resident_arena_kb": server.resident_bytes / 1024,
            "setup_s": median(setups),
            "peak_rss_mb": (
                usage(resource.RUSAGE_SELF).ru_maxrss
                + usage(resource.RUSAGE_CHILDREN).ru_maxrss
            ) / 1024,
            "compile_cold_s": W.best_pass_s(stage.cold),
            "compile_warm_s": W.best_pass_s(stage.warm),
            "load_verify_s": W.best_pass_s(stage.load),
            "peak_reduction_geomean": stage.peak_reduction_geomean(),
        }
    return {
        "workload": name,
        "trace": int(trace),
        "correct": not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "checked_responses": len(kept),
        # what the estimators above were taken over, per round / per pass
        "samples": {
            "req_per_s": [c.req_per_s for c in closed],
            "p50_ms": [latency_ms([o], 0.50) for o in opened],
            "p90_ms": [latency_ms([o], 0.90) for o in opened],
            "setup_s": setups,
            **({} if trace else {
                "compile_cold_s": W.pass_s(stage.cold),
                "compile_warm_s": W.pass_s(stage.warm),
                "load_verify_s": W.pass_s(stage.load),
            }),
        },
    }


def latency_ms(segments: list, q: float) -> float:
    """Open-loop latency percentile ``q``: each round's segment gives one
    (model-balanced) percentile, the run reports the quietest round's.
    NaN when any segment served nothing (the run is invalid anyway)."""
    from loadgen import balanced_percentile

    if not all(o.latencies_ms for o in segments):
        return float("nan")
    return min(balanced_percentile(zip(o.models, o.latencies_ms), q) for o in segments)


def _layer_metrics(
    tracer, wl, counts, peel, stats, shard_stats, server, requests,
    closed, opened, opened_traced, mismatches,
) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from the traced run.

    Compile-side times are sums over the workload's cells (comparable
    with ``compile_cold_s``). Request-side times are model-balanced
    lower quartiles over the peeled requests (robust like the end-to-end
    estimators, without being one request's fluke). A layer the workload
    does not exercise reads 0.
    """
    from loadgen import lower_quartile, median, percentile

    from repro.models.suite import BENCHMARK_SUITE

    self_times = tracer.self_times()
    spans: dict[str, list] = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)

    def total(span: str) -> float:
        return sum(s.duration for s in spans.get(span, ()))

    def per_request_ms(span: str, self_time: bool = False) -> float:
        by_model: dict[str, list[float]] = {}
        for s in spans.get(span, ()):
            model = requests[s.request % len(requests)].model
            seconds = self_times[s.id] if self_time else s.duration
            by_model.setdefault(model, []).append(seconds * 1e3)
        return sum(map(lower_quartile, by_model.values())) / len(by_model) if by_model else 0.0

    m: dict[str, float] = {
        "graph.build_s": total("graph.build"),
        "graph.signature_s": total("graph.signature"),
        "graph.nodes": counts["nodes"],
        "rewriting.rewrite_s": total("rewriting.rewrite"),
        "rewriting.rewrites_applied": counts["rewrites"],
        "scheduler.schedule_s": total("scheduler.schedule"),
        "scheduler.states_expanded": counts["states"],
        "scheduler.baseline_schedule_s": total("scheduler.baseline_schedule"),
        "scheduler.cache_put_s": total("scheduler.cache_put"),
        "scheduler.cache_get_s": total("scheduler.cache_get"),
        "scheduler.cache_hit_rate": counts["cache_hit_rate"],
        "allocator.plan_s": total("allocator.plan"),
        "allocator.arena_bytes": counts["arena"],
        "allocator.fragmentation": counts["arena"] / counts["peak"],
        "allocator.spill_plan_s": total("allocator.spill_plan"),
        "allocator.spill_windows": counts["spill_windows"],
        "analysis.verify_full_s": total("analysis.verify_full"),
        "analysis.diagnostics": counts["diagnostics"],
        "compiler.save_s": total("compiler.save"),
        "compiler.load_s": total("compiler.load"),
        "compiler.artifact_bytes": counts["artifact_bytes"],
        "memsim.traffic_s": total("memsim.traffic"),
        "memsim.traffic_bytes": counts["traffic_bytes"],
    }
    for cell in BENCHMARK_SUITE:
        m[f"scheduler.schedule_s.{cell}"] = total(f"scheduler.schedule.{cell}")

    run_ms = per_request_ms("runtime.plan_executor.run")
    lease_ms = per_request_ms("serving.pool.lease", self_time=True)
    sched_solo = per_request_ms("serving.scheduler.solo")
    shard_solo = per_request_ms("serving.shard.solo")
    stall, hidden = peel["stall_ms"], peel["hidden_ms"]
    served = [s for c in closed for s in c.stats]
    m.update({
        "runtime.executor.run_ms": per_request_ms("runtime.executor.run"),
        "runtime.plan_executor.build_ms": per_request_ms("runtime.plan_executor.build"),
        "runtime.plan_executor.run_ms": run_ms,
        "runtime.plan_executor.us_per_node": run_ms * 1e3 / peel["nodes"],
        "runtime.plan_executor.run_batch_ms_per_sample":
            per_request_ms("runtime.plan_executor.run_batch") / peel["batch"],
        "runtime.plan_executor.spill_stall_ms": stall,
        "runtime.plan_executor.spill_hidden_ms": hidden,
        "runtime.plan_executor.hidden_fraction":
            hidden / (stall + hidden) if stall + hidden > 0 else 0.0,
        "runtime.plan_executor.fetches": peel["fetches"],
        "runtime.plan_executor.writebacks": peel["writebacks"],
        "runtime.plan_executor.measured_peak_bytes": peel["peak"],
        "serving.registry.register_ms": total("serving.registry.register") * 1e3,
        "serving.pool.preload_ms": total("serving.pool.preload") * 1e3,
        "serving.pool.lease_us": lease_ms * 1e3,
        "serving.pool.hit_rate": stats.pool.hit_rate,
        "serving.pool.spilled_builds": stats.pool.spilled_builds,
        "serving.pool.resident_bytes": server.resident_bytes,
        "serving.scheduler.solo_ms": sched_solo,
        "serving.scheduler.self_ms": sched_solo - run_ms - lease_ms,
        "serving.scheduler.queue_ms": median([s.queue_s for s in served]) * 1e3,
        "serving.scheduler.run_ms": median([s.run_s for s in served]) * 1e3,
        "serving.scheduler.mean_batch": stats.mean_batch,
        "serving.shard.spawn_s": total("serving.shard.spawn"),
        "serving.shard.solo_ms": shard_solo,
        "serving.shard.self_ms": shard_solo - sched_solo if wl.shards else 0.0,
        "serving.shard.req_ring_peak": max((s.req_ring_peak for s in shard_stats), default=0),
        "serving.shard.resp_ring_peak": max((s.resp_ring_peak for s in shard_stats), default=0),
        "serving.shard.restarts": stats.restarts,
        "serving.shard.retries": stats.retries,
        "serving.shard.shed": stats.shed,
    })

    phases = closed + opened + opened_traced
    late = [x for o in opened + opened_traced for x in o.late_ms]
    p50 = latency_ms(opened, 0.50)
    m.update({
        "loadgen.sent": sum(p.sent for p in phases),
        "loadgen.ok": sum(p.ok for p in phases),
        "loadgen.failed": sum(p.failed for p in phases),
        "loadgen.mismatches": mismatches,
        "loadgen.late_ms_p50": percentile(late, 0.50),
        "loadgen.late_ms_max": max(late),
        "loadgen.p90_ms": latency_ms(opened, 0.90),
        "loadgen.p99_ms": latency_ms(opened, 0.99),
        # what the layer self times (they sum to the solo round trip)
        # leave of the loaded p50: queueing and batching wait
        "loadgen.residual_ms": p50 - (shard_solo if wl.shards else sched_solo),
        # paired within each round, where both halves saw the same host
        "loadgen.trace_overhead_frac": median([
            latency_ms([traced], 0.50) / latency_ms([plain], 0.50) - 1.0
            for plain, traced in zip(opened, opened_traced)
        ]),
    })
    return {k: float(v) for k, v in m.items()}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def emit(doc: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """Print the metrics by name and unit, then the driver's JSON line
    (returned too). The printed set must be exactly what
    ``BENCHMARK.json`` declares."""
    declared = spec["per_layer" if doc["trace"] else "end_to_end"]
    units = {e["name"]: e["unit"] for e in declared}
    if set(doc["metrics"]) != set(units):
        missing = sorted(set(units) - set(doc["metrics"]))
        extra = sorted(set(doc["metrics"]) - set(units))
        raise SystemExit(f"metric set differs from BENCHMARK.json: {missing=} {extra=}")
    print(f"# {doc['workload']}  (seed {doc['host']['seed']}, {doc['host']['mode']}, "
          f"{doc['host']['nproc']} cpus, commit {doc['host']['commit'][:12]})")
    for name in units:
        print(f"{name:<48} {doc['metrics'][name]:>16.6g} {units[name]}")
    for note in doc["notes"]:
        print(f"! {note}")
    result = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": doc["metrics"][name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return result


def run_here(
    name: str, seed: int, args: argparse.Namespace, spec: dict[str, Any]
) -> dict[str, Any]:
    """Run one workload in this process and print it; returns the
    driver's JSON object plus the exit code the run deserves."""
    budget = smoke_budget() if args.smoke else Budget(seconds=args.seconds)
    t0 = time.perf_counter()
    doc = run_workload(name, seed, budget, bool(args.trace), args.trace_out)
    doc["wall_s"] = time.perf_counter() - t0
    if args.json_out and args.workload != "all" and args.repeat == 1:
        Path(args.json_out).write_text(json.dumps(doc, indent=1))
    result = emit(doc, spec)
    result["exit"] = 0 if doc["correct"] else 1
    return result


# ----------------------------------------------------------------------
# every workload, one fresh process each; the --repeat self-check
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, args: argparse.Namespace) -> dict[str, Any] | None:
    """Run one workload in a fresh process, so its ``peak_rss_mb`` is its
    own; returns its JSON line plus exit code (``None`` if it printed
    none)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    result["exit"] = proc.returncode
    return result


def run_sets(names: list[str], args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from loadgen import relative_spread

    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    sets: list[dict[str, dict[str, Any]]] = []
    ok = True
    for k in range(args.repeat):
        results = {}
        for name in names:
            # a smoke pass checks wiring, not memory: it skips the five
            # interpreter start-ups to stay inside ten seconds
            result = (
                run_here(name, args.seed + k, args, spec) if args.smoke
                else run_child(name, args.seed + k, args)
            )
            if result is None or result["exit"] != 0 or not result["correct"]:
                ok = False
                print(f"! {name}: run failed (set {k})")
            if result is not None:
                results[name] = result
        sets.append(results)
    noise: dict[str, dict[str, float]] = {}
    if args.repeat > 1 and not args.trace:
        print(f"\n# run-to-run spread over {args.repeat} sets "
              "(IQR / median; range / median below four sets) against each metric's bound")
        for name in names:
            for metric, bound in bounds.items():
                values = [s[name]["metrics"][metric]["value"] for s in sets if name in s]
                spread = relative_spread(values)
                noise.setdefault(name, {})[f"loadgen.noise.{metric}"] = spread
                verdict = "ok" if spread <= bound else "EXCEEDS BOUND"
                if spread > bound:
                    ok = False
                print(f"{name:<20} {metric:<28} {spread:8.4f}  bound {bound:<5} {verdict}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({"sets": sets, "noise": noise}, indent=1))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"benchmark needs the repository around it (no src/repro under {ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="how long one run measures (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run, printing the per-layer metrics")
    ap.add_argument("--trace-out", help="write the traced run's spans as Chrome-trace JSON")
    ap.add_argument("--json-out", help="write the full result document(s) here")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run N sets and check the run-to-run spread against the bounds")
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long pass over reduced inputs (wiring check, not a measurement)")
    args = ap.parse_args(argv)

    if args.workload == "all" or args.repeat > 1:
        return run_sets(names if args.workload == "all" else [args.workload], args, spec)

    return run_here(args.workload, args.seed, args, spec)["exit"]


if __name__ == "__main__":
    sys.exit(main())
