"""Where a request's compute goes, per operator type.

For each suite cell (``BENCHMARK_SUITE`` or the serving micro cells) the
cell is compiled the way the serving benchmarks compile it (``greedy``),
run through the reference ``Executor`` and through ``PlanExecutor``, and
every kernel call is timed: calls and total milliseconds per op type on
each executor, whether the plan executor's rows write their arena site
directly, and what is left over for the interpreter (feeds, snapshots,
the step loop). Timing wraps each call, so small ops read ~1 us high;
the untimed run time is printed beside the sums.

Usage: python scripts/profile_ops.py [--runs N] [--batch N] CELL...
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace


def _timed(fn, sink: list[float]):
    def call(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        sink.append(time.perf_counter() - t0)
        return out

    return call


def _median_ms(fn, runs: int) -> float:
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def profile_cell(key: str, runs: int, batch: int) -> None:
    import numpy as np

    import repro.runtime.executor as reference
    from repro.compiler.pipeline import CompilationPipeline
    from repro.models.suite import BENCHMARK_SUITE, serving_suite
    from repro.runtime.executor import Executor, init_params, random_feeds
    from repro.runtime.plan_executor import _STEP_COPY, _STEP_DIRECT

    factories = {k: v.factory for k, v in BENCHMARK_SUITE.items()}
    factories.update(serving_suite())
    if key not in factories:
        raise SystemExit(f"unknown cell {key!r}; pick from {sorted(factories)}")
    model = CompilationPipeline("greedy").compile(factories[key]())
    graph = model.graph
    params = init_params(graph, 0)
    feeds = random_feeds(graph)
    stacked = {k: np.stack([v] * batch) for k, v in feeds.items()}

    ref = Executor(graph, params=params)
    px = model.executor(seed=0, batch_size=batch)
    try:
        ref.run(feeds)
        px.run_batch(stacked)
        ref_ms = _median_ms(lambda: ref.run(feeds), runs)
        px_ms = _median_ms(lambda: px.run_batch(stacked), runs)

        # reference executor: time every table entry it dispatches through
        ref_t: dict[str, list[float]] = defaultdict(list)
        table = reference.KERNELS
        saved = dict(table)
        try:
            for op, fn in saved.items():
                table[op] = _timed(fn, ref_t[op])
            for _ in range(runs):
                ref.run(feeds)
        finally:
            table.update(saved)

        # plan executor: time every kernel row of the compiled step table
        px_t: dict[str, list[float]] = defaultdict(list)
        path: dict[str, set[str]] = defaultdict(set)
        plan = px._run_plans[batch]
        rows = []
        for row in plan.steps:
            if row[0] in (_STEP_DIRECT, _STEP_COPY):
                op = graph.node(row[1]).op
                path[op].add("direct" if row[0] == _STEP_DIRECT else "copy")
                row = row[:3] + (_timed(row[3], px_t[op]),) + row[4:]
            rows.append(row)
        px._run_plans[batch] = replace(plan, steps=tuple(rows))
        try:
            for _ in range(runs):
                px.run_batch(stacked)
        finally:
            px._run_plans[batch] = plan
        workspace = px.workspace_nbytes
    finally:
        px.close()

    print(f"\n## {key}: {len(graph)} nodes, batch {batch}, {runs} runs")
    print(
        f"{'op':26s} {'calls':>5s} {'Executor ms':>12s} {'us/call':>8s} "
        f"{'PlanExecutor ms':>16s} {'us/call':>8s}  rows"
    )
    ref_sum = px_sum = 0.0
    for op in sorted(px_t, key=lambda o: -sum(px_t[o])):
        calls = len(px_t[op]) // runs
        r_ms = sum(ref_t[op]) / runs * 1e3
        p_ms = sum(px_t[op]) / runs * 1e3
        ref_sum += r_ms
        px_sum += p_ms
        print(
            f"{op:26s} {calls:5d} {r_ms:12.3f} {r_ms / calls * 1e3:8.1f} "
            f"{p_ms:16.3f} {p_ms / calls * 1e3:8.1f}  {'+'.join(sorted(path[op]))}"
        )
    print(f"{'kernel calls, timed':32s} {ref_sum:12.3f} {'':8s} {px_sum:16.3f}")
    print(f"{'whole run, untimed (median)':32s} {ref_ms:12.3f} {'':8s} {px_ms:16.3f}")
    print(f"conv workspace {workspace / 1024:.1f} KiB beside a "
          f"{px.arena_nbytes / 1024:.1f} KiB arena")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("cells", nargs="+", metavar="CELL")
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--batch", type=int, default=1,
                    help="PlanExecutor batch width (the Executor runs one sample)")
    args = ap.parse_args(argv)
    for key in args.cells:
        profile_cell(key, args.runs, args.batch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
