"""Command-line interface: ``serenity`` (or ``python -m repro.cli``).

Subcommands
-----------
``compile``        run the full pipeline on one graph and write a
                   self-contained :class:`CompiledModel` artifact
``run``            load an artifact and execute it inside its planned
                   arena, reporting measured peak vs plan
``schedule``       compile one benchmark cell (or a saved graph) and print
                   the schedule report
``compile-batch``  compile many graphs with one strategy, over worker
                   processes and the persistent scheduling cache
``verify-plan``    statically verify compiled artifacts without running
                   a kernel
``serve``          load artifacts — or compile cells/graphs on the spot
                   through the schedule cache — into the concurrent
                   serving runtime and drive a synthetic request load
                   (the one load-driving subcommand: A/B baselines live
                   in ``benchmarks/``, the chaos acceptance in tier-1)
``experiment``     regenerate one of the paper's tables/figures
``list``           list benchmark cells, strategies and experiments

The ``compile``/``run`` pair is the deployment story: compile once
(anywhere, with the schedule cache warm), ship the JSON artifact,
execute it in a fresh process under the exact schedule and arena layout
the compiler chose.
"""

from __future__ import annotations

import argparse
import sys

from repro.models.suite import BENCHMARK_SUITE, get_cell

_EXPERIMENTS = {
    "fig2": "repro.experiments.fig2_pareto",
    "fig3": "repro.experiments.fig3_cdf",
    "fig10": "repro.experiments.fig10_peak",
    "fig11": "repro.experiments.fig11_offchip",
    "fig12": "repro.experiments.fig12_trace",
    "fig13": "repro.experiments.fig13_time",
    "fig15": "repro.experiments.fig10_peak",  # same harness, raw KB columns
    "table1": "repro.experiments.table1_networks",
    "table2": "repro.experiments.table2_ablation",
}


def _tile_bytes_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"tile size must be >= 0 bytes (0 = whole-buffer), got {value}"
        )
    return value


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.scheduler.registry import iter_strategies

    print("benchmark cells:")
    for key, spec in BENCHMARK_SUITE.items():
        print(f"  {key:18s} {spec.display}")
    print("\nscheduling strategies (cheapest first):")
    for strategy in iter_strategies():
        print(f"  {strategy.name:18s} {strategy.summary}")
    print("\nexperiments:")
    for key in sorted(set(_EXPERIMENTS) - {"fig15"}):
        print(f"  {key}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.scheduler.serenity import Serenity, SerenityConfig

    graph = _load_source_graph(args)
    if graph is None:
        print("error: pass --cell <key> or --graph <file.json>", file=sys.stderr)
        return 2

    config = SerenityConfig(
        rewrite=not args.no_rewrite,
        divide=not args.no_divide,
        adaptive_budget=not args.no_budget,
        max_states_per_step=args.max_states,
    )
    report = Serenity(config).compile(graph)

    print(f"graph: {graph.name} ({len(graph)} nodes -> "
          f"{len(report.scheduled_graph)} after rewriting)")
    print(f"rewrites applied        : {report.rewrite_count}")
    print(f"baseline (Kahn) peak    : {report.baseline_peak_bytes / 1024:9.1f}KB")
    print(f"baseline arena peak     : {report.baseline_arena_bytes / 1024:9.1f}KB")
    print(f"SERENITY peak           : {report.peak_bytes / 1024:9.1f}KB")
    print(f"SERENITY arena peak     : {report.arena_bytes / 1024:9.1f}KB")
    print(f"reduction (arena)       : {report.reduction_with_alloc:9.2f}x")
    print(f"scheduling time         : {report.scheduling_time_s:9.2f}s")
    if report.divide:
        sizes = ",".join(str(s) for s in report.divide.partition_sizes)
        print(f"partitions              : {{{sizes}}}")
    if args.emit_plan:
        from repro.allocator.export import export_plan

        export_plan(report.scheduled_graph, report.schedule, args.emit_plan)
        print(f"deployment plan written to {args.emit_plan}")
    if args.show_schedule:
        print("\nschedule:")
        for i, name in enumerate(report.schedule):
            print(f"  {i:4d}  {name}")
    return 0


def _load_source_graph(args: argparse.Namespace):
    """Resolve --cell/--graph into a Graph (None + error message on misuse)."""
    from repro.graph.serialization import load_graph

    if args.cell:
        return get_cell(args.cell).factory()
    if args.graph:
        return load_graph(args.graph)
    return None


def _cmd_compile(args: argparse.Namespace) -> int:
    import json

    from repro.compiler import CompilationPipeline
    from repro.exceptions import ReproError
    from repro.scheduler.cache import ScheduleCache
    from repro.scheduler.device import KNOWN_DEVICES

    try:
        graph = _load_source_graph(args)
    except (ReproError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot load graph: {exc}", file=sys.stderr)
        return 2
    if graph is None:
        print("error: pass --cell <key> or --graph <file.json>", file=sys.stderr)
        return 2

    pipeline = CompilationPipeline(
        args.strategy,
        allocator=args.allocator,
        device=KNOWN_DEVICES[args.device] if args.device else None,
        cache=None if args.no_cache else ScheduleCache(args.cache_dir),
        verify=args.verify,
    )
    try:
        model = pipeline.compile(graph)
    except ReproError as exc:
        print(f"error: compilation failed: {exc}", file=sys.stderr)
        return 2
    if args.capacity:
        # embed a tiered-arena spill plan per requested on-chip capacity
        from dataclasses import replace

        from repro.exceptions import SpillError

        plans = []
        for kib in args.capacity:
            cap = int(kib * 1024)
            try:
                plans.append(model.spill_plan(cap, tile_bytes=args.tile_bytes))
            except SpillError as exc:
                print(f"error: cannot spill-plan {kib:g}KiB: {exc}",
                      file=sys.stderr)
                return 1
        model = replace(model, spill_plans=tuple(plans))
    path = model.save(args.output)

    meta = model.meta
    print(f"compiled {graph.name}: {meta['source_nodes']} nodes -> "
          f"{meta['nodes']} scheduled ({model.strategy}"
          f"{', cached schedule' if meta.get('cached') else ''})")
    print(f"ideal peak              : {meta['peak_bytes'] / 1024:9.1f}KB")
    print(f"arena peak              : {model.arena_bytes / 1024:9.1f}KB "
          f"({model.plan.strategy})")
    if model.device is not None:
        verdict = "fits" if model.fits_device else "OVER BUDGET"
        print(f"device {model.device.name} ({model.device.sram_kib:.0f}KB): "
              f"{verdict}")
    for sp in model.spill_plans:
        tiled = (
            f", {sp.tile_bytes}B tiles" if sp.tile_bytes is not None else ""
        )
        print(f"spill plan {sp.capacity_bytes / 1024:g}KiB "
              f"({sp.policy}{tiled}): "
              f"{sp.spilled_count} buffers spilled, resident "
              f"{sp.resident_bytes / 1024:.1f}KB, off-chip home "
              f"{sp.spill_bytes / 1024:.1f}KB")
    if args.verify:
        print("verified                : bitwise-equal to reference executor")
    print(f"artifact written to {path}")
    return 0 if model.fits_device in (None, True) else 1


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.compiler import CompiledModel
    from repro.exceptions import ReproError
    from repro.runtime import random_feeds

    try:
        model = CompiledModel.load(args.artifact)
    except (ReproError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot load artifact {args.artifact}: {exc}", file=sys.stderr)
        return 2
    feeds = random_feeds(model.graph, seed=args.seed)
    capacity = int(args.capacity * 1024) if args.capacity is not None else None
    if capacity is not None and args.spill == "never":
        if model.arena_bytes > capacity:
            print(
                f"error: {model.graph.name} needs a {model.arena_bytes}-byte "
                f"arena but --capacity is {capacity} bytes "
                f"({model.arena_bytes - capacity} bytes short); rerun with "
                "--spill auto to stage cold buffers off-chip",
                file=sys.stderr,
            )
            return 1
        capacity = None  # fits: plain resident execution
    try:
        executor = model.executor(
            seed=args.seed,
            capacity_bytes=capacity,
            tile_bytes=args.tile_bytes,
            prefetch=not args.no_prefetch,
            link=_offchip_link(args),
        )
        outputs = executor.run(feeds)
    except ReproError as exc:
        print(f"error: cannot execute artifact {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    stats = executor.last_stats
    assert stats is not None

    print(f"executed {model.graph.name}: {stats.steps} steps in schedule "
          f"order ({model.strategy} schedule, {model.plan.strategy} arena)")
    print(f"planned arena           : {stats.arena_bytes / 1024:9.1f}KB")
    print(f"measured high-water mark: {stats.measured_peak_bytes / 1024:9.1f}KB "
          f"({100.0 * stats.utilization:.1f}% of plan)")
    print(f"conv kernel workspace   : {executor.workspace_nbytes / 1024:9.1f}KB "
          "(pad maps + im2col columns, beside the arena)")
    if capacity is not None:
        traffic = stats.traffic
        print(f"on-chip capacity        : {capacity / 1024:9.1f}KB "
              f"({stats.spilled_buffers} buffers spilled, "
              f"{traffic.policy} policy)")
        print(f"off-chip traffic        : {traffic.total_kib:9.1f}KB "
              f"({traffic.fetches} fetches, {traffic.writebacks} writebacks)")
        overlap = (
            f"prefetch lead {stats.prefetch_lead} steps"
            if stats.prefetch_lead
            else "inline transfers"
        )
        print(f"transfer stall / hidden : {traffic.stall_s * 1e3:9.2f} / "
              f"{traffic.hidden_s * 1e3:.2f} ms "
              f"({100.0 * traffic.hidden_fraction:.0f}% hidden, {overlap})")
    for name, value in outputs.items():
        flat = value.ravel()
        head = ", ".join(f"{v:.4g}" for v in flat[:4])
        more = ", ..." if flat.size > 4 else ""
        print(f"output {name:<17s}: shape {value.shape} [{head}{more}]")
    if args.verify:
        # compare the outputs just computed against one reference run
        # (same params/feeds) instead of re-executing everything
        from repro.runtime import Executor
        from repro.runtime.verify import compare_outputs

        ref = Executor(model.graph, params=executor.params).run(feeds)
        report = compare_outputs(ref, outputs)
        verdict = "bitwise-equal" if report.equivalent else "DIVERGED"
        print(f"reference executor      : {verdict} "
              f"(max abs error {report.max_abs_error:g})")
        if not report.equivalent:
            return 1
    return 0


def _cmd_verify_plan(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.verifier import analyze_artifact

    batch_sizes = tuple(args.batch) if args.batch else (1, 8)
    reports = []
    unreadable = 0
    for path in args.artifacts:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read artifact {path}: {exc}", file=sys.stderr)
            unreadable += 1
            continue
        report = analyze_artifact(
            doc, level=args.level, batch_sizes=batch_sizes, target=path
        )
        reports.append(report)
        if args.json:
            print(json.dumps(report.to_doc()))
        else:
            print(report.summary())
    if unreadable:
        return 2
    failed = sum(1 for r in reports if not r.ok)
    if not args.json:
        print(
            f"verified {len(reports)} artifact(s): "
            f"{len(reports) - failed} passed, {failed} failed"
        )
    return 1 if failed else 0


def _cmd_compile_batch(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.analysis.verifier import analyze_model
    from repro.compiler import CompilationPipeline
    from repro.exceptions import ReproError
    from repro.graph.serialization import load_graph
    from repro.scheduler.cache import ScheduleCache
    from repro.scheduler.device import KNOWN_DEVICES

    try:
        graphs = [get_cell(key).factory() for key in args.cells or []]
        graphs += [load_graph(path) for path in args.graphs or []]
    except (ReproError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot load graph: {exc}", file=sys.stderr)
        return 2
    if not graphs:  # default: the whole benchmark suite
        graphs = [spec.factory() for spec in BENCHMARK_SUITE.values()]

    if args.clear_cache:  # honoured even under --no-cache
        removed = ScheduleCache(args.cache_dir).clear()
        print(f"cleared {removed} cache entries")
    cache = None if args.no_cache else ScheduleCache(args.cache_dir)
    device = KNOWN_DEVICES[args.device] if args.device else None
    pipeline = CompilationPipeline(args.strategy, cache=cache, device=device)

    t0 = time.perf_counter()
    try:
        models = pipeline.compile_batch(graphs, workers=args.workers)
    except ReproError as exc:
        print(f"error: compilation failed: {exc}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - t0

    print("batch compilation report")
    print(f"  graphs {len(models)}, workers {args.workers}, "
          f"strategy {args.strategy}")
    if device is not None:
        print(f"  device: {device.name} ({device.sram_kib:.0f}KB budget)")
    print()
    print(f"  {'graph':<18s} {'peak KB':>9s} {'arena KB':>9s} {'time':>8s}"
          f"  {'fits':<5s} cache")
    for model in models:
        meta = model.meta
        fits = "-" if device is None else ("yes" if meta["fits"] else "no")
        print(f"  {model.graph.name:<18s} {meta['peak_bytes'] / 1024:>9.1f}"
              f" {model.arena_bytes / 1024:>9.1f}"
              f" {meta['compile_time_s']:>7.2f}s  {fits:<5s}"
              f" {'hit' if meta['cached'] else 'miss'}")
    print()
    hits = sum(1 for m in models if m.meta["cached"])
    cached = (
        f"cache hits {hits}/{len(models)} ({100.0 * hits / len(models):.1f}%)"
        if cache is not None
        else "no cache"
    )
    print(f"  wall time {wall_s:.2f}s; {cached}")
    recomputed = [
        m.graph.name for m in models if m.meta.get("recomputed_in_process")
    ]
    if recomputed:
        print("  worker pool broke; recomputed in-process: "
              + ", ".join(recomputed))
    if device is not None:
        n_fit = sum(1 for m in models if m.meta["fits"])
        print(f"  deployable on {device.name}: {n_fit}/{len(models)}")
    if cache is not None:
        print(f"  cache: {cache.root}")

    # every plan must analyze clean before the batch is reported good
    failed = [r for r in (analyze_model(m, level="basic") for m in models)
              if not r.ok]
    for report in failed:
        print(report.summary(), file=sys.stderr)
    return 1 if failed else 0


def _serving_budget(args: argparse.Namespace):
    from repro.scheduler.device import resolve_budget

    return resolve_budget(args.budget_device, args.budget_kb)


def _offchip_link(args: argparse.Namespace):
    """--offchip-mbps resolved to an OffchipLink (None: instant copies)."""
    if getattr(args, "offchip_mbps", None) is None:
        return None
    from repro.memsim import OffchipLink

    return OffchipLink(bandwidth_bytes_per_s=args.offchip_mbps * 1e6)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import ReproError
    from repro.serving import ModelRegistry, run_load

    if not args.artifacts and not args.cells and not args.graphs:
        print(
            "error: nothing to serve; pass artifact file(s), --cell or --graph",
            file=sys.stderr,
        )
        return 2
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2

    registry = ModelRegistry()
    try:
        for path in args.artifacts:
            name = registry.load(path)
            model = registry.get(name)
            print(f"loaded {name}: {len(model.graph)} nodes, "
                  f"arena {model.arena_bytes / 1024:.1f}KB ({model.strategy})")
        # "point it at a graph" deployments: compile sources on the spot,
        # served from the persistent schedule cache when warm
        if args.cells or args.graphs:
            from repro.compiler import CompilationPipeline
            from repro.graph.serialization import load_graph
            from repro.scheduler.cache import ScheduleCache

            pipeline = CompilationPipeline(
                args.strategy,
                cache=None if args.no_cache else ScheduleCache(args.cache_dir),
            )
            sources = [get_cell(key).factory() for key in args.cells or []]
            sources += [load_graph(path) for path in args.graphs or []]
            for graph in sources:
                name = registry.register(pipeline.compile(graph))
                model = registry.get(name)
                cached = model.meta.get("cached")
                print(f"compiled {name}: {len(model.graph)} nodes, "
                      f"arena {model.arena_bytes / 1024:.1f}KB "
                      f"({model.strategy}"
                      f"{', cached schedule' if cached else ''})")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        # e.g. a malformed --graph file raising a bare KeyError('op')
        print(
            f"error: cannot load serving sources: {exc!r}", file=sys.stderr
        )
        return 2

    try:
        report = run_load(
            registry,
            requests=args.requests,
            clients=args.clients,
            workers=args.workers,
            max_batch=args.max_batch,
            budget=_serving_budget(args),
            seed=args.seed,
            scrub=args.scrub,
            verify=args.verify,
            preload=args.preload,
            spill=args.spill,
            tile_bytes=args.tile_bytes,
            prefetch=not args.no_prefetch,
            link=_offchip_link(args),
            shards=args.shards,
            deadline_s=(
                args.deadline_ms / 1e3 if args.deadline_ms else None
            ),
            retries=args.retries,
        )
    except ReproError as exc:
        print(f"error: serving run failed: {exc}", file=sys.stderr)
        return 2
    print()
    print(report.summary())
    return 0 if not report.errors and report.verified in (None, True) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(_EXPERIMENTS[args.name])
    if args.policy is not None:
        if args.name != "fig11":
            print(
                f"error: --policy only applies to fig11, not {args.name}",
                file=sys.stderr,
            )
            return 2
        module.main(policy=args.policy)
    else:
        module.main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.allocator.spill import SPILL_MODES
    from repro.memsim.policies import POLICY_NAMES
    from repro.scheduler.device import KNOWN_DEVICES
    from repro.scheduler.registry import strategy_names

    # flags several subcommands share, each declared once (argparse
    # ``parents=``): same type, default and meaning wherever they appear
    def shared(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    one_source = shared()
    one_source.add_argument("--cell", choices=sorted(BENCHMARK_SUITE), default=None)
    one_source.add_argument("--graph", help="path to a saved graph JSON")

    many_sources = shared()
    many_sources.add_argument(
        "--cell",
        dest="cells",
        action="append",
        choices=sorted(BENCHMARK_SUITE),
        help="benchmark cell to compile (repeatable; schedules come from "
        "the persistent cache when warm)",
    )
    many_sources.add_argument(
        "--graph",
        dest="graphs",
        action="append",
        metavar="FILE",
        help="saved graph JSON to compile (repeatable)",
    )

    cached = shared()
    cached.add_argument(
        "--cache-dir",
        help="schedule cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro/schedules)",
    )
    cached.add_argument(
        "--no-cache", action="store_true",
        help="compile without the schedule cache",
    )

    on_device = shared()
    on_device.add_argument(
        "--device",
        choices=sorted(KNOWN_DEVICES),
        help="target device budget — compile: recorded in the artifact, "
        "exit 1 if the plan exceeds it; compile-batch: report which "
        "graphs fit it",
    )

    verified = shared()
    verified.add_argument(
        "--verify",
        action="store_true",
        help="also run the reference executor and require bitwise-equal "
        "outputs (compile: before the artifact is written; serve: on "
        "every response); exit 1 on any divergence",
    )

    seeded = shared()
    seeded.add_argument(
        "--seed", type=int, default=0,
        help="seed for the deterministic random weights and input feeds "
        "(default 0)",
    )

    tiled = shared()
    tiled.add_argument(
        "--tile-bytes", type=_tile_bytes_arg, metavar="BYTES",
        help="stream spilled buffers through fixed-size tile slots instead "
        "of whole-buffer staging windows (drops the admissible capacity "
        "floor to the largest tiled working set; same bitwise outputs)",
    )

    transfers = shared(tiled)
    transfers.add_argument(
        "--no-prefetch", action="store_true",
        help="run spill transfers inline instead of overlapping them "
        "with compute as prefetch jobs",
    )
    transfers.add_argument(
        "--offchip-mbps", type=float, metavar="MBPS",
        help="model the off-chip link at this bandwidth (MB/s) so every "
        "fetch/writeback costs wall-clock; default: instant host copies",
    )

    parser = argparse.ArgumentParser(
        prog="serenity",
        description="SERENITY: memory-aware scheduling of irregularly wired "
        "neural networks (MLSys 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list cells and experiments")
    p_list.set_defaults(func=_cmd_list)

    p_sched = sub.add_parser(
        "schedule", help="compile a graph", parents=[one_source]
    )
    p_sched.add_argument("--no-rewrite", action="store_true")
    p_sched.add_argument("--no-divide", action="store_true")
    p_sched.add_argument("--no-budget", action="store_true")
    p_sched.add_argument("--max-states", type=int, default=50_000)
    p_sched.add_argument("--show-schedule", action="store_true")
    p_sched.add_argument(
        "--emit-plan",
        metavar="FILE",
        help="write the schedule + arena offsets as a JSON deployment plan",
    )
    p_sched.set_defaults(func=_cmd_schedule)

    p_comp = sub.add_parser(
        "compile",
        help="compile a graph into a deployable artifact",
        description="Run the unified pipeline — strategy scheduling "
        "(cache-served when warm), arena allocation, validation — and "
        "write a self-contained CompiledModel JSON artifact that "
        "`serenity run` executes in any process.",
        parents=[one_source, on_device, cached, verified, tiled],
    )
    p_comp.add_argument(
        "-o", "--output", required=True, metavar="FILE",
        help="artifact path to write",
    )
    p_comp.add_argument(
        "--strategy",
        choices=strategy_names(),
        default="serenity",
        help="scheduling strategy (default: serenity)",
    )
    p_comp.add_argument(
        "--allocator",
        choices=("first_fit", "greedy_by_size"),
        default="first_fit",
        help="arena offset allocator (default: first_fit)",
    )
    p_comp.add_argument(
        "--capacity",
        type=float,
        action="append",
        metavar="KIB",
        help="embed a tiered-arena spill plan for this on-chip capacity "
        "(repeatable, each staged at --tile-bytes when given; exit 1 below "
        "the schedule's staging floor)",
    )
    p_comp.set_defaults(func=_cmd_compile)

    p_run = sub.add_parser(
        "run",
        help="execute a compiled artifact inside its planned arena",
        description="Load a CompiledModel artifact, execute its kernels "
        "in schedule order inside one preallocated arena at the planned "
        "byte offsets, and report the measured high-water mark against "
        "the plan's arena_bytes.",
        parents=[seeded, verified, transfers],
    )
    p_run.add_argument("artifact", help="path to a CompiledModel JSON")
    p_run.add_argument(
        "--capacity",
        type=float,
        metavar="KIB",
        help="execute under this on-chip capacity: an over-capacity arena "
        "degrades to a two-region tiered arena with measured off-chip "
        "traffic (bitwise-identical outputs)",
    )
    p_run.add_argument(
        "--spill",
        choices=SPILL_MODES,
        default="auto",
        help="what to do when the arena exceeds --capacity: refuse "
        "(never, exit 1) or spill cold buffers off-chip (auto, default)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify-plan",
        help="statically verify compiled artifacts without executing them",
        description="Prove each artifact's schedule legality, byte-exact "
        "arena soundness, spill-window coverage and prefetch race freedom "
        "from the plan documents alone — no kernel runs. Every violated "
        "invariant prints as a structured diagnostic; exit 1 if any "
        "artifact has error-severity findings, 2 if one is unreadable.",
    )
    p_verify.add_argument(
        "artifacts", nargs="+", help="CompiledModel JSON artifact path(s)"
    )
    p_verify.add_argument(
        "--level",
        choices=("basic", "full"),
        default="full",
        help="basic: schedule + layout invariants; full (default) adds "
        "the byte-exact read-coverage replay",
    )
    p_verify.add_argument(
        "--batch",
        type=int,
        action="append",
        metavar="N",
        help="batch width(s) the plan must price correctly (repeatable; "
        "default: 1 and 8 — any width > 1 proves batched arena rows "
        "cannot alias)",
    )
    p_verify.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON report per artifact instead of text",
    )
    p_verify.set_defaults(func=_cmd_verify_plan)

    p_batch = sub.add_parser(
        "compile-batch",
        help="compile a batch of graphs in parallel",
        description="Compile many graphs with one scheduling strategy, "
        "one job per graph over worker processes, memoising every "
        "schedule in the persistent schedule cache; exit 1 if any plan "
        "fails static verification. With no --cell/--graph arguments "
        "the full benchmark suite is compiled.",
        parents=[many_sources, on_device, cached],
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (<=1 compiles in-process; default 0)",
    )
    p_batch.add_argument(
        "--strategy",
        choices=strategy_names(),
        default="serenity",
        help="scheduling strategy (default: serenity)",
    )
    p_batch.add_argument(
        "--clear-cache",
        action="store_true",
        help="drop existing cache entries before compiling",
    )
    p_batch.set_defaults(func=_cmd_compile_batch)

    p_serve = sub.add_parser(
        "serve",
        help="serve compiled artifacts or freshly compiled graphs",
        description="Load CompiledModel artifacts — and/or compile "
        "benchmark cells / saved graphs on the spot through the "
        "persistent schedule cache — into the serving runtime "
        "(registry -> arena pool -> request scheduler) and drive a "
        "concurrent synthetic load, reporting throughput, latency "
        "percentiles and the arena-reuse hit rate.",
        parents=[many_sources, cached, seeded, verified, transfers],
    )
    p_serve.add_argument(
        "artifacts", nargs="*", metavar="ARTIFACT",
        help="CompiledModel JSON artifact(s) to register",
    )
    p_serve.add_argument(
        "--strategy",
        choices=strategy_names(),
        default="greedy",
        help="scheduling strategy for --cell/--graph compilation "
        "(default: greedy)",
    )
    p_serve.add_argument(
        "--requests", type=int, default=64,
        help="total synthetic requests to drive (default 64)",
    )
    p_serve.add_argument(
        "--clients", type=int, default=4,
        help="concurrent closed-loop client threads (default 4)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="dispatcher threads per scheduler (default 1: threads share "
        "the GIL and measure slower — --shards is the parallelism knob)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=1,
        help="worker PROCESSES to shard serving across (default 1: "
        "in-process threads). Each shard owns its own arena pool + "
        "scheduler; models are sticky-routed by rendezvous hash and "
        "tensors cross zero-copy shared-memory rings",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=4,
        help="micro-batch limit for same-model requests; pooled "
        "executors are built batch-capable at this capacity, so a "
        "drained batch runs as ONE stacked kernel pass (default 4)",
    )
    p_serve.add_argument(
        "--preload", action="store_true",
        help="build one executor per model before accepting traffic "
        "(kills cold-start builds in the latency tail)",
    )
    p_serve.add_argument(
        "--budget-device",
        choices=sorted(KNOWN_DEVICES),
        help="cap resident arenas by this device's SRAM budget",
    )
    p_serve.add_argument(
        "--budget-kb", type=float, metavar="KIB",
        help="cap resident arenas by a custom KiB budget",
    )
    p_serve.add_argument(
        "--spill",
        choices=SPILL_MODES,
        default="never",
        help="over-budget admission policy: refuse (never, default) or "
        "degrade to spill-planned executors with measured off-chip "
        "traffic (auto)",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, metavar="MS", default=None,
        help="per-request deadline: queued requests past it are shed "
        "before compute, in-flight ones fail typed "
        "(DeadlineExceededError) instead of blocking — identical "
        "semantics sharded and unsharded",
    )
    p_serve.add_argument(
        "--retries", type=int, default=0,
        help="retry a request whose shard died with it in flight, "
        "rerouted through the live routing table (sharded runs; "
        "default 0)",
    )
    p_serve.add_argument(
        "--scrub",
        choices=("never", "zero"),
        default="never",
        help="arena scrub policy between pooled runs (default: never)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    p_exp.add_argument(
        "--policy",
        choices=POLICY_NAMES,
        default=None,
        help="replacement policy for the fig11 off-chip simulation (the "
        "same registry the runtime's spill planner draws from; "
        "default: belady)",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
