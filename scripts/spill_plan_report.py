"""What spill planning costs, at the repo benchmark's two configurations.

``serve-spill-whole`` and ``serve-spill-tiled`` (``benchmarks/e2e``)
admit one over-budget cell — randwire-c100-a under ``greedy`` — at
491 520 B with whole-buffer staging and at 114 688 B with 8 KiB tiles.
One line, per configuration: ``plan_spill`` seconds, how many
lead-assignment probes it asked, how many of those the live-byte bound
answered before any interval was placed, and how many
``AllocationPlan``s were built and validated. The counts are exact and
repeat; the seconds are host-bound. Report-only (CI's tier-1 step
summary prints it next to the ``src/`` scoreboard).

Usage: python scripts/spill_plan_report.py
"""

from __future__ import annotations

import time

#: (capacity bytes, tile bytes) of the two spill workloads
CONFIGS = ((491520, None), (114688, 8192))


def _counted(fn, counts: dict[str, int], name: str):
    def call(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return call


def main() -> int:
    from repro.allocator import spill
    from repro.allocator.arena import AllocationPlan
    from repro.compiler.pipeline import CompilationPipeline
    from repro.models.suite import get_cell

    model = CompilationPipeline("greedy").compile(
        get_cell("randwire-c100-a").factory()
    )
    counts = dict.fromkeys(("probes", "placed", "validated"), 0)
    # this process exists to count: the wrappers stay on
    spill._fits = _counted(spill._fits, counts, "probes")
    spill.fits_within = _counted(spill.fits_within, counts, "placed")
    AllocationPlan.validate = _counted(
        AllocationPlan.validate, counts, "validated"
    )
    parts = []
    for capacity, tile in CONFIGS:
        counts.update(dict.fromkeys(counts, 0))
        t0 = time.perf_counter()
        plan = spill.plan_spill(
            model.graph, model.schedule, model.plan, capacity, tile_bytes=tile
        )
        seconds = time.perf_counter() - t0
        staging = "whole buffers" if tile is None else f"{tile} B tiles"
        parts.append(
            f"{capacity} B, {staging}: {seconds:.3f} s, "
            f"{sum(len(ws) for ws in plan.windows.values())} windows, "
            f"{counts['probes']} probes "
            f"({counts['probes'] - counts['placed']} answered by the "
            f"live-byte bound), {counts['validated']} plans validated"
        )
    print("plan_spill randwire-c100-a (greedy) -- " + "; ".join(parts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
