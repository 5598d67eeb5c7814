"""Reference lead assignment: one validated plan pair per probe.

This is ``repro.allocator.spill._assign_leads`` as it stood before its
probe became a size-only predicate, kept verbatim together with
everything a probe went through — ``_layout_staging``, the two offset
allocators and ``_lowest_gap`` as ``repro.allocator.arena`` had them,
each building and ``validate()``-ing a whole ``AllocationPlan`` just to
be asked ``arena_bytes <= capacity``. It is the differential oracle of
``test_leads_differential.py``: the shipped ``_assign_leads`` must
return the same dict (and spend the same ``_LEAD_ASSIGN_BUDGET`` units)
on every input, and the shipped allocators the same offsets. It is
test-only on purpose — do not optimise it or make it share code with
``src/``, its value is that it is obviously "lay the region out, look
at its size".
"""

from __future__ import annotations

from typing import Sequence

from repro.allocator import spill
from repro.allocator.arena import AllocationPlan
from repro.allocator.lifetimes import BufferLifetime


def _lowest_gap(blocks: list[tuple[int, int]], size: int) -> int:
    """Lowest offset fitting ``size`` among sorted (offset, size) blocks."""
    cursor = 0
    for off, sz in blocks:
        if off - cursor >= size:
            return cursor
        cursor = max(cursor, off + sz)
    return cursor


def first_fit_arena(lifetimes: list[BufferLifetime]) -> AllocationPlan:
    """Dynamic first-fit in execution order (TFLite simple arena)."""
    by_start = sorted(lifetimes, key=lambda lt: (lt.start, lt.buffer_id))
    live: list[tuple[int, int, BufferLifetime]] = []  # (offset, size, lt)
    offsets: dict[int, int] = {}
    high_water = 0
    for lt in by_start:
        live = [(o, s, x) for (o, s, x) in live if x.end > lt.start]
        live.sort()
        offset = _lowest_gap([(o, s) for (o, s, _) in live], lt.size)
        offsets[lt.buffer_id] = offset
        live.append((offset, lt.size, lt))
        high_water = max(high_water, offset + lt.size)
    return AllocationPlan(
        strategy="first_fit",
        offsets=offsets,
        arena_bytes=high_water,
        lifetimes=tuple(lifetimes),
    ).validate()


def greedy_by_size_plan(lifetimes: list[BufferLifetime]) -> AllocationPlan:
    """Ahead-of-time greedy-by-size placement (TFLite planner)."""
    by_size = sorted(lifetimes, key=lambda lt: (-lt.size, lt.start, lt.buffer_id))
    placed: list[tuple[int, BufferLifetime]] = []  # (offset, lt)
    offsets: dict[int, int] = {}
    high_water = 0
    for lt in by_size:
        conflicts = sorted(
            (off, x.size) for off, x in placed if lt.overlaps(x)
        )
        offset = _lowest_gap(conflicts, lt.size)
        offsets[lt.buffer_id] = offset
        placed.append((offset, lt))
        high_water = max(high_water, offset + lt.size)
    return AllocationPlan(
        strategy="greedy_by_size",
        offsets=offsets,
        arena_bytes=high_water,
        lifetimes=tuple(lifetimes),
    ).validate()


def _layout_staging(
    plan: AllocationPlan,
    spilled: frozenset[int],
    runs_of: dict[int, list[tuple[int, int]]],
    size: Sequence[int],
    leads: int | dict[tuple[int, int], int],
) -> tuple[int, dict[int, int], dict[tuple[int, int], int]]:
    intervals: list[BufferLifetime] = []
    tag: list[tuple] = []  # synthetic id -> ("res", b) | ("win", b, k)
    for lt in plan.lifetimes:
        if lt.buffer_id in spilled:
            continue
        intervals.append(
            BufferLifetime(
                buffer_id=len(tag),
                size=lt.size,
                start=lt.start,
                end=lt.end,
                producers=lt.producers,
            )
        )
        tag.append(("res", lt.buffer_id))
    for b in sorted(spilled):
        for k, (s0, s1) in enumerate(runs_of[b]):
            lead = leads if isinstance(leads, int) else leads[(b, k)]
            intervals.append(
                BufferLifetime(
                    buffer_id=len(tag),
                    size=size[b],
                    start=max(0, s0 - lead),
                    end=s1 + 1,
                    producers=(),
                )
            )
            tag.append(("win", b, k))
    # two offset allocators, tightest region wins (fragmentation
    # profiles differ; both only ever see the same interval set)
    region = min(
        (greedy_by_size_plan(intervals), first_fit_arena(intervals)),
        key=lambda r: r.arena_bytes,
    )
    resident_offsets: dict[int, int] = {}
    window_offsets: dict[tuple[int, int], int] = {}
    for synthetic_id, entry in enumerate(tag):
        if entry[0] == "res":
            resident_offsets[entry[1]] = region.offsets[synthetic_id]
        else:
            window_offsets[(entry[1], entry[2])] = region.offsets[synthetic_id]
    return region.arena_bytes, resident_offsets, window_offsets


def _assign_leads(
    plan: AllocationPlan,
    spilled: frozenset[int],
    runs_of: dict[int, list[tuple[int, int]]],
    size: Sequence[int],
    capacity_bytes: int,
    max_lead: int,
) -> dict[tuple[int, int], int]:
    keys = [(b, k) for b in sorted(spilled) for k in range(len(runs_of[b]))]
    leads = dict.fromkeys(keys, 0)
    # read through the module so a test's monkeypatch reaches both sides
    budget = spill._LEAD_ASSIGN_BUDGET

    def fits() -> bool:
        nonlocal budget
        budget -= 1
        region_bytes, _, _ = _layout_staging(
            plan, spilled, runs_of, size, leads
        )
        return region_bytes <= capacity_bytes

    uniform = max_lead
    while uniform >= 1 and budget > 0:
        leads = dict.fromkeys(keys, uniform)
        if fits():
            break
        uniform //= 2
    else:
        leads = dict.fromkeys(keys, 0)

    improved = True
    while improved and budget > 0:
        improved = False
        for key in keys:
            if leads[key] >= max_lead or budget <= 0:
                continue
            leads[key] += 1
            if fits():
                improved = True
            else:
                leads[key] -= 1
    return leads
