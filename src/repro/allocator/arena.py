"""Offset allocators for a single linear arena.

Two strategies, both returning an :class:`AllocationPlan`:

* :func:`first_fit_arena` — dynamic first-fit in execution order,
  re-implementing TensorFlow Lite's ``simple_memory_arena`` behaviour
  (the baseline memory scheme the paper compares under, see the Fig 10
  footnote). Allocations happen as execution reaches each buffer's start
  step and take the lowest-offset gap that fits; frees punch holes that
  later allocations may fill. Fragmentation makes the high-water mark
  exceed the ideal sum-of-live peak — visible as the allocator overhead
  in Fig 12(a) vs 12(b).

* :func:`greedy_by_size_plan` — TFLite's ahead-of-time
  ``GreedyBySizePlanner``: place buffers in decreasing size order at the
  lowest offset compatible with temporally-overlapping, already-placed
  buffers. Usually tighter than first-fit; included as an ablation
  (``bench_allocator_ablation``).

Every plan is checked: temporally overlapping buffers must not overlap
in address space.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import inf
from typing import Iterable, Sequence

from repro.exceptions import AllocationError
from repro.allocator.lifetimes import BufferLifetime, compute_lifetimes
from repro.graph.graph import Graph
from repro.scheduler.memory import BufferModel
from repro.scheduler.schedule import Schedule

__all__ = [
    "AllocationPlan",
    "first_fit_arena",
    "greedy_by_size_plan",
    "plan_allocation",
    "arena_peak_bytes",
]


@dataclass(frozen=True)
class AllocationPlan:
    """Byte offsets for every buffer plus the arena high-water mark."""

    strategy: str
    offsets: dict[int, int]
    arena_bytes: int
    lifetimes: tuple[BufferLifetime, ...]

    @property
    def arena_kib(self) -> float:
        return self.arena_bytes / 1024.0

    def validate(self) -> "AllocationPlan":
        """Raise :class:`AllocationError` on a buffer without an offset,
        on address-space overlap of temporally live buffer pairs, or on
        out-of-arena placement."""
        lts = list(self.lifetimes)
        missing = sorted({lt.buffer_id for lt in lts} - self.offsets.keys())
        if missing:
            raise AllocationError(
                f"allocation plan places no offset for buffer {missing[0]}"
            )
        for i, a in enumerate(lts):
            off_a = self.offsets[a.buffer_id]
            if off_a < 0 or off_a + a.size > self.arena_bytes:
                raise AllocationError(
                    f"buffer {a.buffer_id} at [{off_a}, {off_a + a.size}) "
                    f"escapes the {self.arena_bytes}-byte arena"
                )
            for b in lts[i + 1 :]:
                if not a.overlaps(b):
                    continue
                off_b = self.offsets[b.buffer_id]
                if off_a < off_b + b.size and off_b < off_a + a.size:
                    raise AllocationError(
                        f"live buffers {a.buffer_id} and {b.buffer_id} overlap: "
                        f"[{off_a}, {off_a + a.size}) vs [{off_b}, {off_b + b.size})"
                    )
        return self


#: what a placement rule sees of a buffer: ``(size, start, end, id)``
Interval = tuple[int, int, int, int]
#: ... and where it put one: ``(offset, size, start, end)``
_Block = tuple[int, int, int, int]


def _lowest_gap(blocks: Iterable[_Block], size: int) -> int:
    """Lowest offset fitting ``size`` among offset-sorted blocks."""
    cursor = 0
    for off, sz, _, _ in blocks:
        if off - cursor >= size:
            return cursor
        if off + sz > cursor:
            cursor = off + sz
    return cursor


# The placement rules, each stated once. A rule returns ``(high_water,
# offsets)`` and gives up (offsets incomplete) once the high-water
# mark, which only ever grows, passes ``limit``: the public allocators
# run it unlimited and validate the plan, :func:`fits_within` only asks
# whether the size fits.
def _place_first_fit(
    intervals: Iterable[Interval], limit: float = inf
) -> tuple[int, dict[int, int]]:
    """In ``(start, id)`` order, each at the lowest gap among the
    blocks still live at its start."""
    live: list[_Block] = []  # kept sorted
    offsets: dict[int, int] = {}
    high_water = 0
    by_start = sorted(intervals, key=lambda iv: (iv[1], iv[3]))
    for size, start, end, ident in by_start:
        live = [blk for blk in live if blk[3] > start]
        offsets[ident] = offset = _lowest_gap(live, size)
        insort(live, (offset, size, start, end))
        if offset + size > high_water:
            high_water = offset + size
            if high_water > limit:
                break
    return high_water, offsets


def _place_greedy_by_size(
    intervals: Iterable[Interval], limit: float = inf
) -> tuple[int, dict[int, int]]:
    """In ``(-size, start, id)`` order, each at the lowest gap among
    the placed blocks it overlaps in time."""
    placed: list[_Block] = []
    offsets: dict[int, int] = {}
    high_water = 0
    by_size = sorted(intervals, key=lambda iv: (-iv[0], iv[1], iv[3]))
    for size, start, end, ident in by_size:
        conflicts = [blk for blk in placed if start < blk[3] and blk[2] < end]
        conflicts.sort()
        offsets[ident] = offset = _lowest_gap(conflicts, size)
        placed.append((offset, size, start, end))
        if offset + size > high_water:
            high_water = offset + size
            if high_water > limit:
                break
    return high_water, offsets


def fits_within(intervals: Sequence[Interval], capacity: int) -> bool:
    """Whether the tighter of the two allocators' regions fits:
    ``min(first_fit_arena, greedy_by_size_plan).arena_bytes <=
    capacity``, without building or validating either plan."""
    return (
        _place_first_fit(intervals, capacity)[0] <= capacity
        or _place_greedy_by_size(intervals, capacity)[0] <= capacity
    )


def _planned(strategy: str, place, lifetimes: list[BufferLifetime]) -> AllocationPlan:
    high_water, offsets = place(
        (lt.size, lt.start, lt.end, lt.buffer_id) for lt in lifetimes
    )
    return AllocationPlan(
        strategy=strategy,
        offsets=offsets,
        arena_bytes=high_water,
        lifetimes=tuple(lifetimes),
    ).validate()


def first_fit_arena(lifetimes: list[BufferLifetime]) -> AllocationPlan:
    """Dynamic first-fit in execution order (TFLite simple arena)."""
    return _planned("first_fit", _place_first_fit, lifetimes)


def greedy_by_size_plan(lifetimes: list[BufferLifetime]) -> AllocationPlan:
    """Ahead-of-time greedy-by-size placement (TFLite planner)."""
    return _planned("greedy_by_size", _place_greedy_by_size, lifetimes)


_STRATEGIES = {
    "first_fit": first_fit_arena,
    "greedy_by_size": greedy_by_size_plan,
}


def plan_allocation(
    graph: Graph,
    schedule: Schedule,
    strategy: str = "first_fit",
    model: BufferModel | None = None,
) -> AllocationPlan:
    """Lifetimes + offsets in one call."""
    try:
        planner = _STRATEGIES[strategy]
    except KeyError:
        raise AllocationError(
            f"unknown allocation strategy {strategy!r}; "
            f"choose from {sorted(_STRATEGIES)}"
        ) from None
    return planner(compute_lifetimes(graph, schedule, model=model))


def arena_peak_bytes(
    graph: Graph,
    schedule: Schedule,
    strategy: str = "first_fit",
    model: BufferModel | None = None,
) -> int:
    """Arena high-water mark of ``schedule`` — the "+ Memory Allocator"
    metric of Figs 10/12/15."""
    return plan_allocation(graph, schedule, strategy=strategy, model=model).arena_bytes
