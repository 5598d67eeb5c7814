"""Compile-time spill planning: fit a plan into a smaller on-chip arena.

The :class:`~repro.allocator.arena.AllocationPlan` promises one arena
big enough for the schedule's whole working set. When the target's
on-chip capacity is *smaller* than that promise, the runtime used to
refuse outright (``AdmissionError``). This module turns that refusal
into a planned degradation, the way the paper's §5 off-chip story (and
SERENITY's off-chip extension) treats overflow: partition the plan's
buffers into

* **resident** buffers, which keep an on-chip slot for their whole
  lifetime, and
* **spilled** buffers, whose *home* is a second, off-chip region; they
  are **staged** on-chip only for the contiguous step windows in which
  the schedule actually touches them, fetched at window entry and
  written back at window exit when dirty.

Victim selection reuses the replacement-policy registry of the Fig 11
memory simulator (:func:`repro.memsim.policies.make_policy` — Belady's
clairvoyant farthest-next-use by default, LRU/FIFO for ablations): the
schedule fixes the whole access sequence at compile time, so next-use
distances are exact, exactly as in the offline simulator. Offsets for
the resident region (full lifetimes for resident buffers, one interval
per staging window for spilled ones) come from the same
``greedy_by_size`` allocator that lays out ordinary arenas, and the
resulting region is sized to fit the capacity. A region's offsets,
windows and per-window fetch leads are one :class:`StagingLayout`; a
:class:`SpillPlan` carries the inline ``base`` layout (every lead 0)
and, optionally, a ``prefetch`` layout of the same windows with
lead-extended slots for overlapped transfers — one type, so planner,
executor and verifier each handle a layout once instead of forking on
which of the two they were handed.

This module builds plans but does not judge them: a plan's invariants
are stated once, by the static verifier's spill checker, whose first
finding :meth:`SpillPlan.validate` raises. The rule all three share —
a staging slot's bytes, and so the capacity floor — is
:func:`slot_bytes` / :func:`staging_floor`.

Spill model (mirrors the :mod:`repro.memsim.hierarchy` rules; the
fetch/writeback steps the executor inserts implement it literally):

* a buffer must be staged on-chip to be read or written — the
  irreducible capacity floor is therefore the largest single-step
  working set (everything one kernel touches at once);
* a window that *creates* data (the buffer's first-ever access is
  always its producing write) fetches nothing; every later window
  entry fetches the whole buffer (``bytes_in += size``), preserving
  every byte written by earlier windows;
* at window exit a **dirty** buffer (some step in the window produced
  a member tensor) is written back (``bytes_out += size``) iff the
  data is needed again — a later window exists — or the buffer holds a
  graph output; clean or dead windows drop silently;
* fetch/writeback moves whole buffers by default; with
  ``tile_bytes`` set, spilled buffers instead *stream* through a tile
  slot of ``min(size, tile_bytes)`` bytes — the same
  :func:`repro.memsim.trace.tile_spans` geometry the Fig 11 simulator
  traces at — so the capacity floor drops from the largest-buffer to
  the largest-tile working set and traffic is counted per tile.

Because fetch and writeback copy bytes verbatim, a spilled execution
is **bitwise identical** to the resident one under every capacity —
spilling trades traffic for footprint, never accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from repro.allocator.arena import (
    AllocationPlan,
    Interval,
    first_fit_arena,
    fits_within,
    greedy_by_size_plan,
)
from repro.allocator.lifetimes import BufferLifetime
from repro.exceptions import SpillError
from repro.graph.graph import Graph
from repro.memsim.policies import POLICY_NAMES, BeladyPolicy, make_policy
from repro.memsim.trace import Access, AccessTrace, resolve_tile_bytes
from repro.scheduler.memory import BufferModel
from repro.scheduler.schedule import Schedule

__all__ = [
    "SPILL_MODES",
    "StageWindow",
    "StagingLayout",
    "SpillPlan",
    "plan_spill",
    "min_capacity_bytes",
    "slot_bytes",
    "staging_floor",
    "step_touches",
    "buffer_access_trace",
]

#: serving/CLI over-capacity knob: refuse arenas that exceed the
#: budget, or degrade them to a spill plan
SPILL_MODES = ("never", "auto")

SPILL_FORMAT = "repro-spill/1"


@dataclass(frozen=True)
class StageWindow:
    """One on-chip residency interval of a spilled buffer.

    ``[start, end)`` are full-schedule step bounds covering a maximal
    run of consecutive steps that touch the buffer; ``offset`` is the
    staging slot's byte offset in the resident region. The executor
    enters the window at ``start`` and leaves it at ``end - 1``; the
    staged copy is dirty iff one of the window's steps produces into
    the buffer, so every transfer is a constant of the plan."""

    start: int
    end: int
    offset: int


@dataclass(frozen=True)
class StagingLayout:
    """One layout of the resident region: a fixed slot per resident
    buffer, a staging slot per window of each spilled buffer, and the
    lead each window's fetch may be issued ahead by.

    A :class:`SpillPlan` carries up to two. Its **base** layout reuses
    one slot for consecutive windows of a buffer (every lead 0), which
    forces the fetch of window N+1 to wait for window N's exit. The
    **prefetch** (ping/pong) layout re-allocates the region with each
    staging interval's *head* extended by that window's lead: window
    N+1's slot is already reserved while window N still computes, so
    windows whose extended intervals overlap land on disjoint offsets
    and the executor may issue the fetch up to ``lead`` steps early as
    a prefetch job on the modeled link. Writebacks need no reservation
    at all — the executor retires every one of them asynchronously and
    synchronizes only when the slot's bytes are demonstrably reused —
    so even a zero-lead prefetch layout (identical to the base)
    overlaps writeback traffic. Leads are assigned per-window — a
    window crossing the schedule's peak step has no slack and keeps
    lead 0 (its fetch stays inline) while windows with headroom get up
    to ``lead_steps`` of overlap. Window ``(start, end)`` bounds are
    the same in both layouts — only offsets (and the region high-water
    mark, still capped by the capacity) differ."""

    lead_steps: int
    resident_bytes: int
    resident_offsets: dict[int, int]
    windows: dict[int, tuple[StageWindow, ...]]
    #: per-buffer, per-window lead (parallel to ``windows``); 0 means
    #: that window's fetch executes inline even under prefetch
    window_leads: dict[int, tuple[int, ...]]

    @classmethod
    def inline(
        cls,
        resident_bytes: int,
        resident_offsets: dict[int, int],
        windows: dict[int, tuple[StageWindow, ...]],
    ) -> "StagingLayout":
        """A layout whose every lead is 0 (the base layout's shape)."""
        leads = {b: (0,) * len(ws) for b, ws in windows.items()}
        return cls(0, resident_bytes, resident_offsets, windows, leads)

    def to_doc(self) -> dict[str, Any]:
        return {
            "lead_steps": self.lead_steps,
            "resident_bytes": self.resident_bytes,
            "resident_offsets": {
                str(b): off for b, off in sorted(self.resident_offsets.items())
            },
            "windows": {
                str(b): [[w.start, w.end, w.offset] for w in ws]
                for b, ws in sorted(self.windows.items())
            },
            "window_leads": {
                str(b): list(ls) for b, ls in sorted(self.window_leads.items())
            },
        }

    @classmethod
    def from_doc(
        cls, doc: dict[str, Any], *, inline: bool = False
    ) -> "StagingLayout":
        """Rebuild a layout document. ``inline`` reads only the region
        fields — the base layout, which the plan document spells flat
        and without leads."""
        layout = cls.inline(
            int(doc["resident_bytes"]),
            {int(b): int(off) for b, off in doc["resident_offsets"].items()},
            {
                int(b): tuple(
                    StageWindow(int(s), int(e), int(off)) for s, e, off in ws
                )
                for b, ws in doc["windows"].items()
            },
        )
        if inline:
            return layout
        return replace(
            layout,
            lead_steps=int(doc["lead_steps"]),
            window_leads={
                int(b): tuple(int(x) for x in ls)
                for b, ls in doc["window_leads"].items()
            },
        )


@dataclass(frozen=True)
class SpillPlan:
    """A two-region arena layout for one (schedule, plan, capacity).

    The resident region is laid out by a :class:`StagingLayout`: resident
    buffers at ``resident_offsets`` plus the staging windows of spilled
    buffers; its high-water mark ``resident_bytes`` never exceeds
    ``capacity_bytes``. The spill region holds one *home* slot per
    spilled buffer at ``home_offsets`` (``spill_bytes`` total). An empty
    ``spilled`` set is the trivial plan: the whole arena fits on-chip
    and no traffic occurs. ``base`` is the inline layout; ``prefetch``
    optionally carries a ping/pong layout of the same windows for
    overlapped transfers; ``None`` keeps transfers inline.
    :meth:`layout` picks between them. ``tile_bytes`` set means spilled
    buffers stream through tile slots of ``min(size, tile_bytes)`` bytes
    instead of staging whole buffers — window offsets then address tile
    slots, and the executor moves per-tile pieces through them."""

    capacity_bytes: int
    policy: str
    spill_bytes: int
    spilled: frozenset[int]
    home_offsets: dict[int, int]
    base: StagingLayout
    prefetch: StagingLayout | None = None
    #: transfer granularity for spilled buffers; ``None`` = whole-buffer
    tile_bytes: int | None = None

    # the base layout's fields, as the plan document spells them (the
    # serving pool prices admission from ``resident_bytes``)
    @property
    def resident_bytes(self) -> int:
        return self.base.resident_bytes

    @property
    def resident_offsets(self) -> dict[int, int]:
        return self.base.resident_offsets

    @property
    def windows(self) -> dict[int, tuple[StageWindow, ...]]:
        return self.base.windows

    @property
    def is_trivial(self) -> bool:
        """True when nothing spills (zero off-chip traffic)."""
        return not self.spilled

    @property
    def spilled_count(self) -> int:
        return len(self.spilled)

    def layout(self, prefetch: bool) -> StagingLayout:
        """The layout an executor runs: the ping/pong one when the plan
        carries it and the caller wants overlap, else the base."""
        if prefetch and self.prefetch is not None:
            return self.prefetch
        return self.base

    # ------------------------------------------------------------------
    def validate(
        self, graph: Graph, schedule: Schedule, model: BufferModel | None = None
    ) -> "SpillPlan":
        """Raise :class:`SpillError` unless this plan is sound for the
        ``(graph, schedule)`` it stages. The static verifier's spill
        checker is the one statement of the invariants; this raises its
        first finding (and how many more there are)."""
        from repro.analysis.verifier import spill_plan_findings

        findings = spill_plan_findings(graph, schedule, self, model)
        if findings:
            more = f" (+{len(findings) - 1} more)" if len(findings) > 1 else ""
            raise SpillError(f"{findings[0].format()}{more}")
        return self

    # ------------------------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible document (artifact embedding)."""
        base = self.base.to_doc()
        doc = {
            "format": SPILL_FORMAT,
            "capacity_bytes": self.capacity_bytes,
            "policy": self.policy,
            "resident_bytes": base["resident_bytes"],
            "spill_bytes": self.spill_bytes,
            "spilled": sorted(self.spilled),
            "resident_offsets": base["resident_offsets"],
            "home_offsets": {
                str(b): off for b, off in sorted(self.home_offsets.items())
            },
            "windows": base["windows"],
        }
        if self.prefetch is not None:
            doc["prefetch"] = self.prefetch.to_doc()
        if self.tile_bytes is not None:
            doc["tile_bytes"] = self.tile_bytes
        return doc

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "SpillPlan":
        """Rebuild a plan document. Parses only: a plan is judged
        against the graph it stages, by :meth:`validate`."""
        if doc.get("format") != SPILL_FORMAT:
            raise SpillError(
                f"unsupported spill plan format {doc.get('format')!r}"
            )
        return cls(
            capacity_bytes=int(doc["capacity_bytes"]),
            policy=str(doc["policy"]),
            spill_bytes=int(doc["spill_bytes"]),
            spilled=frozenset(int(b) for b in doc["spilled"]),
            home_offsets={
                int(b): int(off) for b, off in doc["home_offsets"].items()
            },
            base=StagingLayout.from_doc(doc, inline=True),
            prefetch=(
                StagingLayout.from_doc(doc["prefetch"])
                if doc.get("prefetch") is not None
                else None
            ),
            tile_bytes=(
                int(doc["tile_bytes"])
                if doc.get("tile_bytes") is not None
                else None
            ),
        )


# ----------------------------------------------------------------------
# schedule -> buffer touch structure
# ----------------------------------------------------------------------
def step_touches(
    graph: Graph, schedule: Schedule, model: BufferModel
) -> list[tuple[int, ...]]:
    """Buffers each schedule step touches, executor-faithfully.

    Step *s* (executing node *u*) touches *u*'s own buffer (written)
    plus every input's buffer (read) — the exact set of arena ranges
    the plan executor's kernel for *u* binds views into. Order is own
    buffer first, then inputs in declaration order, deduplicated."""
    idx = model.index
    out: list[tuple[int, ...]] = []
    for name in schedule:
        u = idx.index[name]
        seen: dict[int, None] = {model.buffer_of[u]: None}
        for p in idx.preds[u]:
            seen.setdefault(model.buffer_of[p], None)
        out.append(tuple(seen))
    return out


def buffer_access_trace(
    graph: Graph, schedule: Schedule, model: BufferModel
) -> AccessTrace:
    """Buffer-granularity access trace for the replacement policies.

    The Fig 11 simulator traces at tile granularity; spill planning
    moves whole buffers, so victims are ranked over buffer-level
    accesses. Object ids are ``(buffer_id, 0)`` tuples, matching the
    ``(tensor, tile)`` shape :mod:`repro.memsim.policies` expects."""
    idx = model.index
    raw: list[Access] = []
    for step, name in enumerate(schedule):
        u = idx.index[name]
        own = model.buffer_of[u]
        seen: dict[int, None] = {}
        for p in idx.preds[u]:
            seen.setdefault(model.buffer_of[p], None)
        for b in seen:
            if b != own:
                raw.append(
                    Access(step, name, (b, 0), model.buf_size[b], "read", False)
                )
        raw.append(
            Access(step, name, (own, 0), model.buf_size[own], "write", False)
        )
    positions: dict[tuple[int, int], list[int]] = {}
    for i, acc in enumerate(raw):
        positions.setdefault(acc.buffer_id, []).append(i)
    return AccessTrace(
        accesses=tuple(raw),
        positions={obj: tuple(ps) for obj, ps in positions.items()},
        n_buffers=model.n_buffers,
    )


def _live_table(
    lifetimes: Iterable[BufferLifetime], n_steps: int
) -> list[list[int]]:
    """Per-step list of live buffer ids."""
    live: list[list[int]] = [[] for _ in range(n_steps)]
    for lt in lifetimes:
        for s in range(lt.start, min(lt.end, n_steps)):
            live[s].append(lt.buffer_id)
    return live


def _select_spilled(
    model: BufferModel,
    live: list[list[int]],
    touch: list[tuple[int, ...]],
    capacity: int,
    policy_name: str,
    trace: AccessTrace,
    pos_end: list[int],
    slot: Sequence[int],
) -> frozenset[int]:
    """Pick the spilled buffer set for a selection capacity.

    Iteratively finds the step with the highest ideal resident demand
    (resident live bytes + staged touch bytes) and spills the victim
    the replacement policy names among buffers live-but-untouched
    there, until every step fits. Belady uses exact next-use distances
    from the trace; LRU/FIFO replay the access history up to the
    overflow point. ``slot`` gives the staged footprint per buffer
    (:func:`slot_bytes`)."""
    size = model.buf_size
    spilled: set[int] = set()
    n_steps = len(touch)
    for _ in range(model.n_buffers + 1):
        peak_step, peak = -1, 0
        for s in range(n_steps):
            demand = sum(size[b] for b in live[s] if b not in spilled)
            demand += sum(slot[b] for b in touch[s] if b in spilled)
            if demand > peak:
                peak_step, peak = s, demand
        if peak <= capacity:
            return frozenset(spilled)
        # cold buffers (live-but-untouched at the peak step) spill for
        # free at this step; buffers touched there still pay their
        # staged footprint, so they only help when tiling shrinks it
        # (slot < size) — and they thrash a window per touch run, so
        # they are a last resort, not peers of the cold pool
        candidates = {
            (b, 0)
            for b in live[peak_step]
            if b not in spilled and b not in touch[peak_step]
        }
        if not candidates:
            candidates = {
                (b, 0)
                for b in touch[peak_step]
                if b not in spilled and slot[b] < size[b]
            }
        if not candidates:
            raise SpillError(
                f"no spill configuration fits {capacity} bytes on-chip: "
                f"step {peak_step} needs {peak} bytes staged at once"
            )
        policy = make_policy(policy_name, trace)
        position = pos_end[peak_step]
        if not isinstance(policy, BeladyPolicy):
            # reactive policies rank by history: replay it
            for i in range(position + 1):
                acc = trace.accesses[i]
                policy.on_access(acc.buffer_id, i)
        victim = policy.victim(candidates, position)
        spilled.add(victim[0])
    raise SpillError(
        f"spill selection did not converge under {capacity} bytes"
    )  # pragma: no cover - loop is bounded by construction


def _stage_runs(
    touch: list[tuple[int, ...]], b: int
) -> list[tuple[int, int]]:
    """Maximal runs of consecutive steps touching buffer ``b``, as
    inclusive ``(first, last)`` step pairs."""
    runs: list[tuple[int, int]] = []
    for s, bufs in enumerate(touch):
        if b not in bufs:
            continue
        if runs and runs[-1][1] == s - 1:
            runs[-1] = (runs[-1][0], s)
        else:
            runs.append((s, s))
    return runs


def _staging_intervals(
    plan: AllocationPlan,
    spilled: frozenset[int],
    runs_of: dict[int, list[tuple[int, int]]],
    size: Sequence[int],
    leads: int | dict[tuple[int, int], int],
) -> tuple[list[Interval], list[tuple]]:
    """The resident region's allocation problem as ``(size, start, end,
    id)`` intervals: full lifetimes for resident buffers, then one
    interval per staging window of each spilled buffer — window
    ``(b, k)``'s head extended by its lead (``leads`` is a uniform int
    or a per-window map). ``tag[id]`` says what interval ``id`` stands
    for: ``("res", b)`` or ``("win", b, k)``."""
    intervals: list[Interval] = []
    tag: list[tuple] = []
    for lt in plan.lifetimes:
        if lt.buffer_id not in spilled:
            intervals.append((lt.size, lt.start, lt.end, len(tag)))
            tag.append(("res", lt.buffer_id))
    for b in sorted(spilled):
        for k, (s0, s1) in enumerate(runs_of[b]):
            lead = leads if isinstance(leads, int) else leads[(b, k)]
            intervals.append((size[b], max(0, s0 - lead), s1 + 1, len(tag)))
            tag.append(("win", b, k))
    return intervals, tag


def _layout_staging(
    plan: AllocationPlan,
    spilled: frozenset[int],
    runs_of: dict[int, list[tuple[int, int]]],
    size: Sequence[int],
    leads: int | dict[tuple[int, int], int],
) -> tuple[int, dict[int, int], dict[tuple[int, int], int]]:
    """Allocate (and validate) the resident region of
    :func:`_staging_intervals`. With lead 0 this is the base (inline)
    layout; with a positive lead, windows whose extended intervals
    overlap land on disjoint ping/pong slots, making the early fetch
    safe. Writebacks take no tail reservation — the executor drains
    them asynchronously and syncs at the slot's first actual reuse.
    Returns ``(region_bytes, resident_offsets, window_offsets)``."""
    items, tag = _staging_intervals(plan, spilled, runs_of, size, leads)
    intervals = [BufferLifetime(i, sz, s, e, ()) for sz, s, e, i in items]
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


#: probe budget for per-window lead refinement — keeps spill planning
#: bounded on schedules with many staging windows
_LEAD_ASSIGN_BUDGET = 1500


def _step_demand(intervals: Iterable[Interval]) -> list[int]:
    """Bytes live at each step: the sum of the sizes of the ``(size,
    start, end, id)`` intervals covering it."""
    demand: list[int] = []
    for sz, start, end, _ in intervals:
        demand.extend([0] * (end - len(demand)))
        for s in range(start, end):
            demand[s] += sz
    return demand


def _fits(
    intervals: Sequence[Interval], demand: Sequence[int], capacity: int
) -> bool:
    """Would :func:`_layout_staging` of ``intervals`` fit the capacity?
    Size only — nothing is laid out or validated. ``demand`` is their
    :func:`_step_demand`: every interval live at a step needs its own
    bytes there, so no allocator beats the busiest step, and a region
    that cannot fit is refused before an interval is placed."""
    return max(demand, default=0) <= capacity and fits_within(intervals, capacity)


def _assign_leads(
    plan: AllocationPlan,
    spilled: frozenset[int],
    runs_of: dict[int, list[tuple[int, int]]],
    size: Sequence[int],
    capacity_bytes: int,
    max_lead: int,
) -> dict[tuple[int, int], int]:
    """Grant each staging window as much prefetch lead as the capacity
    allows. Fast path: a uniform lead (halving from ``max_lead``) for
    the common case with slack. Refinement: round-robin over windows,
    granting one step at a time while the extended region still fits —
    windows crossing the schedule's peak demand naturally end at 0 and
    stay inline. Every grant is tried with one :func:`_fits` probe;
    deterministic and bounded by a budget of one unit per probe."""
    keys = [(b, k) for b in sorted(spilled) for k in range(len(runs_of[b]))]
    budget = _LEAD_ASSIGN_BUDGET

    def intervals_at(lead: int) -> list[Interval]:
        return _staging_intervals(plan, spilled, runs_of, size, lead)[0]

    uniform = max_lead
    while uniform >= 1 and budget > 0:
        budget -= 1
        items = intervals_at(uniform)
        if _fits(items, _step_demand(items), capacity_bytes):
            break
        uniform //= 2
    else:
        uniform = 0
    leads = dict.fromkeys(keys, uniform)
    items = intervals_at(uniform)
    demand = _step_demand(items)

    # a step more lead starts one interval (the windows follow the
    # residents, in key order) a step earlier, raising that step's
    # demand — or, already at step 0, changes nothing (start == moved)
    improved = True
    while improved and budget > 0:
        improved = False
        for i, key in enumerate(keys, len(items) - len(keys)):
            if leads[key] >= max_lead or budget <= 0:
                continue
            budget -= 1
            sz, start, end, ident = held = items[i]
            moved = max(0, start - 1)
            items[i] = (sz, moved, end, ident)
            demand[moved] += sz * (start - moved)
            if _fits(items, demand, capacity_bytes):
                leads[key] += 1
                improved = True
            else:
                items[i] = held
                demand[moved] -= sz * (start - moved)
    return leads


def _windows_from(
    spilled: frozenset[int],
    runs_of: dict[int, list[tuple[int, int]]],
    window_offsets: dict[tuple[int, int], int],
) -> dict[int, tuple[StageWindow, ...]]:
    return {
        b: tuple(
            StageWindow(start=s0, end=s1 + 1, offset=window_offsets[(b, k)])
            for k, (s0, s1) in enumerate(runs_of[b])
        )
        for b in sorted(spilled)
    }


def slot_bytes(size: int, tile_bytes: int | None) -> int:
    """Staging-slot bytes of a spilled buffer of ``size`` bytes: one
    ``min(size, tile_bytes)`` tile under tile streaming, the whole
    buffer otherwise (``None`` or a non-positive tile size)."""
    if tile_bytes is None or tile_bytes <= 0:
        return size
    return min(size, tile_bytes)


def staging_floor(
    touch: Sequence[Iterable[int]], size: Sequence[int], tile_bytes: int | None
) -> int:
    """The largest single-step working set of staging slots: every
    buffer one kernel touches must be staged at once, so no spill
    configuration with this granularity executes below it."""
    return max(
        (sum(slot_bytes(size[b], tile_bytes) for b in bufs) for bufs in touch),
        default=0,
    )


def min_capacity_bytes(
    graph: Graph,
    schedule: Schedule,
    model: BufferModel | None = None,
    tile_bytes: int | None = None,
) -> int:
    """The irreducible on-chip floor of ``schedule``
    (:func:`staging_floor`). Whole-buffer staging must hold every
    tensor one kernel touches simultaneously; with ``tile_bytes`` set,
    each touched buffer needs only one tile slot, so the floor drops
    from the largest-buffer to the largest-tile working set."""
    model = model or BufferModel.of(graph)
    return staging_floor(
        step_touches(graph, schedule, model),
        model.buf_size,
        resolve_tile_bytes(tile_bytes, default=None),
    )


def plan_spill(
    graph: Graph,
    schedule: Schedule,
    plan: AllocationPlan,
    capacity_bytes: int,
    policy: str = "belady",
    model: BufferModel | None = None,
    prefetch_lead: int = 8,
    tile_bytes: int | None = None,
) -> SpillPlan:
    """Partition ``plan``'s buffers into resident vs spilled so the
    resident region fits ``capacity_bytes`` (see module docstring).

    Deterministic: the same ``(graph, schedule, plan, capacity,
    policy, tile_bytes)`` always yields the same plan. Raises
    :class:`SpillError` when the capacity is below the schedule's
    irreducible single-step working set — no spill configuration can
    help there, because every tensor a kernel touches must be staged
    on-chip while it runs.

    ``prefetch_lead`` asks for a ping/pong :class:`StagingLayout`
    alongside the base layout (``0`` disables it); each window gets as
    much fetch lead as the capacity allows, down to 0 for windows
    crossing the schedule's peak (writeback overlap needs no lead, so
    the layout ships even when every lead lands at 0).

    ``tile_bytes`` switches spilled buffers to tile streaming: staging
    slots shrink to ``min(size, tile_bytes)`` and the executor moves
    :func:`repro.memsim.trace.tile_spans` pieces through them, so the
    capacity floor drops to the largest-tile working set. ``None`` (and
    ``0``) keep whole-buffer staging."""
    if capacity_bytes <= 0:
        raise SpillError(
            f"on-chip capacity must be positive, got {capacity_bytes}"
        )
    if policy not in POLICY_NAMES:
        raise ValueError(
            f"unknown replacement policy {policy!r}; pick one of "
            f"{POLICY_NAMES}"
        )
    tile = resolve_tile_bytes(tile_bytes, default=None)
    model = model or BufferModel.of(graph)
    if plan.arena_bytes <= capacity_bytes:
        # the whole arena fits: trivial plan, zero traffic
        return SpillPlan(
            capacity_bytes=capacity_bytes,
            policy=policy,
            spill_bytes=0,
            spilled=frozenset(),
            home_offsets={},
            base=StagingLayout.inline(plan.arena_bytes, dict(plan.offsets), {}),
            tile_bytes=tile,
        )

    size = model.buf_size
    slot = [slot_bytes(s, tile) for s in size]
    touch = step_touches(graph, schedule, model)
    n_steps = len(touch)
    min_needed = staging_floor(touch, size, tile)
    if capacity_bytes < min_needed:
        raise SpillError(
            f"{graph.name}: no spill plan fits {capacity_bytes} bytes "
            f"on-chip; the schedule's largest single-step working set "
            f"needs {min_needed} bytes staged at once (plan arena: "
            f"{plan.arena_bytes} bytes)"
        )

    trace = buffer_access_trace(graph, schedule, model)
    # pos_end[s]: last trace index at step <= s ("strictly after step
    # s" is then bisect_right territory for the policies)
    pos_end: list[int] = [-1] * n_steps
    for i, acc in enumerate(trace.accesses):
        pos_end[acc.step] = i
    for s in range(1, n_steps):
        if pos_end[s] < 0:
            pos_end[s] = pos_end[s - 1]

    live = _live_table(plan.lifetimes, n_steps)

    # Selection works at the ideal (sum-of-live) level; the allocator
    # can fragment above it, so tighten the selection capacity by the
    # observed overage and retry until the *allocated* region fits —
    # clamped at the irreducible floor, which gets a last-resort try.
    select_capacity = capacity_bytes
    for _ in range(64):
        spilled = _select_spilled(
            model, live, touch, select_capacity, policy, trace, pos_end, slot
        )
        runs_of: dict[int, list[tuple[int, int]]] = {
            b: _stage_runs(touch, b) for b in sorted(spilled)
        }
        region_bytes, resident_offsets, window_offsets = _layout_staging(
            plan, spilled, runs_of, slot, leads=0
        )
        if region_bytes <= capacity_bytes:
            break
        if select_capacity <= min_needed:
            raise SpillError(
                f"{graph.name}: allocator fragmentation defeats every "
                f"spill configuration under {capacity_bytes} bytes "
                f"(tightest region: {region_bytes} bytes)"
            )
        select_capacity = max(
            min_needed, select_capacity - (region_bytes - capacity_bytes)
        )
    else:  # pragma: no cover - select_capacity strictly decreases
        raise SpillError(
            f"{graph.name}: spill planning did not converge under "
            f"{capacity_bytes} bytes"
        )

    home_offsets: dict[int, int] = {}
    cursor = 0
    for b in sorted(spilled):
        home_offsets[b] = cursor
        cursor += size[b]

    # Ping/pong layout for overlapped transfers: grant each window as
    # much fetch lead as the capacity allows. Even all-zero leads ship
    # a prefetch layout (identical offsets to the base plan): the
    # executor still overlaps every writeback behind compute.
    prefetch: StagingLayout | None = None
    if prefetch_lead > 0:
        leads = _assign_leads(
            plan, spilled, runs_of, slot, capacity_bytes, prefetch_lead
        )
        pf_bytes, pf_resident, pf_windows = _layout_staging(
            plan, spilled, runs_of, slot, leads
        )
        prefetch = StagingLayout(
            lead_steps=max(leads.values(), default=0),
            resident_bytes=pf_bytes,
            resident_offsets=pf_resident,
            windows=_windows_from(spilled, runs_of, pf_windows),
            window_leads={
                b: tuple(leads[(b, k)] for k in range(len(runs_of[b])))
                for b in sorted(spilled)
            },
        )

    return SpillPlan(
        capacity_bytes=capacity_bytes,
        policy=policy,
        spill_bytes=cursor,
        spilled=spilled,
        home_offsets=home_offsets,
        base=StagingLayout.inline(
            region_bytes,
            resident_offsets,
            _windows_from(spilled, runs_of, window_offsets),
        ),
        prefetch=prefetch,
        tile_bytes=tile,
    )
