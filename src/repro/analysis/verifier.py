"""Static plan verification: prove compiled artifacts safe without running them.

The compile pipeline stacks three interacting plans per artifact — the
arena's byte offsets (:class:`~repro.allocator.arena.AllocationPlan`),
the tiered-arena staging windows
(:class:`~repro.allocator.spill.SpillPlan`) and its one or two
resident-region layouts (:class:`~repro.allocator.spill.StagingLayout`:
the inline base, and the lead-extended one overlapped transfers run
on). Their invariants
used to be checked dynamically: execute and compare bitwise, or trip an
executor-side assertion. This module proves the full invariant set
*statically*, from the plan documents alone:

schedule legality
    a complete, duplicate-free topological order in which every feed is
    produced before it is read, and no shared-buffer write clobbers
    bytes a later step still reads (the executor's write-hazard rule).
arena soundness (byte-exact)
    every buffer's ``[offset, offset + nbytes)`` stays inside the
    declared arena, no two *temporally live* buffers overlap in address
    space, every kernel read is covered by a preceding write at
    intra-buffer byte granularity, and the declared ``arena_bytes``
    equals the peak of the recomputed liveness trace — an understated
    peak means batched arena rows (stride ``arena_bytes``) would
    overlap; an overstated one breaks serving admission pricing.
spill soundness
    the capacity respects :func:`~repro.allocator.spill.min_capacity_bytes`,
    every step that touches a spilled buffer falls inside one of its
    staging windows (the fetch-after-first-write / writeback-iff-dirty
    rules are *derived* from window entry/exit, so a covered touch set
    is exactly what makes them correct), staging slots and resident
    buffers never overlap while simultaneously live, and off-chip home
    slots are pairwise disjoint.
prefetch race detection
    the transfer engine may start a window's fetch up to ``lead`` steps
    early; modelling each async transfer as holding its destination
    byte range for the whole lead-extended interval, no transfer range
    may overlap a concurrently-live compute read/write (a resident
    buffer's lifetime or another staging window). This is the static
    analogue of the runtime byte-bounds shadow checker in
    :mod:`repro.analysis.shadow`, which replays the same property over
    the executor's compiled ``_STEP_ENQUEUE``/``_STEP_SYNC`` rows.

Findings come back as :class:`~repro.analysis.diagnostics.Diagnostic`
records inside an :class:`~repro.analysis.diagnostics.AnalysisReport`;
nothing here raises on a corrupt plan — raising is the caller's policy
(:meth:`CompiledModel.load` turns error reports into
:class:`~repro.exceptions.PlanVerificationError`).

The spill and prefetch families are the only statement of a spill
plan's invariants: :meth:`SpillPlan.validate` raises the first
:func:`spill_plan_findings` finding as a ``SpillError``, and
:meth:`CompiledModel.from_doc` (at every verify level) and
``PlanExecutor`` call it, so neither accepts a plan this module rejects.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.allocator.lifetimes import BufferLifetime, compute_lifetimes
from repro.allocator.spill import (
    SPILL_FORMAT,
    SpillPlan,
    StagingLayout,
    slot_bytes,
    staging_floor,
    step_touches,
)
from repro.analysis.diagnostics import ERROR, AnalysisReport, Diagnostic
from repro.exceptions import ExecutionError, GraphError, SpillError
from repro.graph.graph import Graph
from repro.runtime.plan_executor import _range_add, intra_buffer_offsets
from repro.scheduler.memory import BufferModel
from repro.scheduler.schedule import Schedule

__all__ = [
    "VERIFY_LEVELS",
    "analyze_plan",
    "analyze_model",
    "analyze_artifact",
    "spill_plan_findings",
]

#: verification levels: ``none`` skips analysis entirely, ``basic``
#: proves schedule legality + arena/spill/prefetch layout soundness,
#: ``full`` adds the byte-exact read-coverage replay
VERIFY_LEVELS = ("none", "basic", "full")


# ----------------------------------------------------------------------
# byte-interval bookkeeping (read-coverage replay)
# ----------------------------------------------------------------------
def _covers(ivals: list[tuple[int, int]], lo: int, hi: int) -> bool:
    """Whether sorted disjoint ``ivals`` fully cover ``[lo, hi)``."""
    for a, b in ivals:
        if a <= lo < b:
            if hi <= b:
                return True
            lo = b
        elif a > lo:
            return False
    return lo >= hi


def _ranges_overlap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> bool:
    return a_lo < b_hi and b_lo < a_hi


# ----------------------------------------------------------------------
# individual check families (each appends Diagnostics)
# ----------------------------------------------------------------------
def _check_schedule(
    graph: Graph, order: Sequence[str], diags: list[Diagnostic]
) -> dict[str, int] | None:
    """Duplicate/coverage/topological legality. Returns the position
    map when the order is usable for byte-level analysis (complete and
    duplicate-free; topological violations are reported but do not
    block further checks), else ``None``."""
    pos: dict[str, int] = {}
    broken = False
    for i, name in enumerate(order):
        if name in pos:
            broken = True
            diags.append(
                Diagnostic(
                    code="SCHED_DUPLICATE",
                    severity=ERROR,
                    message=f"schedule repeats node {name!r} "
                    f"(first at step {pos[name]})",
                    step=i,
                    node=name,
                    plan="schedule",
                )
            )
        else:
            pos[name] = i
    names = set(graph.node_names)
    missing = sorted(names - pos.keys())
    extra = sorted(pos.keys() - names)
    if missing or extra:
        broken = True
        diags.append(
            Diagnostic(
                code="SCHED_COVERAGE",
                severity=ERROR,
                message="schedule does not cover the graph "
                f"(missing={missing[:5]}, extra={extra[:5]})",
                plan="schedule",
            )
        )
    if broken:
        return None
    ok = True
    for src, dst in graph.edges():
        if pos[src] >= pos[dst]:
            ok = False
            diags.append(
                Diagnostic(
                    code="SCHED_TOPO",
                    severity=ERROR,
                    message=f"{dst!r} executes at step {pos[dst]} but its "
                    f"feed {src!r} is not produced until step {pos[src]}",
                    step=pos[dst],
                    node=dst,
                    plan="schedule",
                )
            )
    return pos if ok else None


def _check_hazards(
    graph: Graph,
    model: BufferModel,
    pos: Mapping[str, int],
    intra: Mapping[str, int],
    diags: list[Diagnostic],
) -> None:
    """The executor's shared-buffer write-hazard rule
    (:func:`~repro.runtime.plan_executor.write_hazards`), reported as
    diagnostics instead of refused at construction."""
    from repro.runtime.plan_executor import write_hazards

    for message, late, b, byte_range in write_hazards(graph, model, pos, intra):
        diags.append(
            Diagnostic(
                code="SCHED_HAZARD",
                severity=ERROR,
                message=message,
                step=pos[late],
                node=late,
                buffer=b,
                byte_range=byte_range,
                plan="schedule",
            )
        )


def _check_arena(
    model: BufferModel,
    lifetimes: Sequence[BufferLifetime],
    offsets: Mapping[int, int],
    arena_bytes: int,
    batched: bool,
    diags: list[Diagnostic],
) -> None:
    """Byte-exact arena soundness: coverage, bounds, live-pair overlap
    and strict peak equality (both shipped allocators set
    ``arena_bytes`` to the exact high-water mark, and every buffer is
    live at some step, so any inequality is a corruption)."""
    n_buf = model.n_buffers
    missing = [b for b in range(n_buf) if b not in offsets]
    extra = sorted(set(offsets) - set(range(n_buf)))
    if missing or extra:
        diags.append(
            Diagnostic(
                code="ARENA_COVERAGE",
                severity=ERROR,
                message=f"allocation plan does not cover the graph's "
                f"{n_buf} buffers (missing offsets for {missing[:5]}, "
                f"unknown ids {extra[:5]})",
                buffer=missing[0] if missing else extra[0],
                plan="arena",
            )
        )
    placed = [lt for lt in lifetimes if lt.buffer_id in offsets]
    max_extent = 0
    for lt in placed:
        off = offsets[lt.buffer_id]
        max_extent = max(max_extent, off + lt.size)
        if off < 0 or off + lt.size > arena_bytes:
            diags.append(
                Diagnostic(
                    code="ARENA_BOUNDS",
                    severity=ERROR,
                    message=f"buffer {lt.buffer_id} at "
                    f"[{off}, {off + lt.size}) escapes the declared "
                    f"{arena_bytes}-byte arena",
                    step=lt.start,
                    buffer=lt.buffer_id,
                    byte_range=(off, off + lt.size),
                    plan="arena",
                )
            )
    for i, a in enumerate(placed):
        off_a = offsets[a.buffer_id]
        for b in placed[i + 1 :]:
            if not a.overlaps(b):
                continue
            off_b = offsets[b.buffer_id]
            if _ranges_overlap(off_a, off_a + a.size, off_b, off_b + b.size):
                diags.append(
                    Diagnostic(
                        code="ARENA_OVERLAP",
                        severity=ERROR,
                        message=f"live buffers {a.buffer_id} and "
                        f"{b.buffer_id} overlap: [{off_a}, {off_a + a.size}) "
                        f"vs [{off_b}, {off_b + b.size}) while both live "
                        f"at step {max(a.start, b.start)}",
                        step=max(a.start, b.start),
                        buffer=b.buffer_id,
                        byte_range=(
                            max(off_a, off_b),
                            min(off_a + a.size, off_b + b.size),
                        ),
                        plan="arena",
                    )
                )
    if not missing and arena_bytes > max_extent:
        diags.append(
            Diagnostic(
                code="ARENA_PEAK",
                severity=ERROR,
                message=f"declared arena peak {arena_bytes} is stale: the "
                f"recomputed liveness trace peaks at {max_extent} bytes "
                "(admission control would over-price this plan)",
                byte_range=(max_extent, arena_bytes),
                plan="arena",
            )
        )
    if batched and max_extent > arena_bytes:
        diags.append(
            Diagnostic(
                code="ARENA_ROW_OVERLAP",
                severity=ERROR,
                message=f"batched arena rows at stride {arena_bytes} would "
                f"overlap: the per-sample layout extends to byte "
                f"{max_extent}, so row N's tail aliases row N+1's head",
                byte_range=(arena_bytes, max_extent),
                plan="arena",
            )
        )


def _check_read_coverage(
    graph: Graph,
    model: BufferModel,
    order: Sequence[str],
    intra: Mapping[str, int],
    diags: list[Diagnostic],
) -> None:
    """Byte-exact dataflow replay: every byte a kernel reads must have
    been written by an earlier step (a feed, a producing kernel, or a
    member tensor of the same shared buffer)."""
    idx = model.index
    written: dict[int, list[tuple[int, int]]] = {}
    for s, name in enumerate(order):
        node = graph.node(name)
        for src in node.inputs:
            b = model.buffer_of[idx.index[src]]
            lo = intra[src]
            hi = lo + graph.node(src).output.bytes
            if not _covers(written.get(b, []), lo, hi):
                diags.append(
                    Diagnostic(
                        code="READ_UNCOVERED",
                        severity=ERROR,
                        message=f"{name!r} reads {src!r} (buffer {b} bytes "
                        f"[{lo}, {hi})) but no preceding step wrote all of "
                        "those bytes",
                        step=s,
                        node=name,
                        buffer=b,
                        byte_range=(lo, hi),
                        plan="arena",
                    )
                )
        b_own = model.buffer_of[idx.index[name]]
        lo = intra[name]
        _range_add(written.setdefault(b_own, []), lo, lo + node.output.bytes)


def _staging_intervals(
    model: BufferModel,
    lifetimes: Sequence[BufferLifetime],
    layout: StagingLayout,
    tile_bytes: int | None = None,
) -> list[tuple[int, int, int, int, str, int]]:
    """The resident region as (t0, t1, lo, hi, kind, buffer) intervals:
    resident buffers hold their slot for their whole lifetime; staging
    windows hold theirs for the window, head-extended by the window's
    lead (the span an async fetch may occupy the slot; 0 throughout
    the base layout). Under tile streaming (``tile_bytes``), a window's
    slot holds one tile, so its byte extent is tile-clamped — the
    tile-slot disjointness invariant runs through the same time×byte
    sweep as whole-buffer slots."""
    out: list[tuple[int, int, int, int, str, int]] = []
    lt_of = {lt.buffer_id: lt for lt in lifetimes}
    for b, off in layout.resident_offsets.items():
        lt = lt_of.get(b)
        if lt is None:
            continue
        out.append((lt.start, lt.end, off, off + lt.size, "resident", b))
    for b, ws in layout.windows.items():
        if not (0 <= b < model.n_buffers):
            continue
        leads = layout.window_leads.get(b, ())
        for k, w in enumerate(ws):
            lead = leads[k] if k < len(leads) else 0
            out.append(
                (
                    max(0, w.start - lead),
                    w.end,
                    w.offset,
                    w.offset + slot_bytes(model.buf_size[b], tile_bytes),
                    "window",
                    b,
                )
            )
    return out


def _check_spill(
    graph: Graph,
    model: BufferModel,
    lifetimes: Sequence[BufferLifetime],
    sp: SpillPlan,
    touch: Sequence[tuple[int, ...]],
    diags: list[Diagnostic],
) -> None:
    tag = f"spill@{sp.capacity_bytes}"
    size = model.buf_size
    n_steps = len(touch)
    if sp.capacity_bytes <= 0:
        diags.append(
            Diagnostic(
                code="SPILL_CAPACITY",
                severity=ERROR,
                message=f"on-chip capacity must be positive, got "
                f"{sp.capacity_bytes}",
                plan=tag,
            )
        )
        return
    if sp.tile_bytes is not None and sp.tile_bytes <= 0:
        diags.append(
            Diagnostic(
                code="SPILL_TILE_GEOMETRY",
                severity=ERROR,
                message=f"tile_bytes must be positive when set, got "
                f"{sp.tile_bytes} — the tile partition of every staged "
                "buffer is undefined",
                plan=tag,
            )
        )
        # fall through with whole-buffer slots (slot_bytes ignores a
        # non-positive tile size), so layout checks still run
    # the irreducible floor is per-plan: whole-buffer staging needs the
    # largest single-step working set of entire buffers, tile streaming
    # only the largest working set of tile slots
    floor = staging_floor(touch, size, sp.tile_bytes)
    if sp.capacity_bytes < floor:
        diags.append(
            Diagnostic(
                code="SPILL_FLOOR",
                severity=ERROR,
                message=f"capacity {sp.capacity_bytes} is below the "
                f"schedule's irreducible staging floor ({floor} bytes: "
                "the largest single-step working set"
                + (
                    f" of {sp.tile_bytes}-byte tile slots"
                    if sp.tile_bytes is not None
                    else ""
                )
                + "); no spill configuration can execute this plan",
                plan=tag,
            )
        )
    spilled = set(sp.spilled)
    bad_ids = sorted(b for b in spilled if not 0 <= b < model.n_buffers)
    if (
        set(sp.windows) != spilled
        or set(sp.home_offsets) != spilled
        or bad_ids
    ):
        diags.append(
            Diagnostic(
                code="SPILL_CONSISTENCY",
                severity=ERROR,
                message="spilled set, staging windows and home slots "
                f"disagree (spilled={len(spilled)}, "
                f"windows={len(sp.windows)}, homes={len(sp.home_offsets)}"
                f"{', unknown buffer ids ' + str(bad_ids[:5]) if bad_ids else ''})",
                plan=tag,
            )
        )
    resident = set(range(model.n_buffers)) - spilled
    if set(sp.resident_offsets) != resident:
        miss = sorted(resident - set(sp.resident_offsets))
        diags.append(
            Diagnostic(
                code="SPILL_CONSISTENCY",
                severity=ERROR,
                message="resident offsets do not cover the unspilled "
                f"buffers (missing {miss[:5]}, "
                f"{len(sp.resident_offsets)} offsets for "
                f"{len(resident)} resident buffers)",
                plan=tag,
            )
        )

    # window shape + touch coverage (bounds are shared by both layouts)
    for b in sorted(spilled & set(sp.windows)):
        if not 0 <= b < model.n_buffers:
            continue
        ws = sp.windows[b]
        prev_end = -1
        for k, w in enumerate(ws):
            if w.start < 0 or w.end <= w.start or w.end > n_steps:
                diags.append(
                    Diagnostic(
                        code="SPILL_WINDOW_MALFORMED",
                        severity=ERROR,
                        message=f"buffer {b} staging window {k} "
                        f"[{w.start}, {w.end}) is malformed "
                        f"(schedule has {n_steps} steps)",
                        step=w.start,
                        buffer=b,
                        plan=tag,
                    )
                )
            elif w.start <= prev_end:
                diags.append(
                    Diagnostic(
                        code="SPILL_WINDOW_MALFORMED",
                        severity=ERROR,
                        message=f"buffer {b} staging windows {k - 1} and "
                        f"{k} overlap or are out of order",
                        step=w.start,
                        buffer=b,
                        plan=tag,
                    )
                )
            prev_end = max(prev_end, w.end - 1)
        covered = [
            s
            for s in range(n_steps)
            if b in touch[s]
            and not any(w.start <= s < w.end for w in ws)
        ]
        for s in covered:
            diags.append(
                Diagnostic(
                    code="SPILL_WINDOW_MISS",
                    severity=ERROR,
                    message=f"step {s} touches spilled buffer {b} outside "
                    "every staging window — the kernel would read or "
                    "write an unstaged (or prematurely written-back) slot",
                    step=s,
                    buffer=b,
                    plan=tag,
                )
            )

    _check_layout(model, lifetimes, sp, sp.base, "SPILL", diags)
    if sp.prefetch is not None:
        _check_layout(model, lifetimes, sp, sp.prefetch, "PREFETCH", diags)

    # off-chip home slots: pairwise disjoint, inside the spill region
    homes = sorted(
        (off, off + size[b], b)
        for b, off in sp.home_offsets.items()
        if 0 <= b < model.n_buffers
    )
    for (lo_a, hi_a, a), (lo_b, hi_b, b2) in zip(homes, homes[1:]):
        if hi_a > lo_b:
            diags.append(
                Diagnostic(
                    code="SPILL_HOME_OVERLAP",
                    severity=ERROR,
                    message=f"off-chip home slots of buffers {a} and {b2} "
                    f"overlap: [{lo_a}, {hi_a}) vs [{lo_b}, {hi_b}) — a "
                    "writeback of one would corrupt the other",
                    buffer=b2,
                    byte_range=(lo_b, min(hi_a, hi_b)),
                    plan=tag,
                )
            )
    for lo, hi, b in homes:
        if lo < 0 or hi > sp.spill_bytes:
            diags.append(
                Diagnostic(
                    code="SPILL_HOME_BOUNDS",
                    severity=ERROR,
                    message=f"buffer {b} home slot [{lo}, {hi}) escapes "
                    f"the {sp.spill_bytes}-byte spill region",
                    buffer=b,
                    byte_range=(lo, hi),
                    plan=tag,
                )
            )


def _check_interval_overlap(
    ivals: list[tuple[int, int, int, int, str, int]],
    code: str,
    tag: str,
    diags: list[Diagnostic],
) -> None:
    """Any two intervals overlapping in time AND bytes are a layout
    corruption (for ``PREFETCH_RACE``: an async transfer's destination
    bytes collide with concurrently-live compute bytes)."""
    by_start = sorted(ivals, key=lambda iv: iv[0])
    for i, (t0a, t1a, loa, hia, ka, ba) in enumerate(by_start):
        for t0b, t1b, lob, hib, kb, bb in by_start[i + 1 :]:
            if t0b >= t1a:
                break  # sorted by start: no later interval overlaps a
            if not _ranges_overlap(loa, hia, lob, hib):
                continue
            race = code == "PREFETCH_RACE"
            what_a = f"{'staging window' if ka == 'window' else 'resident buffer'} {ba}"
            what_b = f"{'staging window' if kb == 'window' else 'resident buffer'} {bb}"
            if race:
                mover = what_a if ka == "window" else what_b
                other = what_b if ka == "window" else what_a
                msg = (
                    f"async transfer into {mover}'s slot (bytes "
                    f"[{max(loa, lob)}, {min(hia, hib)})) may be in flight "
                    f"during steps [{max(t0a, t0b)}, {min(t1a, t1b)}) while "
                    f"{other} holds overlapping bytes — the engine would "
                    "race concurrently-live compute reads/writes"
                )
            else:
                msg = (
                    f"{what_a} and {what_b} overlap in bytes "
                    f"[{max(loa, lob)}, {min(hia, hib)}) while both live "
                    f"during steps [{max(t0a, t0b)}, {min(t1a, t1b)})"
                )
            diags.append(
                Diagnostic(
                    code=code,
                    severity=ERROR,
                    message=msg,
                    step=max(t0a, t0b),
                    buffer=bb,
                    byte_range=(max(loa, lob), min(hia, hib)),
                    plan=tag,
                )
            )


def _check_layout(
    model: BufferModel,
    lifetimes: Sequence[BufferLifetime],
    sp: SpillPlan,
    layout: StagingLayout,
    family: str,
    diags: list[Diagnostic],
) -> None:
    """The invariants of one resident-region layout of ``sp``.
    ``family`` prefixes the codes: ``"SPILL"`` for the base layout,
    ``"PREFETCH"`` for the lead-extended one, which must also be a
    re-placement of the base windows."""
    prefetch = family == "PREFETCH"
    tag = f"{family.lower()}@{sp.capacity_bytes}"
    noun = "prefetch " if prefetch else ""
    spilled = set(sp.spilled)

    def flag(suffix: str, message: str, **where: Any) -> None:
        diags.append(
            Diagnostic(
                code=f"{family}_{suffix}",
                severity=ERROR,
                message=message,
                plan=tag,
                **where,
            )
        )

    if layout.resident_bytes > sp.capacity_bytes:
        flag(
            "CAPACITY",
            f"{noun}resident region ({layout.resident_bytes} bytes) "
            f"exceeds the {sp.capacity_bytes}-byte capacity",
        )
    if layout.lead_steps < 0:
        flag("CONSISTENCY", f"{noun}lead must be >= 0, got {layout.lead_steps}")
    shared = sorted(spilled & set(layout.windows) & set(sp.windows))
    if layout is not sp.base:  # a re-placement of the base windows?
        if (
            set(layout.windows) != spilled
            or set(layout.window_leads) != spilled
            or set(layout.resident_offsets) != set(sp.resident_offsets)
        ):
            flag(
                "CONSISTENCY",
                "prefetch layout buffer sets disagree with the base spill plan",
            )
        for b in shared:
            if [(w.start, w.end) for w in layout.windows[b]] != [
                (w.start, w.end) for w in sp.windows[b]
            ]:
                flag(
                    "CONSISTENCY",
                    f"buffer {b}: prefetch window bounds disagree with the "
                    "base staging windows",
                    buffer=b,
                )
    for b in shared:
        ws = layout.windows[b]
        leads = layout.window_leads.get(b, ())
        if len(leads) != len(ws) or any(
            ld < 0 or ld > layout.lead_steps for ld in leads
        ):
            flag(
                "CONSISTENCY",
                f"buffer {b}: window leads are malformed "
                f"(want {len(ws)} leads in [0, {layout.lead_steps}])",
                buffer=b,
            )
        if not 0 <= b < model.n_buffers:
            continue
        for w in ws:
            lo = w.offset
            hi = lo + slot_bytes(model.buf_size[b], sp.tile_bytes)
            if lo < 0 or hi > layout.resident_bytes:
                flag(
                    "BOUNDS",
                    f"buffer {b} {noun}staging slot [{lo}, {hi}) escapes "
                    f"the {layout.resident_bytes}-byte resident region",
                    step=w.start,
                    buffer=b,
                    byte_range=(lo, hi),
                )
    for b, off in sorted(layout.resident_offsets.items()):
        if not 0 <= b < model.n_buffers:
            continue
        hi = off + model.buf_size[b]
        if off < 0 or hi > layout.resident_bytes:
            flag(
                "BOUNDS",
                f"resident buffer {b} at [{off}, {hi}) escapes the "
                f"{layout.resident_bytes}-byte {noun}resident region",
                buffer=b,
                byte_range=(off, hi),
            )

    # byte-disjointness of simultaneously-live resident slots and
    # staging windows. Under leads this is the race model: each window's
    # slot is occupied from the moment its fetch may be enqueued (lead
    # steps early) to window exit, and every pair of time-overlapping
    # occupations must be byte-disjoint
    ivals = _staging_intervals(model, lifetimes, layout, sp.tile_bytes)
    code = "PREFETCH_RACE" if prefetch else "SPILL_OVERLAP"
    _check_interval_overlap(ivals, code, tag, diags)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def spill_plan_findings(
    graph: Graph,
    schedule: Schedule,
    sp: SpillPlan,
    model: BufferModel | None = None,
) -> list[Diagnostic]:
    """Every ``SPILL_*`` / ``PREFETCH_*`` finding against one spill
    plan for ``(graph, schedule)`` — the findings :func:`analyze_plan`
    reports for it, without the schedule and arena families."""
    model = model or BufferModel.of(graph)
    lifetimes = compute_lifetimes(graph, schedule, model=model)
    touch = step_touches(graph, schedule, model)
    diags: list[Diagnostic] = []
    _check_spill(graph, model, lifetimes, sp, touch, diags)
    return diags


def analyze_plan(
    graph: Graph,
    schedule: Schedule | Sequence[str],
    plan: Any,
    spill_plans: Iterable[SpillPlan] = (),
    *,
    level: str = "full",
    batch_sizes: Sequence[int] = (1,),
    target: str | None = None,
) -> AnalysisReport:
    """Statically verify one (graph, schedule, plan[, spill plans]).

    ``plan`` is an :class:`~repro.allocator.arena.AllocationPlan` or
    anything with ``offsets``/``arena_bytes``. Never raises on a bad
    plan — every violation becomes a :class:`Diagnostic`.
    """
    if level not in VERIFY_LEVELS:
        raise ValueError(
            f"unknown verify level {level!r}; pick one of {VERIFY_LEVELS}"
        )
    order = tuple(schedule.order if isinstance(schedule, Schedule) else schedule)
    target = target or graph.name
    diags: list[Diagnostic] = []
    checks: list[str] = ["schedule"]
    if level == "none":
        return AnalysisReport(target=target, diagnostics=(), checks=(), level=level)

    pos = _check_schedule(graph, order, diags)
    model = BufferModel.of(graph)
    usable = len(set(order)) == len(order) and set(order) == set(
        graph.node_names
    )
    if not usable:
        return AnalysisReport(
            target=target,
            diagnostics=tuple(diags),
            checks=tuple(checks),
            level=level,
        )
    all_pos = pos if pos is not None else {n: i for i, n in enumerate(order)}
    sched = Schedule(order, graph.name)
    lifetimes = compute_lifetimes(graph, sched, model=model)

    intra: dict[str, int] | None
    try:
        intra = intra_buffer_offsets(graph, model)
    except ExecutionError as exc:
        intra = None
        diags.append(
            Diagnostic(
                code="ARENA_ALIAS",
                severity=ERROR,
                message=f"buffer aliasing is inconsistent: {exc}",
                plan="arena",
            )
        )
    if intra is not None:
        checks.append("hazards")
        _check_hazards(graph, model, all_pos, intra, diags)

    checks.append("arena")
    batched = any(n > 1 for n in batch_sizes)
    offsets = dict(plan.offsets)
    _check_arena(model, lifetimes, offsets, int(plan.arena_bytes), batched, diags)

    if level == "full" and intra is not None and pos is not None:
        checks.append("reads")
        _check_read_coverage(graph, model, order, intra, diags)

    spill_plans = tuple(spill_plans)
    if spill_plans:
        checks.append("spill")
        touch = step_touches(graph, sched, model)
        if any(sp.prefetch is not None for sp in spill_plans):
            checks.append("prefetch")
        for sp in spill_plans:
            _check_spill(graph, model, lifetimes, sp, touch, diags)

    return AnalysisReport(
        target=target,
        diagnostics=tuple(diags),
        checks=tuple(checks),
        level=level,
    )


def analyze_model(
    model: Any,
    *,
    level: str = "full",
    batch_sizes: Sequence[int] = (1,),
) -> AnalysisReport:
    """Verify a :class:`~repro.compiler.model.CompiledModel` in memory."""
    return analyze_plan(
        model.graph,
        model.schedule,
        model.plan,
        model.spill_plans,
        level=level,
        batch_sizes=batch_sizes,
        target=model.graph.name,
    )


def _spill_plan_lenient(
    doc: dict[str, Any], diags: list[Diagnostic], index: int
) -> SpillPlan | None:
    """Parse a spill plan document, reporting an unreadable one as a
    finding instead of raising."""
    tag = f"spill_plans[{index}]"
    try:
        return SpillPlan.from_doc(doc)
    except SpillError as exc:
        code, message = "ARTIFACT_FORMAT", f"{tag}: {exc} (want {SPILL_FORMAT!r})"
    except (KeyError, TypeError, ValueError) as exc:
        code, message = "ARTIFACT_PARSE", f"{tag} is unreadable: {exc!r}"
    diags.append(
        Diagnostic(code=code, severity=ERROR, message=message, plan="artifact")
    )
    return None


def analyze_artifact(
    doc: dict[str, Any],
    *,
    level: str = "full",
    batch_sizes: Sequence[int] = (1,),
    target: str | None = None,
) -> AnalysisReport:
    """Verify a raw ``CompiledModel`` artifact document, leniently.

    Unlike :meth:`CompiledModel.from_doc` — which raises on the first
    structural problem — this path parses defensively and reports every
    corruption it can still reach as a :class:`Diagnostic`, so a
    damaged artifact yields a full findings list rather than one
    exception. This is the path the mutation harness and the
    ``verify-plan`` CLI exercise.
    """
    from repro.compiler.model import ARTIFACT_FORMAT
    from repro.graph.serialization import graph_from_dict, graph_signature

    diags: list[Diagnostic] = []
    target = target or str(doc.get("name", "<artifact>"))
    if doc.get("format") != ARTIFACT_FORMAT:
        diags.append(
            Diagnostic(
                code="ARTIFACT_FORMAT",
                severity=ERROR,
                message=f"unsupported compiled-model format "
                f"{doc.get('format')!r} (want {ARTIFACT_FORMAT!r})",
                plan="artifact",
            )
        )
        return AnalysisReport(
            target=target, diagnostics=tuple(diags), checks=("artifact",), level=level
        )
    try:
        graph = graph_from_dict(doc["graph"])
    except (GraphError, KeyError, TypeError, ValueError) as exc:
        diags.append(
            Diagnostic(
                code="ARTIFACT_PARSE",
                severity=ERROR,
                message=f"field 'graph' is unreadable: {exc!r}",
                plan="artifact",
            )
        )
        return AnalysisReport(
            target=target, diagnostics=tuple(diags), checks=("artifact",), level=level
        )
    if graph_signature(graph) != doc.get("signature"):
        diags.append(
            Diagnostic(
                code="ARTIFACT_SIGNATURE",
                severity=ERROR,
                message="embedded signature does not match the carried "
                "graph (tampered or corrupted artifact)",
                plan="artifact",
            )
        )
    plan_doc = doc.get("plan")
    if not isinstance(plan_doc, dict):
        diags.append(
            Diagnostic(
                code="ARTIFACT_PARSE",
                severity=ERROR,
                message="field 'plan' is missing or not an object",
                plan="artifact",
            )
        )
        return AnalysisReport(
            target=target, diagnostics=tuple(diags), checks=("artifact",), level=level
        )
    try:
        order = tuple(str(n) for n in plan_doc["schedule"])
        offsets = {
            int(b["id"]): int(b["offset"]) for b in plan_doc["buffers"]
        }
        arena_bytes = int(plan_doc["arena_bytes"])
    except (KeyError, TypeError, ValueError) as exc:
        diags.append(
            Diagnostic(
                code="ARTIFACT_PARSE",
                severity=ERROR,
                message=f"field 'plan' is unreadable: {exc!r}",
                plan="artifact",
            )
        )
        return AnalysisReport(
            target=target, diagnostics=tuple(diags), checks=("artifact",), level=level
        )
    spill_plans = []
    for i, sp_doc in enumerate(doc.get("spill_plans", ())):
        sp = _spill_plan_lenient(sp_doc, diags, i)
        if sp is not None:
            spill_plans.append(sp)

    class _RawPlan:
        def __init__(self) -> None:
            self.offsets = offsets
            self.arena_bytes = arena_bytes

    report = analyze_plan(
        graph,
        order,
        _RawPlan(),
        spill_plans,
        level=level,
        batch_sizes=batch_sizes,
        target=target,
    )
    return AnalysisReport(
        target=target,
        diagnostics=tuple(diags) + report.diagnostics,
        checks=("artifact",) + report.checks,
        level=level,
    )
