"""Arena-backed plan executor: run a graph the way a device would.

The reference :class:`~repro.runtime.executor.Executor` evaluates a
graph in topological order with a dict of arrays — correct, but blind
to everything the compiler worked out. :class:`PlanExecutor` instead
executes under a compiled plan:

* kernels run in **schedule order** (the memory-aware order found by
  the scheduler, not the graph's insertion order);
* every activation lives at its planned byte offset inside **one
  preallocated arena** (the :class:`~repro.allocator.arena.AllocationPlan`
  produced by the TFLite-style offset allocators);
* buffer aliasing is honoured physically: an in-place accumulation
  writes over its target's bytes, and a view concat's operands are
  produced directly into their slice of the shared output buffer
  (:class:`~repro.graph.node.MemorySemantics`).

The executor tracks the arena's measured high-water mark while it runs
and raises if it ever exceeds ``AllocationPlan.arena_bytes`` — the
plan's promise is checked on every execution, not assumed. Outputs are
bitwise-identical to the reference executor (same kernels, same
parameters, same float64 compute dtype); the parity suite in
``tests/runtime/test_plan_executor.py`` asserts exactly that across the
whole benchmark suite.

Every run executes the **whole schedule** and returns the graph's sinks
— the one thing the scheduler's peak and the arena plan are proven for.
Output subsets (and the feed pruning they imply) belong to the
reference executor, the oracle. So there is one compiled step table per
batch width: widths 1 and ``batch_size`` are compiled at construction,
any other width the first time it runs.

The arena is allocated **once per executor** and reused across ``run()``
calls — that is the paper's deployment model (a fixed, preallocated
footprint serving request after request) and what makes the serving
layer in :mod:`repro.serving` honest. Correctness over stale bytes is
structural: every byte a kernel reads was written earlier in the same
run (inputs are fed, intermediates computed), so no scrub is needed for
parity — the suite proves bitwise-identical outputs across back-to-back
runs over a dirty arena. An explicit ``scrub="zero"`` policy is still
available for callers who want defence in depth.

Kernels write **directly into their arena site** when they can
(:data:`~repro.runtime.kernels.OUT_KERNELS`: elementwise chains,
concat/flatten/slice copies, and the conv family's GEMMs via
``np.matmul(..., out=site)``), eliminating the temporary-plus-copy of
every produced tensor; pools and dense keep the copy fallback. Direct
writes are planned at construction and only enabled where the
destination range is disjoint from every input's range — or exactly
equal to it, for positionwise ops and a partial convolution's
accumulator — so aliased layouts can never corrupt an operand
mid-kernel. A direct row is bound when its plan is compiled, so the hot
loop calls it with no arguments. For a convolution that means
everything its shapes decide (:class:`~repro.runtime.kernels.ConvLowering`:
2-D weight, pad amounts, the padded-input view, the strided im2col
window) is resolved against the arena once (by the plan's first run),
and its scratch — a zero-bordered pad map per distinct geometry, one
block of columns sized to the hungriest conv — lives in **one
per-executor workspace** allocated beside the arena
(:attr:`PlanExecutor.workspace_nbytes`). The workspace is kernel
working memory in the sense of Liberis & Lane: a bounded, reported part
of the working set, but not planned activations — it is not counted
against the plan's capacity or a pool's resident bytes. Nodes that
touch a spilled buffer keep the allocating kernels.

Batching
--------
The executor is **batch-native**: every activation view carries one
leading batch axis (the kernels' single contract, see
:mod:`repro.runtime.kernels`) and a run has a width ``n >= 1``. The
arena is ``batch_size`` per-sample rows (a strided
``(N, arena_elems)`` layout), so every planned byte offset, lifetime
and hazard verdict from the per-sample compilation is reused unchanged
— row ``b`` is exactly the single-sample arena of sample ``b``, and
nothing is re-scheduled. :meth:`run_batch` executes ``n <= N`` stacked
samples per step, paying NumPy's per-call dispatch once per node per
batch instead of once per node per sample; a partial batch runs on the
first ``n`` arena rows at its true size — no padding, no wasted
compute. :meth:`run` is the width-1 call of the same path (one
leading axis added to the feeds, stripped from the outputs), whatever
the construction batch size. Per-sample results are bitwise identical
across widths (and to the reference executor); the batched parity
suite asserts that across the benchmark suite.

Tiered arenas & spilling
------------------------
``spill=SpillPlan`` turns the single arena into a **two-region**
layout: an on-chip *resident* region bounded by the plan's capacity,
plus an off-chip *spill* region holding the home bytes of spilled
buffers (:class:`~repro.allocator.spill.SpillPlan`). The flat step
table gains explicit **fetch** transfers (homed bytes → staging slot, at
every staging-window entry after the buffer's first write) and
**writeback** transfers (produced bytes → home, at dirty window exits
whose data is needed again) — one encoding (a hop list), one piece rule
for whole buffers and tiles alike, and one placement; the step
kind only says when its modeled link time is waited out, at once (a
move row) or at a later sync row (an enqueue row: a prefetch job in
flight on the modeled off-chip link). Off-chip traffic is *executed*, not merely estimated — and
counted per run as a :class:`~repro.memsim.hierarchy.TrafficReport`
(``last_stats.traffic``), the Fig 11 simulator's record. Because fetch
and writeback copy bytes verbatim, outputs stay **bitwise identical**
to the resident execution (and therefore to the reference executor)
under every capacity, solo and batched; batched rows each stage and
move their own bytes, so a batch-``N`` spilled run pays ``N x`` the
per-sample traffic. Construction runs the plan through
:meth:`SpillPlan.validate <repro.allocator.spill.SpillPlan.validate>`
— the static verifier's spill checker — so a plan the verifier rejects
raises :class:`~repro.exceptions.SpillError` before a view is bound;
the executor adds only its own binding rule, element-size alignment.

Offsets inside a shared buffer
------------------------------
The :class:`~repro.scheduler.memory.BufferModel` says *which* tensors
share a buffer; executing them also needs *where inside it* each tensor
sits. That placement is solved once at construction: aliasing edges
(``intra[u] == intra[target]`` for in-place nodes, ``intra[x_j] ==
intra[view] + sum(bytes(x_0..x_{j-1}))`` for view operands) are
propagated from each buffer's deepest consumer, then bounds-checked
against the buffer extent. Inconsistent aliasing is rejected instead of
silently corrupting memory.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Iterator, Mapping

import numpy as np

from repro.allocator.arena import AllocationPlan
from repro.allocator.spill import SpillPlan, StageWindow, slot_bytes, step_touches
from repro.exceptions import ExecutionError
from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.memsim.hierarchy import OffchipLink, TrafficReport
from repro.memsim.trace import tile_spans
from repro.runtime.executor import Params, init_params
from repro.runtime.kernels import (
    CONV_OPS,
    KERNELS,
    OUT_KERNELS,
    ConvLowering,
    lower_conv,
)
from repro.scheduler.memory import BufferModel
from repro.scheduler.schedule import Schedule

__all__ = [
    "PlanExecutor",
    "PlanExecutionStats",
    "SCRUB_POLICIES",
    "intra_buffer_offsets",
    "write_hazards",
]

#: the reference executor computes in float64; the arena does the same
#: so the two produce bitwise-identical outputs
_EXEC_DTYPE = np.dtype(np.float64)


def _view_operand_offsets(graph: Graph, node: Node) -> list[int]:
    """Byte offset of each input occurrence inside a view node's output.

    View concats stack their operands along axis 0 of a C-contiguous
    tensor, so operand *j* starts at the summed bytes of operands
    ``0..j-1`` (aliased or not — copied operands still occupy their
    slice of the layout).
    """
    offsets: list[int] = []
    cursor = 0
    for src in node.inputs:
        offsets.append(cursor)
        cursor += graph.node(src).output.bytes
    return offsets


def intra_buffer_offsets(graph: Graph, model: BufferModel) -> dict[str, int]:
    """Byte offset of every node's tensor *within* its shared buffer.

    Plain (non-aliasing, non-aliased) tensors sit at offset 0 of their
    own buffer. Aliasing constraints are propagated from each buffer's
    deepest consumer backwards; a node constrained to two different
    offsets (a tensor cannot be a slice of two places at once) raises
    :class:`ExecutionError`, as does any placement escaping the buffer.
    """
    idx = model.index
    n = idx.n
    # adjacency: intra[a] == intra[b] + delta  <=>  (b, a, -delta)
    edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    def constrain(a: int, b: int, delta: int) -> None:
        edges[a].append((b, delta))
        edges[b].append((a, -delta))

    for i, name in enumerate(idx.order):
        node = graph.node(name)
        if node.memory.inplace_of is not None:
            constrain(i, idx.index[node.inputs[node.memory.inplace_of]], 0)
        elif node.memory.view:
            aliased = node.attrs.get("view_inputs")
            indices = range(len(node.inputs)) if aliased is None else aliased
            rel = _view_operand_offsets(graph, node)
            for j in indices:
                # intra[input_j] == intra[view] + rel[j]
                constrain(idx.index[node.inputs[j]], i, rel[j])

    intra: list[int | None] = [None] * n
    for root in range(n - 1, -1, -1):  # deepest consumers first
        if intra[root] is not None:
            continue
        intra[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            base = intra[a]
            assert base is not None
            for b, delta in edges[a]:
                want = base - delta
                if intra[b] is None:
                    intra[b] = want
                    stack.append(b)
                elif intra[b] != want:
                    raise ExecutionError(
                        f"inconsistent buffer aliasing: {idx.order[b]!r} is "
                        f"placed at byte {intra[b]} and {want} of the same "
                        "buffer"
                    )

    # normalise each buffer to start at 0 and check every member fits
    from repro.graph.analysis import bits

    for b in range(model.n_buffers):
        members = list(bits(model.buf_members[b]))
        lo = min(intra[i] for i in members)  # type: ignore[type-var]
        for i in members:
            intra[i] -= lo  # type: ignore[operator]
            if intra[i] + idx.out_bytes[i] > model.buf_size[b]:  # type: ignore[operator]
                raise ExecutionError(
                    f"tensor {idx.order[i]!r} at intra-buffer byte "
                    f"{intra[i]} escapes its {model.buf_size[b]}-byte buffer"
                )
    return {idx.order[i]: int(intra[i]) for i in range(n)}  # type: ignore[arg-type]


def write_hazards(
    graph: Graph,
    model: BufferModel,
    pos: Mapping[str, int],
    intra: Mapping[str, int],
) -> Iterator[tuple[str, str, int, tuple[int, int]]]:
    """Schedule steps under which buffer sharing corrupts a read.

    Two members of one buffer with overlapping byte ranges are fine
    only while nobody reads the earlier tensor after the later one
    writes — e.g. an in-place accumulator whose target has a second
    consumer scheduled after the overwrite would silently read the
    *new* bytes. A view node rewriting an aliased operand's slice is
    exempt: it copies the identical bytes back. Yields ``(message,
    overwriting node, buffer, overlapping intra-buffer byte range)``
    per hazard; the executor refuses the first one, the static verifier
    reports them all.
    """
    from repro.graph.analysis import bits

    idx = model.index

    def aliased_inputs(node: Node) -> set[str]:
        indices = node.attrs.get("view_inputs")
        if indices is None:
            indices = range(len(node.inputs))
        return {node.inputs[j] for j in indices}

    for b in range(model.n_buffers):
        members = [
            (idx.order[i], intra[idx.order[i]], idx.out_bytes[i])
            for i in bits(model.buf_members[b])
        ]
        for vi, (a, a_off, a_sz) in enumerate(members):
            for b2, b_off, b_sz in members[vi + 1 :]:
                if not (a_off < b_off + b_sz and b_off < a_off + a_sz):
                    continue  # disjoint slices (e.g. view operands)
                # late (scheduled later) writes over early's bytes
                early, late = (a, b2) if pos[a] <= pos[b2] else (b2, a)
                writer = graph.node(late)
                if writer.memory.view and early in aliased_inputs(writer):
                    continue  # byte-preserving copy-back
                clobbered = [
                    c
                    for c in graph.succs(early)
                    if c != late and pos[c] > pos[late]
                ]
                if clobbered:
                    yield (
                        f"{late!r} overwrites {early!r}'s bytes at step "
                        f"{pos[late]}, but {clobbered[0]!r} still reads "
                        f"{early!r} at step {pos[clobbered[0]]}",
                        late,
                        b,
                        (max(a_off, b_off), min(a_off + a_sz, b_off + b_sz)),
                    )


@dataclass(frozen=True)
class PlanExecutionStats:
    """Arena accounting measured during one :meth:`PlanExecutor.run`."""

    #: step-table rows executed: one per kernel, one per transfer job
    #: (one piece of a tile or of a whole buffer, however many hops)
    #: and one per prefetch sync
    steps: int
    #: the plan's promised capacity (per sample — one arena row)
    arena_bytes: int
    #: highest byte extent any live buffer actually reached (per sample)
    measured_peak_bytes: int
    #: off-chip traffic this run executed (all samples; all zero without
    #: a spill plan): ``capacity_bytes`` is the on-chip promise it was
    #: held to, ``stall_s`` the wall-clock the compute thread spent on
    #: inline copies and waits for in-flight prefetch jobs (each up to
    #: its link deadline), ``hidden_s`` the modeled link seconds of the
    #: prefetch jobs minus their modeled exposure at those waits
    #: (``max(0, due - arrival)`` per wait) — never a host copy, never
    #: a sleep's overshoot, at most the jobs' link seconds
    traffic: TrafficReport
    #: whether this run reused the bytes of a previous run's arena
    arena_reused: bool = False
    #: kernels that wrote straight into their arena site
    direct_writes: int = 0
    #: kernels that fell back to temporary-then-copy
    copy_writes: int = 0
    #: samples executed by this run (1 for :meth:`PlanExecutor.run`)
    batch: int = 1
    #: buffers homed off-chip by the spill plan
    spilled_buffers: int = 0
    #: max prefetch lead (schedule steps) the run executed with; 0
    #: means every transfer ran inline
    prefetch_lead: int = 0

    #: the names serving and the benchmarks read, as views of traffic
    spill_stall_s = property(lambda self: self.traffic.stall_s)
    spill_hidden_s = property(lambda self: self.traffic.hidden_s)
    spill_fetches = property(lambda self: self.traffic.fetches)
    spill_writebacks = property(lambda self: self.traffic.writebacks)
    #: total off-chip bytes moved by this run (the Fig 11 quantity)
    spill_bytes_total = property(lambda self: self.traffic.total_bytes)

    @property
    def utilization(self) -> float:
        """Measured peak as a fraction of the planned arena."""
        return (
            self.measured_peak_bytes / self.arena_bytes if self.arena_bytes else 1.0
        )


#: step kinds inside a compiled :class:`_RunPlan`
_STEP_INPUT, _STEP_DIRECT, _STEP_COPY = 0, 1, 2
#: spill data movement. A transfer is a **hop list** ``((dst, src,
#: linked), ...)`` carried in the row's ``attrs``: hops run in order,
#: ``linked`` hops cross the off-chip link (and pay its modeled time),
#: the rest are on-chip moves between a tile slot and a spilled
#: buffer's scratch backing store. MOVE and ENQUEUE rows both copy their
#: hops at once and stamp a link deadline (:func:`_copy_hops`); they
#: differ only in when it is waited out. A run of MOVE rows waits its
#: deadline out before the next row (the inline stall). ENQUEUE issues
#: the run's next prefetch job: the link delivers jobs in FIFO order,
#: and only a SYNC row — wait until job #attrs (1-based) is delivered
#: — or the end of the run waits a job's deadline out. The plans are
#: proven race-free against the stricter asynchronous contract (a job
#: may copy any time between its ENQUEUE and its SYNC, see
#: :mod:`repro.analysis.shadow`); copying at the ENQUEUE row is one
#: legal interleaving of it.
_STEP_MOVE, _STEP_ENQUEUE, _STEP_SYNC = 3, 4, 5


def _range_add(ranges: list[tuple[int, int]], lo: int, hi: int) -> None:
    """Merge byte interval ``[lo, hi)`` into a sorted disjoint list."""
    if hi <= lo:
        return
    ranges.append((lo, hi))
    ranges.sort()
    merged = [ranges[0]]
    for r_lo, r_hi in ranges[1:]:
        if r_lo <= merged[-1][1]:
            if r_hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], r_hi)
        else:
            merged.append((r_lo, r_hi))
    ranges[:] = merged


def _tile_pieces(
    touch_ranges: list[tuple[int, int]],
    clip_ranges: list[tuple[int, int]],
    spans: tuple[tuple[int, int], ...],
) -> list[tuple[int, int, int]]:
    """Per-tile transfer pieces for one staging window.

    A tile is moved iff it intersects ``touch_ranges`` (the bytes the
    window's kernels actually bind — the memsim rule: traffic happens
    at the granularity of touched tiles), and only the bytes inside
    ``clip_ranges`` move (fetch clips to already-homed bytes, writeback
    to bytes some kernel produced — the rest of the tile has no defined
    value yet). Returns ``(lo, hi, slot_lo)`` pieces in buffer byte
    coordinates; ``slot_lo`` is the piece's offset inside the (single,
    tile-sized) staging slot its tile streams through."""
    out: list[tuple[int, int, int]] = []
    for t_lo, t_sz in spans:
        t_hi = t_lo + t_sz
        if not any(lo < t_hi and t_lo < hi for lo, hi in touch_ranges):
            continue
        for lo, hi in clip_ranges:
            p_lo, p_hi = max(lo, t_lo), min(hi, t_hi)
            if p_lo < p_hi:
                out.append((p_lo, p_hi, p_lo - t_lo))
    return out


def sleep_until(due: float) -> float:
    """Block until ``time.perf_counter()`` reads ``due``: the one place
    modeled link time is waited out (at most one host sleep's
    overshoot per call). Returns the modeled wait, ``max(0, due -
    now)``, which excludes that overshoot."""
    delay = due - time.perf_counter()
    if delay <= 0.0:
        return 0.0
    time.sleep(delay)
    return delay


def _copy_hops(
    hops: tuple[tuple[np.ndarray, np.ndarray, bool], ...],
    link: OffchipLink | None,
) -> float:
    """Run one transfer's hops in order; returns the modeled link
    seconds its linked hops owe (0 without a link). A transfer is due
    ``max(copied, previous due) + owed``: the link is never faster than
    modeled, and delivers in order."""
    owed = 0.0
    for dst, src, linked in hops:
        dst[...] = src
        if linked and link is not None:
            owed += link.transfer_s(dst.nbytes)
    return owed


@dataclass(frozen=True)
class _RunPlan:
    """The schedule compiled at one batch width to a flat step table.

    ``steps`` rows are ``(kind, name, site, fn, args, attrs, params,
    shape)`` with every field resolved against the persistent arena —
    the run loop touches no graph or dict lookups (a direct row's
    ``fn`` is already bound to the rest of its row and takes no
    arguments). The liveness replay
    is data-independent, so the measured peak (and any overflow) is a
    property of the plan, computed once.
    """

    steps: tuple[tuple, ...]
    measured_peak_bytes: int
    overflow_at: str | None
    direct_writes: int
    copy_writes: int
    #: per-sample off-chip traffic baked into the step table (a batch
    #: of n rows moves n x these)
    spill_fetches: int = 0
    spill_writebacks: int = 0
    spill_bytes_in: int = 0
    spill_bytes_out: int = 0
    spill_accesses: int = 0


def _workspace_view(
    workspace: np.ndarray, rows: int, lo: int, shape: tuple[int, ...], n: int
) -> np.ndarray:
    """``n`` samples of ``shape`` at per-sample element ``lo`` of a
    ``rows``-sample conv workspace. The workspace is region-major (all
    rows of a region are adjacent), so views of different regions never
    interleave and NumPy's overlap check between a copy's source and
    destination stays a bounds comparison — with arena-style rows it
    gives up and clones the source."""
    start = lo * rows
    return workspace[start : start + n * prod(shape)].reshape((n,) + shape)


#: arena scrub policies between runs (see :class:`PlanExecutor`)
SCRUB_POLICIES = ("never", "zero")


class PlanExecutor:
    """Execute a graph under a schedule and arena plan.

    >>> px = PlanExecutor(model.graph, model.schedule, model.plan)
    >>> outputs = px.run(random_feeds(model.graph))
    >>> px.last_stats.measured_peak_bytes <= model.plan.arena_bytes
    True

    Parameters mirror the reference executor: ``params`` defaults to the
    deterministic per-node random initialisation, so the same
    ``(graph, seed)`` pair yields bitwise-identical outputs under both
    executors.

    The arena is owned by the executor and reused across runs. ``scrub``
    picks what happens to its stale bytes between runs:

    ``"never"`` (default)
        reuse the dirty arena as-is. Safe by construction — every byte a
        run reads, it wrote first — and the fast path for serving.
    ``"zero"``
        zero-fill the existing arena before each run (defence in depth,
        e.g. against cross-request data exposure in multi-tenant use).

    ``batch_size=N`` provisions ``N`` arena rows with the identical
    per-sample layout, enabling :meth:`run_batch` over up to ``N``
    stacked samples (see the module docstring).

    ``spill`` executes under a two-region tiered arena: spilled
    buffers live off-chip and are staged on-chip per access window,
    with fetch/writeback steps in the step table and measured traffic
    in ``last_stats.traffic`` (see the module docstring). Outputs are
    bitwise those of the unspilled executor.

    ``prefetch`` (default on) uses the spill plan's ping/pong
    :class:`~repro.allocator.spill.StagingLayout` when it carries one:
    fetches are issued early and writebacks retired late as prefetch
    jobs on the modeled link, so link time hides behind compute and
    only surfaces as stall when a kernel needs a job the link has not
    delivered yet. ``prefetch=False`` keeps the base layout and runs the
    same transfer jobs, placed by the same rules, as inline moves.
    ``link`` attaches a modeled
    :class:`~repro.memsim.hierarchy.OffchipLink` so no transfer
    (inline or overlapped) lands sooner than the modeled link would
    deliver it, not at host memcpy speed. Every run executes on the
    caller's thread; an executor holds no resource but its arrays.
    """

    def __init__(
        self,
        graph: Graph,
        schedule: Schedule,
        plan: AllocationPlan,
        params: Params | None = None,
        seed: int = 0,
        model: BufferModel | None = None,
        scrub: str = "never",
        batch_size: int = 1,
        spill: SpillPlan | None = None,
        prefetch: bool = True,
        link: OffchipLink | None = None,
    ) -> None:
        schedule.validate(graph)
        if scrub not in SCRUB_POLICIES:
            raise ExecutionError(
                f"unknown scrub policy {scrub!r}; pick one of {SCRUB_POLICIES}"
            )
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ExecutionError(
                f"batch_size must be a positive integer, got {batch_size!r}"
            )
        self.graph = graph
        self.schedule = schedule
        self.plan = plan
        self.params = params if params is not None else init_params(graph, seed)
        self.model = model or BufferModel.of(graph)
        self.scrub = scrub
        self.batch_size = batch_size
        self.runs = 0
        self.last_stats: PlanExecutionStats | None = None

        idx = self.model.index
        if set(plan.offsets) != set(range(self.model.n_buffers)):
            raise ExecutionError(
                "allocation plan does not cover the graph's buffers "
                f"({len(plan.offsets)} offsets for {self.model.n_buffers} buffers)"
            )
        for lt in plan.lifetimes:
            if self.model.buf_size[lt.buffer_id] != lt.size:
                raise ExecutionError(
                    f"allocation plan disagrees with the graph: buffer "
                    f"{lt.buffer_id} is {lt.size} bytes in the plan, "
                    f"{self.model.buf_size[lt.buffer_id]} in the graph"
                )

        itemsizes = {graph.node(name).output.dtype.itemsize for name in idx.order}
        if len(itemsizes) != 1:
            raise ExecutionError(
                "PlanExecutor requires a uniform tensor itemsize "
                f"(found {sorted(itemsizes)}); use the reference Executor "
                "for mixed-dtype graphs"
            )
        self._itemsize = itemsizes.pop()

        # tiered-arena layout: spilled buffers are homed in the spill
        # region and staged on-chip per window, everything else keeps a
        # fixed resident-region slot for its whole lifetime
        self.spill = spill
        self._spilled: frozenset[int] = (
            spill.spilled if spill is not None else frozenset()
        )
        if link is not None and not isinstance(link, OffchipLink):
            raise ExecutionError(
                f"link must be an OffchipLink or None, got {type(link).__name__}"
            )
        self._link = link
        if spill is not None:
            # nothing runs a plan the static verifier rejects
            spill.validate(graph, schedule, self.model)
        # the one staging layout this executor runs: the ping/pong
        # prefetch layout when the plan carries one and the caller wants
        # overlap, else the base (inline) layout — window (start, end)
        # bounds are identical, only offsets and the per-window leads
        # differ. Running the prefetch layout issues prefetch jobs even
        # when every lead is zero: writeback overlap needs no lead.
        layout = spill.layout(prefetch) if spill is not None else None
        self._layout = layout
        #: per-(buffer, window start) prefetch lead; 0 means that
        #: window's fetch executes inline
        self._lead_of: dict[tuple[int, int], int] = (
            {
                (b, w.start): lead
                for b, ws in layout.windows.items()
                for w, lead in zip(ws, layout.window_leads[b])
            }
            if layout is not None
            else {}
        )
        self._region_offset: Mapping[int, int] = (
            layout.resident_offsets if layout is not None else plan.offsets
        )
        #: the on-chip promise every run is held to (resident region)
        self._capacity_bytes = (
            spill.capacity_bytes if spill is not None else plan.arena_bytes
        )

        intra = intra_buffer_offsets(graph, self.model)
        hazard = next(
            write_hazards(graph, self.model, schedule.positions(), intra), None
        )
        if hazard is not None:
            raise ExecutionError(
                f"schedule is unsafe for this buffer layout: {hazard[0]}"
            )
        self._buf_of_name = {
            name: self.model.buffer_of[i] for i, name in enumerate(idx.order)
        }
        self._elem_offset: dict[str, int] = {}
        self._intra_elem: dict[str, int] = {}
        for i, name in enumerate(idx.order):
            b = self.model.buffer_of[i]
            if intra[name] % self._itemsize:
                raise ExecutionError(
                    f"intra-buffer offset {intra[name]} of {name!r} is not "
                    f"aligned to the {self._itemsize}-byte element size"
                )
            self._intra_elem[name] = intra[name] // self._itemsize
            if b in self._spilled:
                continue  # staged per window: no fixed arena offset
            byte_off = self._region_offset[b] + intra[name]
            if byte_off % self._itemsize:
                raise ExecutionError(
                    f"planned offset {byte_off} of {name!r} is not aligned "
                    f"to the {self._itemsize}-byte element size"
                )
            self._elem_offset[name] = byte_off // self._itemsize

        # spilled-buffer geometry (element units) + per-node touch sets
        self._buf_elems: dict[int, int] = {}
        self._home_elem: dict[int, int] = {}
        self._touched_spilled: dict[str, tuple[int, ...]] = {}
        self._touch_count: dict[str, int] = {}
        #: tile streaming (None = whole-buffer staging): staging slots
        #: hold one tile, kernels bind scratch backing stores, and all
        #: fetch/writeback traffic moves per-tile pieces
        self._tile_bytes: int | None = (
            spill.tile_bytes if spill is not None else None
        )
        if self._tile_bytes is not None and self._tile_bytes % self._itemsize:
            raise ExecutionError(
                f"spill plan tile_bytes ({self._tile_bytes}) must be a "
                f"multiple of the {self._itemsize}-byte element size"
            )
        #: per spilled buffer: the shared tile geometry (whole-buffer
        #: staging is its one-span case) and staging-slot bytes
        self._slot_bytes: dict[int, int] = {}
        self._tile_spans: dict[int, tuple[tuple[int, int], ...]] = {}
        if spill is not None:
            for b in self._spilled:
                size = self.model.buf_size[b]
                home = spill.home_offsets[b]
                if (
                    size % self._itemsize
                    or home % self._itemsize
                    or any(
                        w.offset % self._itemsize for w in layout.windows[b]
                    )
                ):
                    raise ExecutionError(
                        f"spill plan for buffer {b} is not aligned to the "
                        f"{self._itemsize}-byte element size"
                    )
                self._buf_elems[b] = size // self._itemsize
                self._home_elem[b] = home // self._itemsize
                self._tile_spans[b] = tile_spans(size, self._tile_bytes)
                self._slot_bytes[b] = slot_bytes(size, self._tile_bytes)
            # the planner's touch model, verbatim — capacity floors and
            # staging sets must never diverge from it
            for name, bufs in zip(schedule, step_touches(graph, schedule, self.model)):
                self._touch_count[name] = len(bufs)
                touched = tuple(b for b in bufs if b in self._spilled)
                if touched:
                    self._touched_spilled[name] = touched
        # a validated plan keeps every home inside the spill region and
        # every staging slot inside the resident region
        spill_region = spill.spill_bytes if spill is not None else 0
        self._spill_elems = -(-spill_region // self._itemsize)

        # sized to the layout's true extent so every site view exists
        # even under a plan that understates arena_bytes (the run-time
        # overflow check still holds such a plan to its promise)
        resident_promise = (
            layout.resident_bytes if layout is not None else plan.arena_bytes
        )
        self._arena_elems = max(
            -(-resident_promise // self._itemsize),
            max(
                (
                    self._elem_offset[name] + graph.node(name).output.elements
                    for name in self._elem_offset
                ),
                default=0,
            ),
        )

        # The arena and its per-node views live for the executor's whole
        # lifetime: one allocation, reused by every run. Row b is the
        # complete single-sample arena of sample b — the per-sample
        # layout solved above is stamped out batch_size times, byte for
        # byte. Everything the hot loop needs per step (site view,
        # kernel, argument views, parameters, liveness trace) is
        # compiled once per batch width and cached.
        #: GEMM lowerings of the direct-writing conv-family nodes
        self._lowered: dict[str, ConvLowering] = {}
        self._direct = self._plan_direct_writes()
        # conv workspace beside the arena, in per-sample elements: a
        # zero-bordered map per distinct padded geometry (shared by
        # every node of that geometry — only interiors are ever
        # written, so the border survives), then one transient region
        # sized to the hungriest conv's columns
        self._pad_elem: dict[tuple, int] = {}
        cursor = 0
        for low in self._lowered.values():
            if low.pad_shape is not None and low.pad_key not in self._pad_elem:
                self._pad_elem[low.pad_key] = cursor
                cursor += prod(low.pad_shape)
        self._transient_elem = cursor
        self._workspace_elems = cursor + max(
            (low.scratch_elems for low in self._lowered.values()), default=0
        )
        self._alloc_arena()
        #: the whole schedule's step table per batch width (at most
        #: ``batch_size`` of them)
        self._run_plans: dict[int, _RunPlan] = {
            n: self._compile_run_plan(n) for n in sorted({1, batch_size})
        }

    def _alloc_arena(self) -> None:
        """Allocate the zeroed region(s) every site view binds into."""
        self._arena = np.zeros(
            (self.batch_size, self._arena_elems), dtype=_EXEC_DTYPE
        )
        #: off-chip home bytes of spilled buffers (empty without spill)
        self._spill_arena = np.zeros(
            (self.batch_size, self._spill_elems), dtype=_EXEC_DTYPE
        )
        #: tile mode: per-buffer backing stores kernels bind into while
        #: tiles stream through the (single, tile-sized) staging slot —
        #: the functional stand-in for a kernel consuming its operands
        #: tile by tile, with the same per-tile traffic accounting as
        #: the Fig 11 simulator
        self._scratch: dict[int, np.ndarray] = {
            b: np.zeros((self.batch_size, self._buf_elems[b]), _EXEC_DTYPE)
            for b in (
                sorted(self._spilled) if self._tile_bytes is not None else ()
            )
        }
        #: conv scratch the bound kernels pad and im2col into — kernel
        #: working memory, not planned activations, so it sits outside
        #: the arena and its capacity accounting. Zeroed like the arena:
        #: the pad maps' borders must read zero and are never written
        self._workspace = np.zeros(
            self.batch_size * self._workspace_elems, dtype=_EXEC_DTYPE
        )
        #: per-node (n, ...) views over the first n rows, keyed by
        #: batch width and built lazily per width
        self._sites: dict[int, dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------
    @property
    def prefetch_active(self) -> bool:
        """True when runs use the plan's prefetch layout (transfers as
        prefetch jobs that overlap compute)."""
        return self._layout is not None and self._layout is self.spill.prefetch

    def close(self) -> None:
        """Nothing to release: runs hold no thread or handle. Kept so
        callers that release executors keep working."""

    @property
    def arena_nbytes(self) -> int:
        """Actual bytes held by the preallocated resident arena array
        (all ``batch_size`` rows)."""
        return self._arena.nbytes

    @property
    def spill_nbytes(self) -> int:
        """Bytes held by the off-chip spill region (0 without spill)."""
        return self._spill_arena.nbytes

    @property
    def workspace_nbytes(self) -> int:
        """Bytes of conv scratch held beside the arena (all rows): the
        pad maps and im2col columns of the direct-writing convs."""
        return self._workspace.nbytes

    def _bind_conv(self, low: ConvLowering, args, site: np.ndarray, n: int):
        """``low`` bound to its arena views and its share of the
        workspace at batch width ``n``."""
        # the callable outlives this frame inside the step table: it may
        # hold the workspace array, never the executor (a cycle would
        # park a closed executor's arena until the next full collection)
        ws, rows = self._workspace, self.batch_size
        cursor = self._transient_elem

        def take(shape: tuple[int, ...]) -> np.ndarray:
            nonlocal cursor
            lo, cursor = cursor, cursor + prod(shape)
            return _workspace_view(ws, rows, lo, shape, n)

        pad = None
        if low.pad_shape is not None:
            pad = _workspace_view(
                ws, rows, self._pad_elem[low.pad_key], low.pad_shape, n
            )
        return low.bind(args, site, pad, take)

    def _sites_for(self, n: int) -> dict[str, np.ndarray]:
        """Per-node arena views at batch width ``n``, built lazily once.

        Width ``n`` binds ``(n, ...)`` views spanning the first ``n``
        rows — zero-copy strided views into the same bytes, so runs of
        every width share one arena. Spilled nodes are absent: their
        views move per staging window and are bound at step-table
        compile time.
        """
        cached = self._sites.get(n)
        if cached is not None:
            return cached
        sites: dict[str, np.ndarray] = {}
        for name in self.model.index.order:
            if name not in self._elem_offset:
                continue  # spilled: bound per window
            node = self.graph.node(name)
            start = self._elem_offset[name]
            stop = start + node.output.elements
            # splitting the (contiguous) trailing axis of a strided
            # (n, elems) slice is always expressible as a view
            sites[name] = self._arena[:n, start:stop].reshape(
                (n,) + node.output.shape
            )
        self._sites[n] = sites
        return sites

    def _elem_range(self, name: str) -> tuple[int, int]:
        start = self._elem_offset[name]
        return start, start + self.graph.node(name).output.elements

    def _plan_direct_writes(self) -> dict[str, str]:
        """Choose, per node, a destination-write kernel (recorded by op
        name) that is provably safe for this arena layout (see module
        docstring); everything else keeps the temporary-then-copy
        fallback. The safety argument is purely about per-sample
        element ranges, which arena rows replicate exactly — one
        verdict covers every batch width."""

        def disjoint_or_equal(src: str, lo: int, hi: int) -> bool:
            s_lo, s_hi = self._elem_range(src)
            return s_hi <= lo or hi <= s_lo or (s_lo == lo and s_hi == hi)

        direct: dict[str, str] = {}
        for name in self.model.index.order:
            node = self.graph.node(name)
            out_kernel = OUT_KERNELS.get(node.op)
            if out_kernel is None or node.op not in KERNELS:
                continue
            if self._touched_spilled.get(name):
                # spilled sites move per staging window; the disjointness
                # argument below is about fixed ranges, so keep the
                # always-safe temporary-then-copy path
                continue
            spec = node.output
            out_lo, out_hi = self._elem_range(name)
            in_specs = [self.graph.node(s).output for s in node.inputs]
            if node.op == "concat":
                # operands land at consecutive axis-0 slices of the output
                if any(
                    s.shape[1:] != spec.shape[1:] or len(s.shape) != len(spec.shape)
                    for s in in_specs
                ):
                    continue
                if sum(s.shape[0] for s in in_specs) != spec.shape[0]:
                    continue
                rel = 0
                ok = True
                for src, s in zip(node.inputs, in_specs):
                    s_lo, s_hi = self._elem_range(src)
                    d_lo, d_hi = out_lo + rel, out_lo + rel + s.elements
                    if not (s_hi <= d_lo or d_hi <= s_lo or s_lo == d_lo):
                        ok = False
                        break
                    rel += s.elements
                if not ok:
                    continue
            elif node.op in CONV_OPS:
                # the GEMM reads its operand while it fills the
                # destination, so the two must be disjoint; an
                # accumulator is only added once the product is
                # complete (in scratch), position by position, so it may
                # also sit exactly on the destination (in place)
                try:
                    low = lower_conv(
                        node.op, in_specs[0].shape, node.attrs,
                        self.params.get(name, {}),
                    )
                except (KeyError, ExecutionError):
                    continue  # the copy path reports it at run time
                if low.out_shape != spec.shape or any(
                    s.shape != spec.shape for s in in_specs[1:]
                ):
                    continue
                x_lo, x_hi = self._elem_range(node.inputs[0])
                if not (x_hi <= out_lo or out_hi <= x_lo) or not all(
                    disjoint_or_equal(src, out_lo, out_hi)
                    for src in node.inputs[1:]
                ):
                    continue
                self._lowered[name] = low
            elif node.op in ("flatten", "slice_channels"):
                if node.op == "flatten" and in_specs[0].elements != spec.elements:
                    continue
                if node.op == "slice_channels":
                    lo, hi = node.attrs["range"]
                    if spec.shape != (hi - lo,) + in_specs[0].shape[1:]:
                        continue
                if not disjoint_or_equal(node.inputs[0], out_lo, out_hi):
                    continue
            else:
                # positionwise elementwise chain: every input must have
                # the output's exact shape and sit either away from the
                # destination or exactly on it (in-place). Only the
                # first two operands are read in lockstep with the
                # write; an n-ary chain reads operands 2+ *after* the
                # destination was written, so those must be strictly
                # disjoint, never merely identical.
                if any(s.shape != spec.shape for s in in_specs):
                    continue
                ok = True
                for j, src in enumerate(node.inputs):
                    s_lo, s_hi = self._elem_range(src)
                    disjoint = s_hi <= out_lo or out_hi <= s_lo
                    identical = s_lo == out_lo and s_hi == out_hi
                    if not (disjoint or (identical and j < 2)):
                        ok = False
                        break
                if not ok:
                    continue
            direct[name] = node.op
        return direct

    def _window_view(
        self, name: str, window: StageWindow, n: int
    ) -> np.ndarray:
        """View of spilled node ``name`` inside its staged buffer slot
        (whole-buffer staging) or its scratch backing store (tile
        streaming — the slot holds one tile at a time, so kernels bind
        the full-tensor scratch instead)."""
        node = self.graph.node(name)
        start = self._intra_elem[name]
        if self._tile_bytes is not None:
            base = self._scratch[self._buf_of_name[name]]
        else:
            base = self._arena
            start += window.offset // self._itemsize
        stop = start + node.output.elements
        return base[:n, start:stop].reshape((n,) + node.output.shape)

    def _transfer_row(
        self,
        kind: int,
        b: int,
        window: StageWindow,
        piece: tuple[int, int, int],
        n: int,
        fetch: bool,
    ) -> tuple:
        """The step-table row moving one ``piece`` of spilled buffer
        ``b`` between its home and ``window``'s staging slot.

        A fetch is one linked hop, home -> slot, landing at the piece's
        offset inside the slot (the whole buffer's, or one tile's).
        Under tiling it adds the on-chip hop slot -> scratch. A
        writeback is the fetch backwards. Views are raw element runs of
        the moved bytes, no tensor shape."""
        it = self._itemsize
        lo, hi, slot_lo = piece
        c0, ne = lo // it, (hi - lo) // it
        s0 = window.offset // it + slot_lo // it
        h0 = self._home_elem[b] + c0
        slot = self._arena[:n, s0 : s0 + ne]
        hops = [(slot, self._spill_arena[:n, h0 : h0 + ne], True)]
        if self._tile_bytes is not None:
            hops.append((self._scratch[b][:n, c0 : c0 + ne], slot, False))
        if not fetch:
            hops = [(src, dst, linked) for dst, src, linked in reversed(hops)]
        tag = "fetch" if fetch else "writeback"
        return (kind, f"<{tag}:b{b}>", None, None, (), tuple(hops), None, None)

    def _compile_run_plan(self, n: int) -> "_RunPlan":
        """Bake the schedule into a flat step table at batch width ``n``.

        The liveness trace is replayed here, once: which buffers are
        live at each step — and therefore the measured high-water mark —
        depends only on (schedule, plan, buffer model), never on request
        data or batch width (rows are layout-identical), so re-deriving
        it per request would re-measure a constant. The replay also
        locates the first overflowing step, if any, so ``run`` can fail
        with the same diagnostic the per-step check used to produce —
        an understated plan is rejected statically, before any kernel
        (batched or not) touches the arena.

        Under a spill plan the replay also inserts the fetch/writeback
        data movement (see the module docstring): a spilled buffer's
        staging slot is held for its window ``[start, end)``, entering
        a window after the buffer's first writeback fetches the homed
        bytes of its touched tiles (a whole buffer is one tile), and
        leaving a dirty window writes produced ones back when the data
        is needed again. The resulting traffic is data-independent too,
        so it is counted here, once per plan.

        Transfer events are collected against the schedule first and
        *placed* second, by the one placement there is
        (:meth:`_place_transfers`).
        """
        graph, model, params = self.graph, self.model, self.params
        order = self.schedule.order
        sites = self._sites_for(n)
        idx = model.index
        spill = self.spill
        spilled = self._spilled
        layout = self._layout
        kernel_rows: list[tuple] = []  # exactly one row per step
        direct_writes = 0
        copy_writes = 0
        live: set[int] = set()
        executed = 0
        measured_peak = 0
        overflow_at: str | None = None

        # static spill bookkeeping: every window is entered at its
        # start step and left at its last one
        fetches = writebacks = bytes_in = bytes_out = accesses = 0
        staged_win: dict[int, StageWindow] = {}
        staged_extent: dict[int, int] = {}
        dirty: set[int] = set()
        enter_at: dict[int, list[tuple[int, StageWindow]]] = {}
        leave_at: dict[int, list[tuple[int, StageWindow]]] = {}
        #: transfer events in schedule order: (buffer, window, step,
        #: pieces) — fetch events at window entry, writeback events at
        #: dirty window exit; placement happens after the replay.
        #: ``pieces`` are the :func:`_tile_pieces` the event moves —
        #: whole-buffer staging is the one-span case of the tile rule.
        fetch_events: list[
            tuple[int, StageWindow, int, list[tuple[int, int, int]]]
        ] = []
        wb_events: list[
            tuple[int, StageWindow, int, list[tuple[int, int, int]]]
        ] = []
        #: merged byte ranges each window's kernels bind, keyed
        #: ``(b, w.start)``
        win_ranges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        #: tracked in schedule order: bytes some kernel has produced
        #: (the slot or scratch holds them) / bytes written back to the
        #: home (a later fetch may legally read exactly these)
        produced: dict[int, list[tuple[int, int]]] = {}
        homed: dict[int, list[tuple[int, int]]] = {}
        if spilled:
            it = self._itemsize
            for b, ws in layout.windows.items():
                for w in ws:
                    enter_at.setdefault(w.start, []).append((b, w))
                    leave_at.setdefault(w.end - 1, []).append((b, w))
                    acc = win_ranges[(b, w.start)] = []
                    for name in order[w.start : w.end]:
                        for t in (name, *graph.node(name).inputs):
                            if self._buf_of_name[t] != b:
                                continue
                            t_lo = self._intra_elem[t] * it
                            _range_add(
                                acc, t_lo, t_lo + graph.node(t).output.bytes
                            )

        for oi, name in enumerate(order):
            node = graph.node(name)
            u = idx.index[name]
            b_own = model.buffer_of[u]
            if spill is not None:
                accesses += self._touch_count[name]
            # enter every window starting here, fetching touched tiles
            # clipped to home bytes a previous writeback produced (none
            # before the first one); never-homed bytes the window reads
            # are still live in scratch
            for b, w in enter_at.get(oi, ()):
                staged_win[b] = w
                staged_extent[b] = w.offset + self._slot_bytes[b]
                pieces = _tile_pieces(
                    win_ranges[(b, w.start)],
                    homed.get(b, []),
                    self._tile_spans[b],
                )
                if pieces:
                    fetch_events.append((b, w, oi, pieces))
                    fetches += len(pieces)
                    bytes_in += sum(p[1] - p[0] for p in pieces)
            if b_own not in spilled:
                live.add(b_own)
            extent = max(
                max(
                    (
                        self._region_offset[bb] + model.buf_size[bb]
                        for bb in live
                    ),
                    default=0,
                ),
                max(staged_extent.values(), default=0),
            )
            measured_peak = max(measured_peak, extent)
            if overflow_at is None and measured_peak > self._capacity_bytes:
                overflow_at = name
            executed |= 1 << u
            for b2 in model.check_buffers[u]:
                if model.buf_persistent[b2]:
                    continue
                if not (model.buf_required[b2] & ~executed):
                    live.discard(b2)

            def view_of(nm: str) -> np.ndarray:
                bb = self._buf_of_name[nm]
                if bb in spilled:
                    return self._window_view(nm, staged_win[bb], n)
                return sites[nm]

            site = view_of(name)
            shape = (n,) + node.output.shape
            if node.op == "input":
                kernel_rows.append(
                    (_STEP_INPUT, name, site, None, (), {}, {}, shape)
                )
            else:
                direct_op = self._direct.get(name)
                args = tuple(view_of(src) for src in node.inputs)
                node_params = params.get(name, {})
                if direct_op is not None:
                    # everything a direct row needs is bound here, once:
                    # the hot loop calls it with no arguments
                    low = self._lowered.get(name)
                    if low is not None:
                        fn = self._bind_conv(low, args, site, n)
                    else:
                        fn = partial(
                            OUT_KERNELS[direct_op],
                            args,
                            node.attrs,
                            node_params,
                            site,
                        )
                    kernel_rows.append(
                        (
                            _STEP_DIRECT,
                            name,
                            site,
                            fn,
                            args,
                            node.attrs,
                            node_params,
                            None,
                        )
                    )
                    direct_writes += 1
                else:
                    kernel = KERNELS.get(node.op)
                    if kernel is None:
                        raise ExecutionError(f"no kernel for op {node.op!r}")
                    kernel_rows.append(
                        (
                            _STEP_COPY,
                            name,
                            site,
                            kernel,
                            args,
                            node.attrs,
                            node_params,
                            shape,
                        )
                    )
                    copy_writes += 1

            # window exits: write dirty staged bytes home when the data
            # is needed again (or holds a graph output); dead windows
            # drop silently, exactly like the memsim eviction rule
            if b_own in spilled:
                dirty.add(b_own)
                o_lo = self._intra_elem[name] * self._itemsize
                _range_add(
                    produced.setdefault(b_own, []),
                    o_lo,
                    o_lo + node.output.bytes,
                )
            for b, w in leave_at.get(oi, ()):
                has_later = w is not layout.windows[b][-1]
                if b in dirty and (has_later or model.buf_persistent[b]):
                    # writeback = touched tiles clipped to produced
                    # bytes (the rest has no defined value)
                    pieces = _tile_pieces(
                        win_ranges[(b, w.start)],
                        produced.get(b, []),
                        self._tile_spans[b],
                    )
                    wb_events.append((b, w, oi, pieces))
                    writebacks += len(pieces)
                    bytes_out += sum(p[1] - p[0] for p in pieces)
                    hb = homed.setdefault(b, [])
                    for p_lo, p_hi, _s in pieces:
                        _range_add(hb, p_lo, p_hi)
                    dirty.discard(b)
                elif not has_later:
                    dirty.discard(b)
                staged_extent.pop(b, None)
        steps = self._place_transfers(
            kernel_rows, fetch_events, wb_events, win_ranges, n
        )
        return _RunPlan(
            steps=steps,
            measured_peak_bytes=measured_peak,
            overflow_at=overflow_at,
            direct_writes=direct_writes,
            copy_writes=copy_writes,
            spill_fetches=fetches,
            spill_writebacks=writebacks,
            spill_bytes_in=bytes_in,
            spill_bytes_out=bytes_out,
            spill_accesses=accesses,
        )

    def _place_transfers(
        self,
        kernel_rows: list[tuple],
        fetch_events: list,
        wb_events: list,
        win_ranges: dict[tuple[int, int], list[tuple[int, int]]],
        n: int,
    ) -> tuple[tuple, ...]:
        """Interleave the collected transfer events with the kernel rows.

        Every transfer is a job (a hop list, :meth:`_transfer_row`)
        placed once: a fetch up to its window's ``lead`` schedule
        positions early (never before the same buffer's previous
        writeback — the FIFO then orders the home accesses), a
        writeback right after its window's last step. With prefetch,
        jobs are ENQUEUE rows of one FIFO (the asynchronous DMA
        contract the plan is proven against); one SYNC per step waits
        for the highest job the step depends on (fetches at window
        entry, writebacks when a slot reservation expires or an inline
        fetch needs the home bytes) and leftover jobs drain at end of
        run. A zero-lead whole-buffer fetch is an inline MOVE row, while
        *every* tile piece is a FIFO job — the FIFO totally orders all
        tile-slot accesses, which is what makes the single private tile
        slot race-free. Without prefetch every lead is zero, so the same
        rules put each fetch immediately before its kernel row and each
        writeback immediately after, and the jobs run as MOVE rows where
        they would have been enqueued: no sync rows, no prefetch jobs.
        """
        n_exec = len(kernel_rows)
        # full per-buffer writeback history (exit step indices, both
        # inline and engine) — a later fetch of the same buffer reads
        # home bytes the previous writeback produces, so its enqueue
        # can never cross that writeback
        wb_exits: dict[int, list[int]] = {}
        for b, _w, oi, _p in wb_events:
            wb_exits.setdefault(b, []).append(oi)
        tiled = self._tile_bytes is not None
        #: entry oi -> [(buffer, window, piece)]
        inline_f: dict[int, list[tuple]] = {}
        #: enqueue oi -> [(buffer, window, entry oi, piece)]
        eng_f: dict[int, list[tuple]] = {}
        #: exit oi -> [(buffer, window, due oi, piece)]
        eng_w: dict[int, list[tuple]] = {}
        #: (buffer, window start) pairs whose fetch routes through the
        #: engine — their window-entry fetch sync already orders every
        #: earlier FIFO job before the first kernel touch of the slot
        eng_fetch_windows: set[tuple[int, int]] = set()
        for b, w, entry_oi, pieces in fetch_events:
            lead = self._lead_of.get((b, w.start), 0)
            if not tiled and lead == 0:
                inline_f.setdefault(entry_oi, []).extend(
                    (b, w, piece) for piece in pieces
                )
                continue
            eo = max(0, w.start - lead)
            if not tiled:
                exits = wb_exits.get(b, ())
                i = bisect.bisect_left(exits, entry_oi)
                if i:
                    eo = max(eo, exits[i - 1] + 1)
                eng_f.setdefault(min(eo, entry_oi), []).extend(
                    (b, w, entry_oi, piece) for piece in pieces
                )
            else:
                # per-piece floor: the fetch writes scratch[piece] (hop
                # 2) and reads home[piece] (hop 1), so it must trail the
                # last earlier window of b whose touched ranges
                # intersect the piece — that window's kernels read/write
                # exactly those scratch bytes and its exit writeback
                # (FIFO-enqueued at its last step) refreshes exactly
                # those home bytes. Windows touching disjoint ranges
                # impose nothing, which is what lets consecutive
                # windows of a hot buffer keep their full prefetch lead.
                prior = [
                    (wp.end, win_ranges[(b, wp.start)])
                    for wp in self._layout.windows[b]
                    if wp.start < w.start
                ]
                for piece in pieces:
                    p_lo, p_hi = piece[0], piece[1]
                    floor = 0
                    for end, ranges in prior:
                        if any(
                            r_lo < p_hi and p_lo < r_hi for r_lo, r_hi in ranges
                        ):
                            floor = max(floor, end)
                    eng_f.setdefault(
                        min(max(eo, floor), entry_oi), []
                    ).append((b, w, entry_oi, piece))
            eng_fetch_windows.add((b, w.start))
        size = self.model.buf_size
        # staging slots share the region with resident buffers (the
        # layout interleaves both interval sets), so a pending
        # writeback's slot bytes can be recycled by a resident buffer
        # whose lifetime starts after the window's extended reservation
        # — collect each resident buffer's producing-write steps
        resident_writes: dict[int, list[int]] = {}
        #: spilled buffers' own-write steps with the byte range each
        #: kernel produces — a tiled writeback piece only waits on
        #: later writes that overlap its bytes
        scratch_writes: dict[int, list[tuple[int, int, int]]] = {}
        spilled = self._spilled
        it = self._itemsize
        for oi, name in enumerate(self.schedule):
            r = self._buf_of_name[name]
            if r not in spilled:
                resident_writes.setdefault(r, []).append(oi)
            else:
                o_lo = self._intra_elem[name] * it
                scratch_writes.setdefault(r, []).append(
                    (oi, o_lo, o_lo + self.graph.node(name).output.bytes)
                )
        for b, w, exit_oi, pieces in wb_events:
            # every writeback rides the engine (no lead needed): it
            # must only land before its staging slot is next touched
            # from the compute thread — the first later window
            # overlapping the slot whose entry is NOT already ordered
            # behind this job by its own engine-fetch sync, or the
            # first write to an overlapping resident buffer. Slot
            # reservations keep conflicting *engine* fetches enqueued
            # after this writeback, so the FIFO handles those.
            # Home-byte readers are fetches of the same buffer: engine
            # ones are FIFO-ordered, inline ones sync explicitly below.
            lo, hi = w.offset, w.offset + self._slot_bytes[b]
            due = n_exec
            if not tiled:
                for b2, ws2 in self._layout.windows.items():
                    for w2 in ws2:
                        if not exit_oi < w2.start < due:
                            continue
                        if (b2, w2.start) in eng_fetch_windows:
                            continue
                        if w2.offset < hi and lo < w2.offset + self._slot_bytes[b2]:
                            due = w2.start
            for r, ois in resident_writes.items():
                off = self._region_offset[r]
                if off < hi and lo < off + size[r]:
                    i = bisect.bisect_right(ois, exit_oi)
                    if i < len(ois) and ois[i] < due:
                        due = ois[i]
            if not tiled:
                eng_w.setdefault(exit_oi, []).extend(
                    (b, w, due, piece) for piece in pieces
                )
            else:
                # tiled: compute never touches tile slots (kernels bind
                # scratch), and every tiled transfer rides the FIFO, so
                # slot conflicts are engine-vs-engine and ordered by
                # enqueue position. The compute-side hazard is the
                # drain's scratch read racing a later own write of b —
                # but only one that overlaps the piece's bytes; each
                # tensor is produced once, so disjoint-range writebacks
                # drain lazily off the critical path.
                ws = scratch_writes.get(b, ())
                for piece in pieces:
                    p_lo, p_hi = piece[0], piece[1]
                    p_due = due
                    for w_oi, w_lo, w_hi in ws:
                        if w_oi <= exit_oi:
                            continue
                        if w_oi >= p_due:
                            break
                        if w_lo < p_hi and p_lo < w_hi:
                            p_due = w_oi
                            break
                    eng_w.setdefault(exit_oi, []).append((b, w, p_due, piece))

        # FIFO job numbers follow step-table enqueue order: walk the
        # schedule once, fetch enqueues before writeback enqueues
        # within a step, and record where each job must be complete
        job = 0
        need_at = [0] * n_exec
        eng_wb_hist: dict[int, list[tuple[int, int]]] = {}
        for oi in range(n_exec):
            for b, w, entry_oi, _piece in eng_f.get(oi, ()):
                job += 1
                need_at[entry_oi] = max(need_at[entry_oi], job)
            for b, w, due, _piece in eng_w.get(oi, ()):
                job += 1
                if due < n_exec:
                    need_at[due] = max(need_at[due], job)
                eng_wb_hist.setdefault(b, []).append((oi, job))
        # an inline fetch reads home bytes a still-pending engine
        # writeback of the same buffer may be producing
        for oi, evs in inline_f.items():
            for b, _w, _piece in evs:
                hist = eng_wb_hist.get(b)
                if hist:
                    i = bisect.bisect_left(hist, (oi, 0))
                    if i:
                        need_at[oi] = max(need_at[oi], hist[i - 1][1])

        # assemble: [fetch jobs][one sync][inline fetches][kernel]
        # [writeback jobs] per step; the FIFO completes in submit
        # order, so one wait on the highest needed job covers every
        # earlier one (``guaranteed`` skips redundant syncs)
        queued = self.prefetch_active
        job_kind = _STEP_ENQUEUE if queued else _STEP_MOVE
        steps: list[tuple] = []
        guaranteed = 0
        for oi, row in enumerate(kernel_rows):
            for b, w, _entry, piece in eng_f.get(oi, ()):
                steps.append(self._transfer_row(job_kind, b, w, piece, n, True))
            need = need_at[oi]
            if queued and need > guaranteed:
                steps.append(
                    (_STEP_SYNC, f"<sync:{need}>", None, None, (), need,
                     None, None)
                )
                guaranteed = need
            for b, w, piece in inline_f.get(oi, ()):
                steps.append(self._transfer_row(_STEP_MOVE, b, w, piece, n, True))
            steps.append(row)
            for b, w, _due, piece in eng_w.get(oi, ()):
                steps.append(self._transfer_row(job_kind, b, w, piece, n, False))
        return tuple(steps)

    def run(self, feeds: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Execute the whole schedule inside the executor's persistent
        arena.

        Returns a copy of every graph sink, snapshotted the moment it
        is produced. Sets :attr:`last_stats` with the measured arena
        peak and raises :class:`ExecutionError` if that peak ever
        exceeds the plan's ``arena_bytes``.

        A solo run is the batch of one: feeds gain a leading axis (a
        view), and the outputs are row 0 of the width-1 snapshots.
        """
        stacked = {
            k: np.asarray(feeds[k])[None]
            for k in self.graph.input_nodes
            if k in feeds
        }
        return {k: v[0] for k, v in self._execute(stacked, 1).items()}

    def run_batch(
        self,
        feeds: Mapping[str, np.ndarray],
        batch: int | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute ``n`` stacked samples in one pass over the arena rows.

        Every feed carries a leading batch axis: input ``x`` of spec
        shape ``s`` is fed as ``(n, *s)`` with ``1 <= n <= batch_size``.
        ``batch`` makes ``n`` explicit; by default it is inferred from
        the feeds (which must agree). The graph's sinks come back with
        the same leading axis, and sample ``b`` of every output is
        bitwise what :meth:`run` returns for sample ``b`` alone —
        stacking is a dispatch-amortisation strategy, not an
        approximation. A partial batch (``n < batch_size``) runs at its
        true size on the first ``n`` arena rows; nothing is padded.
        Each width compiles its step table once. Sets
        :attr:`last_stats` with ``batch=n``.
        """
        n = batch
        if n is None:
            widths = {int(np.asarray(v).shape[0]) if np.ndim(v) else 0
                      for v in feeds.values()}
            if len(widths) != 1:
                raise ExecutionError(
                    "cannot infer the batch width: feeds have leading "
                    f"dimensions {sorted(widths)}; stack every feed to "
                    "(n, *spec.shape) or pass batch= explicitly"
                )
            n = widths.pop()
        if not 1 <= n <= self.batch_size:
            raise ExecutionError(
                f"batch width {n} outside this executor's capacity "
                f"1..{self.batch_size} (construct with batch_size={n} "
                "or larger)"
            )
        return self._execute(feeds, n)

    def _execute(
        self, feeds: Mapping[str, np.ndarray], n: int
    ) -> dict[str, np.ndarray]:
        plan = self._run_plans.get(n)
        if plan is None:
            plan = self._run_plans[n] = self._compile_run_plan(n)
        if plan.overflow_at is not None:
            raise ExecutionError(
                f"arena overflow at {plan.overflow_at!r}: measured high-water "
                f"mark {plan.measured_peak_bytes} exceeds the planned "
                f"{self._capacity_bytes} bytes per sample"
            )

        if self.scrub == "zero":
            self._arena.fill(0.0)
            if self._spill_elems:
                self._spill_arena.fill(0.0)
            for scr in self._scratch.values():
                scr.fill(0.0)
            # zero is also what the pad borders must hold
            self._workspace.fill(0.0)

        link = self._link
        stall_s = 0.0
        #: a run of consecutive MOVE rows is one inline stall: it starts
        #: at ``move_t0`` and ends at the link deadline ``move_due``
        move_t0: float | None = None
        move_due = 0.0
        #: ``dues[k]`` is the link deadline of this run's prefetch job k
        #: (``dues[0]`` a sentinel); the link delivers in FIFO order
        dues = [0.0]
        #: link seconds of the prefetch jobs, and the part of them the
        #: waits found not yet delivered
        owed_s = exposed_s = 0.0

        sinks = self.graph.sinks
        want = set(sinks)
        snapshots: dict[str, np.ndarray] = {}
        for (
            kind,
            name,
            site,
            fn,
            args,
            attrs,
            node_params,
            shape,
        ) in plan.steps:
            if kind == _STEP_MOVE:
                if move_t0 is None:
                    move_t0 = time.perf_counter()
                owed = _copy_hops(attrs, link)
                move_due = max(time.perf_counter(), move_due) + owed
                continue
            if move_t0 is not None:
                sleep_until(move_due)
                stall_s += time.perf_counter() - move_t0
                move_t0 = None
            if kind == _STEP_ENQUEUE:
                owed = _copy_hops(attrs, link)
                owed_s += owed
                dues.append(max(time.perf_counter(), dues[-1]) + owed)
                continue
            if kind == _STEP_SYNC:
                t0 = time.perf_counter()
                exposed_s += sleep_until(dues[attrs])
                stall_s += time.perf_counter() - t0
                continue
            if kind == _STEP_DIRECT:
                fn()
            elif kind == _STEP_COPY:
                value = fn(args, attrs, node_params)
                if tuple(value.shape) != shape:
                    raise ExecutionError(
                        f"kernel produced shape {value.shape} for "
                        f"{name!r}, spec says {n} sample(s) of "
                        f"{shape[1:]}"
                    )
                site[...] = value
            else:  # _STEP_INPUT
                if name not in feeds:
                    raise ExecutionError(f"missing feed for input {name!r}")
                value = np.asarray(feeds[name], dtype=_EXEC_DTYPE)
                if tuple(value.shape) != shape:
                    raise ExecutionError(
                        f"feed {name!r} has shape {value.shape}, "
                        f"expected {n} sample(s) of {shape[1:]}"
                    )
                site[...] = value
            if name in want:
                snapshots[name] = site.copy()
        if move_t0 is not None:
            sleep_until(move_due)
            stall_s += time.perf_counter() - move_t0
        if len(dues) > 1:
            # end-of-run drain: the run ends once the link has
            # delivered its last job, so no deadline outlives it
            t0 = time.perf_counter()
            exposed_s += sleep_until(dues[-1])
            stall_s += time.perf_counter() - t0

        self.last_stats = PlanExecutionStats(
            steps=len(plan.steps),
            arena_bytes=self.plan.arena_bytes,
            measured_peak_bytes=plan.measured_peak_bytes,
            traffic=TrafficReport(
                capacity_bytes=self._capacity_bytes,
                policy=self.spill.policy if self.spill is not None else "resident",
                bytes_in=plan.spill_bytes_in * n,
                bytes_out=plan.spill_bytes_out * n,
                fetches=plan.spill_fetches * n,
                writebacks=plan.spill_writebacks * n,
                bypass_bytes=0,
                accesses=plan.spill_accesses * n,
                stall_s=stall_s,
                hidden_s=max(0.0, owed_s - exposed_s),
                tile_bytes=self._tile_bytes,
            ),
            arena_reused=self.runs > 0,
            direct_writes=plan.direct_writes,
            copy_writes=plan.copy_writes,
            batch=n,
            spilled_buffers=len(self._spilled),
            prefetch_lead=(
                self._layout.lead_steps if self._layout is not None else 0
            ),
        )
        self.runs += 1
        return {s: snapshots[s] for s in sinks}

    def shadow_check(self):
        """Byte-bounds replay of this executor's compiled step tables.

        Delegates to :func:`repro.analysis.shadow.shadow_check`: every
        compiled table (widths 1 and ``batch_size``, plus any other
        width already run) is walked row by row — views
        bounds-checked against the declared regions, reads proven
        covered by earlier writes, and prefetch rows modelled for
        races under the asynchronous DMA contract — without executing
        a kernel. Returns an
        :class:`~repro.analysis.diagnostics.AnalysisReport`.
        """
        from repro.analysis.shadow import shadow_check

        return shadow_check(self)
