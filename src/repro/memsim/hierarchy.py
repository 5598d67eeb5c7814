"""Two-level (on-chip SRAM / off-chip DRAM) memory traffic simulator.

Reproduces the paper's Fig 11 methodology: with the whole schedule known
at compile time, replay the buffer access trace against an on-chip
memory of capacity ``C`` under a replacement policy (Belady's
clairvoyant MIN by default) and count off-chip bytes moved.

Model (the README's "Memory hierarchy & spill" section records these
rules next to the runtime spill model):

* a buffer must be on-chip to be read or written;
* a **write** (node producing its output) allocates residency without a
  DRAM fetch — the data is being created, not loaded;
* a **read** of a non-resident buffer fetches it (``bytes_in += size``);
* evicting a *dirty* buffer that will be used again writes it back
  (``bytes_out += size``); clean or dead buffers drop silently;
* a buffer is dirty from its producing write until written back;
* after its last use a buffer is dropped without writeback;
* buffers larger than the on-chip capacity bypass SRAM entirely and
  stream from/to DRAM on every access;
* if the running schedule's live set fits in ``C`` at all times no
  traffic occurs — the "SERENITY removes off-chip communication" cases
  of Fig 11.

This simulator is the *offline* (tile-granularity, reactive-eviction)
half of the story. Its runtime counterpart is
:mod:`repro.allocator.spill` + the plan executor's tiered arena: spill
sites are chosen at compile time with the same replacement-policy
registry (:mod:`repro.memsim.policies`), fetch/writeback steps are
*executed* at whole-buffer or tile granularity, and every run reports
its measured traffic as this module's :class:`TrafficReport`
(``PlanExecutor.last_stats.traffic``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

from repro.exceptions import ReproError
from repro.graph.graph import Graph
from repro.memsim.policies import FIFOPolicy, make_policy
from repro.memsim.trace import AccessTrace, build_trace, resolve_tile_bytes
from repro.scheduler.memory import BufferModel
from repro.scheduler.schedule import Schedule

__all__ = [
    "OffchipLink",
    "TrafficReport",
    "MemoryHierarchySimulator",
    "offchip_traffic",
]


@dataclass(frozen=True)
class OffchipLink:
    """Modeled timing of the on-chip <-> off-chip transfer path.

    Real edge parts pay bandwidth and per-transfer latency for every
    DRAM/flash word moved; host memcpys do not. Attaching a link to the
    plan executor makes each fetch/writeback cost
    ``latency_s + nbytes / bandwidth_bytes_per_s`` of wall-clock, so
    stall-vs-hidden accounting measures what the modeled part would
    feel rather than the host's memcpy throughput."""

    bandwidth_bytes_per_s: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ReproError("off-chip link bandwidth must be positive")
        if self.latency_s < 0:
            raise ReproError("off-chip link latency must be non-negative")

    def transfer_s(self, nbytes: int) -> float:
        """Modeled wall-clock seconds to move ``nbytes``."""
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class TrafficReport:
    """Off-chip communication accounting for one schedule."""

    capacity_bytes: int
    policy: str
    bytes_in: int
    bytes_out: int
    fetches: int
    writebacks: int
    bypass_bytes: int
    accesses: int
    #: transfer wall-clock the compute stream waited on (runtime only;
    #: the offline simulator counts bytes, not seconds)
    stall_s: float = 0.0
    #: modeled link seconds of prefetch jobs overlapped behind compute:
    #: their link seconds less the part waits found undelivered (zero
    #: for inline spill execution and without a link)
    hidden_s: float = 0.0
    #: transfer granularity the counted traffic moved at (``None`` =
    #: whole-buffer staging)
    tile_bytes: int | None = None

    @property
    def total_bytes(self) -> int:
        """Total off-chip traffic, the Fig 11 quantity."""
        return self.bytes_in + self.bytes_out + self.bypass_bytes

    @property
    def eliminated(self) -> bool:
        """True when the whole execution stayed on-chip."""
        return self.total_bytes == 0

    @property
    def total_kib(self) -> float:
        return self.total_bytes / 1024.0

    @property
    def hidden_fraction(self) -> float:
        """Share of transfer time hidden behind compute."""
        busy = self.stall_s + self.hidden_s
        return self.hidden_s / busy if busy > 0 else 0.0


@dataclass
class MemoryHierarchySimulator:
    """Replays access traces against one on-chip capacity."""

    capacity_bytes: int
    policy: str = "belady"

    def run(self, trace: AccessTrace) -> TrafficReport:
        if self.capacity_bytes <= 0:
            raise ReproError("on-chip capacity must be positive")
        policy = make_policy(self.policy, trace)

        resident: dict[int, int] = {}  # buffer -> size
        dirty: set[int] = set()
        used = 0
        bytes_in = bytes_out = bypass = 0
        fetches = writebacks = 0

        def evict_for(size: int, position: int) -> None:
            nonlocal used, bytes_out, writebacks
            while used + size > self.capacity_bytes:
                victim = policy.victim(set(resident), position)
                vsize = resident.pop(victim)
                used -= vsize
                if victim in dirty:
                    dirty.discard(victim)
                    # write back only if the data is needed again
                    ps = trace.positions.get(victim, ())
                    i = bisect.bisect_right(ps, position)
                    if i < len(ps):
                        bytes_out += vsize
                        writebacks += 1
                if isinstance(policy, FIFOPolicy):
                    policy.note_eviction(victim)

        for pos, acc in enumerate(trace.accesses):
            b, size = acc.buffer_id, acc.size
            if size > self.capacity_bytes:
                # bypass: stream directly from/to DRAM
                bypass += size
                policy.on_access(b, pos)
                continue
            if b in resident:
                policy.on_access(b, pos)
            else:
                if acc.kind == "read" and acc.last_use:
                    # final read: stream from DRAM without installing —
                    # the kernel consumes a dying tensor, so caching it
                    # would only evict useful residents (no-allocate on
                    # last use)
                    bytes_in += size
                    fetches += 1
                    continue
                evict_for(size, pos)
                if acc.kind == "read":
                    bytes_in += size
                    fetches += 1
                resident[b] = size
                used += size
                policy.on_access(b, pos)
            if acc.kind == "write":
                dirty.add(b)
            if acc.last_use:
                if b in resident:
                    used -= resident.pop(b)
                dirty.discard(b)
                if isinstance(policy, FIFOPolicy):
                    policy.note_eviction(b)

        return TrafficReport(
            capacity_bytes=self.capacity_bytes,
            policy=self.policy,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            fetches=fetches,
            writebacks=writebacks,
            bypass_bytes=bypass,
            accesses=len(trace.accesses),
        )


def offchip_traffic(
    graph: Graph,
    schedule: Schedule,
    capacity_bytes: int,
    policy: str = "belady",
    model: BufferModel | None = None,
    tile_bytes: int | None = None,
) -> TrafficReport:
    """Convenience: trace + simulate in one call.

    ``tile_bytes=None`` uses the trace builder's default granularity;
    pass an explicit value (or ``0`` for whole-tensor transfers) to
    override.
    """
    tile_bytes = resolve_tile_bytes(tile_bytes)
    trace = build_trace(graph, schedule, model=model, tile_bytes=tile_bytes)
    report = MemoryHierarchySimulator(capacity_bytes, policy).run(trace)
    return replace(report, tile_bytes=tile_bytes)
