"""The frozen compile artifact: graph + schedule + arena plan in one file.

A :class:`CompiledModel` is the pipeline's end product — everything a
runtime needs to execute a network inside a fixed memory budget, with
nothing left to decide at load time:

* the **scheduled graph** (rewritten when the strategy rewrites),
* the **schedule** — the memory-aware execution order,
* the **allocation plan** — a byte offset per buffer inside one arena,
* the originating **device spec** and compilation metadata.

Artifacts serialise to a single versioned JSON document, round-tripping
through :mod:`repro.graph.serialization` for the graph and
:mod:`repro.allocator.export` for the plan. Both the source graph's and
the scheduled graph's canonical :func:`~repro.graph.serialization.graph_signature`
are embedded, so an artifact can be matched against the persistent
:class:`~repro.scheduler.cache.ScheduleCache` (same keys) and a loaded
document is verified against the graph it carries — a tampered or
corrupted artifact fails loudly instead of executing a wrong plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.memsim.hierarchy import OffchipLink
    from repro.runtime.executor import Params
    from repro.runtime.plan_executor import PlanExecutor

from repro.allocator.arena import AllocationPlan
from repro.allocator.export import plan_to_dict
from repro.allocator.lifetimes import compute_lifetimes
from repro.allocator.spill import SpillPlan, min_capacity_bytes, plan_spill
from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.graph.serialization import (
    graph_from_dict,
    graph_signature,
    graph_to_dict,
)
from repro.scheduler.device import DeviceSpec
from repro.scheduler.memory import BufferModel
from repro.scheduler.schedule import Schedule

__all__ = ["CompiledModel", "ARTIFACT_FORMAT"]

ARTIFACT_FORMAT = "repro-compiled/1"


@dataclass(frozen=True)
class CompiledModel:
    """One network, compiled: executable graph, order, and arena layout."""

    #: the graph the schedule and plan target (rewritten when the
    #: compiling strategy rewrites; the *executable* graph)
    graph: Graph
    schedule: Schedule
    plan: AllocationPlan
    #: canonical signature of the *source* graph (ScheduleCache key)
    source_signature: str
    #: canonical signature of :attr:`graph`
    signature: str
    #: registry name of the strategy that produced the schedule
    strategy: str
    device: DeviceSpec | None = None
    #: free-form compilation metadata (timings, cache provenance, ...)
    meta: dict[str, Any] = field(default_factory=dict)
    #: tiered-arena layouts precomputed per on-chip capacity (embedded
    #: in the artifact; :meth:`spill_plan` serves/extends them)
    spill_plans: tuple[SpillPlan, ...] = ()

    # ------------------------------------------------------------------
    @property
    def arena_bytes(self) -> int:
        """The arena capacity the runtime must provision."""
        return self.plan.arena_bytes

    @property
    def fits_device(self) -> bool | None:
        """Budget verdict against :attr:`device` (None without one)."""
        if self.device is None:
            return None
        return self.plan.arena_bytes <= self.device.sram_bytes

    def arena_bytes_for(self, batch_size: int) -> int:
        """Arena bytes a batch-capable executor of this model provisions.

        The batched layout is ``batch_size`` per-sample rows, so peak
        memory scales linearly: every planned offset and lifetime is
        reused per row, and admission control can price a batch-``N``
        executor as exactly ``N x`` the compiled plan.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self.plan.arena_bytes * batch_size

    @property
    def spill_floor_bytes(self) -> int:
        """Irreducible on-chip capacity of this schedule: the largest
        single-step working set (whole buffers are staged to be
        touched). No spill plan can execute below this; memoised.
        Tile streaming goes lower — see :meth:`spill_floor_for`."""
        return self.spill_floor_for(None)

    def spill_floor_for(self, tile_bytes: int | None) -> int:
        """The staging floor at a transfer granularity: the largest
        single-step working set of whole buffers (``tile_bytes=None``)
        or of per-buffer tile slots. Memoised per granularity."""
        cache = self._spill_cache()
        key = ("floor", tile_bytes)
        floor = cache.get(key)
        if floor is None:
            floor = min_capacity_bytes(
                self.graph, self.schedule, tile_bytes=tile_bytes
            )
            cache[key] = floor
        return floor

    def spill_plan(
        self, capacity_bytes: int, tile_bytes: int | None = None
    ) -> SpillPlan:
        """The tiered-arena layout for one on-chip capacity.

        Serves a carried (artifact-embedded) plan when one matches,
        else computes and memoises — spill planning is deterministic in
        ``(graph, schedule, plan, capacity, tile granularity)``, so a
        computed plan equals the one the compiler would have embedded.
        Victims are ranked by Belady (the schedule fixes the whole
        access sequence; the LRU/FIFO ablation lives in
        :func:`~repro.allocator.spill.plan_spill` and ``experiment
        fig11``), so only carried ``belady`` plans are served.
        ``tile_bytes`` switches to tile-streamed staging, whose floor
        (:meth:`spill_floor_for`) sits far below the whole-buffer
        :attr:`spill_floor_bytes`. Raises
        :class:`~repro.exceptions.SpillError` below the applicable
        floor.
        """
        for sp in self.spill_plans:
            if (
                sp.capacity_bytes == capacity_bytes
                and sp.policy == "belady"
                and sp.tile_bytes == tile_bytes
            ):
                return sp
        cache = self._spill_cache()
        key = (capacity_bytes, tile_bytes)
        plan = cache.get(key)
        if plan is None:
            plan = plan_spill(
                self.graph,
                self.schedule,
                self.plan,
                capacity_bytes,
                tile_bytes=tile_bytes,
            )
            cache[key] = plan
        return plan

    def _spill_cache(self) -> dict:
        """Per-instance memo for spill plans (frozen dataclass; lazy)."""
        cache = getattr(self, "_spill_memo", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_spill_memo", cache)
        return cache

    def executor(
        self,
        params: "Params | None" = None,
        seed: int = 0,
        batch_size: int = 1,
        scrub: str = "never",
        spill: SpillPlan | None = None,
        capacity_bytes: int | None = None,
        tile_bytes: int | None = None,
        prefetch: bool = True,
        link: "OffchipLink | None" = None,
    ) -> "PlanExecutor":
        """A ready :class:`~repro.runtime.plan_executor.PlanExecutor`.

        ``batch_size=N`` provisions ``N`` arena rows so ``run_batch``
        can execute up to ``N`` stacked samples per dispatch.
        ``capacity_bytes`` (or an explicit ``spill`` plan) executes
        under a two-region tiered arena whose on-chip region fits that
        capacity, spilled buffers streaming from the off-chip region
        with measured traffic — outputs stay bitwise identical.
        ``tile_bytes`` streams spilled buffers tile by tile instead of
        whole (dropping the admissible capacity floor to the largest
        tile working set). ``prefetch=False`` runs those transfers
        inline instead of overlapping them with compute as prefetch
        jobs;
        ``link`` (an :class:`~repro.memsim.OffchipLink`) models the
        transfer path's bandwidth/latency.
        """
        from repro.runtime.plan_executor import PlanExecutor

        if spill is None and capacity_bytes is not None:
            spill = self.spill_plan(capacity_bytes, tile_bytes=tile_bytes)
        return PlanExecutor(
            self.graph,
            self.schedule,
            self.plan,
            params=params,
            seed=seed,
            batch_size=batch_size,
            scrub=scrub,
            spill=spill,
            prefetch=prefetch,
            link=link,
        )

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        """Serialise to a versioned JSON-compatible document."""
        doc: dict[str, Any] = {
            "format": ARTIFACT_FORMAT,
            "name": self.graph.name,
            "source_signature": self.source_signature,
            "signature": self.signature,
            "strategy": self.strategy,
            "graph": graph_to_dict(self.graph),
            "plan": plan_to_dict(self.graph, self.schedule, plan=self.plan),
            "device": (
                {"name": self.device.name, "sram_bytes": self.device.sram_bytes}
                if self.device is not None
                else None
            ),
            "meta": dict(self.meta),
        }
        if self.spill_plans:
            doc["spill_plans"] = [sp.to_doc() for sp in self.spill_plans]
        return doc

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "CompiledModel":
        """Rebuild and *verify* an artifact document.

        The schedule is re-validated against the carried graph, the
        plan is re-checked for coverage and overlaps, the embedded
        signature must match the graph's recomputed one, and every
        embedded spill plan passes the static verifier's spill checker
        in full (:meth:`SpillPlan.validate` raises
        :class:`~repro.exceptions.SpillError` on its first finding).
        """
        if doc.get("format") != ARTIFACT_FORMAT:
            raise GraphError(
                f"unsupported compiled-model format {doc.get('format')!r}"
            )
        if "graph" not in doc:
            raise GraphError("compiled model is corrupt: missing field 'graph'")
        graph = graph_from_dict(doc["graph"])
        signature = graph_signature(graph)
        if signature != doc.get("signature"):
            raise GraphError(
                "compiled model is corrupt: embedded signature "
                f"{doc.get('signature')!r} does not match the carried graph"
            )
        plan_doc = doc.get("plan")
        if not isinstance(plan_doc, dict):
            raise GraphError(
                "compiled model is corrupt: field 'plan' is missing or "
                "not an object"
            )
        for want in ("schedule", "buffers", "arena_bytes", "strategy"):
            if want not in plan_doc:
                raise GraphError(
                    f"compiled model is corrupt: missing field 'plan.{want}'"
                )
        schedule = Schedule(tuple(plan_doc["schedule"]), graph.name)
        schedule.validate(graph)
        model = BufferModel.of(graph)
        offsets = {}
        for i, ent in enumerate(plan_doc["buffers"]):
            try:
                offsets[int(ent["id"])] = int(ent["offset"])
            except (KeyError, TypeError, ValueError) as exc:
                raise GraphError(
                    "compiled model is corrupt: field "
                    f"'plan.buffers[{i}]' is unreadable ({exc!r})"
                ) from exc
        plan = AllocationPlan(
            strategy=plan_doc["strategy"],
            offsets=offsets,
            arena_bytes=int(plan_doc["arena_bytes"]),
            lifetimes=tuple(compute_lifetimes(graph, schedule, model=model)),
        ).validate()
        device_doc = doc.get("device")
        device = (
            DeviceSpec(device_doc["name"], int(device_doc["sram_bytes"]))
            if device_doc
            else None
        )
        spill_plans = tuple(
            SpillPlan.from_doc(sp).validate(graph, schedule, model)
            for sp in doc.get("spill_plans", ())
        )
        return cls(
            graph=graph,
            schedule=schedule,
            plan=plan,
            source_signature=doc.get("source_signature", signature),
            signature=signature,
            strategy=doc.get("strategy", "unknown"),
            device=device,
            meta=dict(doc.get("meta", {})),
            spill_plans=spill_plans,
        )

    def save(self, path: str | Path) -> Path:
        """Write the artifact as pretty-printed JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_doc(), indent=2))
        return path

    @classmethod
    def load(cls, path: str | Path, *, verify: str = "basic") -> "CompiledModel":
        """Load and verify an artifact written by :meth:`save`.

        Structural validation (format version, signature, schedule and
        plan self-consistency, embedded spill plans in full — see
        :meth:`from_doc`) always runs. ``verify`` additionally
        routes the loaded model through the static plan verifier
        (:mod:`repro.analysis.verifier`): ``"basic"`` (default) proves
        schedule legality and arena/spill/prefetch layout soundness,
        ``"full"`` adds the byte-exact read-coverage replay, ``"none"``
        skips the analyzer. Error-severity findings raise
        :class:`~repro.exceptions.PlanVerificationError` carrying the
        full report.
        """
        from repro.analysis.verifier import VERIFY_LEVELS, analyze_model

        if verify not in VERIFY_LEVELS:
            raise ValueError(
                f"unknown verify level {verify!r}; pick one of {VERIFY_LEVELS}"
            )
        model = cls.from_doc(json.loads(Path(path).read_text()))
        if verify != "none":
            report = analyze_model(model, level=verify)
            if not report.ok:
                from repro.exceptions import PlanVerificationError

                raise PlanVerificationError(report)
        return model
