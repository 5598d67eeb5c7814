"""Dynamic byte-bounds shadow checker for the plan executor.

The static verifier (:mod:`repro.analysis.verifier`) proves plan
invariants from the plan documents; this module is its runtime
cross-check. It walks a :class:`~repro.runtime.plan_executor.PlanExecutor`'s
*compiled* step table — the exact ``(kind, name, site, fn, args, ...)``
rows the hot loop executes, with every NumPy view already bound into
the persistent arena — and re-proves the byte-level safety properties
over the real addresses, without invoking a single kernel:

* every view lands inside its declared region (``SHADOW_OOB``): the
  resident arena row within the plan's promised bytes, spilled homes
  within the declared spill region;
* every byte a row reads was written by an earlier row in the same run
  (``SHADOW_UNWRITTEN_READ``) — this is what makes the spill plan's
  fetch-after-first-write / writeback-iff-dirty-and-needed dataflow
  observable: a fetch reads home bytes that only a preceding writeback
  can have produced;
* transfers are walked as what they are, hop lists ``((dst, src,
  linked), ...)``: a ``_STEP_MOVE`` row is its hops in order (a later
  hop may read what the previous one wrote). Prefetch jobs are proven
  against the asynchronous DMA contract of a device, which is stricter
  than the executor (that copies each job at its enqueue row, one
  legal interleaving of the contract): ``_STEP_ENQUEUE`` registers its
  hops as in-flight copies that may land any time before their sync,
  ``_STEP_SYNC`` completes every job up to its watermark, the FIFO
  serialises jobs against each other — no synchronous row may touch an
  in-flight destination, or write an in-flight source
  (``SHADOW_RACE``).

Because views are compared by their actual byte bounds (via NumPy's
``byte_bounds``), this catches disagreements between the plan documents
and the executor's binding of them — the class of bug the static
analyzer cannot see. Batched tables are checked per-sample: rows are
layout-identical, so every view is mapped to its row-0 byte range.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis.diagnostics import ERROR, AnalysisReport, Diagnostic
from repro.analysis.verifier import _covers, _ranges_overlap
from repro.runtime.plan_executor import _range_add

try:  # numpy >= 2.0
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # pragma: no cover - numpy 1.x
    byte_bounds = np.byte_bounds  # type: ignore[attr-defined]

__all__ = ["shadow_check"]


class _Pending:
    """One in-flight prefetch job (enqueued, not yet synced)."""

    __slots__ = ("job", "name", "dst", "src")

    def __init__(
        self,
        job: int,
        name: str,
        dst: tuple[str, int, int],
        src: tuple[str, int, int],
    ) -> None:
        self.job = job
        self.name = name
        self.dst = dst
        self.src = src


def _walk_plan(px: Any, plan: Any, n: int, diags: list[Diagnostic]) -> None:
    from repro.runtime.plan_executor import (
        _STEP_COPY,
        _STEP_DIRECT,
        _STEP_ENQUEUE,
        _STEP_INPUT,
        _STEP_MOVE,
        _STEP_SYNC,
    )

    itemsize = px._itemsize
    tag = f"shadow@batch{n}"

    # declared byte budgets per region: the numbers the plan *promises*,
    # not the (possibly larger) allocation the executor defends with
    if px.spill is not None:
        arena_decl = px._layout.resident_bytes
    else:
        arena_decl = px.plan.arena_bytes
    regions: list[tuple[str, int, int, int]] = []
    a_lo, a_hi = byte_bounds(px._arena)
    regions.append(("arena", a_lo, a_hi, arena_decl))
    if px.spill is not None and px._spill_arena.size:
        s_lo, s_hi = byte_bounds(px._spill_arena)
        regions.append(("spill", s_lo, s_hi, px.spill.spill_bytes))
    # tile streaming: each spilled buffer's scratch backing store is its
    # own region, declared at the buffer's per-sample byte size
    for b, scr in px._scratch.items():
        c_lo, c_hi = byte_bounds(scr)
        regions.append((f"scratch:{b}", c_lo, c_hi, px.model.buf_size[b]))

    # the arena's storage cells may be wider than the plan's accounting
    # itemsize (offsets are bound in element units); map real addresses
    # back to plan byte units so ranges compare against declared bytes
    cell = px._arena.dtype.itemsize

    def locate(view: np.ndarray) -> tuple[str, int, int, int] | None:
        lo, hi = byte_bounds(view)
        for rname, b_lo, b_hi, decl in regions:
            if b_lo <= lo and hi <= b_hi:
                rel = (lo - b_lo) // cell * itemsize
                span = (view.size // n) * itemsize
                return (rname, rel, rel + span, decl)
        return None

    def resolve(
        view: np.ndarray, oi: int, name: str, role: str
    ) -> tuple[str, int, int] | None:
        where = locate(view)
        if where is None:
            diags.append(
                Diagnostic(
                    code="SHADOW_REGION",
                    severity=ERROR,
                    message=f"{name!r} {role} view is bound outside every "
                    "known arena region",
                    step=oi,
                    node=name,
                    plan=tag,
                )
            )
            return None
        rname, lo, hi, decl = where
        if lo < 0 or hi > decl:
            diags.append(
                Diagnostic(
                    code="SHADOW_OOB",
                    severity=ERROR,
                    message=f"{name!r} {role} occupies {rname} bytes "
                    f"[{lo}, {hi}) beyond the declared {decl}-byte region",
                    step=oi,
                    node=name,
                    byte_range=(lo, hi),
                    plan=tag,
                )
            )
        return (rname, lo, hi)

    written: dict[str, list[tuple[int, int]]] = {
        rname: [] for rname, *_rest in regions
    }
    pending: list[_Pending] = []
    job_no = 0

    def written_plus_pending(rname: str) -> list[tuple[int, int]]:
        tmp = list(written[rname])
        for p in pending:
            if p.dst[0] == rname:
                _range_add(tmp, p.dst[1], p.dst[2])
        return tmp

    for oi, row in enumerate(plan.steps):
        kind, name, site, _fn, args, attrs = row[:6]
        if kind == _STEP_SYNC:
            watermark = int(attrs)
            done = [p for p in pending if p.job <= watermark]
            pending[:] = [p for p in pending if p.job > watermark]
            for p in done:
                _range_add(written[p.dst[0]], p.dst[1], p.dst[2])
            continue
        if kind == _STEP_ENQUEUE:
            job_no += 1
            # hops execute in order inside one job, so a later hop's
            # source may be a previous hop's destination (slot handoff)
            for dst_view, src_view, _linked in attrs:
                dst = resolve(dst_view, oi, name, "engine destination")
                src = resolve(src_view, oi, name, "engine source")
                if dst is None or src is None:
                    continue
                # FIFO jobs serialise against each other, so an enqueue
                # may legally overlap in-flight jobs; its source must
                # still be produced by something — an earlier
                # synchronous write, an earlier FIFO job's destination,
                # or this job's previous hop
                if not _covers(written_plus_pending(src[0]), src[1], src[2]):
                    diags.append(
                        Diagnostic(
                            code="SHADOW_UNWRITTEN_READ",
                            severity=ERROR,
                            message=f"{name!r} enqueues a copy of {src[0]} "
                            f"bytes [{src[1]}, {src[2]}) that no earlier "
                            "step or engine job wrote",
                            step=oi,
                            node=name,
                            byte_range=(src[1], src[2]),
                            plan=tag,
                        )
                    )
                pending.append(_Pending(job_no, name, dst, src))
            continue

        # synchronous rows as (written view, read views) in execution
        # order: a kernel or input row is one, a move is one per hop
        if kind == _STEP_MOVE:
            ops = [(dst_view, (src_view,)) for dst_view, src_view, _l in attrs]
        elif kind in (_STEP_INPUT, _STEP_DIRECT, _STEP_COPY):
            ops = [(site, args)]
        else:  # future step kinds must be modelled
            diags.append(
                Diagnostic(
                    code="SHADOW_REGION",
                    severity=ERROR,
                    message=f"unknown step kind {kind!r} at {name!r}",
                    step=oi,
                    node=name,
                    plan=tag,
                )
            )
            continue
        for dst_view, src_views in ops:
            w = resolve(dst_view, oi, name, "site")
            writes = [w] if w else []
            reads = [
                r
                for j, arg in enumerate(src_views)
                if (r := resolve(arg, oi, name, f"input {j}"))
            ]

            # race model: a synchronous row must not read or write
            # bytes an in-flight engine copy is producing, nor
            # overwrite bytes one is still consuming
            for p in pending:
                for rname, lo, hi in writes:
                    for role, (prname, plo, phi) in (
                        ("destination", p.dst),
                        ("source", p.src),
                    ):
                        if rname == prname and _ranges_overlap(lo, hi, plo, phi):
                            diags.append(
                                Diagnostic(
                                    code="SHADOW_RACE",
                                    severity=ERROR,
                                    message=f"{name!r} writes {rname} bytes "
                                    f"[{max(lo, plo)}, {min(hi, phi)}) while "
                                    f"engine job {p.job} ({p.name!r}) still "
                                    f"holds them as its {role}",
                                    step=oi,
                                    node=name,
                                    byte_range=(max(lo, plo), min(hi, phi)),
                                    plan=tag,
                                )
                            )
                for rname, lo, hi in reads:
                    prname, plo, phi = p.dst
                    if rname == prname and _ranges_overlap(lo, hi, plo, phi):
                        diags.append(
                            Diagnostic(
                                code="SHADOW_RACE",
                                severity=ERROR,
                                message=f"{name!r} reads {rname} bytes "
                                f"[{max(lo, plo)}, {min(hi, phi)}) that "
                                f"engine job {p.job} ({p.name!r}) is still "
                                "writing",
                                step=oi,
                                node=name,
                                byte_range=(max(lo, plo), min(hi, phi)),
                                plan=tag,
                            )
                        )

            for rname, lo, hi in reads:
                if not _covers(written_plus_pending(rname), lo, hi):
                    diags.append(
                        Diagnostic(
                            code="SHADOW_UNWRITTEN_READ",
                            severity=ERROR,
                            message=f"{name!r} reads {rname} bytes "
                            f"[{lo}, {hi}) that no earlier step in this "
                            "run wrote",
                            step=oi,
                            node=name,
                            byte_range=(lo, hi),
                            plan=tag,
                        )
                    )
            for rname, lo, hi in writes:
                _range_add(written[rname], lo, hi)
    # leftover pending jobs are legal: the run loop drains the FIFO
    # (waits for its last job) before returning


def shadow_check(px: Any) -> AnalysisReport:
    """Byte-bounds replay of an executor's compiled step tables.

    Takes a live :class:`~repro.runtime.plan_executor.PlanExecutor` and
    checks every compiled table — one per batch width: 1 and
    ``batch_size`` from construction, plus any width already run.
    Returns an :class:`AnalysisReport`; ``report.ok`` means every read
    is covered, every view in bounds and no engine transfer can race
    compute.
    """
    diags: list[Diagnostic] = []
    checks: list[str] = []
    for nb, plan in sorted(px._run_plans.items()):
        checks.append(f"shadow@batch{nb}")
        _walk_plan(px, plan, nb, diags)
    return AnalysisReport(
        target=px.graph.name,
        diagnostics=tuple(diags),
        checks=tuple(checks),
        level="full",
    )
