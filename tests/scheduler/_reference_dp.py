"""Reference DP: the per-transition dict loop the array kernel replaced.

This is ``DPScheduler.schedule`` as it stood before the DP was
vectorised (one Python ``dict`` of states per search step, one
``BufferModel.step`` call per transition), kept as the differential
oracle for ``repro.scheduler.dp``: ``test_dp_differential.py`` requires
the kernel to agree with it on order, peak, every counter and on which
exception is raised at which step. It is test-only on purpose — do not
optimise it, its value is that it is obviously Algorithm 1.

One edit since it was frozen follows the kernel's tie-break contract:
each step visits its states in ascending downset-mask order
(``sorted(states.items())``) rather than in dict insertion (first-seen)
order. Among equal ``(peak, adj)`` the first transition visited wins,
so the survivor is the least ``(parent mask, u)``, which does not
depend on which other states a budget pruned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.exceptions import NoSolutionError, StepTimeoutError
from repro.graph.analysis import bits
from repro.graph.graph import Graph
from repro.scheduler.dp import DPResult
from repro.scheduler.memory import BufferModel
from repro.scheduler.schedule import Schedule


@dataclass
class ReferenceDPScheduler:
    """The dict-loop Algorithm 1 runner, field-compatible with
    :class:`repro.scheduler.dp.DPScheduler`.

    Parameters
    ----------
    budget:
        Soft peak-memory budget ``tau`` in bytes; ``None`` disables
        pruning (pure Algorithm 1).
    max_states_per_step:
        Deterministic cap on unique states per search step — the
        reproducible stand-in for the paper's per-step wall-clock limit
        ``T`` (still available as ``step_timeout_s``).
    preallocated:
        Node names whose buffers are live before scheduling starts (used
        by divide-and-conquer: the upstream cut activation). They must
        form a valid schedulable prefix (typically ``input`` stubs).
    """

    budget: int | None = None
    max_states_per_step: int | None = None
    step_timeout_s: float | None = None
    preallocated: tuple[str, ...] = ()

    def schedule(self, graph: Graph, model: BufferModel | None = None) -> DPResult:
        t0 = time.perf_counter()
        model = model or BufferModel.of(graph)
        idx = model.index
        n = idx.n
        budget = self.budget

        # --- seed state (possibly with preallocated entry tensors) -----
        scheduled0, mu0, peak0 = 0, 0, 0
        for name in self.preallocated:
            u = idx.index[name]
            if idx.preds_mask[u] & ~scheduled0:
                raise NoSolutionError(
                    budget or 0,
                    f"preallocated node {name!r} has unscheduled predecessors",
                )
            transient, mu0, scheduled0 = model.step(scheduled0, mu0, u)
            peak0 = max(peak0, transient)
        frontier0 = idx.frontier_of(scheduled0)

        # state: mask -> [mu, peak, frontier, adjacency-penalty];
        # parent: mask -> (pmask, u). The adjacency penalty (0 when the
        # chosen node consumes the previously scheduled node's output) is
        # a tie-break among equal-peak paths: producer->consumer
        # adjacency costs nothing in peak but improves cache locality of
        # the emitted schedule (measured in Fig 11).
        states: dict[int, list[int]] = {scheduled0: [mu0, peak0, frontier0, 0]}
        parents: dict[int, tuple[int, int]] = {}
        expanded = 0
        memoized = 1
        max_step_states = 1
        preset = scheduled0.bit_count()

        succs = idx.succs
        preds_mask = idx.preds_mask
        step_fn = model.step

        for step in range(preset, n):
            step_start = time.perf_counter() if self.step_timeout_s else 0.0
            nxt: dict[int, list[int]] = {}
            nxt_parents: dict[int, tuple[int, int]] = {}
            for mask, (mu, peak, frontier, _) in sorted(states.items()):
                prev = parents.get(mask)
                prev_u = prev[1] if prev is not None else -1
                for u in bits(frontier):
                    transient, mu2, new_mask = step_fn(mask, mu, u)
                    new_peak = peak if peak >= transient else transient
                    if budget is not None and new_peak > budget:
                        continue
                    expanded += 1
                    adj = 0 if prev_u >= 0 and (preds_mask[u] >> prev_u) & 1 else 1
                    cur = nxt.get(new_mask)
                    if cur is None:
                        new_frontier = frontier & ~(1 << u)
                        for s in succs[u]:
                            if not (preds_mask[s] & ~new_mask):
                                new_frontier |= 1 << s
                        nxt[new_mask] = [mu2, new_peak, new_frontier, adj]
                        nxt_parents[new_mask] = (mask, u)
                        if self.max_states_per_step is not None and len(nxt) > self.max_states_per_step:
                            raise StepTimeoutError(step, len(nxt))
                    elif (new_peak, adj) < (cur[1], cur[3]):
                        cur[0], cur[1], cur[3] = mu2, new_peak, adj
                        nxt_parents[new_mask] = (mask, u)
                if (
                    self.step_timeout_s is not None
                    and time.perf_counter() - step_start > self.step_timeout_s
                ):
                    raise StepTimeoutError(step, len(nxt))
            if not nxt:
                raise NoSolutionError(
                    budget if budget is not None else 0,
                    f"search step {step}: every path exceeds the budget",
                )
            parents.update(nxt_parents)
            states = nxt
            memoized += len(nxt)
            if len(nxt) > max_step_states:
                max_step_states = len(nxt)

        # --- reconstruct -------------------------------------------------
        (final_mask, (mu, peak, _, _)) = next(iter(states.items()))
        assert final_mask == idx.full_mask
        rev: list[int] = []
        mask = final_mask
        while mask != scheduled0:
            pmask, u = parents[mask]
            rev.append(u)
            mask = pmask
        order = list(self.preallocated) + [idx.order[u] for u in reversed(rev)]
        return DPResult(
            schedule=Schedule(tuple(order), graph.name),
            peak_bytes=int(peak),
            states_expanded=expanded,
            states_memoized=memoized,
            max_step_states=max_step_states,
            wall_time_s=time.perf_counter() - t0,
            budget=budget,
        )
