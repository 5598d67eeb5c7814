"""Dynamic-programming memory-optimal scheduler (paper Algorithm 1).

The search sweeps *search steps* ``i = 0 .. n-1``; the states at step
``i`` are the downsets (scheduled sets) of size ``i``. The paper keys
states by the zero-indegree set ``z``; the two are equivalent (``z``
uniquely determines the downset — see
:meth:`repro.graph.analysis.GraphIndex.downset_of_frontier`) and the
downset mask is cheaper to maintain incrementally. Among schedules
reaching the same downset it is sufficient to keep one with minimal peak
(paper Theorem 1 — re-proved against brute force in the test suite,
including for graphs with buffer aliasing).

**State layout.** A search step is a set of parallel NumPy arrays, one
row per state: the downset as ``ceil(n / 64)`` ``uint64`` *columns* (bit
``u % 64`` of column ``u // 64`` is node ``u``), ``mu``, ``peak`` and
``prev_u`` (the node scheduled last on the memoised path, -1 for the
seed). One step is one array sweep: for each node ``u`` a vectorised
pass finds the states where ``u`` is ready and applies
:meth:`~repro.scheduler.memory.BufferModel.step` to all of them from the
constants in :attr:`BufferModel.node_tables`. The passes' candidate
rows are concatenated and sorted by the downset alone (``np.argsort`` of
one column, ``np.lexsort`` of several), which puts the transitions
reaching each new state next to each other; one ``np.minimum.reduceat``
over a packed rank then picks every group's survivor. Parent pointers
are one ``int64`` array of order keys per step.

**Tie-break contract.** A step's states are kept in downset-mask order.
Of the transitions reaching one new state, the survivor is the
lexicographic minimum of ``(peak, adj, parent mask, u)``: ``peak`` is
the running peak along the path; ``adj`` is 0 when ``u`` consumes
``prev_u``'s output, else 1 (producer->consumer adjacency costs nothing
in peak but improves cache locality of the emitted schedule, measured in
Fig 11); the last two travel as ``key = parent_pos * n + u``, which
orders like ``(parent mask, u)``. The kernel packs the triple into one
``int64`` rank ``(peak * 2 + adj) * span + key``, where ``span = states
* n`` exceeds every key, so the least rank is the least triple (and
unique, as keys are). **Overflow rule:** when ``(2 * max_peak + 2) *
span`` exceeds ``2**63`` the pack would wrap silently, so ``peak`` is
first replaced by its dense rank among the step's peaks (same order,
below the row count). The per-transition loop in ``tests/scheduler/_reference_dp.py``
computes the same, visiting states in mask order;
``test_dp_differential.py`` and ``test_dp_golden.py`` hold the kernel to
it, the overflow branch included.

**A budget ``tau >= OPT`` returns the unpruned schedule.** ``mu`` is a
function of the mask alone. Every transition on an optimal path has
running peak ``<= OPT <= tau``, so it survives. Surviving states keep
their relative mask order, so every comparison among surviving
transitions is the one the unpruned run makes. By induction, every state
whose best peak is ``<= tau`` keeps its winner, the final state included.

**Pruning controls** (driven by Algorithm 2, adaptive soft budgeting):

* ``budget`` — discard transitions whose running peak exceeds the soft
  budget ``tau``; may render the problem infeasible, raising
  :class:`~repro.exceptions.NoSolutionError` (the paper's "no solution").
* ``max_states_per_step`` / ``step_timeout_s`` — deterministic and
  wall-clock caps per search step, judged when the step's sweep is
  complete, raising :class:`~repro.exceptions.StepTimeoutError` (the
  paper's "timeout").

Either exception carries ``states_expanded``, the transitions evaluated
up to and including the failing step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import NoSolutionError, StepTimeoutError
from repro.graph.graph import Graph
from repro.scheduler.memory import BufferModel, Words, mask_words
from repro.scheduler.schedule import Schedule

__all__ = ["DPScheduler", "DPResult", "dp_schedule"]


@dataclass(frozen=True)
class DPResult:
    """Outcome of one DP run."""

    schedule: Schedule
    peak_bytes: int
    #: transitions evaluated (expanded edges of the search DAG)
    states_expanded: int
    #: unique memoised states summed over all search steps
    states_memoized: int
    #: widest single search step (max unique states at any step)
    max_step_states: int
    wall_time_s: float
    #: soft budget in force, if any
    budget: int | None = None

    @property
    def peak_kib(self) -> float:
        return self.peak_bytes / 1024.0


@dataclass
class DPScheduler:
    """Configurable Algorithm 1 runner.

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
        cap = self.max_states_per_step
        timeout = self.step_timeout_s

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

        seed = dict(mask_words(scheduled0))
        cols = [
            np.array([seed.get(w, 0)], dtype=np.uint64) for w in range(max(1, -(-n // 64)))
        ]
        mu = np.array([mu0], dtype=np.int64)
        peak = np.array([peak0], dtype=np.int64)
        prev_u = np.array([-1], dtype=np.int64)
        #: per search step, the winning order key of each state
        trail: list[np.ndarray] = []
        expanded = 0
        memoized = 1
        max_step_states = 1
        tables = model.node_tables
        preds_mask = idx.preds_mask

        for step in range(scheduled0.bit_count(), n):
            step_start = time.perf_counter()
            # a node every state has scheduled, or with a predecessor no
            # state has, is ready nowhere: skip its pass
            in_all = _join(np.bitwise_and.reduce(c) for c in cols)
            in_any = _join(np.bitwise_or.reduce(c) for c in cols)
            passes: list[tuple] = []
            for u in range(n):
                if (in_all >> u) & 1 or preds_mask[u] & ~in_any:
                    continue
                t = tables[u]
                ready = ((cols[t.word] & t.bit) == 0) & _all_set(cols, t.preds)
                sel = ready.nonzero()[0]
                sub = [c[sel] for c in cols]
                fresh: np.ndarray | bool = True  # u's buffer not allocated yet
                for w, m in t.co_members:
                    fresh = fresh & ((sub[w] & m) == 0)
                mu_u = mu[sel] + t.size * fresh
                peak_u = np.maximum(peak[sel], mu_u)
                if budget is not None:
                    keep = peak_u <= budget
                    if not keep.all():
                        sel, mu_u, peak_u = sel[keep], mu_u[keep], peak_u[keep]
                        sub = [c[keep] for c in sub]
                if not sel.size:
                    continue
                for size, others in t.frees:
                    mu_u -= size * _all_set(sub, others)
                sub[t.word] = sub[t.word] | t.bit
                passes.append(
                    (mu_u, peak_u, t.adjacency[prev_u[sel] + 1], sel * n + u, *sub)
                )
                expanded += len(sel)
            if not passes:
                raise NoSolutionError(
                    budget if budget is not None else 0,
                    f"search step {step}: every path exceeds the budget",
                    states_expanded=expanded,
                )
            mu, peak, adj, key, *cols = (np.concatenate(rows) for rows in zip(*passes))

            # group equal masks together ...
            order = np.argsort(cols[0]) if len(cols) == 1 else np.lexsort(cols)
            differs = [c[1:] != c[:-1] for c in (c[order] for c in cols)]
            starts = np.append(0, np.logical_or.reduce(differs).nonzero()[0] + 1)
            if cap is not None and len(starts) > cap:
                raise StepTimeoutError(step, cap + 1, states_expanded=expanded)
            # ... keep each group's least (peak, adj, key), packed in one rank ...
            span = len(prev_u) * n  # exceeds every key
            hi = peak
            if (int(peak.max()) + 1) * 2 * span > 1 << 63:  # the pack would overflow
                hi = np.unique(peak, return_inverse=True)[1]  # dense rank, same order
            rank = ((hi * 2 + adj) * span + key)[order]
            best = np.repeat(np.minimum.reduceat(rank, starts), np.diff(starts, append=len(rank)))
            winners = order[rank == best]  # one per group, in mask order
            if timeout is not None and time.perf_counter() - step_start > timeout:
                raise StepTimeoutError(step, len(winners), states_expanded=expanded)

            mu, peak, cols = mu[winners], peak[winners], [c[winners] for c in cols]
            trail.append(key[winners])
            prev_u = trail[-1] % n
            memoized += len(winners)
            max_step_states = max(max_step_states, len(winners))

        # --- reconstruct -------------------------------------------------
        assert len(mu) == 1 and _join(c[0] for c in cols) == idx.full_mask
        rev: list[int] = []
        pos = 0
        for keys in reversed(trail):
            pos, u = divmod(int(keys[pos]), n)
            rev.append(u)
        order_names = list(self.preallocated) + [idx.order[u] for u in reversed(rev)]
        return DPResult(
            schedule=Schedule(tuple(order_names), graph.name),
            peak_bytes=int(peak[0]),
            states_expanded=expanded,
            states_memoized=memoized,
            max_step_states=max_step_states,
            wall_time_s=time.perf_counter() - t0,
            budget=budget,
        )


def _join(words) -> int:
    """Python-int bitmask from its 64-bit words, least significant first."""
    return sum(int(word) << (64 * w) for w, word in enumerate(words))


def _all_set(cols: list[np.ndarray], words: Words) -> np.ndarray | bool:
    """Per row: does the mask contain every bit of ``words``?"""
    out: np.ndarray | bool = True
    for w, m in words:
        out = out & ((cols[w] & m) == m)
    return out


def dp_schedule(graph: Graph, **kwargs) -> DPResult:
    """Convenience wrapper: ``DPScheduler(**kwargs).schedule(graph)``."""
    return DPScheduler(**kwargs).schedule(graph)
