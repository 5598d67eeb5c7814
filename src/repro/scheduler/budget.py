"""Adaptive soft budgeting (paper Algorithm 2, Fig 8).

A meta binary-search around the DP scheduler. The *hard budget*
``tau_max`` is ``min(Kahn peak, greedy peak)``: the paper takes Kahn's
O(|V|+|E|) schedule, and the greedy one is as cheap and often tighter.
Both are feasible, so any ``tau >= tau_max`` is pointless to probe, and
no budget ``>= mu*`` moves the DP's answer (:mod:`repro.scheduler.dp`).
The *soft budget* ``tau`` is then searched:

* ``'timeout'`` (a DP search step blew its state/time allowance — too
  little pruning) → halve ``tau``;
* ``'no solution'`` (every path was pruned — ``tau`` fell below the
  optimum ``mu*``) → move ``tau`` back up halfway toward the last
  not-infeasible value;
* ``'solution'`` → done: the schedule is optimal, because pruning at
  ``tau >= mu*`` never removes *all* optimal paths.

The number of explored schedules grows monotonically with ``tau``
(Fig 8(b)), which is what makes the bisection sound. On top of the
paper's scheme we track an explicit infeasible lower bound so repeated
"no solution" probes cannot oscillate, and we guarantee termination with
a final uncapped fallback run at ``tau_max`` if the probe allowance is
exhausted (in practice the search converges in a handful of probes).
It returns exactly the unpruned DP's schedule, as does every successful probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.exceptions import BudgetSearchError, NoSolutionError, StepTimeoutError
from repro.graph.graph import Graph
from repro.scheduler.dp import DPResult, DPScheduler
from repro.scheduler.greedy import greedy_schedule
from repro.scheduler.memory import BufferModel, simulate_schedule
from repro.scheduler.schedule import Schedule
from repro.scheduler.topological import kahn_schedule

__all__ = ["AdaptiveSoftBudgetScheduler", "BudgetProbe", "BudgetSearchResult"]


@dataclass(frozen=True)
class BudgetProbe:
    """One DP invocation inside the meta-search."""

    tau: int
    outcome: str  # 'solution' | 'no solution' | 'timeout'
    wall_time_s: float
    #: transitions the DP evaluated, whatever the outcome
    states_expanded: int = 0


@dataclass(frozen=True)
class BudgetSearchResult:
    """Final schedule plus the meta-search trajectory."""

    result: DPResult
    hard_budget: int
    probes: tuple[BudgetProbe, ...]

    @property
    def schedule(self) -> Schedule:
        return self.result.schedule

    @property
    def peak_bytes(self) -> int:
        return self.result.peak_bytes

    @property
    def total_wall_time_s(self) -> float:
        return sum(p.wall_time_s for p in self.probes)

    @property
    def total_states_expanded(self) -> int:
        """Over *all* probes; ``result.states_expanded`` is the last one's."""
        return sum(p.states_expanded for p in self.probes)


@dataclass
class AdaptiveSoftBudgetScheduler:
    """Algorithm 2 driver around :class:`DPScheduler`.

    ``max_states_per_step`` is the per-step allowance whose overrun
    constitutes a 'timeout' (deterministic stand-in for the paper's
    hyperparameter ``T``; use ``step_timeout_s`` for true wall-clock).
    """

    max_states_per_step: int | None = 50_000
    step_timeout_s: float | None = None
    max_probes: int = 24
    preallocated: tuple[str, ...] = ()

    def schedule(
        self, graph: Graph, model: BufferModel | None = None
    ) -> BudgetSearchResult:
        model = model or BufferModel.of(graph)

        # Both baselines start from scratch; a preallocated prefix must
        # lead each schedule for simulation.
        pre = tuple(self.preallocated)
        tau_max = min(
            simulate_schedule(
                graph,
                Schedule(pre + tuple(n for n in s.order if n not in pre), graph.name),
                model=model,
            ).peak_bytes
            for s in (kahn_schedule(graph), greedy_schedule(graph, model))
        )

        probes: list[BudgetProbe] = []
        tau_old = tau_max
        tau = tau_max
        infeasible_lo = -1  # largest tau known to yield 'no solution'

        for _ in range(self.max_probes):
            runner = DPScheduler(
                budget=tau,
                max_states_per_step=self.max_states_per_step,
                step_timeout_s=self.step_timeout_s,
                preallocated=self.preallocated,
            )
            t0 = time.perf_counter()
            try:
                result = runner.schedule(graph, model=model)
            except StepTimeoutError as exc:
                probes.append(
                    BudgetProbe(
                        tau, "timeout", time.perf_counter() - t0, exc.states_expanded
                    )
                )
                tau_old, tau = tau, tau // 2
            except NoSolutionError as exc:
                probes.append(
                    BudgetProbe(
                        tau, "no solution", time.perf_counter() - t0, exc.states_expanded
                    )
                )
                infeasible_lo = max(infeasible_lo, tau)
                tau_old, tau = tau, (tau + tau_old) // 2
            else:
                probes.append(
                    BudgetProbe(
                        tau,
                        "solution",
                        time.perf_counter() - t0,
                        result.states_expanded,
                    )
                )
                return BudgetSearchResult(
                    result=result, hard_budget=tau_max, probes=tuple(probes)
                )
            # keep the probe strictly above the known-infeasible floor and
            # strictly below repeats
            tau = max(tau, infeasible_lo + 1)
            if probes and tau == probes[-1].tau:
                tau = min(tau + max(1, (tau_max - tau) // 2), tau_max)
            if tau >= tau_max and probes[-1].outcome == "timeout":
                break  # pruning cannot help; fall through to fallback

        # Fallback: guaranteed-feasible unpruned run at the hard budget.
        t0 = time.perf_counter()
        try:
            result = DPScheduler(
                budget=tau_max, preallocated=self.preallocated
            ).schedule(graph, model=model)
        except (NoSolutionError, StepTimeoutError) as exc:  # pragma: no cover
            raise BudgetSearchError(
                f"budget search failed to converge after {len(probes)} probes"
            ) from exc
        probes.append(
            BudgetProbe(
                tau_max, "solution", time.perf_counter() - t0, result.states_expanded
            )
        )
        return BudgetSearchResult(
            result=result, hard_budget=tau_max, probes=tuple(probes)
        )
