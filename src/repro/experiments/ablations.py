"""Design-choice ablations beyond the paper's tables (DESIGN.md list).

* allocator strategy: first-fit arena (TFLite simple arena) vs
  ahead-of-time greedy-by-size planning, on every suite cell;
* replacement policy: Belady vs LRU vs FIFO off-chip traffic;
* adaptive-soft-budgeting trajectory: the (tau, outcome) probe sequence
  on a hard segment, showing the Fig 8(b) bisection in action.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.allocator.arena import plan_allocation
from repro.analysis.reporting import format_table
from repro.experiments.common import suite_runs
from repro.memsim.hierarchy import offchip_traffic
from repro.scheduler.budget import AdaptiveSoftBudgetScheduler

__all__ = [
    "allocator_ablation",
    "render_allocator",
    "policy_ablation",
    "render_policy",
    "asb_trajectory",
    "render_trajectory",
]


# ----------------------------------------------------------------------
# allocator strategies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllocRow:
    display: str
    ideal_kb: float  # sum-of-live peak: lower bound for any allocator
    first_fit_kb: float
    greedy_kb: float


def allocator_ablation(keys: list[str] | None = None) -> list[AllocRow]:
    rows = []
    for r in suite_runs(keys):
        rep = r.gr
        ideal = rep.peak_bytes
        ff = plan_allocation(rep.scheduled_graph, rep.schedule, "first_fit")
        gb = plan_allocation(rep.scheduled_graph, rep.schedule, "greedy_by_size")
        rows.append(
            AllocRow(
                display=r.spec.display,
                ideal_kb=ideal / 1024.0,
                first_fit_kb=ff.arena_bytes / 1024.0,
                greedy_kb=gb.arena_bytes / 1024.0,
            )
        )
    return rows


def render_allocator(rows: list[AllocRow]) -> str:
    body = [
        (
            r.display,
            f"{r.ideal_kb:.1f}",
            f"{r.first_fit_kb:.1f}",
            f"{r.greedy_kb:.1f}",
            f"{100 * (r.first_fit_kb / r.ideal_kb - 1):.1f}%",
            f"{100 * (r.greedy_kb / r.ideal_kb - 1):.1f}%",
        )
        for r in rows
    ]
    return format_table(
        ("cell", "ideal KB", "first-fit KB", "greedy KB", "FF overhead", "GB overhead"),
        body,
        title="Ablation - arena allocator strategy (SERENITY schedules)",
    )


# ----------------------------------------------------------------------
# replacement policies
# ----------------------------------------------------------------------
def policy_ablation(
    capacity_kb: int = 256, keys: list[str] | None = None
) -> list[tuple[str, dict[str, int]]]:
    """Per cell: policy -> total off-chip bytes for the SERENITY schedule."""
    out = []
    for r in suite_runs(keys):
        rep = r.gr
        traffic = {
            policy: offchip_traffic(
                rep.scheduled_graph, rep.schedule, capacity_kb * 1024, policy=policy
            ).total_bytes
            for policy in ("belady", "lru", "fifo")
        }
        out.append((r.spec.display, traffic))
    return out


def render_policy(rows, capacity_kb: int = 256) -> str:
    body = [
        (
            display,
            f"{t['belady'] / 1024:.0f}",
            f"{t['lru'] / 1024:.0f}",
            f"{t['fifo'] / 1024:.0f}",
        )
        for display, t in rows
    ]
    return format_table(
        ("cell", "belady KB", "lru KB", "fifo KB"),
        body,
        title=f"Ablation - replacement policy at {capacity_kb}KB on-chip",
    )


# ----------------------------------------------------------------------
# adaptive-soft-budgeting trajectory
# ----------------------------------------------------------------------
def asb_trajectory(graph, max_states_per_step: int = 200):
    """Run ASB with a deliberately tight step allowance so the bisection
    has to work; returns the probe list (tau, outcome, time)."""
    asb = AdaptiveSoftBudgetScheduler(max_states_per_step=max_states_per_step)
    return asb.schedule(graph)


def render_trajectory(result) -> str:
    body = [
        (
            i,
            f"{p.tau / 1024:.1f}KB",
            p.outcome,
            f"{p.wall_time_s * 1000:.1f}ms",
            f"{p.states_expanded:,}",
        )
        for i, p in enumerate(result.probes)
    ]
    table = format_table(
        ("probe", "tau", "outcome", "time", "states"),
        body,
        title="Ablation - adaptive soft budgeting bisection (Fig 8(b) dynamics)",
    )
    return (
        table
        + f"\nhard budget min(Kahn, greedy) {result.hard_budget / 1024:.1f}KB -> optimal "
        + f"{result.peak_bytes / 1024:.1f}KB in {len(result.probes)} probes"
    )
