"""Compiling against a hard device budget with adaptive soft budgeting.

Run:  python examples/budgeted_compilation.py

Shows the machinery behind Algorithm 2: probing the DP scheduler with
different soft budgets ``tau``, watching the 'timeout' / 'no solution' /
'solution' outcomes bracket the optimum (Fig 8(b)), and using the result
to answer a deployment question — what is the smallest device this
network can run on?
"""

from repro import DPScheduler, NoSolutionError, kahn_schedule, simulate_schedule
from repro.models import swiftnet_cell_a
from repro.scheduler.budget import AdaptiveSoftBudgetScheduler


def manual_probes(graph) -> None:
    """Probe a few budgets by hand to see the feasibility frontier."""
    kahn_peak = simulate_schedule(graph, kahn_schedule(graph)).peak_bytes
    print(f"Kahn's peak (upper bound): {kahn_peak / 1024:7.1f}KB")
    print(f"\n  {'budget':>10}  {'outcome':>12}  {'states':>8}")
    for frac in (1.0, 0.75, 0.6, 0.5, 0.4):
        tau = int(kahn_peak * frac)
        try:
            res = DPScheduler(budget=tau).schedule(graph)
            outcome, states = f"{res.peak_kib:.1f}KB", res.states_expanded
        except NoSolutionError as exc:
            outcome, states = "no solution", exc.states_expanded
        print(f"  {tau / 1024:>8.1f}KB  {outcome:>12}  {states:>8,}")


def adaptive(graph) -> None:
    print("\nadaptive soft budgeting trajectory "
          "(deliberately tight per-step allowance):")
    asb = AdaptiveSoftBudgetScheduler(max_states_per_step=40)
    result = asb.schedule(graph)
    for i, probe in enumerate(result.probes):
        print(f"  probe {i}: tau={probe.tau / 1024:7.1f}KB -> {probe.outcome}")
    print(f"optimal peak: {result.peak_bytes / 1024:.1f}KB "
          f"(hard budget was {result.hard_budget / 1024:.1f}KB)")
    print(f"\n=> smallest device this cell runs on: "
          f"{result.peak_bytes / 1024:.0f}KB of activation SRAM")


def main() -> None:
    graph = swiftnet_cell_a()
    print(f"graph: {graph.name} ({len(graph)} nodes)\n")
    manual_probes(graph)
    adaptive(graph)


if __name__ == "__main__":
    main()
