"""Golden identity of the SERENITY DP on the paper's suite.

``dp_golden.json`` was first recorded from the last commit whose DP was
the per-transition dict loop (now ``tests/scheduler/_reference_dp.py``),
by running this file as a script. It was re-recorded once, with the
strategies' version "2", when the tie-break moved from first-seen to
downset-mask order and Algorithm 2's hard budget became ``min(Kahn,
greedy)``: every order, peak, arena and probe count stayed, and only
``segment_states_expanded`` fell. Any later DP implementation must
reproduce it byte for byte: the schedule order (as a sha256), both
peaks, and the per-segment search counters of the three DP-backed
strategies. ``serenity-fast`` (2 000-state cap) is here because its
probes walk the timeout -> halve-tau -> no-solution path of Algorithm 2.

A mismatch means the tie-break contract documented in
``repro.scheduler.dp`` was broken; re-record only together with a
``StrategySpec.version`` bump:

    PYTHONPATH=src python tests/scheduler/test_dp_golden.py > tests/scheduler/dp_golden.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.models.suite import BENCHMARK_SUITE
from repro.scheduler.divide import DivideAndConquerScheduler
from repro.scheduler.registry import run_strategy

STRATEGIES = ("serenity", "serenity-dp", "serenity-fast")
GOLDEN_PATH = Path(__file__).with_name("dp_golden.json")


def measure(cell: str, strategy: str) -> dict:
    """Run ``strategy`` through the registry, tapping the D&C result the
    registry discards for its per-segment counters."""
    tapped = []
    inner = DivideAndConquerScheduler.schedule

    def tap(self, graph):
        tapped.append(inner(self, graph))
        return tapped[-1]

    DivideAndConquerScheduler.schedule = tap
    try:
        outcome = run_strategy(strategy, BENCHMARK_SUITE[cell].factory())
    finally:
        DivideAndConquerScheduler.schedule = inner
    (dnc,) = tapped
    return {
        "order_sha256": hashlib.sha256(
            "\n".join(outcome.schedule.order).encode()
        ).hexdigest(),
        "peak_bytes": outcome.peak_bytes,
        "arena_bytes": outcome.arena_bytes,
        "segment_states_expanded": [s.states_expanded for s in dnc.segments],
        "segment_probes": [s.probes for s in dnc.segments],
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("cell", list(BENCHMARK_SUITE))
def test_matches_recorded_golden(cell, strategy):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert measure(cell, strategy) == golden[f"{cell}/{strategy}"]


if __name__ == "__main__":
    print(
        json.dumps(
            {f"{c}/{s}": measure(c, s) for c in BENCHMARK_SUITE for s in STRATEGIES},
            indent=1,
        )
    )
