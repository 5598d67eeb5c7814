"""Fig 13: SERENITY (static) scheduling time per cell.

Absolute times are host/implementation-specific; the reproducible shape:
every cell schedules in seconds under divide-and-conquer + adaptive soft
budgeting, rewriting increases SwiftNet's time (more nodes to schedule)
and leaves DARTS/RandWire untouched (no rewrites fire there).
"""

from repro.experiments import fig13_time


def test_fig13_scheduling_time(benchmark, save_result):
    rows = benchmark.pedantic(fig13_time.run, rounds=1, iterations=1)
    save_result("fig13_scheduling_time", fig13_time.render(rows))

    assert len(rows) == 9
    by_key = {r.key: r for r in rows}

    # tractability: the paper's "less than one minute average extra
    # compilation time" claim. The array-kernel DP averages ~0.15 s per
    # cell here; the per-transition loop it replaced averaged ~1.1 s, so
    # 0.5 s catches a regression to it with room for a slow host
    mean_gr = sum(r.time_gr_s for r in rows) / len(rows)
    assert mean_gr < 0.5, f"mean scheduling time {mean_gr:.2f}s: DP kernel regressed"

    # rewriting adds scheduling work exactly where it fires
    for key in ("swiftnet-a", "swiftnet-b", "swiftnet-c"):
        assert by_key[key].states_gr >= by_key[key].states_dp
    for key in ("darts-normal", "randwire-c10-b"):
        assert by_key[key].states_gr == by_key[key].states_dp
