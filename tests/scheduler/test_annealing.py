"""Simulated-annealing baseline (extension)."""

import pytest

from repro.scheduler.annealing import anneal_schedule
from repro.scheduler.dp import dp_schedule
from repro.scheduler.memory import simulate_schedule

from tests.conftest import random_dag_graph


class TestAnnealing:
    def test_schedule_valid(self, hourglass_graph):
        res = anneal_schedule(hourglass_graph, iterations=300, seed=1)
        res.schedule.validate(hourglass_graph)

    def test_peak_consistent_with_simulation(self, diamond_graph):
        res = anneal_schedule(diamond_graph, iterations=200)
        assert (
            simulate_schedule(diamond_graph, res.schedule).peak_bytes
            == res.peak_bytes
        )

    def test_never_beats_dp(self, hourglass_graph):
        """The DP is optimal; annealing can only match it."""
        dp = dp_schedule(hourglass_graph).peak_bytes
        res = anneal_schedule(hourglass_graph, iterations=500, seed=0)
        assert res.peak_bytes >= dp

    @pytest.mark.parametrize("seed", range(5))
    def test_never_beats_dp_on_random_dags(self, seed):
        g = random_dag_graph(10, seed)
        dp = dp_schedule(g).peak_bytes
        res = anneal_schedule(g, iterations=400, seed=seed)
        assert res.peak_bytes >= dp

    def test_finds_optimum_on_tiny_graph(self, diamond_graph):
        dp = dp_schedule(diamond_graph).peak_bytes
        res = anneal_schedule(diamond_graph, iterations=500, restarts=4)
        assert res.peak_bytes == dp

    def test_deterministic_by_seed(self, hourglass_graph):
        a = anneal_schedule(hourglass_graph, iterations=200, seed=3)
        b = anneal_schedule(hourglass_graph, iterations=200, seed=3)
        assert a.schedule.order == b.schedule.order
        assert a.peak_bytes == b.peak_bytes

    def test_evaluations_counted(self, diamond_graph):
        res = anneal_schedule(diamond_graph, iterations=100, restarts=2)
        assert res.evaluations >= 2  # at least the two restart seeds
        assert res.accepted_moves <= res.evaluations

    def test_more_iterations_never_hurt(self, hourglass_graph):
        short = anneal_schedule(hourglass_graph, iterations=50, seed=7)
        long = anneal_schedule(hourglass_graph, iterations=2000, seed=7)
        assert long.peak_bytes <= short.peak_bytes

    def test_anneal_strategy(self, diamond_graph):
        """A full-length run (1 200 iterations, 2 restarts) returns a
        valid order whose reported peak is the independent replay's."""
        res = anneal_schedule(diamond_graph, iterations=1_200, restarts=2)
        res.schedule.validate(diamond_graph)
        replay = simulate_schedule(diamond_graph, res.schedule)
        assert res.peak_bytes == replay.peak_bytes

    def test_single_node_graph(self):
        g = random_dag_graph(1, 0)
        res = anneal_schedule(g, iterations=10)
        assert len(res.schedule) == 1
