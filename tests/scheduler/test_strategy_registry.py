"""Strategy registry: names, registration and per-strategy invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.memory import simulate_schedule
from repro.scheduler.registry import get_strategy, run_strategy, strategy_names

from tests.conftest import random_dag_graph


class TestRegistry:
    def test_names_in_registration_order(self):
        """Registration order is the cheapest-first listing `list` prints."""
        assert strategy_names() == [
            "kahn", "dfs", "greedy", "serenity-dp", "serenity",
        ]

    def test_cache_keys_unchanged(self):
        """Renaming a version would orphan every cached schedule."""
        assert [get_strategy(n).cache_key for n in strategy_names()] == [
            "kahn@1", "dfs@1", "greedy@1", "serenity-dp@2", "serenity@2",
        ]

    def test_unknown_strategy_raises(self):
        from repro.exceptions import SchedulingError

        with pytest.raises(SchedulingError, match="unknown strategy"):
            get_strategy("bogus")

    def test_duplicate_registration_rejected(self):
        from repro.exceptions import SchedulingError
        from repro.scheduler.registry import register_strategy

        with pytest.raises(SchedulingError, match="duplicate"):
            register_strategy("kahn", summary="clash")(lambda g: None)


class TestStrategyProperties:
    """Paper-level invariants every registered strategy must satisfy."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_outputs_are_valid_topological_orders(self, seed):
        graph = random_dag_graph(10, seed, with_views=True)
        for name in strategy_names():
            out = run_strategy(name, graph)
            # validate() raises unless the order is a complete
            # topological order of the scheduled graph
            out.schedule.validate(out.scheduled_graph)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_reported_peak_matches_independent_replay(self, seed):
        graph = random_dag_graph(10, seed)
        for name in strategy_names():
            out = run_strategy(name, graph)
            replay = simulate_schedule(
                out.scheduled_graph, out.schedule, validate=True
            )
            assert out.peak_bytes == replay.peak_bytes

    def test_rewriting_strategies_target_rewritten_graph(
        self, concat_depthwise_graph
    ):
        out = run_strategy("serenity", concat_depthwise_graph)
        assert len(out.scheduled_graph) > len(concat_depthwise_graph)
