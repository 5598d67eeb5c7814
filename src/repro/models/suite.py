"""The paper's benchmark suite, with its published reference numbers.

Maps every cell of Figs 10/11/13/15 to a graph factory plus the values
the paper reports, so each experiment harness can print
``paper vs measured`` side by side. All byte figures are KB as printed
in Fig 15; ratios are the Fig 10 bars; times are the Fig 13 bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.graph import Graph
from repro.models.darts import darts_normal_cell
from repro.models.randwire import randwire_stage
from repro.models.swiftnet import (
    swiftnet_cell_a,
    swiftnet_cell_b,
    swiftnet_cell_c,
)

__all__ = [
    "CellSpec",
    "BENCHMARK_SUITE",
    "suite_cells",
    "get_cell",
    "serving_suite",
    "PAPER_GEOMEANS",
]


@dataclass(frozen=True)
class CellSpec:
    """One evaluated cell and its paper-reported numbers."""

    key: str
    network: str
    cell: str
    dataset: str
    factory: Callable[[], Graph]
    #: Fig 15 peak KB: TFLite / DP+allocator / DP+rewriting+allocator
    paper_tflite_kb: float
    paper_dp_kb: float
    paper_gr_kb: float
    #: Fig 13 scheduling seconds: DP-only / with rewriting
    paper_time_dp_s: float
    paper_time_gr_s: float

    @property
    def display(self) -> str:
        return f"{self.network} {self.cell} ({self.dataset})"

    @property
    def paper_ratio_dp(self) -> float:
        """Fig 10 bar, DP + allocator."""
        return self.paper_tflite_kb / self.paper_dp_kb

    @property
    def paper_ratio_gr(self) -> float:
        """Fig 10 bar, DP + rewriting + allocator."""
        return self.paper_tflite_kb / self.paper_gr_kb


#: paper geomeans: Fig 10 (peak reduction) and Fig 11 at 256 KB (traffic)
PAPER_GEOMEANS = {
    "fig10_dp": 1.68,
    "fig10_gr": 1.86,
    "fig11_256kb": 1.76,
    "fig13_mean_dp_s": 40.6,
    "fig13_mean_gr_s": 48.8,
}


def _rw(n: int, channels: int, hw: int, seed: int, name: str):
    return lambda: randwire_stage(
        n=n, channels=channels, hw=hw, generator="ws", seed=seed, name=name
    )


BENCHMARK_SUITE: dict[str, CellSpec] = {
    spec.key: spec
    for spec in (
        CellSpec(
            key="darts-normal",
            network="DARTS",
            cell="Normal",
            dataset="ImageNet",
            factory=darts_normal_cell,
            paper_tflite_kb=1656,
            paper_dp_kb=903,
            paper_gr_kb=753,
            paper_time_dp_s=3.2,
            paper_time_gr_s=3.2,
        ),
        CellSpec(
            key="swiftnet-a",
            network="SwiftNet",
            cell="Cell A",
            dataset="HPD",
            factory=swiftnet_cell_a,
            paper_tflite_kb=552,
            paper_dp_kb=251,
            paper_gr_kb=226,
            paper_time_dp_s=5.7,
            paper_time_gr_s=42.1,
        ),
        CellSpec(
            key="swiftnet-b",
            network="SwiftNet",
            cell="Cell B",
            dataset="HPD",
            factory=swiftnet_cell_b,
            paper_tflite_kb=194,
            paper_dp_kb=82,
            paper_gr_kb=72,
            paper_time_dp_s=4.5,
            paper_time_gr_s=30.5,
        ),
        CellSpec(
            key="swiftnet-c",
            network="SwiftNet",
            cell="Cell C",
            dataset="HPD",
            factory=swiftnet_cell_c,
            paper_tflite_kb=70,
            paper_dp_kb=33,
            paper_gr_kb=20,
            paper_time_dp_s=27.8,
            paper_time_gr_s=39.3,
        ),
        CellSpec(
            key="randwire-c10-a",
            network="RandWire",
            cell="Cell A",
            dataset="CIFAR10",
            factory=_rw(n=24, channels=16, hw=32, seed=10, name="randwire-c10-a"),
            paper_tflite_kb=645,
            paper_dp_kb=459,
            paper_gr_kb=459,
            paper_time_dp_s=118.1,
            paper_time_gr_s=118.1,
        ),
        CellSpec(
            key="randwire-c10-b",
            network="RandWire",
            cell="Cell B",
            dataset="CIFAR10",
            factory=_rw(n=20, channels=32, hw=16, seed=11, name="randwire-c10-b"),
            paper_tflite_kb=330,
            paper_dp_kb=260,
            paper_gr_kb=260,
            paper_time_dp_s=15.1,
            paper_time_gr_s=15.1,
        ),
        CellSpec(
            key="randwire-c100-a",
            network="RandWire",
            cell="Cell A",
            dataset="CIFAR100",
            factory=_rw(n=24, channels=16, hw=32, seed=100, name="randwire-c100-a"),
            paper_tflite_kb=605,
            paper_dp_kb=359,
            paper_gr_kb=359,
            paper_time_dp_s=28.5,
            paper_time_gr_s=28.5,
        ),
        CellSpec(
            key="randwire-c100-b",
            network="RandWire",
            cell="Cell B",
            dataset="CIFAR100",
            factory=_rw(n=20, channels=32, hw=16, seed=101, name="randwire-c100-b"),
            paper_tflite_kb=350,
            paper_dp_kb=280,
            paper_gr_kb=280,
            paper_time_dp_s=74.4,
            paper_time_gr_s=74.4,
        ),
        CellSpec(
            key="randwire-c100-c",
            network="RandWire",
            cell="Cell C",
            dataset="CIFAR100",
            factory=_rw(n=16, channels=64, hw=8, seed=102, name="randwire-c100-c"),
            paper_tflite_kb=160,
            paper_dp_kb=115,
            paper_gr_kb=115,
            paper_time_dp_s=87.9,
            paper_time_gr_s=87.9,
        ),
    )
}


def suite_cells() -> list[CellSpec]:
    """All cells in the paper's presentation order."""
    return list(BENCHMARK_SUITE.values())


def get_cell(key: str) -> CellSpec:
    try:
        return BENCHMARK_SUITE[key]
    except KeyError:
        raise KeyError(
            f"unknown benchmark cell {key!r}; available: {sorted(BENCHMARK_SUITE)}"
        ) from None


def serving_suite() -> dict[str, Callable[[], Graph]]:
    """Micro cells for the serving benchmarks.

    Small irregularly wired stages in the regime the serving layer
    targets: per-request overhead (executor construction, arena
    allocation) rivals or exceeds kernel compute, so arena reuse — not
    raw FLOPs — decides throughput. The paper's benchmark cells remain
    available for compute-bound serving runs via ``serve --cell``.
    """
    return {
        "rw-micro-a": lambda: randwire_stage(
            n=10, channels=8, hw=2, generator="ws", seed=7, name="rw-micro-a"
        ),
        "rw-micro-b": lambda: randwire_stage(
            n=10, channels=8, hw=2, generator="ws", seed=11, name="rw-micro-b"
        ),
    }
