"""Device-targeted compilation: does this network fit this edge device?

The paper's end goal is a go/no-go answer for a concrete microcontroller
("caps and minimizes the footprint to the limitations of the edge
device"). This module packages the pipeline into that decision:

>>> from repro.scheduler.device import SPARKFUN_EDGE, fit_to_device
>>> fit = fit_to_device(graph, SPARKFUN_EDGE)
>>> fit.fits, fit.stage
(True, 'dp+rewriting')

``fit_to_device`` escalates through the same stages a deployment
engineer would: the framework's default order, then optimal scheduling,
then scheduling after identity rewriting — stopping at the first stage
whose *allocator-level* peak meets the budget. Each stage is a registry
strategy (``kahn``, ``serenity-dp``, ``serenity``) run and measured by
:func:`~repro.scheduler.registry.run_strategy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.scheduler.registry import run_strategy
from repro.scheduler.schedule import Schedule

__all__ = [
    "DeviceSpec",
    "FitStage",
    "DeviceFitReport",
    "fit_to_device",
    "resolve_budget",
    "SPARKFUN_EDGE",
    "STM32F746",
    "AMBIQ_APOLLO3",
    "KNOWN_DEVICES",
]


@dataclass(frozen=True)
class DeviceSpec:
    """An edge target's activation-memory budget."""

    name: str
    sram_bytes: int

    @property
    def sram_kib(self) -> float:
        return self.sram_bytes / 1024.0


#: the paper's reference device (Section 2.2): 250 KB weight/activation
SPARKFUN_EDGE = DeviceSpec("SparkFun Edge", 250 * 1024)
#: a common Cortex-M7 evaluation target
STM32F746 = DeviceSpec("STM32F746", 320 * 1024)
#: the Apollo3 MCU family the SparkFun Edge is built around, bare config
AMBIQ_APOLLO3 = DeviceSpec("Ambiq Apollo3", 384 * 1024)

KNOWN_DEVICES = {d.name: d for d in (SPARKFUN_EDGE, STM32F746, AMBIQ_APOLLO3)}


def resolve_budget(
    device: str | None = None, kib: float | None = None
) -> DeviceSpec | None:
    """Resolve a CLI-style memory budget into a :class:`DeviceSpec`.

    Pass a :data:`KNOWN_DEVICES` name, a custom KiB figure, or neither
    (``None``: unbounded). Used by the serving runtime to cap the
    resident arena set the same way device fitting caps a single plan.
    """
    if device is not None:
        if device not in KNOWN_DEVICES:
            raise KeyError(
                f"unknown device {device!r}; known: {sorted(KNOWN_DEVICES)}"
            )
        return KNOWN_DEVICES[device]
    if kib is not None:
        return DeviceSpec(f"custom-{kib:g}KiB", int(kib * 1024))
    return None


@dataclass(frozen=True)
class FitStage:
    """One escalation stage's outcome."""

    name: str  # 'baseline' | 'dp' | 'dp+rewriting'
    peak_bytes: int
    arena_bytes: int
    fits: bool
    schedule: Schedule


@dataclass(frozen=True)
class DeviceFitReport:
    """Outcome of fitting a graph onto a device."""

    device: DeviceSpec
    graph_name: str
    stages: tuple[FitStage, ...]

    @property
    def fits(self) -> bool:
        return any(s.fits for s in self.stages)

    @property
    def stage(self) -> str | None:
        """First (cheapest) stage that fits, or None."""
        for s in self.stages:
            if s.fits:
                return s.name
        return None

    @property
    def best(self) -> FitStage:
        """The stage with the lowest arena peak."""
        return min(self.stages, key=lambda s: s.arena_bytes)

    @property
    def headroom_bytes(self) -> int:
        """Budget left under the best stage (negative = shortfall)."""
        return self.device.sram_bytes - self.best.arena_bytes

    def summary(self) -> str:
        lines = [
            f"fit report: {self.graph_name} on {self.device.name} "
            f"({self.device.sram_kib:.0f}KB)"
        ]
        for s in self.stages:
            verdict = "fits" if s.fits else "over budget"
            lines.append(
                f"  {s.name:13s} arena {s.arena_bytes / 1024:8.1f}KB  {verdict}"
            )
        lines.append(
            f"  => {'DEPLOYABLE via ' + str(self.stage) if self.fits else 'NOT DEPLOYABLE'}"
            f" (headroom {self.headroom_bytes / 1024:+.1f}KB)"
        )
        return "\n".join(lines)


#: the escalation ladder: (stage name, registry strategy), cheapest first
_LADDER = (("baseline", "kahn"), ("dp", "serenity-dp"), ("dp+rewriting", "serenity"))


def fit_to_device(
    graph: Graph, device: DeviceSpec, stop_early: bool = True
) -> DeviceFitReport:
    """Escalate baseline → DP → DP+rewriting until the budget is met.

    With ``stop_early`` (default) later stages are skipped once one
    fits; pass ``False`` to measure all three regardless.
    """
    stages: list[FitStage] = []
    for name, strategy in _LADDER:
        out = run_strategy(strategy, graph)
        stages.append(
            FitStage(
                name=name,
                peak_bytes=out.peak_bytes,
                arena_bytes=out.arena_bytes,
                fits=out.fits(device.sram_bytes),
                schedule=out.schedule,
            )
        )
        if stop_early and stages[-1].fits:
            break
    return DeviceFitReport(
        device=device, graph_name=graph.name, stages=tuple(stages)
    )
