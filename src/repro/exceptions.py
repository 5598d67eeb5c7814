"""Exception hierarchy for the SERENITY reproduction.

All library errors derive from :class:`ReproError` so downstream users can
catch a single base class. Scheduling-control exceptions (budget overrun,
step timeout) are *signals* used by the adaptive soft budgeting meta-search
and are therefore part of the public API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Structural problem in a :class:`repro.graph.Graph`."""


class CycleError(GraphError):
    """The graph contains a directed cycle and admits no schedule."""


class ShapeError(GraphError):
    """Tensor shapes are inconsistent with an operator's contract."""


class UnknownOpError(GraphError):
    """An operator type is not present in the registry."""


class SchedulingError(ReproError):
    """A scheduler could not produce a valid schedule."""


class InvalidScheduleError(SchedulingError):
    """A schedule violates precedence constraints or omits nodes."""


class NoSolutionError(SchedulingError):
    """Budget-pruned DP exhausted every path: the soft budget ``tau`` is
    below the optimal peak footprint (Algorithm 2's ``'no solution'``)."""

    def __init__(
        self, budget: float, message: str | None = None, *, states_expanded: int = 0
    ) -> None:
        self.budget = budget
        #: transitions the DP had evaluated when it gave up
        self.states_expanded = states_expanded
        super().__init__(message or f"no schedule fits within budget {budget}")


class StepTimeoutError(SchedulingError):
    """A DP search step exceeded its time/state allowance (Algorithm 2's
    ``'timeout'``)."""

    def __init__(
        self, step: int, states: int, message: str | None = None, *, states_expanded: int = 0
    ) -> None:
        self.step = step
        self.states = states
        self.states_expanded = states_expanded
        super().__init__(
            message
            or f"search step {step} exceeded its allowance ({states} states)"
        )


class BudgetSearchError(SchedulingError):
    """Adaptive soft budgeting failed to converge on a feasible budget."""


class AllocationError(ReproError):
    """The memory allocator produced an inconsistent plan."""


class SpillError(AllocationError):
    """No spill plan can fit the schedule into the on-chip capacity.

    Raised by :func:`repro.allocator.spill.plan_spill` when the
    capacity is below the schedule's irreducible single-step working
    set (every tensor a kernel touches must be staged on-chip while it
    runs), or when fragmentation defeats every spill configuration."""


class PlanVerificationError(ReproError):
    """The static plan verifier found error-severity findings.

    Raised by :meth:`repro.compiler.model.CompiledModel.load` (and any
    other caller that treats an analysis failure as fatal). Carries the
    full :class:`repro.analysis.diagnostics.AnalysisReport` as
    ``report`` so callers can inspect which invariant broke, at which
    step, over which bytes."""

    def __init__(self, report, message: str | None = None) -> None:
        self.report = report
        if message is None:
            errs = report.errors
            head = errs[0].format() if errs else "no findings"
            more = f" (+{len(errs) - 1} more)" if len(errs) > 1 else ""
            message = (
                f"plan verification failed for {report.target!r}: "
                f"{head}{more}"
            )
        super().__init__(message)


class RewriteError(ReproError):
    """A graph rewrite rule failed to apply or broke graph invariants."""


class ExecutionError(ReproError):
    """The NumPy reference executor failed to evaluate a graph."""


class ServingError(ReproError):
    """The concurrent serving runtime refused or failed a request."""


class AdmissionError(ServingError):
    """An arena could not be admitted under the serving memory budget."""


class DeadlineExceededError(ServingError):
    """A request's deadline passed before it could be served.

    Raised into the request's future when a queued request is shed
    before compute (single-process and shard-worker schedulers), or
    when the sharded front end sweeps an in-flight request whose
    deadline expired while its shard was down or wedged. Never raised
    for a request whose result was already delivered."""


class OverloadedError(ServingError):
    """A shard's in-flight window is full: the request was rejected
    *immediately* instead of blocking on ring backpressure.

    Only raised when a per-shard in-flight cap (``max_inflight``) is
    configured, or when ring-slot acquisition times out — both mean
    "shed load now", and clients should back off or retry elsewhere."""


class ShardFailedError(ServingError):
    """A shard process died, wedged, or drained with the request on it.

    This is the *retryable* serving failure: the request itself was
    fine, the process serving it was not. The sharded front end retries
    these automatically when ``retries > 0``; the message keeps the
    legacy "died"/"dead"/"draining" vocabulary so existing matchers
    hold."""
