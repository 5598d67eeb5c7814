"""Numerical verification of the compiler's two identity claims.

* :func:`verify_rewrite` — graph rewriting preserves the network's
  function. The rewritten graph's partial convolutions must compute
  with *slices of the original weights* (that is the whole point —
  same math, different order), so :func:`derive_rewritten_params` maps
  original parameters through each partial node's ``source``/
  ``in_slice`` provenance attrs.
* :func:`verify_execution` — a compiled plan preserves it too: the
  arena-backed :class:`~repro.runtime.plan_executor.PlanExecutor`
  (schedule order, planned offsets, shared buffers) must produce
  **bitwise** the outputs of the reference dict executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.exceptions import ExecutionError
from repro.graph.graph import Graph
from repro.rewriting.rewriter import RewriteResult
from repro.runtime.executor import Executor, Params, init_params, random_feeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler -> runtime)
    from repro.compiler.model import CompiledModel

__all__ = [
    "derive_rewritten_params",
    "EquivalenceReport",
    "compare_outputs",
    "verify_rewrite",
    "verify_execution",
]


def derive_rewritten_params(
    original: Graph, rewritten: Graph, params: Params
) -> Params:
    """Parameters for ``rewritten`` derived from ``original``'s.

    Unchanged nodes keep their entries; ``partial_conv2d`` takes the
    input-channel slice ``W[:, lo:hi]`` of its source convolution (bias
    rides with the first partial); ``partial_depthwise_conv2d`` takes the
    kernel slice ``W[lo:hi]`` (bias slice scaled by the multiplier).
    """
    out: Params = {}
    for node in rewritten:
        if node.op == "partial_conv2d":
            src = node.attrs["source"]
            lo, hi = node.attrs["in_slice"]
            source = params[src]
            entry = {"weight": source["weight"][:, lo:hi]}
            if node.attrs.get("owns_bias", False) and "bias" in source:
                entry["bias"] = source["bias"]
            out[node.name] = entry
        elif node.op == "partial_depthwise_conv2d":
            src = node.attrs["source"]
            lo, hi = node.attrs["in_slice"]
            mult = int(node.attrs.get("multiplier", 1))
            source = params[src]
            entry = {"weight": source["weight"][lo:hi]}
            if "bias" in source:
                entry["bias"] = source["bias"][lo * mult : hi * mult]
            out[node.name] = entry
        elif node.name in params:
            out[node.name] = params[node.name]
    return out


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two executions' outputs."""

    equivalent: bool
    max_abs_error: float
    compared_outputs: tuple[tuple[str, str], ...]

    def __bool__(self) -> bool:
        return self.equivalent


def compare_outputs(
    reference: Mapping[str, np.ndarray],
    candidate: Mapping[str, np.ndarray],
    pairs: Sequence[tuple[str, str]] | None = None,
    rtol: float | None = None,
    atol: float | None = None,
) -> EquivalenceReport:
    """Compare two output dicts pairwise into an :class:`EquivalenceReport`.

    With no tolerances the comparison is **bitwise** (``array_equal``,
    the plan-executor contract); pass ``rtol``/``atol`` for an
    ``allclose`` comparison (the rewrite-verification contract).
    ``pairs`` maps reference names to candidate names; by default every
    reference key is compared against the same candidate key.
    """
    if pairs is None:
        pairs = tuple((name, name) for name in reference)
    max_err = 0.0
    ok = True
    for a, b in pairs:
        x = np.asarray(reference[a])
        y = np.asarray(candidate[b])
        if x.size:
            max_err = max(max_err, float(np.max(np.abs(x - y))))
        if rtol is None and atol is None:
            if not np.array_equal(x, y):
                ok = False
        elif not np.allclose(x, y, rtol=rtol or 0.0, atol=atol or 0.0):
            ok = False
    return EquivalenceReport(
        equivalent=ok, max_abs_error=max_err, compared_outputs=tuple(pairs)
    )


def verify_rewrite(
    original: Graph,
    rewrite: RewriteResult,
    seed: int = 0,
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> EquivalenceReport:
    """Run both graphs on shared random weights/inputs and compare every
    graph output (sinks paired through the rewrite's rename map).

    Both run in float64, so the tolerance judges the rewrite, not the
    rounding of float32 partial sums (about 2e-7 on a channel split)."""
    rewritten = rewrite.graph
    params = init_params(original, seed=seed)
    derived = derive_rewritten_params(original, rewritten, params)
    feeds = random_feeds(original, seed=seed)

    pairs = []
    for sink in original.sinks:
        counterpart = rewrite.renamed.get(sink, sink)
        if counterpart not in rewritten:
            raise ExecutionError(
                f"output {sink!r} has no counterpart in the rewritten graph"
            )
        pairs.append((sink, counterpart))

    ref = Executor(original, params=params, dtype=np.float64).run(
        feeds, outputs=[p[0] for p in pairs]
    )
    new = Executor(rewritten, params=derived, dtype=np.float64).run(
        feeds, outputs=[p[1] for p in pairs]
    )
    return compare_outputs(ref, new, pairs=pairs, rtol=rtol, atol=atol)


def verify_execution(
    model: "CompiledModel", seed: int = 0
) -> EquivalenceReport:
    """Certify a compiled plan against the reference executor.

    Runs the artifact's graph both ways — reference dict executor vs
    :class:`~repro.runtime.plan_executor.PlanExecutor` under the
    artifact's schedule and arena plan — on identical random weights
    and inputs, and demands **bitwise-equal** outputs on every graph
    sink (same kernels, same compute dtype: any difference means the
    plan corrupted memory).
    """
    from repro.runtime.plan_executor import PlanExecutor

    graph = model.graph
    params = init_params(graph, seed=seed)
    feeds = random_feeds(graph, seed=seed)
    sinks = graph.sinks

    ref = Executor(graph, params=params).run(feeds, outputs=sinks)
    planned = PlanExecutor(
        graph, model.schedule, model.plan, params=params
    ).run(feeds)
    return compare_outputs(
        ref, planned, pairs=tuple((name, name) for name in sinks)
    )
