"""Reference graph executor.

Evaluates a :class:`~repro.graph.graph.Graph` on NumPy tensors with
deterministic, name-keyed random parameters. Used by the tests and by
:mod:`repro.runtime.verify` to certify that identity graph rewriting
preserves the network's function exactly (paper: "not an approximation
method").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
from numpy.typing import DTypeLike

from repro.exceptions import ExecutionError
from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.ops.base import normalize_pair
from repro.runtime.kernels import KERNELS

__all__ = ["EXEC_DTYPE", "Executor", "cast_params", "init_params", "random_feeds"]

Params = dict[str, dict[str, np.ndarray]]

#: the compute dtype of both executors: the planned tensors' float32,
#: so a host arena holds exactly the bytes its plan prices
EXEC_DTYPE = np.dtype(np.float32)


def _node_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-node generator (stable across processes)."""
    return np.random.default_rng((seed, zlib.crc32(name.encode())))


def _param_shapes(graph: Graph, node: Node) -> dict[str, tuple[int, ...]]:
    """Parameter tensors a node needs, by name."""
    attrs = node.attrs
    use_bias = bool(attrs.get("use_bias", True))
    if node.op in ("conv2d", "partial_conv2d"):
        c = graph.node(node.inputs[0]).output.shape[0]
        m = int(attrs["out_channels"])
        kh, kw = normalize_pair(attrs.get("kernel", 1), "kernel")
        shapes = {"weight": (m, c, kh, kw)}
        owns_bias = attrs.get("owns_bias", True) if node.op == "partial_conv2d" else True
        if use_bias and owns_bias:
            shapes["bias"] = (m,)
        return shapes
    if node.op == "fused_sep_conv3x3":
        c = graph.node(node.inputs[0]).output.shape[0]
        m = int(attrs.get("out_channels", c))
        kh, kw = normalize_pair(attrs.get("kernel", 3), "kernel")
        shapes = {"dw_weight": (c, 1, kh, kw), "pw_weight": (m, c, 1, 1)}
        if use_bias:
            shapes["bias"] = (m,)
        return shapes
    if node.op in ("depthwise_conv2d", "partial_depthwise_conv2d"):
        c = graph.node(node.inputs[0]).output.shape[0]
        mult = int(attrs.get("multiplier", 1))
        kh, kw = normalize_pair(attrs.get("kernel", 3), "kernel")
        shapes = {"weight": (c, mult, kh, kw)}
        if use_bias:
            shapes["bias"] = (c * mult,)
        return shapes
    if node.op == "dense":
        features = graph.node(node.inputs[0]).output.elements
        units = int(attrs["units"])
        shapes = {"weight": (units, features)}
        if use_bias:
            shapes["bias"] = (units,)
        return shapes
    if node.op == "batch_norm":
        c = graph.node(node.inputs[0]).output.shape[0]
        return {"scale": (c,), "shift": (c,)}
    return {}


def init_params(graph: Graph, seed: int = 0) -> Params:
    """Random parameters for every parameterised node (deterministic in
    ``seed`` and node names), in :data:`EXEC_DTYPE`."""
    params: Params = {}
    for node in graph:
        shapes = _param_shapes(graph, node)
        if not shapes:
            continue
        rng = _node_rng(seed, node.name)
        params[node.name] = {
            key: (rng.standard_normal(shape) * 0.1).astype(EXEC_DTYPE)
            for key, shape in shapes.items()
        }
    return params


def cast_params(params: Params, dtype: DTypeLike) -> Params:
    """``params`` with every tensor in ``dtype`` (entries already in it
    are kept, not copied)."""
    return {
        name: {key: np.asarray(value, dtype=dtype) for key, value in entry.items()}
        for name, entry in params.items()
    }


def random_feeds(graph: Graph, seed: int = 0) -> dict[str, np.ndarray]:
    """Random activations for every ``input`` node, in :data:`EXEC_DTYPE`."""
    feeds = {}
    for name in graph.input_nodes:
        spec = graph.node(name).output
        rng = _node_rng(seed ^ 0x5EED, name)
        feeds[name] = rng.standard_normal(spec.shape).astype(EXEC_DTYPE)
    return feeds


@dataclass
class Executor:
    """Evaluate a graph over NumPy tensors.

    >>> ex = Executor(graph)
    >>> outputs = ex.run(random_feeds(graph))

    Feeds and parameters are computed in ``dtype``: caller-supplied
    parameters are cast once, here, and feeds as they arrive.
    """

    graph: Graph
    params: Params = field(default_factory=dict)
    seed: int = 0
    dtype: DTypeLike = EXEC_DTYPE

    def __post_init__(self) -> None:
        self.params = cast_params(
            self.params or init_params(self.graph, self.seed), self.dtype
        )

    def _needed(self, wanted: list[str]) -> set[str]:
        """Nodes reachable backwards from ``wanted`` (inclusive)."""
        needed: set[str] = set()
        stack = list(dict.fromkeys(wanted))
        while stack:
            name = stack.pop()
            if name in needed:
                continue
            needed.add(name)
            stack.extend(self.graph.node(name).inputs)
        return needed

    def run(
        self,
        feeds: Mapping[str, np.ndarray],
        outputs: Iterable[str] | None = None,
        keep_all: bool = False,
    ) -> dict[str, np.ndarray]:
        """Execute in topological order; returns the requested ``outputs``
        (default: graph sinks).

        Only the ancestors of the requested outputs execute: asking for
        an intermediate runs (and requires feeds for) exactly the
        subgraph that produces it, not the whole network.
        """
        wanted = list(outputs) if outputs is not None else self.graph.sinks
        unknown = [w for w in wanted if w not in self.graph]
        if unknown:
            raise ExecutionError(f"requested outputs never computed: {unknown}")
        needed = self._needed(wanted)
        values: dict[str, np.ndarray] = {}
        remaining_uses = {name: 0 for name in needed}
        for name in needed:
            for src in set(self.graph.node(name).inputs):
                remaining_uses[src] += 1
        keep = set(wanted)

        for node in self.graph:
            if node.name not in needed:
                continue
            if node.op == "input":
                if node.name not in feeds:
                    raise ExecutionError(f"missing feed for input {node.name!r}")
                value = np.asarray(feeds[node.name], dtype=self.dtype)
                if tuple(value.shape) != node.output.shape:
                    raise ExecutionError(
                        f"feed {node.name!r} has shape {value.shape}, "
                        f"expected {node.output.shape}"
                    )
                # the kernels' contract is one leading batch axis: a
                # reference run is the batch of one
                value = value[None]
            else:
                kernel = KERNELS.get(node.op)
                if kernel is None:
                    raise ExecutionError(f"no kernel for op {node.op!r}")
                args = [values[src] for src in node.inputs]
                value = kernel(args, node.attrs, self.params.get(node.name, {}))
                if tuple(value.shape) != (1,) + node.output.shape:
                    raise ExecutionError(
                        f"kernel {node.op!r} produced shape {value.shape} for "
                        f"{node.name!r}, spec says one sample of "
                        f"{node.output.shape}"
                    )
            values[node.name] = value
            # free dead intermediates unless asked to keep everything
            if not keep_all:
                for src in set(node.inputs):
                    remaining_uses[src] -= 1
                    if remaining_uses[src] == 0 and src not in keep:
                        del values[src]

        return {w: values[w][0] for w in wanted}
