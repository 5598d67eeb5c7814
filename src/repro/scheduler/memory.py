"""Activation-memory accounting: the buffer model and schedule simulator.

This module defines the *exact* footprint semantics shared by every
scheduler in the library (paper Section 3.1, Fig 6):

* executing a node allocates its output buffer (peak is sampled **after**
  the allocation — the transient where inputs and output coexist);
* a buffer is freed once every producer and consumer of every tensor in
  it has executed ("zero-outdegree" deallocation);
* graph outputs (sink nodes) are never freed.

Tensors map onto buffers through a static union-find over the graph's
aliasing annotations (:class:`~repro.graph.node.MemorySemantics`):
in-place nodes join their target input's buffer; view nodes join *all*
of their inputs' buffers. A shared buffer is allocated in full by its
first producer and sized ``max`` over member tensors — for a view-concat
that is the concatenated output size, reproducing the rewriting cost
model of Fig 9 (``max(size(x_i)) + size(y)``).

Because buffer liveness depends only on *which* nodes have executed (a
downset), not on their order, the DP scheduler can account for memory
incrementally per state; :func:`simulate_schedule` is the reference
implementation the DP is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.graph.analysis import GraphIndex
from repro.graph.graph import Graph
from repro.scheduler.schedule import Schedule

__all__ = ["BufferModel", "MemoryTrace", "simulate_schedule", "peak_of"]

#: a bitmask's nonzero 64-bit words as ``(word index, word)`` pairs — the
#: form the DP's ``uint64`` state columns consume
Words = tuple[tuple[int, np.uint64], ...]


def mask_words(mask: int) -> Words:
    """Cut a Python-int bitmask into :data:`Words`."""
    words = ((w, (mask >> (64 * w)) & (2**64 - 1)) for w in range(-(-mask.bit_length() // 64)))
    return tuple((w, np.uint64(word)) for w, word in words if word)


class NodeTable(NamedTuple):
    """:meth:`BufferModel.step` for one node ``u``, as constants the DP
    array kernel applies to many states at once: ``u`` is bit ``bit`` of
    state column ``word``; its ``size``-byte buffer is allocated iff no
    ``co_members`` bit is set; each ``(size, others)`` of ``frees`` is
    released iff every ``others`` bit is set; ``adjacency[prev_u + 1]``
    is 0 where ``u`` consumes ``prev_u``'s output, else 1."""

    word: int
    bit: np.uint64
    preds: Words
    size: int
    co_members: Words
    frees: tuple[tuple[int, Words], ...]
    adjacency: np.ndarray


@dataclass(frozen=True)
class BufferModel:
    """Static buffer layout of a graph (see module docstring).

    Attributes use node/buffer integer ids from the companion
    :class:`GraphIndex`. ``buffer_of[i]`` maps node *i*'s output tensor to
    its buffer id; per-buffer arrays are indexed by buffer id.
    """

    index: GraphIndex
    buffer_of: tuple[int, ...]
    buf_size: tuple[int, ...]
    #: mask of member (producer) nodes per buffer
    buf_members: tuple[int, ...]
    #: mask of all nodes whose execution gates the buffer's release
    #: (members plus every consumer of every member tensor)
    buf_required: tuple[int, ...]
    #: buffers holding a graph output — never freed
    buf_persistent: tuple[bool, ...]
    #: per node: buffer ids whose release must be re-checked when the
    #: node executes (its own buffer + its inputs' buffers)
    check_buffers: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, index: GraphIndex) -> "BufferModel":
        graph = index.graph
        n = index.n

        # Union-find over node (tensor) ids.
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for i, name in enumerate(index.order):
            node = graph.node(name)
            if node.memory.inplace_of is not None:
                target = index.index[node.inputs[node.memory.inplace_of]]
                union(i, target)
            elif node.memory.view:
                # A view may alias only a subset of its inputs (attr
                # ``view_inputs``): e.g. a concat where some operand has
                # another consumer and must stay separately materialised
                # (it is copied into the view buffer at execution).
                aliased = node.attrs.get("view_inputs")
                indices = range(len(node.inputs)) if aliased is None else aliased
                for j in indices:
                    union(i, index.index[node.inputs[j]])

        roots: dict[int, int] = {}
        buffer_of = []
        for i in range(n):
            r = find(i)
            buffer_of.append(roots.setdefault(r, len(roots)))

        n_buf = len(roots)
        buf_size = [0] * n_buf
        buf_members = [0] * n_buf
        buf_required = [0] * n_buf
        buf_persistent = [False] * n_buf
        for i in range(n):
            b = buffer_of[i]
            buf_size[b] = max(buf_size[b], index.out_bytes[i])
            buf_members[b] |= 1 << i
            buf_required[b] |= (1 << i) | index.succs_mask[i]
            if not index.succs[i]:
                buf_persistent[b] = True

        check: list[tuple[int, ...]] = []
        for i in range(n):
            seen: dict[int, None] = {buffer_of[i]: None}
            for p in index.preds[i]:
                seen.setdefault(buffer_of[p], None)
            check.append(tuple(seen))

        return cls(
            index=index,
            buffer_of=tuple(buffer_of),
            buf_size=tuple(buf_size),
            buf_members=tuple(buf_members),
            buf_required=tuple(buf_required),
            buf_persistent=tuple(buf_persistent),
            check_buffers=tuple(check),
        )

    @classmethod
    def of(cls, graph: Graph) -> "BufferModel":
        return cls.build(GraphIndex.build(graph))

    @property
    def n_buffers(self) -> int:
        return len(self.buf_size)

    @cached_property
    def node_tables(self) -> tuple[NodeTable, ...]:
        """Per-node :class:`NodeTable` rows. Built on first DP use, not in
        :meth:`build`: greedy/Kahn compiles share the model and never
        need them."""
        idx, tables = self.index, []
        for u in range(idx.n):
            own, others = self.buffer_of[u], ~(1 << u)
            adjacency = np.ones(idx.n + 1, dtype=np.int8)
            adjacency[[p + 1 for p in idx.preds[u]]] = 0
            frees = tuple(
                (self.buf_size[b], mask_words(self.buf_required[b] & others))
                for b in self.check_buffers[u]
                if not self.buf_persistent[b]
            )
            tables.append(
                NodeTable(
                    u // 64, np.uint64(1 << (u % 64)), mask_words(idx.preds_mask[u]),
                    self.buf_size[own], mask_words(self.buf_members[own] & others),
                    frees, adjacency,
                )
            )
        return tuple(tables)

    # ------------------------------------------------------------------
    # incremental accounting (used by the DP and the simulator)
    # ------------------------------------------------------------------
    def step(self, scheduled: int, mu: int, u: int) -> tuple[int, int, int]:
        """Execute node ``u`` on top of downset ``scheduled`` carrying
        footprint ``mu``.

        Returns ``(transient, mu_after, new_mask)`` where ``transient`` is
        the footprint right after allocating ``u``'s buffer (the peak
        candidate) and ``mu_after`` is the footprint after deallocations.
        """
        new_mask = scheduled | (1 << u)
        b = self.buffer_of[u]
        if not (self.buf_members[b] & scheduled):
            mu += self.buf_size[b]
        transient = mu
        for b2 in self.check_buffers[u]:
            if self.buf_persistent[b2]:
                continue
            # u in required(b2) guarantees the buffer was not yet freed
            # (and, since members ⊆ required, that it is allocated); it
            # frees now iff every other required node already executed.
            if not (self.buf_required[b2] & ~new_mask):
                mu -= self.buf_size[b2]
        return transient, mu, new_mask

    def footprint_of(self, scheduled: int) -> int:
        """Footprint of an arbitrary downset, from first principles
        (reference for tests; the incremental path is :meth:`step`)."""
        mu = 0
        for b in range(self.n_buffers):
            allocated = bool(self.buf_members[b] & scheduled)
            freed = (
                not self.buf_persistent[b]
                and not (self.buf_required[b] & ~scheduled)
            )
            if allocated and not freed:
                mu += self.buf_size[b]
        return mu


@dataclass(frozen=True)
class MemoryTrace:
    """Footprint evolution of one schedule.

    ``transients[i]`` is the footprint right after step *i*'s allocation
    (the value whose max is the peak); ``footprints[i]`` is the settled
    footprint after step *i*'s deallocations (the curve in Fig 12).
    """

    schedule: Schedule
    transients: np.ndarray
    footprints: np.ndarray

    @property
    def peak_bytes(self) -> int:
        return int(self.transients.max(initial=0))

    @property
    def peak_step(self) -> int:
        return int(self.transients.argmax()) if len(self.transients) else 0

    @property
    def peak_kib(self) -> float:
        return self.peak_bytes / 1024.0

    @cached_property
    def final_bytes(self) -> int:
        """Footprint after the last step (graph outputs)."""
        return int(self.footprints[-1]) if len(self.footprints) else 0


def simulate_schedule(
    graph: Graph,
    schedule: Schedule,
    model: BufferModel | None = None,
    validate: bool = True,
) -> MemoryTrace:
    """Replay ``schedule`` through the buffer model."""
    if validate:
        schedule.validate(graph)
    model = model or BufferModel.of(graph)
    idx = model.index
    n = len(schedule)
    transients = np.zeros(n, dtype=np.int64)
    footprints = np.zeros(n, dtype=np.int64)
    scheduled, mu = 0, 0
    for i, name in enumerate(schedule):
        transient, mu, scheduled = model.step(scheduled, mu, idx.index[name])
        transients[i] = transient
        footprints[i] = mu
    return MemoryTrace(schedule=schedule, transients=transients, footprints=footprints)


def peak_of(graph: Graph, order, model: BufferModel | None = None) -> int:
    """Peak bytes of ``order`` (convenience wrapper)."""
    sched = order if isinstance(order, Schedule) else Schedule(tuple(order), graph.name)
    return simulate_schedule(graph, sched, model=model).peak_bytes
