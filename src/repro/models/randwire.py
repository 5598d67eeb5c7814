"""RandWire randomly wired networks (Xie et al., ICCV 2019).

Generates the random-graph stages ("cells") evaluated on CIFAR10/100.
The generative process follows the paper exactly:

1. sample an undirected graph from a classic random family —
   Watts–Strogatz ``WS(n, k, p)`` (RandWire's default, ``k=4, p=0.75``),
   Erdős–Rényi ``ER(n, p)`` or Barabási–Albert ``BA(n, m)`` — with a
   fixed seed;
2. orient every edge from lower to upper node index (yielding a DAG);
3. nodes without in-edges read from the stage input, nodes without
   out-edges are averaged into the stage output.

Each random node is lowered to one *fused* ``relu → sepconv3x3 → bn``
unit producing a single ``channels x hw x hw`` activation — the paper's
scheduling granularity (one activation tensor per graph node, Fig 6);
the transient depthwise intermediate inside the unit is private to the
fused kernel. Aggregation of multiple in-edges is an explicit ``add``
node (weighted sum in RandWire), so the irregular wiring is fully
visible to the scheduler. There are **no concats**, which is why
identity graph rewriting leaves RandWire untouched — matching Fig 10,
where the DP-only and DP+rewriting bars are identical for RandWire.

Stage emission is level-by-level (topological generations), the order
a framework exporter produces — and the order the TFLite-style baseline
executes.

The default ``ws`` wiring is generated here, draw for draw the
algorithm of ``networkx.connected_watts_strogatz_graph`` (so every cell
is the graph networkx would have produced, pinned by a test), because
importing networkx costs every serving process 10-20 MiB it never uses;
``er``/``ba`` wirings and :func:`random_dag` import it on demand.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.exceptions import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["random_dag", "randwire_stage", "RANDWIRE_DEFAULTS"]

#: the generator settings RandWire uses for its headline results
RANDWIRE_DEFAULTS = {"k": 4, "p": 0.75}

#: attempts at a connected Watts–Strogatz graph (networkx's default)
_WS_TRIES = 100


def _watts_strogatz(n: int, k: int, p: float, rng: random.Random) -> list[set[int]]:
    """Adjacency sets of one ``WS(n, k, p)`` sample: a ring lattice over
    ``k // 2`` neighbours a side, then each lattice edge ``(u, v)``
    rewired with probability ``p`` to ``(u, w)``, ``w`` redrawn until it
    is neither ``u`` nor a neighbour (skipped once ``u`` is saturated)."""
    nodes = list(range(n))
    if k == n:  # networkx returns the complete graph, no rewiring
        return [set(nodes) - {u} for u in nodes]
    adj: list[set[int]] = [set() for _ in nodes]
    for j in range(1, k // 2 + 1):
        for u in nodes:
            v = (u + j) % n
            adj[u].add(v)
            adj[v].add(u)
    for j in range(1, k // 2 + 1):
        for u in nodes:
            v = (u + j) % n
            if rng.random() >= p:
                continue
            w = rng.choice(nodes)
            while w == u or w in adj[u]:
                w = rng.choice(nodes)
                if len(adj[u]) >= n - 1:
                    break
            else:
                adj[u].discard(v)
                adj[v].discard(u)
                adj[u].add(w)
                adj[w].add(u)
    return adj


def _connected(adj: list[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def _dag_edges(
    n: int, generator: str, seed: int, k: int = 4, p: float = 0.75, m: int = 5
) -> set[tuple[int, int]]:
    """Edges ``(lo, hi)`` of the index-oriented random DAG."""
    if generator == "ws":
        if k > n:
            raise GraphError(f"Watts–Strogatz needs k <= n, got k={k}, n={n}")
        rng = random.Random(seed)  # one stream across retries, as networkx
        for _ in range(_WS_TRIES):
            adj = _watts_strogatz(n, k, p, rng)
            if _connected(adj):
                return {(u, v) for u in range(n) for v in adj[u] if u < v}
        raise GraphError(
            f"no connected WS({n}, {k}, {p}) graph in {_WS_TRIES} tries"
        )
    import networkx as nx

    if generator == "er":
        und = nx.erdos_renyi_graph(n, p, seed=seed)
    elif generator == "ba":
        und = nx.barabasi_albert_graph(n, m, seed=seed)
    else:
        raise GraphError(f"unknown random graph generator {generator!r}")
    return {(min(u, v), max(u, v)) for u, v in und.edges()}


def random_dag(
    n: int,
    generator: str = "ws",
    seed: int = 0,
    k: int = 4,
    p: float = 0.75,
    m: int = 5,
) -> nx.DiGraph:
    """A random DAG over nodes ``0..n-1`` via index-orientation.

    ``generator``: ``ws`` (Watts–Strogatz, connected variant), ``er``
    (Erdős–Rényi G(n, p)) or ``ba`` (Barabási–Albert with ``m`` edges
    per new node).
    """
    edges = _dag_edges(n, generator, seed, k=k, p=p, m=m)
    import networkx as nx

    dag = nx.DiGraph()
    dag.add_nodes_from(range(n))
    dag.add_edges_from(sorted(edges))
    return dag


def randwire_stage(
    n: int = 24,
    channels: int = 16,
    hw: int = 16,
    generator: str = "ws",
    seed: int = 0,
    name: str | None = None,
    **gen_kwargs,
) -> Graph:
    """One RandWire stage as a schedulable graph.

    The stage input is a ``channels x hw x hw`` activation; every random
    node is a fused separable-conv unit at the same shape; sink nodes are
    combined by ``add`` and projected by a strided pointwise conv (the
    stage's hand-off to the next resolution).
    """
    preds_of: list[list[int]] = [[] for _ in range(n)]
    has_succ = [False] * n
    for u, v in sorted(_dag_edges(n, generator, seed, **gen_kwargs)):
        preds_of[v].append(u)
        has_succ[u] = True
    # a node's generation is its longest path from a source; edges run
    # low -> high index, so one pass in index order settles every depth
    depth = [0] * n
    for i in range(n):
        depth[i] = 1 + max((depth[j] for j in preds_of[i]), default=-1)
    b = GraphBuilder(name or f"randwire-{generator}{n}-s{seed}")
    x = b.input("x", (channels, hw, hw))

    produced: dict[int, str] = {}
    # level-by-level emission (exporter order): generations of the DAG
    for level in range(max(depth, default=-1) + 1):
        for i in (i for i in range(n) if depth[i] == level):
            preds = preds_of[i]
            if not preds:
                feed = x
            elif len(preds) == 1:
                feed = produced[preds[0]]
            else:
                feed = b.add(
                    *[produced[j] for j in preds], name=f"n{i}/agg"
                )
            r = b.relu(feed, name=f"n{i}/relu")
            s = b.op(
                "fused_sep_conv3x3",
                (r,),
                name=f"n{i}/sep",
                out_channels=channels,
                kernel=3,
            )
            produced[i] = s

    sinks = [i for i in range(n) if not has_succ[i]]
    tail = (
        produced[sinks[0]]
        if len(sinks) == 1
        else b.add(*[produced[i] for i in sinks], name="out/agg")
    )
    b.conv2d(tail, channels * 2, kernel=1, stride=2, name="out/proj")
    return b.build()
