"""Process-sharded serving: multi-process front end over shared-memory rings.

The thread-based :class:`~repro.serving.scheduler.RequestScheduler`
scales until the GIL says stop — the NumPy kernels hold it for most of
a run, so extra thread workers lose throughput (``workers`` defaults to
1 everywhere). :class:`ShardedScheduler` is the parallelism story: it
spawns N
worker **processes**, each owning its own
:class:`~repro.serving.pool.ArenaPool` and
:class:`~repro.serving.scheduler.RequestScheduler` (every serving knob
— ``batch_size``, ``spill``, ``prefetch``, ``link`` — passes through),
behind the same ``submit() -> Future`` API, so ``run_load`` and
``serve`` drive it unchanged.

Two properties make it more than ``multiprocessing.Pool``:

* **Sticky model → shard routing.** Models are assigned to shards by a
  rendezvous (highest-random-weight) hash of their canonical *graph
  signature*: stable across runs, minimally disturbed when the shard
  count changes, and deterministic — so every request for a model
  lands on the one shard whose arenas are already warm, and
  ``preload()`` never builds the same model twice.
* **Zero-copy tensor rings.** Feed and output tensors never pickle.
  Each shard owns two ``multiprocessing.shared_memory`` ring buffers
  (request and response) carved into fixed-size slots; the front end
  writes feed tensors into a request slot and sends only fixed-size
  ``(name, dtype, shape, offset)`` descriptors over the control pipe,
  the worker maps them back as NumPy views straight into the executor,
  and output tensors come back the same way. The pickled control
  message is the same size for a 1 KB and a 1 GB tensor.

Lifecycle is explicit and safe: ``SIGTERM``/``SIGINT`` in a worker
drains its in-flight requests before exit, ``close()`` is idempotent,
the parent always unlinks every shared-memory segment (with a
``weakref.finalize`` backstop), and a shard that dies — during preload
or mid-load — fails fast: its in-flight futures error with
:class:`~repro.exceptions.ServingError` instead of hanging, and other
shards keep serving.

The front end runs **one control thread** (``shard-control``): it
waits on every child pipe through one selector, and between messages
runs a timer heap (retries, respawns) and a supervision tick. It never
blocks — a respawn only spawns; the child's ready message arrives like
any other. Client threads write the ring and send on the pipe
themselves. The scheduler is **self-healing** (``supervise=True``):

* a pipe reaching EOF is a dead shard; the tick SIGKILLs a *wedged*
  one (alive but no heartbeat for ``wedge_timeout_s``) or one that
  missed its ready deadline, so every failure takes the EOF path. Dead
  shards respawn with jittered exponential backoff — same rings, fresh
  slot window, warm preload of the models currently routed there;
* K rapid failures in a row trip a crash-loop **circuit breaker**: the
  shard is marked permanently failed and removed from the rendezvous
  routing, so its models rehash onto the survivors (HRW makes that
  minimal-movement by construction) and service continues;
* requests carry **deadlines** (swept by the tick in flight, never
  outwaited by a pending retry, shed pre-compute in the worker) and
  are **retried** with reroute when the shard under them dies
  (``retries=N``, bounded, jittered, surfaced in
  ``RequestStats.attempts``), while per-shard in-flight
  caps (``max_inflight``) turn unbounded blocking into immediate typed
  :class:`~repro.exceptions.OverloadedError` rejections;
* every recovery action is counted once, on the shard it happened to
  (``restarts``/``retries``/``expired``/``shed`` in
  :class:`ShardStats`); :meth:`ShardedScheduler.stats` sums the shards'
  own :class:`~repro.serving.scheduler.ServingStats` snapshots and
  substitutes those front-end counts — and the whole story is provable
  on demand via ``repro.serving.faults.FaultPlan``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import operator
import os
import random
import selectors
import shutil
import signal
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace
from functools import reduce
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    ShardFailedError,
)
from repro.memsim import OffchipLink
from repro.serving.faults import (
    DelayResponse,
    DropResponse,
    FaultPlan,
    KillMidResponse,
    KillShard,
    WedgeShard,
)
from repro.serving.pool import ArenaPool
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import (
    InferenceResult,
    RequestScheduler,
    RequestStats,
    ServingStats,
)

__all__ = [
    "ShardStats",
    "ShardedScheduler",
    "balanced_routing",
    "rendezvous_shard",
]

#: alignment of every tensor payload inside a ring slot (cache line)
_ALIGN = 64

_START_METHOD = "fork" if "fork" in get_all_start_methods() else "spawn"
_MP = get_context(_START_METHOD)


# ----------------------------------------------------------------------
# sticky routing: rendezvous hashing on the graph signature
# ----------------------------------------------------------------------
def _rendezvous_score(key: str, shard: int) -> int:
    digest = hashlib.blake2b(
        f"{key}|{shard}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_shard(key: str, shards: int) -> int:
    """Highest-random-weight shard for ``key`` (deterministic).

    Unlike ``hash(key) % shards`` this is stable across interpreter
    runs (no hash randomisation) and rebalances *minimally*: going from
    ``n`` to ``n + 1`` shards moves only the keys whose new shard wins
    the rendezvous — roughly ``1 / (n + 1)`` of them — and every moved
    key moves *to the new shard*, never between surviving ones.
    """
    if shards < 1:
        raise ServingError(f"shards must be >= 1, got {shards}")
    return max(range(shards), key=lambda i: _rendezvous_score(key, i))


def balanced_routing(
    keys: Mapping[str, str], shards: int | Sequence[int]
) -> dict[str, int]:
    """Sticky, balanced model→shard assignment for a whole registry.

    Pure rendezvous on a *small* model set can pile everything onto one
    shard by hash luck — which would quietly erase the sharding win.
    This keeps the rendezvous preference (each model goes to its
    highest-scoring shard) but restricts the choice to the currently
    least-loaded shards, so ``n`` models spread over ``min(n, shards)``
    shards. Models are placed in signature order, so the assignment is
    deterministic for a given (model set, shard count) — every restart
    routes the same model to the same warm shard.

    ``shards`` is a shard count *or* an explicit list of eligible shard
    ids: when the circuit breaker removes a failed shard, routing is
    recomputed over the survivors, and rendezvous scoring guarantees
    that models already on a survivor stay put — only the failed
    shard's models move.
    """
    if isinstance(shards, int):
        if shards < 1:
            raise ServingError(f"shards must be >= 1, got {shards}")
        ids = list(range(shards))
    else:
        ids = list(shards)
    if not ids:
        raise ServingError("routing needs at least one eligible shard")
    if len(set(ids)) != len(ids) or min(ids) < 0:
        raise ServingError(f"invalid shard id list {ids}")
    load = {i: 0 for i in ids}
    routing: dict[str, int] = {}
    for name in sorted(keys, key=lambda n: (keys[n], n)):
        floor = min(load.values())
        candidates = [i for i in ids if load[i] == floor]
        shard = max(
            candidates, key=lambda i: _rendezvous_score(keys[name], i)
        )
        routing[name] = shard
        load[shard] += 1
    return routing


# ----------------------------------------------------------------------
# shared-memory tensor rings
# ----------------------------------------------------------------------
def _attach_shm(name: str) -> SharedMemory:
    """Attach to an existing segment a worker does not own.

    Pre-3.13 ``SharedMemory`` registers the segment with the resource
    tracker on *attach*, not just create (bpo-39959). Under ``spawn``
    the child has its own tracker, which would warn "leaked
    shared_memory" at exit — worse, *unlink* the parent's live segment
    while cleaning up — so the child must unregister. Under ``fork``
    the tracker process is shared with the parent: the attach-side
    re-register is an idempotent set-add, and unregistering here would
    strip the parent's entry and break its own ``unlink``. Python 3.13
    grew ``track=False`` for exactly this dance.
    """
    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        shm = SharedMemory(name=name)
        if _START_METHOD == "spawn":
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return shm


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class _TensorRing:
    """A shared-memory segment carved into fixed-size tensor slots.

    ``write`` packs a dict of arrays into one slot and returns the
    fixed-size descriptors ``(name, dtype, shape, offset)`` that cross
    the control pipe; ``read`` maps descriptors back to zero-copy NumPy
    views over the segment. Slot bookkeeping (who may write which slot)
    lives with the writing side — :class:`_SlotPool` — not here.
    """

    def __init__(
        self, slot_bytes: int, slots: int, *, name: str | None = None
    ) -> None:
        self.slot_bytes = slot_bytes
        self.slots = slots
        if name is None:
            self.shm = SharedMemory(create=True, size=slot_bytes * slots)
            self.owner = True
        else:
            self.shm = _attach_shm(name)
            self.owner = False

    @property
    def name(self) -> str:
        return self.shm.name

    def write(
        self, slot: int, arrays: Mapping[str, np.ndarray]
    ) -> tuple[tuple[str, str, tuple[int, ...], int], ...]:
        """Pack ``arrays`` into ``slot``; returns pipe descriptors."""
        base = slot * self.slot_bytes
        cursor = 0
        descs = []
        for name, array in arrays.items():
            a = np.ascontiguousarray(array)
            cursor = _align(cursor)
            if cursor + a.nbytes > self.slot_bytes:
                raise ServingError(
                    f"tensor payload exceeds the ring slot: {name!r} at "
                    f"offset {cursor} + {a.nbytes} bytes > slot "
                    f"{self.slot_bytes} bytes"
                )
            if a.size:
                view = np.frombuffer(
                    self.shm.buf,
                    dtype=a.dtype,
                    count=a.size,
                    offset=base + cursor,
                )
                view[...] = a.ravel()
            descs.append((name, a.dtype.str, tuple(a.shape), base + cursor))
            cursor += a.nbytes
        return tuple(descs)

    def read(
        self, descs: Iterable[tuple[str, str, tuple[int, ...], int]]
    ) -> dict[str, np.ndarray]:
        """Descriptors back to zero-copy views into the segment."""
        out: dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in descs:
            dt = np.dtype(dtype)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            out[name] = np.frombuffer(
                self.shm.buf, dtype=dt, count=count, offset=offset
            ).reshape(shape)
        return out

    def close(self) -> None:
        try:
            self.shm.close()
        except BufferError:
            # a NumPy view over the segment is still alive somewhere;
            # the mapping is released when the last view dies (or the
            # process exits) — unlink below does not need it closed
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double close
            pass


class _SlotPool:
    """Free-slot bookkeeping for one ring (the writing side owns it)."""

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self._free = set(range(slots))
        self._cond = threading.Condition()
        self._dead = False
        self.peak = 0

    def acquire(self, timeout: float | None = 30.0) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._free:
                if self._dead:
                    raise ShardFailedError("ring is closed (the shard died)")
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if (
                    remaining is not None and remaining <= 0.0
                ) or not self._cond.wait(timeout=remaining):
                    raise OverloadedError(
                        f"timed out after {timeout}s waiting for a free "
                        f"ring slot ({self.slots} slots all in flight)"
                    )
            if self._dead:
                raise ShardFailedError("ring is closed (the shard died)")
            slot = self._free.pop()
            self.peak = max(self.peak, self.slots - len(self._free))
            return slot

    def release(self, slot: int) -> None:
        with self._cond:
            self._free.add(slot)
            self._cond.notify()

    def in_use(self) -> int:
        with self._cond:
            return self.slots - len(self._free)

    def kill(self) -> None:
        """Wake every waiter with an error (the shard died)."""
        with self._cond:
            self._dead = True
            self._cond.notify_all()


def _slot_bytes_for(models: Iterable) -> int:
    """One slot must hold any request or response payload of ``models``:
    a request carries the graph's inputs, a response its sinks, each
    tensor aligned in the slot (4096 bytes at least). Tensors are sized
    at 8 bytes an element: responses are float32, but a caller may
    still submit float64 feeds, which travel as they arrive."""
    worst = 4096
    for model in models:
        graph = model.graph
        for names in (graph.input_nodes, graph.sinks):
            worst = max(
                worst,
                sum(
                    _align(max(1, graph.node(name).output.elements) * 8)
                    for name in names
                ),
            )
    return worst


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardConfig:
    """Everything a worker process needs to build its serving stack.

    Only primitives, paths and small frozen dataclasses — picklable
    under ``spawn`` as well as ``fork``. Models arrive as artifact
    *paths* (re-opened and signature-verified in the child), never as
    pickled graphs.
    """

    shard: int
    models: tuple[tuple[str, str], ...]  # (serving name, artifact path)
    #: keyword arguments of the child's :class:`ArenaPool` and
    #: :class:`RequestScheduler`, exactly as their constructors spell them
    pool: dict[str, Any]
    scheduler: dict[str, Any]
    preload: bool
    req_ring: tuple[str, int, int]  # (shm name, slot_bytes, slots)
    resp_ring: tuple[str, int, int]
    #: models to warm on preload — every shard *loads* all artifacts
    #: (so rerouted models can be served after a peer fails) but warms
    #: only the ones currently routed to it
    preload_models: tuple[str, ...] = ()
    #: which life of this shard this is (0 = first); fault plans use it
    #: to fire only in chosen incarnations
    incarnation: int = 0
    #: seconds between ("hb",) heartbeats to the parent
    heartbeat_s: float = 0.25
    #: deterministic fault schedule (test/chaos only)
    faults: FaultPlan | None = None


def _shard_worker_main(cfg: _ShardConfig, conn) -> None:  # pragma: no cover
    # covered by the cross-process tests; coverage can't see children
    try:
        _ShardWorker(cfg, conn).run()
    except BaseException as exc:
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


class _ShardWorker:
    """The event loop that runs inside one shard process."""

    def __init__(self, cfg: _ShardConfig, conn) -> None:
        self.cfg = cfg
        self.conn = conn
        self._send_lock = threading.Lock()
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._draining = False
        self._last_hb = time.monotonic()
        self.injector = (
            cfg.faults.injector(cfg.shard, cfg.incarnation)
            if cfg.faults is not None
            else None
        )

        registry = ModelRegistry()
        for name, path in cfg.models:
            registry.load(path, name)
        self.pool = ArenaPool(registry, **cfg.pool)
        self.scheduler = RequestScheduler(registry, self.pool, **cfg.scheduler)
        if self.injector is not None:
            self.scheduler.run_hook = self._run_hook
        self.scheduler.start()
        preloaded = (
            self.pool.preload(cfg.preload_models) if cfg.preload else []
        )

        req_name, req_slot_bytes, req_slots = cfg.req_ring
        resp_name, resp_slot_bytes, resp_slots = cfg.resp_ring
        self.req_ring = _TensorRing(req_slot_bytes, req_slots, name=req_name)
        self.resp_ring = _TensorRing(
            resp_slot_bytes, resp_slots, name=resp_name
        )
        self.resp_slots = _SlotPool(resp_slots)

        signal.signal(signal.SIGTERM, self._signal)
        signal.signal(signal.SIGINT, self._signal)
        self._send(("ready", os.getpid(), tuple(preloaded)))

    # ------------------------------------------------------------------
    def _signal(self, signum, frame) -> None:
        # drain: finish everything already accepted, then exit; the
        # main loop keeps answering free_resp so responses can retire
        self._draining = True

    def _run_hook(self) -> None:
        """Scheduler dispatch hook: injects pending engine stalls."""
        if self.injector is None:
            return
        stall = self.injector.take_stall()
        if stall is not None:
            time.sleep(stall)

    def _send(self, msg: tuple) -> None:
        with self._send_lock:
            self.conn.send(msg)

    def _send_error(self, req_id: int, exc: BaseException, req_slot: int) -> None:
        try:
            self._send(("err", req_id, exc, req_slot))
        except Exception:
            # unpicklable exception: degrade to a string-carrying one
            try:
                self._send(
                    (
                        "err",
                        req_id,
                        ServingError(f"{type(exc).__name__}: {exc}"),
                        req_slot,
                    )
                )
            except Exception:  # parent is gone; nothing left to tell
                pass

    # ------------------------------------------------------------------
    def _on_request(
        self, req_id: int, model, descs, req_slot, deadline_s=None
    ) -> None:
        if self.injector is not None:
            # fault hooks fire before the request is accepted: a kill
            # here is the hard-crash case the supervisor must survive
            for fault in self.injector.on_request(req_id):
                if isinstance(fault, WedgeShard):
                    time.sleep(fault.stall_s)
                elif isinstance(fault, KillShard):
                    os.kill(os.getpid(), signal.SIGKILL)
        if self._draining:
            self._send_error(
                req_id, ShardFailedError("shard is draining"), req_slot
            )
            return
        try:
            feeds = self.req_ring.read(descs)
            future = self.scheduler.submit(model, feeds, deadline_s=deadline_s)
        except Exception as exc:
            self._send_error(req_id, exc, req_slot)
            return
        with self._pending_lock:
            self._pending += 1
        future.add_done_callback(
            lambda fut: self._on_done(req_id, req_slot, fut)
        )

    def _on_done(self, req_id: int, req_slot: int, future: Future) -> None:
        """Runs on a scheduler worker thread when a request resolves."""
        try:
            exc = future.exception()
            if exc is not None:
                self._send_error(req_id, exc, req_slot)
                return
            result: InferenceResult = future.result()
            try:
                resp_slot = self.resp_slots.acquire(timeout=60.0)
            except ServingError as slot_exc:
                self._send_error(req_id, slot_exc, req_slot)
                return
            try:
                descs = self.resp_ring.write(resp_slot, result.outputs)
            except Exception as write_exc:
                self.resp_slots.release(resp_slot)
                self._send_error(req_id, write_exc, req_slot)
                return
            if self.injector is not None:
                for fault in self.injector.response_faults(req_id):
                    if isinstance(fault, KillMidResponse):
                        # the partial-response crash window: payload
                        # written, parent never notified
                        os.kill(os.getpid(), signal.SIGKILL)
                    elif isinstance(fault, DelayResponse):
                        time.sleep(fault.delay_s)
                    elif isinstance(fault, DropResponse):
                        self.resp_slots.release(resp_slot)
                        return
            self._send(
                ("res", req_id, result.stats, descs, req_slot, resp_slot)
            )
        finally:
            with self._pending_lock:
                self._pending -= 1

    # ------------------------------------------------------------------
    def run(self) -> None:
        shutdown = False
        while True:
            if (shutdown or self._draining) and self._pending_count() == 0:
                break
            now = time.monotonic()
            if now - self._last_hb >= self.cfg.heartbeat_s:
                # liveness signal: a wedged event loop stops sending
                # these, which is exactly what the parent's wedge
                # detector keys on
                self._last_hb = now
                try:
                    self._send(("hb",))
                except Exception:
                    pass
            if not self.conn.poll(0.05):
                continue
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                break  # parent is gone: drain and leave
            kind = msg[0]
            if kind == "req":
                _, req_id, model, descs, req_slot, deadline_s = msg
                if shutdown:
                    self._send_error(
                        req_id, ShardFailedError("shard is draining"), req_slot
                    )
                else:
                    self._on_request(req_id, model, descs, req_slot, deadline_s)
            elif kind == "free_resp":
                self.resp_slots.release(msg[1])
            elif kind == "stats":
                # latencies stay with the front end, which times end to end
                served = replace(self.scheduler.stats(), latencies_s=())
                reply = (served, self.scheduler.queue_depth, self.resp_slots.peak)
                self._send(("stats_res", msg[1], reply))
            elif kind == "shutdown":
                shutdown = True
        # answer whatever is still sitting unread in the pipe: requests
        # that lost the race against the drain decision get a clean
        # error here instead of silently dying with the EOF
        while True:
            try:
                if not self.conn.poll(0):
                    break
                msg = self.conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "req":
                self._send_error(
                    msg[1], ShardFailedError("shard is draining"), msg[5]
                )
            elif msg[0] == "free_resp":
                self.resp_slots.release(msg[1])
        self.scheduler.shutdown(wait=True)
        self.pool.close()
        self.req_ring.close()
        self.resp_ring.close()
        try:
            self._send(("bye",))
        except Exception:
            pass
        self.conn.close()

    def _pending_count(self) -> int:
        with self._pending_lock:
            return self._pending


# ----------------------------------------------------------------------
# front-end side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardStats:
    """One shard's slice of the serving run (see
    :meth:`ShardedScheduler.shard_stats`): the front end's counts for
    this shard plus the shard's own scheduler snapshot."""

    shard: int
    pid: int
    alive: bool
    #: models the rendezvous hash routes to this shard
    models: tuple[str, ...]
    #: requests completed through this shard (front-end count)
    requests: int
    errors: int
    #: most requests ever in flight to this shard at once
    inflight_peak: int
    #: child-side scheduler queue depth at snapshot time
    queue_depth: int
    #: request-ring occupancy: slots, high-water mark
    req_slots: int
    req_ring_peak: int
    resp_slots: int
    resp_ring_peak: int
    #: the child scheduler's own snapshot without latencies: executor
    #: runs (requests / batches = stacking), spill accounting, pool
    #: (the last one received is kept after the shard dies)
    served: ServingStats
    #: times the supervisor respawned this shard's process
    restarts: int = 0
    #: retry dispatches routed to this shard after a peer (or an
    #: earlier life of this shard) failed with the request in flight
    retries: int = 0
    #: requests that missed their deadline on this shard (swept in
    #: flight by the parent, or shed pre-compute by the child)
    expired: int = 0
    #: requests rejected immediately by overload control
    shed: int = 0
    #: circuit breaker open: crash-looped past the strike limit and
    #: permanently removed from routing (its models rehashed away)
    failed: bool = False
    #: which life of the process the stats describe (0 = never died)
    incarnation: int = 0

    def to_doc(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(eq=False)
class _Request:
    """One client request across all its submission attempts: its
    deadline, its retry budget, and where the live attempt runs."""

    model: str
    feeds: Mapping[str, np.ndarray]
    future: Future
    #: ``time.perf_counter()`` at first submit — the latency base
    enqueued_at: float
    #: absolute ``time.monotonic()`` deadline, or ``None``
    deadline: float | None
    retries_left: int
    attempts: int = 0
    #: the shard the latest attempt went to
    shard: int = -1

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


class _ShardHandle:
    """Parent-side state for one worker process."""

    def __init__(
        self,
        shard: int,
        models: tuple[str, ...],
        req_ring: _TensorRing,
        resp_ring: _TensorRing,
    ) -> None:
        self.shard = shard
        self.models = models
        self.req_ring = req_ring
        self.resp_ring = resp_ring
        self.req_slots = _SlotPool(req_ring.slots)
        self.process = None
        self.conn = None
        self.pid = -1
        self.alive = False
        self.byed = False
        self.send_lock = threading.Lock()
        # front-end accounting (guarded by the scheduler's lock)
        self.completed = 0
        self.errors = 0
        self.inflight = 0
        self.inflight_peak = 0
        #: last child snapshot, queue depth and response-ring peak
        #: (refreshed by stats(); kept after death)
        self.served = ServingStats(
            requests=0, errors=0, batches=0, latencies_s=()
        )
        self.queue_depth = 0
        self.resp_ring_peak = 0
        # --- supervision state (touched by the control thread) ---
        #: which life of the process is (or was) running
        self.incarnation = 0
        #: monotonic time of the last message received from the child
        self.last_hb = 0.0
        #: monotonic time the current incarnation reported ready
        self.last_ready = 0.0
        #: monotonic time by which the current incarnation must report
        #: ready, and why it never did (start() raises that)
        self.ready_by = math.inf
        self.failure: str | None = None
        #: consecutive rapid failures (crash-loop strikes)
        self.strikes = 0
        #: completed respawns
        self.restarts = 0
        #: circuit breaker open — permanently out of routing
        self.failed = False
        # recovery accounting (guarded by the scheduler's lock)
        self.retries = 0
        self.expired = 0
        self.shed = 0

    def send(self, msg: tuple) -> None:
        with self.send_lock:
            self.conn.send(msg)


def _unlink_segments(names: list[str]) -> None:
    """finalizer backstop: never leak a segment, even without close()."""
    for name in names:
        try:
            shm = SharedMemory(name=name)
        except FileNotFoundError:
            continue
        shm.close()
        shm.unlink()


class ShardedScheduler:
    """Process-sharded serving front end with the thread scheduler's API.

    >>> with ShardedScheduler(registry, shards=4) as server:
    ...     result = server.submit("rw-micro-a", feeds).result()

    Parameters mirror :class:`~repro.serving.scheduler.RequestScheduler`
    plus the :class:`~repro.serving.pool.ArenaPool` knobs, which pass
    through to every shard's private pool (``budget`` bounds each shard
    separately — a shard *is* a device). ``preload=True`` warms each
    shard's arenas for exactly the models routed to it, so preloads are
    never duplicated across shards. ``workers`` is the dispatcher
    thread count *inside* each shard (default 1 — threads share a GIL
    and measure slower; add shards, not workers).

    ``ring_slots`` bounds the per-shard in-flight window: the request
    ring has that many tensor slots, and ``submit`` exerts backpressure
    (blocks up to ``submit_timeout``) when all are in flight.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        shards: int,
        workers: int = 1,
        max_batch: int = 1,
        batch_size: int | None = None,
        budget=None,
        seed: int = 0,
        scrub: str = "never",
        spill: str = "never",
        tile_bytes: int | None = None,
        prefetch: bool = True,
        link: OffchipLink | None = None,
        preload: bool = False,
        ring_slots: int = 16,
        submit_timeout: float = 30.0,
        start_timeout: float = 120.0,
        deadline_s: float | None = None,
        retries: int = 0,
        max_inflight: int | None = None,
        supervise: bool = True,
        heartbeat_s: float = 0.25,
        wedge_timeout_s: float | None = 10.0,
        restart_backoff_s: float = 0.25,
        restart_backoff_max_s: float = 4.0,
        crashloop_window_s: float = 5.0,
        crashloop_threshold: int = 3,
        retry_backoff_s: float = 0.05,
        faults: FaultPlan | None = None,
    ) -> None:
        if shards < 1:
            raise ServingError(f"shards must be >= 1, got {shards}")
        if deadline_s is not None and deadline_s <= 0:
            raise ServingError(f"deadline_s must be > 0, got {deadline_s}")
        if retries < 0:
            raise ServingError(f"retries must be >= 0, got {retries}")
        if max_inflight is not None and max_inflight < 1:
            raise ServingError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if heartbeat_s <= 0:
            raise ServingError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if wedge_timeout_s is not None and wedge_timeout_s <= heartbeat_s:
            raise ServingError(
                "wedge_timeout_s must exceed heartbeat_s "
                f"({wedge_timeout_s} <= {heartbeat_s})"
            )
        if crashloop_threshold < 1:
            raise ServingError(
                f"crashloop_threshold must be >= 1, got {crashloop_threshold}"
            )
        if not registry.names():
            raise ServingError("registry has no models to shard")
        if ring_slots < 1:
            raise ServingError(f"ring_slots must be >= 1, got {ring_slots}")
        self.registry = registry
        self.shards = shards
        #: every shard's private pool and dispatcher, as keyword
        #: arguments the child process splats into their constructors
        self._pool_kwargs: dict[str, Any] = dict(
            budget=(
                budget if budget is None or isinstance(budget, int)
                else budget.sram_bytes
            ),
            seed=seed,
            scrub=scrub,
            batch_size=max_batch if batch_size is None else batch_size,
            spill=spill,
            tile_bytes=tile_bytes,
            prefetch=prefetch,
            link=link,
        )
        self._scheduler_kwargs: dict[str, Any] = dict(
            workers=workers, max_batch=max_batch
        )
        self.preload = preload
        self.ring_slots = ring_slots
        self.submit_timeout = submit_timeout
        self.start_timeout = start_timeout
        self.deadline_s = deadline_s
        self.retries = retries
        self.max_inflight = max_inflight
        self.supervise = supervise
        self.heartbeat_s = heartbeat_s
        self.wedge_timeout_s = wedge_timeout_s
        self.restart_backoff_s = restart_backoff_s
        self.restart_backoff_max_s = restart_backoff_max_s
        self.crashloop_window_s = crashloop_window_s
        self.crashloop_threshold = crashloop_threshold
        self.retry_backoff_s = retry_backoff_s
        self.faults = faults

        #: sticky routing table: model name -> shard id, by rendezvous
        #: hash of the model's canonical graph signature under a
        #: least-loaded balance constraint (see :func:`balanced_routing`)
        self.routing = balanced_routing(
            {name: registry.get(name).signature for name in registry.names()},
            shards,
        )
        self._lock = threading.Lock()
        #: start() waits on it for every shard's ready (or a failure)
        self._ready = threading.Condition(self._lock)
        self._req_ids = itertools.count()
        self._inflight: dict[int, _Request] = {}
        self._latencies: list[float] = []
        #: failures no shard is charged with (e.g. a deadline expiring
        #: while a retry waits); everything else counts on its handle
        self._errors = 0
        self._expired = 0
        self._stats_waiters: dict[int, tuple[threading.Event, list]] = {}
        self._stats_tokens = itertools.count()
        self._handles: list[_ShardHandle] = []
        self._spool_dir: Path | None = None
        self._started = False
        self._closed = False
        self._finalizer: weakref.finalize | None = None
        #: (due, seq, action, arg) timers — retries and respawns — run
        #: by the control thread; pushed under self._lock
        self._timers: list[tuple[float, int, Any, Any]] = []
        self._timer_seq = itertools.count()
        self._rng = random.Random(seed ^ 0x5EED)
        #: every live child pipe, registered at spawn, dropped at EOF
        self._selector: selectors.BaseSelector | None = None
        self._control: threading.Thread | None = None
        self._paths: dict[str, str] = {}
        self._slot_bytes = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spool_models(self) -> dict[str, str]:
        """Artifact path per model, re-openable from a child process.

        Models the registry loaded from disk are re-opened by their
        original path; in-memory registrations are spooled once to a
        private directory the scheduler owns (and removes on close).
        """
        paths: dict[str, str] = {}
        for name in self.registry.names():
            path = self.registry.path_of(name)
            if path is None:
                if self._spool_dir is None:
                    self._spool_dir = Path(
                        tempfile.mkdtemp(prefix="repro-shards-")
                    )
                path = self._spool_dir / f"model-{len(paths)}.json"
                self.registry.get(name).save(path)
            paths[name] = str(path)
        return paths

    def start(self) -> "ShardedScheduler":
        """Spawn every shard, start the control thread, and block until
        each shard reports ready — or raise why one did not.

        A worker that dies during startup (artifact load failure, OOM
        during preload, import crash) must surface as a clear error
        here, never as futures that hang later.
        """
        if self._started:
            return self
        if self._closed:
            raise ServingError("sharded scheduler is closed")
        self._paths = self._spool_models()
        # one slot must fit ANY model's payload: after a breaker trip a
        # surviving shard can inherit any model, so rings are sized to
        # the registry-wide worst case up front
        self._slot_bytes = _slot_bytes_for(
            self.registry.get(name) for name in self.registry.names()
        )
        by_shard: dict[int, list[str]] = {i: [] for i in range(self.shards)}
        for name, shard in self.routing.items():
            by_shard[shard].append(name)
        segment_names: list[str] = []
        self._selector = selectors.DefaultSelector()
        try:
            for shard in range(self.shards):
                models = tuple(sorted(by_shard[shard]))
                req_ring = _TensorRing(self._slot_bytes, self.ring_slots)
                segment_names.append(req_ring.name)
                resp_ring = _TensorRing(self._slot_bytes, self.ring_slots)
                segment_names.append(resp_ring.name)
                handle = _ShardHandle(shard, models, req_ring, resp_ring)
                # registered before spawn so a failed start tears the
                # rings down (and unlinks them) with everything else
                self._handles.append(handle)
                self._spawn_child(handle)
            self._control = threading.Thread(
                target=self._control_loop, name="shard-control", daemon=True
            )
            self._control.start()
            with self._lock:
                self._ready.wait_for(
                    lambda: all(h.alive for h in self._handles)
                    or any(h.failure for h in self._handles)
                )
                failed = next((h for h in self._handles if h.failure), None)
                # set under the lock the control thread reads it under:
                # a shard dying from here on is respawned, not a failed
                # start
                self._started = failed is None
            if failed is not None:
                failed.process.join(timeout=5.0)
                raise ServingError(
                    f"shard {failed.shard} {failed.failure} (exit code "
                    f"{failed.process.exitcode}, models {list(failed.models)})"
                )
        except BaseException:
            self._closed = True
            self._teardown()
            raise
        self._finalizer = weakref.finalize(
            self, _unlink_segments, segment_names
        )
        return self

    def _make_cfg(self, handle: _ShardHandle) -> _ShardConfig:
        """Worker config for (this incarnation of) one shard: every
        artifact is loadable, only the currently-routed models warm."""
        with self._lock:
            preload_models = tuple(
                sorted(
                    name
                    for name, shard in self.routing.items()
                    if shard == handle.shard
                )
            )
        return _ShardConfig(
            shard=handle.shard,
            models=tuple(sorted(self._paths.items())),
            pool=self._pool_kwargs,
            scheduler=self._scheduler_kwargs,
            preload=self.preload,
            req_ring=(handle.req_ring.name, self._slot_bytes, self.ring_slots),
            resp_ring=(
                handle.resp_ring.name,
                self._slot_bytes,
                self.ring_slots,
            ),
            preload_models=preload_models,
            incarnation=handle.incarnation,
            heartbeat_s=self.heartbeat_s,
            faults=self.faults,
        )

    def _spawn_child(self, handle: _ShardHandle) -> None:
        """Fork/spawn one worker process, wire its pipe into ``handle``
        and register it with the control thread's selector (used by
        first start and by respawn alike). Returns without waiting: the
        child's ``("ready",)`` arrives through the selector."""
        parent_conn, child_conn = _MP.Pipe()
        cfg = self._make_cfg(handle)
        process = _MP.Process(
            target=_shard_worker_main,
            args=(cfg, child_conn),
            name=f"serve-shard-{handle.shard}-i{handle.incarnation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.conn = parent_conn
        handle.process = process
        handle.byed = False
        handle.failure = None
        handle.ready_by = time.monotonic() + self.start_timeout
        self._selector.register(parent_conn, selectors.EVENT_READ, handle)

    def shutdown(self, wait: bool = True) -> None:
        """Drain every shard, stop the workers, unlink all segments.

        Idempotent; also reachable as :meth:`close` and ``__exit__``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._started = False
        for handle in self._handles:
            if handle.alive:
                try:
                    handle.send(("shutdown",))
                except (OSError, ValueError):
                    pass
        if wait:
            deadline = time.monotonic() + 30.0
            for handle in self._handles:
                if handle.process is not None:
                    handle.process.join(
                        timeout=max(0.1, deadline - time.monotonic())
                    )
        self._teardown()

    close = shutdown

    def _teardown(self) -> None:
        # every child dead means every pipe reaches EOF, which is what
        # lets the control thread drain its last messages and exit
        for handle in self._handles:
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
        if self._control is not None:
            if self._control is not threading.current_thread():
                self._control.join(timeout=10.0)
            self._control = None
        for handle in self._handles:
            handle.alive = False
            handle.req_slots.kill()
            if handle.conn is not None:
                with handle.send_lock:
                    handle.conn.close()
            if handle.process is not None and handle.process.exitcode is not None:
                # frees the process's own pipe fds now, not at GC
                handle.process.close()
            handle.req_ring.close()
            handle.resp_ring.close()
            handle.req_ring.unlink()
            handle.resp_ring.unlink()
        if self._selector is not None:
            self._selector.close()
        self._fail_inflight(
            None, ServingError("sharded scheduler shut down")
        )
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None

    def __enter__(self) -> "ShardedScheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def route(self, model: str) -> int:
        """The shard ``model`` is sticky-routed to."""
        shard = self.routing.get(model)
        if shard is None:
            self.registry.get(model)  # raises the canonical unknown-model
            raise ServingError(f"model {model!r} has no route")
        return shard

    def submit(
        self,
        model: str,
        feeds: Mapping[str, np.ndarray],
        *,
        deadline_s: float | None = None,
        retries: int | None = None,
    ) -> Future:
        """Enqueue one inference on the model's sticky shard; resolves
        to an :class:`~repro.serving.scheduler.InferenceResult`. The
        feed tensors are written into the shard's shared-memory request
        ring — only descriptors cross the pipe.

        ``deadline_s`` (default: the scheduler's) bounds the request
        end to end: past it, the future fails with
        :class:`~repro.exceptions.DeadlineExceededError` — whether the
        request is queued in the child (shed before compute), in flight
        on a dead or wedged shard (swept by the control thread), or
        waiting to retry. ``retries`` (default: the scheduler's)
        resubmits the request — rerouted
        through the *current* routing table — when a shard dies or
        drains with it in flight; the attempt count is surfaced in
        ``result.stats.attempts``. With ``retries == 0`` a dead shard
        raises :class:`~repro.exceptions.ShardFailedError`
        synchronously, as before; an overloaded shard always raises
        :class:`~repro.exceptions.OverloadedError` synchronously —
        flow control must push back, not buffer."""
        self.route(model)  # fail fast on unknown models
        if deadline_s is None:
            deadline_s = self.deadline_s
        if retries is None:
            retries = self.retries
        request = _Request(
            model=model,
            feeds=feeds,
            future=Future(),
            enqueued_at=time.perf_counter(),
            deadline=(
                None if deadline_s is None else time.monotonic() + deadline_s
            ),
            retries_left=retries,
        )
        try:
            self._send_attempt(request)
        except ShardFailedError as exc:
            # dying shard on the FIRST attempt: with retries budgeted,
            # absorb it — schedule the retry and hand back the future
            if request.retries_left > 0 and not request.expired():
                self._schedule_retry(request, exc)
            else:
                raise
        return request.future

    def _send_attempt(self, request: _Request, retry: bool = False) -> None:
        """One submission attempt of ``request`` to its current shard.

        Runs on the submitting client thread, or on the control thread
        for a retry — which must not block, so it takes a ring slot
        only if one is free right now. Raises
        :class:`~repro.exceptions.ShardFailedError` (retryable),
        :class:`~repro.exceptions.OverloadedError` (shed), or plain
        :class:`~repro.exceptions.ServingError`. Every failure path
        releases anything it acquired — most importantly the ring slot,
        which used to leak if the pipe send raised."""
        request.attempts += 1
        if not self._started or self._closed:
            raise ServingError(
                "sharded scheduler is not running (call start())"
            )
        shard = self.route(request.model)
        handle = self._handles[shard]
        if handle.failed:
            raise ShardFailedError(
                f"shard {shard} is dead (circuit breaker open); requests "
                f"for {request.model!r} cannot be served"
            )
        if not handle.alive:
            raise ShardFailedError(
                f"shard {shard} is dead; requests for {request.model!r} "
                "cannot be served"
            )
        if self.max_inflight is not None:
            with self._lock:
                if handle.inflight >= self.max_inflight:
                    handle.shed += 1
                    raise OverloadedError(
                        f"shard {shard} is at its in-flight cap "
                        f"({self.max_inflight}); request for "
                        f"{request.model!r} shed"
                    )
        if retry:
            with self._lock:
                handle.retries += 1
        try:
            req_slot = handle.req_slots.acquire(
                timeout=0.0 if retry else self.submit_timeout
            )
        except OverloadedError:
            with self._lock:
                handle.shed += 1
            raise
        req_id = next(self._req_ids)
        request.shard = shard
        try:
            descs = handle.req_ring.write(req_slot, request.feeds)
            deadline_rem = (
                None
                if request.deadline is None
                else request.deadline - time.monotonic()
            )
            with self._lock:
                self._inflight[req_id] = request
                handle.inflight += 1
                handle.inflight_peak = max(
                    handle.inflight_peak, handle.inflight
                )
            try:
                handle.send(
                    (
                        "req",
                        req_id,
                        request.model,
                        descs,
                        req_slot,
                        deadline_rem,
                    )
                )
            except (OSError, ValueError, BrokenPipeError) as exc:
                raise ShardFailedError(
                    f"shard {shard} died mid-send: {exc}"
                ) from exc
        except BaseException:
            with self._lock:
                if self._inflight.pop(req_id, None) is not None:
                    handle.inflight -= 1
            handle.req_slots.release(req_slot)
            raise

    # ------------------------------------------------------------------
    # the control thread: child pipes, timers, supervision
    # ------------------------------------------------------------------
    def _control_loop(self) -> None:
        """The front end's one thread: dispatch whatever the child
        pipes deliver, run due timers, and tick. Nothing here blocks.
        After close it reads on until every pipe hits EOF, so work the
        children drain still resolves."""
        tick = min(0.05, self.heartbeat_s / 2.0)
        next_tick = time.monotonic() + tick
        while True:
            timeout = next_tick - time.monotonic()
            if self._timers:
                timeout = min(timeout, self._timers[0][0] - time.monotonic())
            for key, _ in self._selector.select(max(0.0, timeout)):
                self._on_readable(key.data)
            now = time.monotonic()
            self._run_timers(now)
            if now >= next_tick:
                self._tick(now)
                next_tick = now + tick
            if self._closed and not self._selector.get_map():
                break
        self._run_timers(now)  # closed: fails every retry still waiting

    def _on_readable(self, handle: _ShardHandle) -> None:
        try:
            msg = handle.conn.recv()
        except (EOFError, OSError):
            self._on_eof(handle)
            return
        handle.last_hb = time.monotonic()
        kind = msg[0]
        if kind == "res":
            self._on_result(handle, *msg[1:])
        elif kind == "err":
            self._on_error(handle, *msg[1:])
        elif kind == "stats_res":
            self._on_stats(handle, msg[1], msg[2])
        elif kind == "ready":
            self._on_ready(handle, msg[1])
        elif kind == "fatal":
            handle.failure = f"died during startup: {msg[1]}"
        elif kind == "bye":
            handle.byed = True

    def _at(self, due: float, action, arg) -> None:
        """Run ``action(arg)`` on the control thread at monotonic
        ``due`` (or the next tick). Caller must hold ``self._lock``."""
        heapq.heappush(self._timers, (due, next(self._timer_seq), action, arg))

    def _run_timers(self, now: float) -> None:
        """Run every due timer — every timer at all once closed: a
        retry then fails its request and a respawn does nothing."""
        while self._timers:
            with self._lock:
                if self._timers[0][0] > now and not self._closed:
                    return
                _, _, action, arg = heapq.heappop(self._timers)
            action(arg)

    def _tick(self, now: float) -> None:
        """Supervision step: sweep deadlines, then SIGKILL any child
        that owes a message — a live one silent for ``wedge_timeout_s``
        or one not ready by ``ready_by``; its EOF runs the death path."""
        self._sweep_deadlines(now)
        for handle in self._handles:
            if handle.conn is None or handle.conn.closed:
                continue  # dead, or its death already handled
            if handle.alive:
                if (
                    not self.supervise
                    or self.wedge_timeout_s is None
                    or now - handle.last_hb <= self.wedge_timeout_s
                ):
                    continue
                handle.last_hb = now  # one kill per wedge, not per tick
            else:
                if now <= handle.ready_by:
                    continue
                handle.ready_by = math.inf
                handle.failure = handle.failure or (
                    f"did not become ready within {self.start_timeout}s"
                )
            handle.process.kill()

    def _sweep_deadlines(self, now: float) -> None:
        """Fail in-flight futures whose deadline passed — the guarantee
        that no client blocks past its deadline even when the shard
        under the request is wedged or mid-respawn. The ring slot is
        deliberately NOT released here: the child may still be reading
        the feed views lazily. It is reclaimed by the child's eventual
        response (popped entry, no-op resolve) or by the fresh slot
        window a respawn installs."""
        with self._lock:
            ripe = [
                request
                for request in self._inflight.values()
                if request.deadline is not None
                and request.deadline <= now
                and not request.future.done()
            ]
        for request in ripe:
            self._resolve(
                request,
                DeadlineExceededError(
                    f"request for {request.model!r} missed its "
                    f"deadline in flight on shard {request.shard} after "
                    f"{request.attempts} attempt(s)"
                ),
                shard=request.shard,
            )

    # ------------------------------------------------------------------
    # retries
    # ------------------------------------------------------------------
    def _retry_delay(self, attempts: int) -> float:
        """Jittered exponential backoff for the Nth retry."""
        base = self.retry_backoff_s * (2 ** max(0, attempts - 1))
        return min(base, 2.0) * (0.5 + self._rng.random())

    def _schedule_retry(self, request: _Request, exc: Exception) -> None:
        """Queue ``request`` for resubmission after a jittered delay —
        or at its deadline, if that comes first. Consumes one retry.
        Caller must NOT hold ``self._lock``."""
        with self._lock:
            closed = self._closed
            if not closed:
                request.retries_left -= 1
                due = time.monotonic() + self._retry_delay(request.attempts)
                if request.deadline is not None:
                    due = min(due, request.deadline)
                self._at(due, self._retry, request)
        if closed:
            self._resolve(request, exc)

    def _retry(self, request: _Request) -> None:
        """Redispatch one due request through the *current* routing
        (reroute is free: the breaker rewrites ``self.routing`` and the
        next attempt follows it)."""
        if request.future.done():
            return
        if self._closed:
            self._resolve(request, ServingError("sharded scheduler shut down"))
            return
        if request.expired():
            self._resolve(
                request,
                DeadlineExceededError(
                    f"request for {request.model!r} missed its deadline "
                    f"after {request.attempts} attempt(s)"
                ),
            )
            return
        try:
            self._send_attempt(request, retry=True)
        except (ShardFailedError, OverloadedError) as exc:
            if request.retries_left > 0 and not request.expired():
                self._schedule_retry(request, exc)
            else:
                self._resolve(request, exc)
        except Exception as exc:
            self._resolve(request, exc)

    # ------------------------------------------------------------------
    # resolution (exactly-once per request)
    # ------------------------------------------------------------------
    def _resolve(
        self,
        request: _Request,
        outcome: InferenceResult | Exception,
        shard: int | None = None,
    ) -> None:
        """Settle ``request``'s future with a result or an error and
        count it on ``shard`` — ``None`` for a failure no shard is
        charged with. A second resolution (a late response to a swept
        request) is a no-op."""
        if request.future.done():
            return
        if not request.future.set_running_or_notify_cancel():
            return
        latency = time.perf_counter() - request.enqueued_at
        failed = isinstance(outcome, Exception)
        expired = isinstance(outcome, DeadlineExceededError)
        with self._lock:
            self._latencies.append(latency)
            if not failed:
                self._handles[shard].completed += 1
            elif shard is None:
                self._errors += 1
                self._expired += expired
            else:
                self._handles[shard].errors += 1
                self._handles[shard].expired += expired
        if failed:
            request.future.set_exception(outcome)
        else:
            request.future.set_result(outcome)

    # ------------------------------------------------------------------
    # shard deaths and respawns
    # ------------------------------------------------------------------
    def _backoff(self, strikes: int) -> float:
        """Jittered exponential respawn backoff for the Nth strike."""
        base = min(
            self.restart_backoff_max_s,
            self.restart_backoff_s * (2 ** max(0, strikes - 1)),
        )
        return base * (0.5 + self._rng.random())

    def _on_ready(self, handle: _ShardHandle, pid: int) -> None:
        handle.pid = pid
        handle.last_ready = handle.last_hb
        handle.ready_by = math.inf
        with self._lock:
            handle.alive = True
            if handle.incarnation:  # a respawn reached ready
                handle.restarts += 1
            closed = self._closed
            self._ready.notify_all()
        if closed:  # respawned while the scheduler was closing
            try:
                handle.send(("shutdown",))
            except (OSError, ValueError):
                pass

    def _on_eof(self, handle: _ShardHandle) -> None:
        """The shard is gone (clean or not): fail or retry only ITS
        in-flight requests — even after a clean "bye", as a request can
        lose the race against the drain — then count the strike."""
        self._selector.unregister(handle.conn)
        with handle.send_lock:
            handle.conn.close()
        was_ready = handle.alive
        with self._lock:
            handle.alive = False
            started = self._started
            if not started:
                handle.failure = handle.failure or "died during startup"
            self._ready.notify_all()
        handle.req_slots.kill()
        detail = (
            "exited while the request was in flight"
            if handle.byed
            else "died; its in-flight requests are lost"
        )
        self._fail_inflight(
            handle.shard,
            ShardFailedError(
                f"shard {handle.shard} (pid {handle.pid}) {detail}"
            ),
        )
        # unblock any stats() call waiting on this shard
        with self._lock:
            waiters = list(self._stats_waiters.values())
        for event, _sink in waiters:
            event.set()
        if self.supervise and started:
            rapid = time.monotonic() - handle.last_ready < self.crashloop_window_s
            # a respawn that dies before reporting ready is rapid too
            self._strike(handle, rapid or not was_ready)

    def _strike(self, handle: _ShardHandle, rapid: bool) -> None:
        """Crash-loop accounting for one death: trip the breaker at the
        threshold, else schedule a backoff-gated respawn."""
        handle.strikes = handle.strikes + 1 if rapid else 1
        if handle.strikes >= self.crashloop_threshold:
            self._trip_breaker(handle)
            return
        due = time.monotonic() + self._backoff(handle.strikes)
        with self._lock:
            self._at(due, self._respawn, handle)

    def _respawn(self, handle: _ShardHandle) -> None:
        """Bring one dead shard back: fresh process, fresh pipe, fresh
        slot window over the same rings, warm preload of whatever is
        routed to it *now*."""
        if self._closed:
            return
        handle.incarnation += 1
        # every pre-death slot is either free or pinned by a swept
        # request the child will never answer; the new incarnation gets
        # a clean window
        handle.req_slots = _SlotPool(handle.req_ring.slots)
        try:
            self._spawn_child(handle)
        except Exception:
            self._strike(handle, True)

    def _trip_breaker(self, handle: _ShardHandle) -> None:
        """Crash-loop circuit breaker: give up on this shard for good
        and rehash its models onto the survivors (rendezvous keeps
        every survivor's existing assignment in place). Its in-flight
        requests already failed at EOF; their retries follow the new
        routing."""
        handle.failed = True
        survivors = [
            h.shard for h in self._handles if not h.failed
        ]
        with self._lock:
            if survivors:
                sigs = {
                    name: self.registry.get(name).signature
                    for name in self.registry.names()
                }
                self.routing = balanced_routing(sigs, survivors)

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def _pop_inflight(self, handle: _ShardHandle, req_id: int):
        with self._lock:
            request = self._inflight.pop(req_id, None)
            if request is not None:
                handle.inflight -= 1
        return request

    def _on_result(
        self, handle, req_id, stats: RequestStats, descs, req_slot, resp_slot
    ) -> None:
        request = self._pop_inflight(handle, req_id)
        views = handle.resp_ring.read(descs)
        outputs = {name: view.copy() for name, view in views.items()}
        try:
            handle.send(("free_resp", resp_slot))
        except (OSError, ValueError):
            pass
        handle.req_slots.release(req_slot)
        if request is None:
            return
        if request.attempts > 1:
            stats = replace(stats, attempts=request.attempts)
        self._resolve(
            request, InferenceResult(outputs=outputs, stats=stats), handle.shard
        )

    def _on_error(self, handle, req_id, exc, req_slot) -> None:
        request = self._pop_inflight(handle, req_id)
        handle.req_slots.release(req_slot)
        if request is None:
            return
        if (
            isinstance(exc, ShardFailedError)
            and request.retries_left > 0
            and not request.expired()
        ):
            self._schedule_retry(request, exc)
            return
        self._resolve(request, exc, shard=handle.shard)

    def _fail_inflight(self, shard: int | None, exc: Exception) -> None:
        """Pop every in-flight request on ``shard`` (all shards when
        ``None``) and either reschedule it — a :class:`ShardFailedError`
        with retry budget left — or fail its future. Requests whose
        deadline already passed fail as
        :class:`~repro.exceptions.DeadlineExceededError` instead of
        burning retries on work nobody is waiting for."""
        with self._lock:
            doomed = [
                (req_id, request)
                for req_id, request in self._inflight.items()
                if shard is None or request.shard == shard
            ]
            for req_id, request in doomed:
                del self._inflight[req_id]
                self._handles[request.shard].inflight -= 1
        for _req_id, request in doomed:
            if request.expired():
                self._resolve(
                    request,
                    DeadlineExceededError(
                        f"request for {request.model!r} missed its "
                        f"deadline on failed shard {request.shard}"
                    ),
                    shard=request.shard,
                )
            elif (
                isinstance(exc, ShardFailedError)
                and request.retries_left > 0
                and not self._closed
            ):
                self._schedule_retry(request, exc)
            else:
                self._resolve(request, exc, shard=request.shard)

    def _on_stats(self, handle: _ShardHandle, token: int, reply: tuple) -> None:
        handle.served, handle.queue_depth, handle.resp_ring_peak = reply
        with self._lock:
            waiter = self._stats_waiters.get(token)
        if waiter is not None:
            event, sink = waiter
            sink.append(handle.shard)
            if len(sink) >= sum(1 for h in self._handles if h.alive):
                event.set()

    def _refresh_child_stats(self, timeout: float = 5.0) -> None:
        live = [h for h in self._handles if h.alive]
        if not live:
            return
        token = next(self._stats_tokens)
        event = threading.Event()
        with self._lock:
            self._stats_waiters[token] = (event, [])
        try:
            for handle in live:
                try:
                    handle.send(("stats", token))
                except (OSError, ValueError):
                    pass
            event.wait(timeout)
        finally:
            with self._lock:
                self._stats_waiters.pop(token, None)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def shard_stats(self, refresh: bool = True) -> list[ShardStats]:
        """A :class:`ShardStats` snapshot per shard (live child-side
        numbers are fetched over the control pipe; a dead shard reports
        its last known ones)."""
        if refresh and self._started:
            self._refresh_child_stats()
        with self._lock:
            return [
                ShardStats(
                    shard=handle.shard,
                    pid=handle.pid,
                    alive=handle.alive,
                    models=handle.models,
                    requests=handle.completed,
                    errors=handle.errors,
                    inflight_peak=handle.inflight_peak,
                    queue_depth=handle.queue_depth,
                    req_slots=handle.req_slots.slots,
                    req_ring_peak=handle.req_slots.peak,
                    resp_slots=handle.resp_ring.slots,
                    resp_ring_peak=handle.resp_ring_peak,
                    served=handle.served,
                    restarts=handle.restarts,
                    retries=handle.retries,
                    # parent-side count is complete: child-shed
                    # requests come back as DeadlineExceededError
                    # responses and are counted on arrival
                    expired=handle.expired,
                    shed=handle.shed,
                    failed=handle.failed,
                    incarnation=handle.incarnation,
                )
                for handle in self._handles
            ]

    def stats(self) -> ServingStats:
        """Aggregate :class:`ServingStats` across every shard.

        The shards' own snapshots summed (batches, spill accounting,
        pools), with the front end's counts substituted — each request
        and recovery action counted once, on its shard, plus failures
        no shard is charged with — and its latencies, which are
        *end-to-end* (submit to response, IPC included).
        """
        shards = self.shard_stats()
        served = reduce(operator.add, (s.served for s in shards))
        with self._lock:
            return replace(
                served,
                requests=sum(s.requests for s in shards),
                errors=self._errors + sum(s.errors for s in shards),
                latencies_s=tuple(self._latencies),
                restarts=sum(s.restarts for s in shards),
                retries=sum(s.retries for s in shards),
                expired=self._expired + sum(s.expired for s in shards),
                shed=sum(s.shed for s in shards),
            )
