"""Single-thread load generator: windowed closed loop + due-time open loop.

The sandbox has two cores, so the generator is **one thread** and never
more: the legacy ``repro.serving.loadgen.run_load`` (not imported here)
builds feeds inside the timed loop from ``clients`` threads, and three
identical runs of it swung 852 -> 1494 req/s on this host. Here every
feed is generated from ``--seed`` before timing starts, and the timed
loops only submit, wait, and read the clock.

* :func:`closed_loop` keeps ``window`` futures outstanding — callers that
  each wait for a reply. A slow server receives less load, so this
  measures *capacity* (``req_per_s``), not latency.
* :func:`open_loop` sends on a fixed schedule regardless of completions —
  independent users. Each request is timed **from its due time** (so a
  stall is charged to every request it delays, not only the one that hit
  it) via ``Future.add_done_callback``, and how late the generator itself
  ran is reported beside the latencies.

The server is anything with ``submit(model, feeds) -> Future``; the
future's result only needs a ``stats`` attribute for the closed loop's
per-request accounting (``None`` is fine for a fake).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict, deque
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from tracing import Tracer

__all__ = [
    "ClosedLoopResult",
    "OpenLoopResult",
    "Request",
    "balanced_percentile",
    "closed_loop",
    "lower_quartile",
    "median",
    "open_loop",
    "percentile",
    "relative_spread",
]

#: a request that has not resolved after this long is a failure, not a
#: hang (the slowest workload serves a request in < 0.1 s)
REQUEST_TIMEOUT_S = 60.0
#: the open loop's first request is due this long after the schedule is
#: laid out, so request 0 is not born late
OPEN_LOOP_LEAD_S = 0.005
#: ``time.sleep`` overshoots by ~0.1 ms here, which is 10% of a micro
#: request: sleep to this far before the due time, then spin the rest
SPIN_S = 0.0002

Submit = Callable[[str, Mapping[str, Any]], Future]


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of an unsorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


#: raises ``StatisticsError`` (a ``ValueError``) on an empty sample
median = statistics.median


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile of a sample of times (inclusive method: never
    extrapolates beyond the sample). Host noise only ever adds time, so
    the low side of repeated timings is the steady side."""
    if not values:
        raise ValueError("quartile of an empty sample")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def balanced_percentile(samples: Iterable[tuple[str, float]], q: float) -> float:
    """Mean over models of each model's own percentile.

    The pooled percentile of a multi-model mix is unstable: with four
    equally frequent models whose run times differ, the pooled median
    sits in the gap between the second and third model's cluster and
    jumps from one to the other on a 1% shift. Each model's own
    percentile is steady, and so is their mean; with one model the two
    definitions coincide."""
    by_model: dict[str, list[float]] = defaultdict(list)
    for model, value in samples:
        by_model[model].append(value)
    if not by_model:
        raise ValueError("percentile of an empty sample")
    return statistics.fmean(percentile(v, q) for v in by_model.values())


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median — the run-to-run
    noise figure the driver gates on (``statistics.quantiles(n=4)``).
    Below four values quartiles are extrapolations (two values read 1.5x
    their distance), so the whole range stands in for them."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if not mid:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / mid
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One pre-generated request; ``key`` identifies its feeds so the
    correctness check can look the reference output up once per key."""

    key: int
    model: str
    feeds: Mapping[str, Any]


@dataclass
class ClosedLoopResult:
    sent: int = 0
    ok: int = 0
    failed: int = 0
    #: first submit to last completion
    wall_s: float = 0.0
    #: ``result.stats`` of every successful request, in completion order
    stats: list[Any] = field(default_factory=list)
    #: ``(request, result)`` for the sampled requests (correctness check)
    kept: list[tuple[Request, Any]] = field(default_factory=list)

    @property
    def req_per_s(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class OpenLoopResult:
    rate: float
    sent: int = 0
    ok: int = 0
    failed: int = 0
    #: due time -> done callback, successful requests only (a failed or
    #: refused request has no latency: it counts as missing any limit)
    latencies_ms: list[float] = field(default_factory=list)
    #: the model each of ``latencies_ms`` was served by
    models: list[str] = field(default_factory=list)
    #: due time -> the generator actually calling ``submit``
    late_ms: list[float] = field(default_factory=list)
    kept: list[tuple[Request, Any]] = field(default_factory=list)


def _keep(index: int, keep_every: int, keep_offset: int) -> bool:
    return keep_every > 0 and index % keep_every == keep_offset % keep_every


# ----------------------------------------------------------------------
# the two loops
# ----------------------------------------------------------------------
def closed_loop(
    submit: Submit,
    requests: Sequence[Request],
    *,
    window: int,
    seconds: float,
    start: int = 0,
    keep_every: int = 0,
    keep_offset: int = 0,
    tracer: Tracer | None = None,
) -> ClosedLoopResult:
    """Keep ``window`` requests outstanding for ``seconds``, then drain.

    Request *i* of the stream is ``requests[(start + i) % len]``. The
    thread waits on the **oldest** outstanding future, then tops the
    window back up — one thread, ``window`` futures in flight.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    out = ClosedLoopResult()
    pending: deque[tuple[int, Request, float, Future | None]] = deque()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    last_done = t0

    def send() -> None:
        index = out.sent
        request = requests[(start + index) % len(requests)]
        out.sent += 1
        sent_at = time.perf_counter()
        try:
            future = submit(request.model, request.feeds)
        except Exception:
            future = None  # refused synchronously (overload, dead shard)
        pending.append((index, request, sent_at, future))

    while len(pending) < window:
        send()
    while pending:
        index, request, sent_at, future = pending.popleft()
        try:
            if future is None:
                raise RuntimeError("refused at submit")
            result = future.result(timeout=REQUEST_TIMEOUT_S)
        except Exception:
            out.failed += 1
        else:
            last_done = time.perf_counter()
            out.ok += 1
            out.stats.append(getattr(result, "stats", None))
            if tracer is not None:
                tracer.record("loadgen.request", sent_at, last_done, request=index)
            if _keep(index, keep_every, keep_offset):
                out.kept.append((request, result))
        if time.perf_counter() < deadline:
            send()
    out.wall_s = last_done - t0
    return out


def open_loop(
    submit: Submit,
    requests: Sequence[Request],
    *,
    rate: float,
    seconds: float,
    start: int = 0,
    keep_every: int = 0,
    keep_offset: int = 0,
    tracer: Tracer | None = None,
) -> OpenLoopResult:
    """Send ``rate`` requests per second for ``seconds``, on schedule.

    Request *i* is due at ``t0 + i / rate`` whatever happened to the
    ones before it. Its latency runs from that **due time** to the
    moment its future's done-callback fires; the gap between the due
    time and the generator actually calling ``submit`` is its lateness
    (a blocked ``submit`` — ring backpressure — or a starved generator).
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    count = max(1, int(rate * seconds))
    out = OpenLoopResult(rate=rate)
    due = [0.0] * count
    done_at: list[float | None] = [None] * count
    results: list[Any] = [None] * count
    futures: list[Future] = []

    def on_done(index: int, future: Future) -> None:
        # runs on whichever server thread resolved the future: read the
        # clock first, keep the rest to two list stores
        now = time.perf_counter()
        if future.cancelled() or future.exception() is not None:
            return
        done_at[index] = now
        if _keep(index, keep_every, keep_offset):
            results[index] = future.result()

    t0 = time.perf_counter() + OPEN_LOOP_LEAD_S
    for index in range(count):
        due[index] = t0 + index / rate
        delay = due[index] - time.perf_counter()
        if delay > SPIN_S:
            time.sleep(delay - SPIN_S)
        while time.perf_counter() < due[index]:
            pass
        request = requests[(start + index) % len(requests)]
        sent_at = time.perf_counter()
        out.late_ms.append(max(0.0, sent_at - due[index]) * 1e3)
        out.sent += 1
        try:
            future = submit(request.model, request.feeds)
        except Exception:
            continue  # refused: no latency, counted in ``failed`` below
        if tracer is not None:
            tracer.record(
                "loadgen.submit", sent_at, time.perf_counter(), request=index
            )
        future.add_done_callback(lambda f, i=index: on_done(i, f))
        futures.append(future)
    wait(futures, timeout=REQUEST_TIMEOUT_S)

    for index in range(count):
        finished = done_at[index]
        if finished is None:
            continue
        request = requests[(start + index) % len(requests)]
        out.ok += 1
        out.latencies_ms.append((finished - due[index]) * 1e3)
        out.models.append(request.model)
        if tracer is not None:
            tracer.record("loadgen.request", due[index], finished, request=index)
        if results[index] is not None:
            out.kept.append((request, results[index]))
    out.failed = out.sent - out.ok
    return out
