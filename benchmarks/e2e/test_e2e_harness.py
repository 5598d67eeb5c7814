"""Tests of the benchmark harness itself (``pytest benchmarks/e2e``).

Outside tier-1's ``testpaths`` on purpose: these check the yardstick,
not the program — the statistics helpers, the open loop's due-time
accounting against a fake server with injected stalls, that every
printed metric name is declared in ``BENCHMARK.json``, and a ``--smoke``
pass over all five workloads.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from queue import Queue

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from loadgen import (  # noqa: E402
    Request,
    balanced_percentile,
    closed_loop,
    lower_quartile,
    median,
    open_loop,
    percentile,
    relative_spread,
)
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
REQUESTS = [Request(key=i, model="m", feeds={}) for i in range(8)]


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.9) == 5.0
    assert percentile(values, 1.0) == 5.0
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_balanced_percentile_is_the_mean_of_per_model_percentiles():
    # two models in two tight clusters: the pooled median sits in the gap
    # between them and flips on one sample; the balanced one does not
    fast = [("a", 1.0 + 0.01 * i) for i in range(11)]
    slow = [("b", 5.0 + 0.01 * i) for i in range(11)]
    assert balanced_percentile(fast + slow, 0.5) == pytest.approx((1.05 + 5.05) / 2)
    assert balanced_percentile(fast + slow + [("b", 5.2)], 0.5) == pytest.approx(3.05, abs=0.01)
    assert percentile([v for _, v in fast + slow + [("b", 5.2)]], 0.5) >= 5.0
    assert balanced_percentile(fast, 0.9) == percentile([v for _, v in fast], 0.9)
    with pytest.raises(ValueError):
        balanced_percentile([], 0.5)


def test_median_lower_quartile_and_relative_spread():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0]) == 1.5
    with pytest.raises(ValueError):
        median([])
    assert lower_quartile([4.0]) == 4.0
    assert lower_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == 2.0
    assert lower_quartile([1.0, 2.0]) == 1.25  # inclusive: never below the minimum
    with pytest.raises(ValueError):
        lower_quartile([])
    assert relative_spread([10.0]) == 0.0
    assert relative_spread([10.0] * 10) == 0.0
    assert relative_spread([9.0, 11.0]) == pytest.approx(0.2)  # range / median below 4 values
    # quartiles of 1..11 (exclusive method) are 3 and 9 around a median of 6
    assert relative_spread([float(i) for i in range(1, 12)]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# a fake server: one worker thread, fixed service time, injectable stalls
# ----------------------------------------------------------------------
class FakeServer:
    def __init__(self, service_s=0.001, stall_at=None, stall_s=0.0,
                 block_submit_at=None, block_s=0.0, fail_at=()):
        self.service_s = service_s
        self.stall_at, self.stall_s = stall_at, stall_s
        self.block_submit_at, self.block_s = block_submit_at, block_s
        self.fail_at = set(fail_at)
        self.submitted = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()
        self._queue: Queue = Queue()
        self._thread = threading.Thread(target=self._work, daemon=True)
        self._thread.start()

    def submit(self, model, feeds) -> Future:
        index = self.submitted
        self.submitted += 1
        if index == self.block_submit_at:
            time.sleep(self.block_s)  # ring backpressure
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        future: Future = Future()
        self._queue.put((index, future))
        return future

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            index, future = item
            time.sleep(self.service_s + (self.stall_s if index == self.stall_at else 0.0))
            with self._lock:
                self.in_flight -= 1
            if index in self.fail_at:
                future.set_exception(RuntimeError("injected failure"))
            else:
                future.set_result(type("Result", (), {"stats": None, "outputs": {}})())

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


def test_open_loop_counts_latency_from_due_time_after_a_server_stall():
    # 200 req/s, 1 ms service, a 60 ms stall on request 10: the requests
    # queued behind the stall were *due* every 5 ms, so each inherits what
    # is left of it — a closed loop would have hidden all of that
    server = FakeServer(service_s=0.001, stall_at=10, stall_s=0.060)
    try:
        out = open_loop(server.submit, REQUESTS, rate=200.0, seconds=0.3)
    finally:
        server.close()
    assert (out.sent, out.ok, out.failed) == (60, 60, 0)
    lat = out.latencies_ms
    assert max(lat[:10]) < 20.0
    assert lat[10] >= 60.0
    assert lat[11] >= 45.0  # due 5 ms after request 10, done right behind it
    assert sum(1 for x in lat if x > 10.0) >= 8
    assert lat[-1] < 20.0  # the backlog drained: service is 5x faster than arrivals
    assert percentile(out.late_ms, 0.5) < 1.0  # the generator itself was on time


def test_open_loop_reports_generator_lateness_when_submit_blocks():
    server = FakeServer(service_s=0.0005, block_submit_at=5, block_s=0.040)
    try:
        out = open_loop(server.submit, REQUESTS, rate=200.0, seconds=0.2)
    finally:
        server.close()
    assert out.ok == 40
    # requests 6..12 were due while submit() of request 5 was blocked
    assert max(out.late_ms) >= 25.0
    assert out.late_ms[6] >= 25.0
    # and their latency still runs from the due time, so it includes it
    assert out.latencies_ms[6] >= out.late_ms[6]
    assert out.late_ms[-1] < 5.0


def test_open_loop_failures_have_no_latency_and_count_as_failed():
    server = FakeServer(fail_at=(3, 4))
    try:
        out = open_loop(server.submit, REQUESTS, rate=200.0, seconds=0.1)
    finally:
        server.close()
    assert (out.sent, out.ok, out.failed) == (20, 18, 2)
    assert len(out.latencies_ms) == 18


def test_closed_loop_keeps_exactly_window_outstanding_and_samples_responses():
    server = FakeServer(service_s=0.001, fail_at=(7,))
    tracer = Tracer(True)
    try:
        out = closed_loop(server.submit, REQUESTS, window=4, seconds=0.15,
                          keep_every=5, keep_offset=2, tracer=tracer)
    finally:
        server.close()
    assert server.max_in_flight == 4
    assert out.sent == out.ok + out.failed and out.failed == 1
    assert out.ok > 40 and out.req_per_s > 300
    assert len(out.stats) == out.ok
    # stream indices 2, 7, 12, 17 are sampled; 7 failed; keys are index mod 8
    assert [r.key for r, _ in out.kept][:3] == [2, 4, 1]
    assert len(tracer.named("loadgen.request")) == out.ok


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_tracer_self_time_subtracts_children_once_and_exports_chrome_trace(tmp_path):
    tracer = Tracer(True)
    with tracer.span("outer", request=1):
        time.sleep(0.02)
        with tracer.span("inner", request=1):
            time.sleep(0.03)
    self_times = tracer.self_times()
    outer = self_times[tracer.named("outer")[0].id]
    inner = self_times[tracer.named("inner")[0].id]
    assert 0.015 < outer < 0.03 and inner >= 0.03
    assert tracer.named("outer")[0].duration == pytest.approx(outer + inner, abs=1e-3)
    tracer.write(tmp_path / "trace.json")
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    by_name = {e["name"]: e for e in events}
    assert by_name["inner"]["args"]["parent"] == by_name["outer"]["args"]["id"]
    assert all(e["ph"] == "X" and e["args"]["request"] == 1 for e in events)

    off = Tracer(False)
    with off.span("x"):
        pass
    assert off.record("y", 0.0, 1.0) is None and off.spans == []


# ----------------------------------------------------------------------
# BENCHMARK.json and the command
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) < 3420


def run_harness(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_pass_over_all_five_workloads_prints_only_declared_names():
    t0 = time.perf_counter()
    proc = run_harness("--smoke")
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = re.findall(r"^([A-Za-z0-9_.-]+)\s+\S+ (\S+)$", proc.stdout, flags=re.M)
    assert len(printed) == len(declared) * len(SPEC["workloads"])
    assert all(declared[name] == unit for name, unit in printed)
    assert not (ROOT / ".bench_e2e").exists()  # the work directory is gone
    # ~8 s on a quiet host (the target is 10); this host's slow stretches
    # add 30%, and a timing assertion that flakes teaches nothing
    assert elapsed <= 20.0, f"smoke pass took {elapsed:.1f}s"


@pytest.mark.parametrize("workload", ["serve-micro", "serve-spill-tiled"])
def test_traced_smoke_run_reports_every_per_layer_metric(workload, tmp_path):
    trace = tmp_path / "trace.json"
    proc = run_harness("--workload", workload, "--smoke", "--trace", "1",
                       "--trace-out", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (result,) = result_lines(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["serving.shard.leaked_shm"] == 0 and m["loadgen.mismatches"] == 0
    assert m["loadgen.ok"] == m["loadgen.sent"] > 0
    if workload == "serve-micro":
        assert m["serving.shard.spawn_s"] > 0 and m["serving.shard.solo_ms"] > 0
        assert m["runtime.plan_executor.fetches"] == 0
    else:
        assert m["serving.shard.spawn_s"] == 0 and m["serving.scheduler.mean_batch"] == 1.0
        assert m["runtime.plan_executor.fetches"] > 0 and m["allocator.spill_windows"] > 0
        assert m["runtime.plan_executor.spill_stall_ms"] > 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert {"loadgen.request", "runtime.plan_executor.run"} <= {e["name"] for e in events}


def test_single_workload_run_prints_the_driver_json_last(tmp_path):
    out = tmp_path / "doc.json"
    proc = run_harness("--workload", "serve-cells", "--smoke", "--seed", "7",
                       "--json-out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] != 0 for v in last["metrics"].values())
    doc = json.loads(out.read_text())
    assert doc["host"]["seed"] == 7 and doc["host"]["mode"] == "smoke"
    assert {"nproc", "cpu", "python", "numpy", "commit"} <= set(doc["host"])
    assert doc["leaks"] == {"shm": [], "children": []}
    assert doc["checked_responses"] >= 1


def test_refuses_to_run_without_the_repository_around_it(tmp_path):
    # the driver also runs the command in a directory holding only
    # BENCHMARK.json and the benchmark's own files: no result, exit != 0
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_harness("--workload", "serve-cells", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path,
                       script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert result_lines(proc.stdout) == []
