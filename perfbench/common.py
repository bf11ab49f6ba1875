"""Shared pieces of the benchmark: latency samples, percentiles, the
environment record, operation-stream digests and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
# The gated metrics are medians over this many equal windows of the timed phase.
WINDOWS = 4
# CPU seconds one SpeedGauge quantum took, median, on the machine of the
# README's baseline; gated times are scaled to that speed.
QUANTUM_NOMINAL_S = 1.0e-3
# A timed phase runs at most one quantum per this many seconds.
QUANTUM_PERIOD_S = 0.02


def now() -> float:
    return time.perf_counter()


def cpu_now() -> float:
    """CPU seconds of the calling thread."""
    return time.thread_time()


def clock() -> tuple[float, float]:
    """A start mark: elapsed and thread CPU seconds."""
    return now(), cpu_now()


def elapsed(start: tuple[float, float]) -> tuple[float, float]:
    """Elapsed and thread CPU seconds since a `clock()` mark."""
    return now() - start[0], cpu_now() - start[1]


def children_cpu() -> float:
    """CPU seconds of the child processes that have ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SpeedGauge:
    """How fast the host runs right now, read by timing a fixed reference
    computation that calls no package code.

    On a shared host the same work took up to half again as much CPU
    time from one second to the next, as other tenants contended for
    the cores. The workloads call `tick()` between operations; every
    QUANTUM_PERIOD_S it runs one quantum on the calling thread and
    records its CPU time. A quantum is interpreter work on a table small
    enough to stay in cache, and one untimed pass over the table comes
    first, so the quantum reads the host's speed rather than what the
    workload's last operation left in the cache. `slowness()` is the
    median quantum over QUANTUM_NOMINAL_S: 1 at the baseline machine's
    speed, above 1 when the host runs slower."""

    def __init__(self):
        rng = Random("perfbench/speed-gauge")
        self._table = {rng.getrandbits(32): rng.getrandbits(32) for _ in range(512)}
        self._expected = self._work()
        self.samples: list[tuple[float, float]] = []  # (end time, CPU seconds)
        self._due = 0.0
        self._lock = threading.Lock()

    def _work(self, passes: int = 18) -> int:
        total = 0
        for _ in range(passes):
            for k, v in self._table.items():
                total += (k ^ v) & 0xFF
        return total

    def quantum(self) -> None:
        self._work(1)
        c0 = cpu_now()
        if self._work() != self._expected:
            raise AssertionError("the reference computation changed its result")
        self.samples.append((now(), cpu_now() - c0))

    def tick(self) -> None:
        """Run one quantum if QUANTUM_PERIOD_S has passed since the last."""
        if now() < self._due or not self._lock.acquire(blocking=False):
            return
        try:
            self.quantum()
            self._due = now() + QUANTUM_PERIOD_S
        finally:
            self._lock.release()

    def slowness(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median quantum in [start, end) over QUANTUM_NOMINAL_S; over every
        quantum so far when none ended in that span (a very short run)."""
        span = [c for t, c in self.samples if start <= t < end]
        return median(span or [c for _, c in self.samples]) / QUANTUM_NOMINAL_S

    def burst(self, quanta: int = 25) -> float:
        """Slowness now, from quanta run back to back."""
        start = now()
        for _ in range(quanta):
            self.quantum()
        return self.slowness(start)


def scaled_setup(gauge: SpeedGauge, setup) -> float:
    """Run `setup`, which returns the CPU seconds it cost, and scale them
    to the baseline machine's speed, read just before and just after."""
    before = gauge.burst()
    cpu = setup()
    return cpu * 2 / (before + gauge.burst())


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(sorted(values), 0.5)


@dataclass
class Latencies:
    """Per-operation samples: end time, operation kind, elapsed seconds
    and the CPU seconds the calling thread spent on it, plus the count of
    attempted and failed operations."""

    timeline: list[tuple[float, str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, kind: str, seconds: float, cpu: float) -> None:
        self.timeline.append((now(), kind, seconds, cpu))

    def of(self, kind: str) -> list[float]:
        """Elapsed seconds of every operation of one kind."""
        return [s for _, k, s, _ in self.timeline if k == kind]

    def cpu(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """CPU seconds of the operations that ended in [start, end)."""
        return sum(c for t, _, _, c in self.timeline if start <= t < end)

    def fail(self, kind: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {reason}")

    def merge(self, other: "Latencies") -> None:
        self.timeline.extend(other.timeline)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])


@dataclass
class Metric:
    """One reported number: value, unit and the samples behind it.
    A value of None means the sample is too small for that percentile."""

    value: float | None
    unit: str
    samples: int


def latency_metric(seconds: list[float], q: float) -> Metric:
    """The q-quantile in milliseconds; withheld (None) above the median
    unless TAIL_SAMPLES samples lie beyond it."""
    n = len(seconds)
    if n == 0 or (q > 0.5 and n * (1 - q) < TAIL_SAMPLES):
        return Metric(None, "ms", n)
    return Metric(quantile(sorted(seconds), q) * 1e3, "ms", n)


def gated_metrics(lat: Latencies, windows: list[tuple[float, float, int, float]],
                  setup: Metric, gauge: SpeedGauge) -> tuple[dict[str, Metric], list[str]]:
    """The workload-independent end-to-end metrics every workload reports.
    They count CPU time, not elapsed time: on a shared host, time stolen
    by other tenants stretched elapsed time more than threefold, but it is
    not charged to this benchmark's processes. All are scaled to the
    baseline machine's speed (see SpeedGauge).

    - setup_s: CPU seconds of set-up (the caller's median, already scaled);
    - ops_per_cpu_s: operations per CPU second of the program;
    - op_cpu_p50_ms, op_cpu_p95_ms: the calling thread's CPU time per
      operation.

    The timed phase is cut into windows (start, end, operations outside
    the samples, CPU seconds the program spent in the window). Each
    window's values are scaled to the baseline machine's speed by the
    gauge's slowness in that window, and each metric is the median of
    its per-window values, so a burst of interference in one window does
    not move it. Also returns report lines: the elapsed time per
    operation (median, scaled alike, but not gated: it moves with other
    tenants' load), the unscaled metrics and the per-window values."""
    slow, rates, p50s, p95s, waits = [], [], [], [], []
    for start, end, extra_ops, cpu_s in windows:
        cpu = [c for t, _, _, c in lat.timeline if start <= t < end]
        slow.append(gauge.slowness(start, end))
        rates.append((len(cpu) + extra_ops) / cpu_s)
        p50s.append(latency_metric(cpu, 0.5).value)
        p95s.append(latency_metric(cpu, 0.95).value)
        waits.append(latency_metric([s for t, _, s, _ in lat.timeline if start <= t < end], 0.5).value)
    ops = len(lat.timeline)

    def middle(values, scale=None):
        if None in values:
            return None
        return median(values if scale is None else [v * f for v, f in zip(values, scale)])

    def show(values):
        return "/".join("-" if v is None else f"{v:.4g}" for v in values)

    speed = [1 / f for f in slow]
    metrics = {
        "setup_s": setup,
        "ops_per_cpu_s": Metric(middle(rates, slow), "1/s", ops),
        "op_cpu_p50_ms": Metric(middle(p50s, speed), "ms", ops),
        "op_cpu_p95_ms": Metric(middle(p95s, speed), "ms", ops),
    }
    report = {
        "elapsed_op_p50_ms": Metric(middle(waits, speed), "ms", ops),
        "unscaled_ops_per_cpu_s": Metric(middle(rates), "1/s", ops),
        "unscaled_op_cpu_p50_ms": Metric(middle(p50s), "ms", ops),
        "unscaled_op_cpu_p95_ms": Metric(middle(p95s), "ms", ops),
        "unscaled_op_p50_ms": Metric(middle(waits), "ms", ops),
    }
    lines = metric_lines(report) + [
        f"per window, unscaled: slowness {show(slow)}; ops_per_cpu_s {show(rates)}; op_cpu_p50_ms {show(p50s)}; "
        f"op_cpu_p95_ms {show(p95s)}; op_p50_ms {show(waits)}"]
    return metrics, lines


def call_windows(lat: Latencies, start: float, end: float) -> list[tuple[float, float, int, float]]:
    """WINDOWS equal windows of a phase in which the program runs only
    inside the timed calls, so its CPU time is theirs."""
    step = (end - start) / WINDOWS
    bounds = [start + i * step for i in range(WINDOWS)] + [end]
    return [(a, b, 0, lat.cpu(a, b)) for a, b in zip(bounds, bounds[1:])]


def child_env(root) -> dict[str, str]:
    """Environment for a child process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root), os.path.join(str(root), "src")])
    return env


def environment() -> dict[str, object]:
    import cryptography
    import numpy

    from sbfsearch import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "kernels_backend": kernels.ACTIVE_BACKEND,
    }


def stream_digest(items) -> str:
    """SHA-256 over the canonical JSON of a generated operation stream."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def print_report(workload: str, lines: list[str]) -> None:
    print(f"== {workload}")
    for line in lines:
        print(f"   {line}")
    sys.stdout.flush()


def metric_lines(metrics: dict[str, Metric]) -> list[str]:
    out = []
    for name, m in metrics.items():
        if m.value is None:
            out.append(f"{name:<34} withheld ({m.samples} samples, too few for this percentile)")
        else:
            out.append(f"{name:<34} {m.value:.6g} {m.unit} (n={m.samples})")
    return out


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, Metric]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    })


@dataclass
class Context:
    """What a workload run is given: the checkout root, the options, and
    a scratch directory inside the checkout that is removed afterwards."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    quick: bool
    scratch: Path


@dataclass
class Outcome:
    """A finished workload run: the result-line fields and the report."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, Metric]
    lines: list[str]


def setup_repeats(quick: bool) -> int:
    """Set-up runs per workload run; the median is setup_s."""
    return 1 if quick else 3
