"""montecarlo_sweeps: the `sim` and `kernels` layers alone.

The timed phase repeats one cycle of sweep-point calls with fixed trial
counts:

- overlap: `sim.overlap_estimate` at the criterion-3 setting (m=432,
  l=50, r=6) for each blinding count in OVERLAP_SWEEP, OVERLAP_TRIALS
  trials per call;
- overflow: `sim.max_occupancies` at the criterion-4 setting (m=28854,
  q=15, r=10) for each user count in OVERFLOW_SWEEP, OVERFLOW_TRIALS
  trials per call.

Each call gets its own seed, derived from the workload seed, the sweep
point and the cycle number. Nothing here touches a store, the wire or
record sealing, so a change to any other layer must leave it flat.

Checks, on the trials pooled per sweep point over the run, against
references independent of any per-seed value:

- overlap: the estimate lies within STDERRS standard errors above the
  closed-form union bound from `analysis`, and no lower than half the
  bound minus STDERRS standard errors (at these probabilities the union
  bound is within a factor two of the truth);
- overflow: the mean maximum occupancy lies within STDERRS standard
  errors plus POISSON_SLACK of its value under the Poisson
  approximation P(max <= b) = F_Pois(b; tqr/m)^m, which ignores the
  slight negative correlation between buffers;
- the first call of each kind, repeated with its seed, gives identical
  results.

Set-up is what an analyst pays before the first sweep: a fresh
interpreter imports the layers, computes the references and makes one
call per sweep point. It is counted in the child's CPU seconds.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
from itertools import islice

import numpy as np

from sbfsearch import analysis, params, sim

from . import spans
from .common import (
    Context, Latencies, Metric, Outcome, SpeedGauge, call_windows, child_env, children_cpu, cpu_now, gated_metrics,
    latency_metric, median, metric_lines, now, scaled_setup, setup_repeats, stream_digest,
)

OVERLAP = {"m": 432, "l": 50, "r": 6}
OVERLAP_SWEEP = (12, 14, 16, 18, 20)
OVERLAP_TRIALS = 16
OVERFLOW = {"m": 28854, "q": 15, "r": 10}
OVERFLOW_SWEEP = (500, 1000)
OVERFLOW_TRIALS = 4
STDERRS = 4
POISSON_SLACK = 0.15
DIGEST_CALLS = 7000


def calls(seed: int):
    """The endless stream of sweep-point calls: (kind, value, trials, seed)."""
    cycle = 0
    while True:
        for kind, sweep, trials in (("overlap", OVERLAP_SWEEP, OVERLAP_TRIALS),
                                    ("overflow", OVERFLOW_SWEEP, OVERFLOW_TRIALS)):
            for value in sweep:
                tag = f"perfbench/{seed}/{kind}/{value}/{cycle}".encode()
                yield kind, value, trials, int.from_bytes(hashlib.sha256(tag).digest()[:7], "big")
        cycle += 1


def call(kind: str, value: int, trials: int, seed: int):
    if kind == "overlap":
        estimate, _ = sim.overlap_estimate(OVERLAP["m"], OVERLAP["l"], OVERLAP["r"], value, trials, seed)
        return round(estimate * trials)
    return sim.max_occupancies(OVERFLOW["m"], value, OVERFLOW["q"], OVERFLOW["r"], trials, seed)


def overlap_bound(oe: int) -> float:
    m, l, r = OVERLAP["m"], OVERLAP["l"], OVERLAP["r"]
    occupied = round(params.expected_distinct_positions(m, r, oe))
    return analysis.blinding_collision_bound(1, occupied, r, l, 1, m).bound


def poisson_max_mean(t: int) -> float:
    """E[max occupancy] under P(max <= b) = F_Pois(b; tqr/m)^m."""
    m = OVERFLOW["m"]
    lam = t * OVERFLOW["q"] * OVERFLOW["r"] / m
    mean, cdf, term = 0.0, 0.0, math.exp(-lam)
    for b in range(1, 200):
        cdf += term
        tail = -math.expm1(m * math.log(cdf)) if cdf > 0 else 1.0
        if tail < 1e-9:
            break
        mean += tail
        term *= lam / b
    return mean


def references() -> dict:
    return {**{("overlap", oe): overlap_bound(oe) for oe in OVERLAP_SWEEP},
            **{("overflow", t): poisson_max_mean(t) for t in OVERFLOW_SWEEP}}


class Sweeps:
    def __init__(self, seed: int):
        self.stream = calls(seed)
        self.hits = {oe: 0 for oe in OVERLAP_SWEEP}
        self.trials = {oe: 0 for oe in OVERLAP_SWEEP}
        self.maxima: dict[int, list[np.ndarray]] = {t: [] for t in OVERFLOW_SWEEP}
        self.first: dict[str, tuple] = {}

    def run(self, seconds: float, lat: Latencies, gauge: SpeedGauge,
            tracer: spans.Tracer | None = None) -> tuple[float, float]:
        """Call sweep points for `seconds`; returns the phase's start and end."""
        t_start = now()
        deadline = t_start + seconds
        while now() < deadline:
            gauge.tick()
            kind, value, trials, seed = next(self.stream)
            lat.attempted += 1
            t0, c0 = now(), cpu_now()
            if tracer is None:
                out = call(kind, value, trials, seed)
            else:
                with tracer.op(kind):
                    out = call(kind, value, trials, seed)
            lat.add(kind, now() - t0, cpu_now() - c0)
            if kind == "overlap":
                self.hits[value] += out
                self.trials[value] += trials
            else:
                self.maxima[value].append(out)
            self.first.setdefault(kind, ((kind, value, trials, seed), out))
        return t_start, now()

    def problems(self, refs: dict) -> list[str]:
        out = []
        for oe in OVERLAP_SWEEP:
            n, bound = self.trials[oe], refs[("overlap", oe)]
            if not n:
                continue
            est = self.hits[oe] / n
            se = math.sqrt(bound * (1 - bound) / n)
            if not 0.5 * bound - STDERRS * se <= est <= bound + STDERRS * se:
                out.append(f"overlap oe={oe}: estimate {est:.5f} vs bound {bound:.5f} (se {se:.5f}, n={n})")
        for t in OVERFLOW_SWEEP:
            if not self.maxima[t]:
                continue
            maxima = np.concatenate(self.maxima[t])
            ref = refs[("overflow", t)]
            se = maxima.std() / math.sqrt(len(maxima)) if len(maxima) > 1 else float("inf")
            if abs(maxima.mean() - ref) > STDERRS * se + POISSON_SLACK:
                out.append(f"overflow t={t}: mean max {maxima.mean():.3f} vs Poisson {ref:.3f} (se {se:.3f})")
        for kind, (args, first) in self.first.items():
            if not np.array_equal(call(*args), first):
                out.append(f"{kind}: the same seed gave a different result")
        return out


def warm(seed: int) -> dict:
    """Set-up: the references, and one call per sweep point to pay the
    first-call costs."""
    refs = references()
    for args in islice(calls(seed + 1), len(OVERLAP_SWEEP) + len(OVERFLOW_SWEEP)):
        call(*args)
    return refs


def run(ctx: Context) -> Outcome:
    # set-up, as an analyst pays it: a fresh interpreter imports the layers and warms up
    gauge = SpeedGauge()

    def fresh_warm() -> float:
        before = children_cpu()
        subprocess.run([sys.executable, "-c", f"from perfbench.montecarlo import warm; warm({ctx.seed})"],
                       cwd=ctx.root, env=child_env(ctx.root), check=True, timeout=120)
        return children_cpu() - before

    setups = [scaled_setup(gauge, fresh_warm) for _ in range(setup_repeats(ctx.quick))]
    refs = warm(ctx.seed)
    digest = stream_digest(list(c) for c in islice(calls(ctx.seed), DIGEST_CALLS))

    sweeps = Sweeps(ctx.seed)
    lat = Latencies()
    facts: dict[str, tuple[float, int]] = {}
    tracer = None
    if ctx.trace:
        # untraced and traced quarters alternate, so both see the same machine
        tracer = spans.Tracer()
        rates: dict[bool, list[float]] = {False: [], True: []}
        for on in (False, True, False, True):
            part = Latencies()
            if on:
                spans.install_sim(tracer)
            try:
                sweeps.run(ctx.seconds / 4, part, gauge, tracer if on else None)
            finally:
                tracer.restore()
            rates[on].append(len(part.timeline) / part.cpu())
            lat.merge(part)
        facts["trace.overhead_share"] = (sum(rates[False]) / sum(rates[True]) - 1, len(tracer.ops))
    else:
        t0, t1 = sweeps.run(ctx.seconds, lat, gauge)
    problems = sweeps.problems(refs)
    correct = lat.failed == 0 and not problems

    def trials_per_s(kind: str, per_call: int) -> Metric:
        seconds = lat.of(kind)
        return Metric(per_call * len(seconds) / sum(seconds) if seconds else None, "1/s", len(seconds))

    named = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "failed_share": Metric(lat.failed / max(1, lat.attempted), "ratio", lat.attempted),
        "overlap_trials_per_s": trials_per_s("overlap", OVERLAP_TRIALS),
        "overflow_trials_per_s": trials_per_s("overflow", OVERFLOW_TRIALS),
        "overlap_call_p50_ms": latency_metric(lat.of("overlap"), 0.5),
        "overflow_call_p50_ms": latency_metric(lat.of("overflow"), 0.5),
    }
    lines = [
        f"overlap m={OVERLAP['m']} l={OVERLAP['l']} r={OVERLAP['r']} oe={OVERLAP_SWEEP} x{OVERLAP_TRIALS} trials; "
        f"overflow m={OVERFLOW['m']} q={OVERFLOW['q']} r={OVERFLOW['r']} t={OVERFLOW_SWEEP} x{OVERFLOW_TRIALS} trials",
        f"op-stream sha256 {digest} (first {DIGEST_CALLS} calls)",
        "pooled: " + ", ".join(f"oe={oe} {sweeps.hits[oe]}/{sweeps.trials[oe]} (bound {refs[('overlap', oe)]:.5f})"
                               for oe in OVERLAP_SWEEP),
    ]
    if ctx.trace:
        metrics = spans.per_layer_metrics(tracer.spans, tracer.spans, tracer.ops, facts)
        lines += ["traced run (2nd and 4th quarters of the time); per-layer metrics:"] + metric_lines(metrics)
        lines.append(spans.self_time_line("self time per op", tracer.spans, len(tracer.ops)))
    else:
        metrics, window_lines = gated_metrics(lat, call_windows(lat, t0, t1), named["setup_s"], gauge)
        lines += metric_lines(named)
        lines += ["gated end-to-end metrics:"] + metric_lines(metrics) + window_lines
    lines += [f"check failure: {f}" for f in lat.failures + problems]
    return Outcome(correct, lat.attempted, lat.failed, metrics, lines)
