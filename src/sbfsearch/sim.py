"""Seeded Monte Carlo experiments: blinding-overlap probability sweeps,
buffer-overflow probability sweeps, and an end-to-end accuracy run
through the full client/server stack.

Reproducibility contract: the unit is a block of trials, not a trial.
A call splits its trials into blocks whose size depends only on the
sweep point's sizes, never on the trial count, and block b draws all
its randomness from one generator seeded with (master_seed, b). No two
blocks share draws, results do not depend on the order in which blocks
run, and identical (config, seed) pairs produce bit-identical CSV
output. The overflow experiment models position load directly with
uniform random positions rather than running the PRF chain per trial;
a cross-check mode pushes a small fixture through the real stack and
compares occupancy distributions. That model assumes users whose
keywords are disjoint. Every user holding keyword w at sub-location g
fills the same r buffers, so where users share a keyword at a
sub-location the store's load is uneven and the model understates its
overflow probability.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from random import Random

import numpy as np

from . import kernels
from .analysis import blinding_collision_bound
from .crypto import MetaInfo, random_token
from .index import (
    UserKeyring,
    build_user_index,
    generate_master_secrets,
    keyword_positions,
    make_upload_packet,
    register_user,
)
from .params import SystemParams, expected_distinct_positions
from .store import StorageBloomFilter

CHUNK_TRIALS = 2048


class SimError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    sweep_name: str
    sweep_values: tuple[int, ...]
    trials: int
    seed: int
    m_override: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SimError("trials must be at least 1")
        if not self.sweep_values:
            raise SimError("sweep range must be nonempty")

    @property
    def m(self) -> int:
        return self.m_override if self.m_override is not None else self.params.m


@dataclass(frozen=True)
class ExperimentRow:
    sweep_name: str
    sweep_value: int
    trials: int
    estimate: float
    stderr: float
    analytic: float | None
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, block)))


def _uniform_blocks(m: int, k: int, trials: int, seed: int):
    """Yield (first trial, positions) per block of a trials x k array of
    uniform positions in [0, m); each block is drawn in one call. Blocks
    shrink as k grows, to at most about 16M positions each."""
    size = max(1, CHUNK_TRIALS // max(1, k // 4096))
    for block, start in enumerate(range(0, trials, size)):
        n = min(size, trials - start)
        yield start, _block_rng(seed, block).integers(0, m, size=(n, k), dtype=np.int64)


def _binomial_stderr(p: float, n: int) -> float:
    return math.sqrt(p * (1 - p) / n)


def draw_keyword_layout(rng: np.random.Generator, rows: int, r: int, m: int) -> np.ndarray:
    """rows x r positions, rows redrawn until their positions are
    distinct within the row (a keyword occupies r distinct positions)."""
    layout = rng.integers(0, m, size=(rows, r), dtype=np.int64)
    redo = np.arange(rows)
    while True:
        # only the rows redrawn last pass can still hold a duplicate
        ordered = np.sort(layout[redo], axis=1)
        redo = redo[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
        if not redo.size:
            return layout
        layout[redo] = rng.integers(0, m, size=(redo.size, r), dtype=np.int64)


# --- blinding overlap ---------------------------------------------------------

def overlap_estimate(
    m: int, l: int, r: int, oe_count: int, trials: int, seed: int,
    fixed_layout: np.ndarray | None = None,
) -> tuple[float, float]:
    """Fraction of trials in which some keyword row is fully covered by
    oe_count blinding elements of r uniform positions each. A fresh
    layout is drawn per trial unless fixed_layout pins one. Blocks hold
    CHUNK_TRIALS trials."""
    if oe_count == 0:
        return 0.0, 0.0
    hits = 0
    for block, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        n = min(CHUNK_TRIALS, trials - start)
        rng = _block_rng(seed, block)
        oe = rng.integers(0, m, size=(n, oe_count * r), dtype=np.int64)
        if fixed_layout is None:
            layouts = draw_keyword_layout(rng, n * l, r, m).reshape(n, l, r)
        else:
            layouts = np.broadcast_to(fixed_layout, (n, l, r))
        hits += int(kernels.cover_hits(oe, layouts, m).sum())
    p = hits / trials
    return p, _binomial_stderr(p, trials)


def overlap_probability_mc(
    params: SystemParams, oe_count: int, keyword_layout: np.ndarray, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate (with standard error) of blinding elements
    covering some keyword of a fixed layout; the independent oracle for
    the closed-form bound."""
    if trials < 1:
        raise SimError("trials must be at least 1")
    rows, r = keyword_layout.shape
    if r != params.r:
        raise SimError("layout row width must equal the lane count")
    return overlap_estimate(params.m, rows, params.r, oe_count, trials, seed,
                            fixed_layout=np.asarray(keyword_layout, dtype=np.int64))


def run_overlap_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Sweep the blinding element count; one row per value with the
    matching closed-form bound (single user, single location)."""
    p = cfg.params
    rows = []
    for sweep_index, oe in enumerate(cfg.sweep_values):
        est, se = overlap_estimate(cfg.m, p.l, p.r, oe, cfg.trials, cfg.seed + sweep_index)
        occupied = round(expected_distinct_positions(cfg.m, p.r, oe))
        bound = blinding_collision_bound(1, occupied, p.r, p.l, 1, cfg.m).bound
        rows.append(ExperimentRow("oe_count", oe, cfg.trials, est, se, bound, cfg.seed))
    return rows


# --- buffer overflow ----------------------------------------------------------

def max_occupancies(
    m: int, t: int, q: int, r: int, trials: int, seed: int
) -> np.ndarray:
    """Per-trial maximum buffer occupancy when t users each insert q
    elements of r uniform positions."""
    out = np.empty(trials, dtype=np.int64)
    for start, positions in _uniform_blocks(m, t * q * r, trials, seed):
        out[start : start + len(positions)] = kernels.max_occupancy(positions, m)
    return out


def run_overflow_experiment(cfg: ExperimentConfig, t: int | None = None) -> list[ExperimentRow]:
    """Sweep either the per-buffer capacity (sweep_name="beta", fixed t)
    or the user count (sweep_name="t", beta from params). Estimates are
    the fraction of trials whose maximum occupancy exceeds the capacity.

    Positions are uniform and independent, as if no two users shared a
    keyword at a sub-location. Shared keywords put their r positions in
    the same buffers for every holder, so for such a population these
    estimates understate the store's overflow probability."""
    p = cfg.params
    rows = []
    if cfg.sweep_name == "beta":
        if t is None:
            raise SimError("beta sweep needs the user count t")
        maxes = max_occupancies(cfg.m, t, p.q, p.r, cfg.trials, cfg.seed)
        for beta in cfg.sweep_values:
            est = float((maxes > beta).mean())
            rows.append(ExperimentRow("beta", beta, cfg.trials,
                                      est, _binomial_stderr(est, cfg.trials), None, cfg.seed))
    elif cfg.sweep_name == "t":
        for sweep_index, t_value in enumerate(cfg.sweep_values):
            maxes = max_occupancies(cfg.m, t_value, p.q, p.r, cfg.trials, cfg.seed + sweep_index)
            est = float((maxes > p.beta).mean())
            rows.append(ExperimentRow("t", t_value, cfg.trials,
                                      est, _binomial_stderr(est, cfg.trials), None, cfg.seed))
    else:
        raise SimError(f"overflow experiment cannot sweep {cfg.sweep_name!r}")
    return rows


def real_stack_occupancies(
    params: SystemParams, t: int, trials: int, seed: int
) -> np.ndarray:
    """Buffer occupancies produced by genuine uploads: fresh secrets per
    trial, every user holding q distinct private keywords. Used to
    validate the uniform position model against the PRF chain."""
    all_occ = []
    for trial in range(trials):
        rng = Random((seed << 32) ^ trial)
        vocab = [random_token(rng, params.n_bits) for _ in range(params.l)]
        ms = generate_master_secrets(params, vocab, rng)
        zone = random_token(rng, params.n_bits)
        store = StorageBloomFilter(params, zone)
        slots = list(range(params.l))
        rng.shuffle(slots)
        per_user = [slots[i * params.q : (i + 1) * params.q] for i in range(t)]
        for keywords in per_user:
            kr = register_user(ms, [vocab[i] for i in keywords], zone, params)
            idx = build_user_index(kr, random_token(rng, params.n_bits), params, rng)
            mi = MetaInfo(random_token(rng, params.n_bits), (), random_token(rng, params.n_bits),
                          random_token(rng, params.n_bits), ())
            store.ingest(make_upload_packet(idx, mi, ms.agent_public, zone, params, rng))
        all_occ.append([len(buf) for buf in store.buffers])
    return np.asarray(all_occ, dtype=np.int64)


def model_occupancies(params: SystemParams, t: int, trials: int, seed: int) -> np.ndarray:
    occ = np.empty((trials, params.m), dtype=np.int64)
    for start, positions in _uniform_blocks(params.m, t * params.q * params.r, trials, seed):
        for j, row in enumerate(positions):
            occ[start + j] = np.bincount(row, minlength=params.m)
    return occ


def overflow_cross_check(params: SystemParams, t: int, trials: int, seed: int) -> tuple[float, float]:
    """(KS statistic, p-value) comparing occupancy distributions from the
    real stack and the uniform position model. The fixture gives every
    user distinct keywords so position sharing cannot occur; with that
    removed the hashed load must be statistically uniform. The check says
    nothing of populations that share a keyword at a sub-location: there
    the real load exceeds the uniform model's, and the overflow estimate
    is too low."""
    if t * params.q > params.l:
        raise SimError("cross-check fixture needs t*q <= l so keywords are disjoint")
    real = real_stack_occupancies(params, t, trials, seed).ravel()
    model = model_occupancies(params, t, trials, seed + 1).ravel()
    return ks_two_sample(real, model)


# --- end-to-end accuracy --------------------------------------------------------

@dataclass
class AccuracyReport:
    users: int
    probes: int
    expected_matches: int
    returned_matches: int
    recall: float
    precision: float
    false_positives_blinding: int
    false_positives_hash: int
    per_user_keywords: list[int] = field(default_factory=list)


def run_accuracy_experiment(
    params: SystemParams, t: int, seed: int, locations_per_zone: int | None = None
) -> AccuracyReport:
    """Build t users with random keyword subsets and locations, upload
    through the real stack, then probe every (user, keyword, location)
    and measure recall/precision. False positives are attributed to
    blinding overlap when the colliding record needs its obfuscation
    positions to cover the probe, otherwise to hash collision."""
    rng = Random(seed)
    gamma = locations_per_zone or params.gamma_count
    vocab = [random_token(rng, params.n_bits) for _ in range(params.l)]
    ms = generate_master_secrets(params, vocab, rng)
    zone = random_token(rng, params.n_bits)
    locations = [random_token(rng, params.n_bits) for _ in range(gamma)]
    store = StorageBloomFilter(params, zone)

    truth: dict[bytes, tuple[list[bytes], bytes, set[int], set[int]]] = {}
    for _ in range(t):
        d = rng.randint(0, params.q)
        keywords = rng.sample(vocab, d)
        location = rng.choice(locations)
        kr = register_user(ms, keywords, zone, params)
        idx = build_user_index(kr, location, params, rng)
        mi = MetaInfo(random_token(rng, params.n_bits), (), random_token(rng, params.n_bits),
                      random_token(rng, params.n_bits), ())
        packet = make_upload_packet(idx, mi, ms.agent_public, zone, params, rng)
        store.ingest(packet)
        real_positions = {p for w in keywords for p in keyword_positions(kr, w, location, params)}
        truth[packet.sealed.handle] = (keywords, location, real_positions, set(idx.obf.positions()))

    agent_keyrings: dict[bytes, UserKeyring] = {}
    expected = returned = recalled = fp_blind = fp_hash = 0
    probes = 0
    for handle, (keywords, location, _, _) in truth.items():
        for w in keywords:
            probes += 1
            kr = agent_keyrings.setdefault(w, register_user(ms, [w], zone, params))
            probe_ps = keyword_positions(kr, w, location, params)
            result = store.search_positions(probe_ps)
            got = {rec.handle for rec in result.matches}
            holders = {
                h for h, (kws, loc, _, _) in truth.items() if loc == location and w in kws
            }
            expected += len(holders)
            returned += len(got)
            recalled += len(got & holders)
            for fp in got - holders:
                _, _, real_ps, obf_ps = truth[fp]
                if set(probe_ps) <= real_ps:
                    fp_hash += 1
                else:
                    fp_blind += 1
    recall = recalled / expected if expected else 1.0
    precision = recalled / returned if returned else 1.0
    return AccuracyReport(
        users=t, probes=probes, expected_matches=expected, returned_matches=returned,
        recall=recall, precision=precision,
        false_positives_blinding=fp_blind, false_positives_hash=fp_hash,
        per_user_keywords=[len(v[0]) for v in truth.values()],
    )


# --- statistics helpers ---------------------------------------------------------

def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.
    Heavy ties make the p-value conservative, which is the safe direction
    for an indistinguishability assertion."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    d = float(np.abs(cdf_a - cdf_b).max())
    en = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    arg = (en + 0.12 + 0.11 / en) * d
    p = 2 * sum((-1) ** (j - 1) * math.exp(-2 * (j * arg) ** 2) for j in range(1, 101))
    return d, float(min(max(p, 0.0), 1.0))


def spearman_rho(x: list[float], y: list[float]) -> float:
    """Rank correlation with average ranks for ties."""
    if len(x) != len(y) or len(x) < 2:
        raise SimError("rank correlation needs two equal-length samples")

    def ranks(values: list[float]) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        order = np.argsort(arr, kind="mergesort")
        rank = np.empty(len(arr), dtype=float)
        i = 0
        while i < len(arr):
            j = i
            while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
                j += 1
            rank[order[i : j + 1]] = (i + j) / 2 + 1
            i = j + 1
        return rank

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


# --- CSV output ------------------------------------------------------------------

CSV_COLUMNS = ("sweep_name", "sweep_value", "trials", "estimate", "stderr", "analytic", "seed")


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        analytic = "" if row.analytic is None else repr(row.analytic)
        out.write(
            f"{row.sweep_name},{row.sweep_value},{row.trials},"
            f"{row.estimate!r},{row.stderr!r},{analytic},{row.seed}\n"
        )
    return out.getvalue()
