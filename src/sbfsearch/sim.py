"""Seeded Monte Carlo experiments: blinding-overlap probability sweeps,
buffer-overflow probability sweeps, and an end-to-end accuracy run
through the full client/server stack.

Reproducibility contract: the unit is a block of trials, not a trial.
A call splits its trials into blocks whose size depends only on the
sweep point's sizes, never on the trial count, and block b draws all
its randomness from one generator seeded with (master_seed, b). No two
blocks share draws, results do not depend on the order in which blocks
run, and identical arguments produce bit-identical CSV output. A block
makes one draw: an overlap block draws its blinding positions, its
keyword layout and a few spare rows for the layout in one `integers`
call, and draws again only if the spares run out.
numpy's bounded draws form one stream across calls, so this gives the
same values as drawing each part, and each redraw pass, on its own. The
generator may be left past the layout; nothing draws from it after.

The overflow experiment models position load directly with uniform
random positions rather than running the PRF chain per trial. The
tests check that model against occupancies from a small fixture pushed
through the real stack (`overflow_cross_check` in `tests/oracles.py`).
That model assumes users whose keywords are disjoint. Every user
holding keyword w at sub-location g fills the same r buffers, so where
users share a keyword at a sub-location the store's load is uneven and
the model understates its overflow probability.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
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


def _check_sweep(values: tuple[int, ...], trials: int) -> None:
    """The one check of a sweep's arguments, made before any draw."""
    if trials < 1:
        raise SimError("trials must be at least 1")
    if not values:
        raise SimError("sweep range must be nonempty")


def _spare_rows(rows: int) -> int:
    """Rows drawn beyond a layout's own, to replace the ones that repeat
    a position: well above the few percent that do at m=432, r=6."""
    return rows // 16 + 8


def _repeats(positions: np.ndarray) -> np.ndarray:
    """Flag the rows of a rows x r array that hold some position twice."""
    lanes = positions.T.copy()
    flagged = np.zeros(len(positions), dtype=bool)
    for i in range(len(lanes) - 1):
        flagged |= (lanes[i + 1 :] == lanes[i]).any(axis=0)
    return flagged


def _fill_layout(rng: np.random.Generator, drawn: np.ndarray, rows: int, m: int) -> np.ndarray:
    """The first `rows` rows of `drawn`, each row that repeats a position
    replaced by the spare rows after them.

    The spares go out in draw order: first to the flagged rows in row
    order, then to those whose spare repeats too, and so on. That is the
    order in which a redraw pass by pass, one `rng.integers` call per
    pass, would have used the same stream. Only when the spares run out
    does `rng` draw more."""
    r = drawn.shape[1]
    flagged = _repeats(drawn)
    layout, spares = drawn[:rows], drawn[rows:]
    redo = np.flatnonzero(flagged[:rows])
    flagged = flagged[rows:]
    used = 0
    while redo.size:
        end = used + redo.size
        if end > len(spares):
            more = rng.integers(0, m, size=(max(end, 2 * len(spares)) - len(spares), r), dtype=np.int64)
            spares = np.concatenate([spares, more])
            flagged = np.concatenate([flagged, _repeats(more)])
        layout[redo] = spares[used:end]
        redo = redo[flagged[used:end]]
        used = end
    return layout


def _check_lanes(r: int, m: int) -> None:
    if not 1 <= r <= m:
        raise SimError(f"a row needs 1 <= r <= m distinct positions, got r={r}, m={m}")


def _draw_with_layout(
    rng: np.random.Generator, lead: int, rows: int, r: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """`lead` uniform positions, then a rows x r layout, both from one
    draw that also holds the layout's spare rows."""
    drawn = rng.integers(0, m, size=lead + (rows + _spare_rows(rows)) * r, dtype=np.int64)
    return drawn[:lead], _fill_layout(rng, drawn[lead:].reshape(-1, r), rows, m)


# --- blinding overlap ---------------------------------------------------------

def overlap_estimate(m: int, l: int, r: int, oe_count: int, trials: int, seed: int) -> tuple[float, float]:
    """Fraction of trials in which some keyword row is fully covered by
    oe_count blinding elements of r uniform positions each, against a
    layout drawn afresh per trial. Blocks hold CHUNK_TRIALS trials; a
    block makes one draw for its blinding positions, its layout and the
    layout's spare rows, in that order."""
    if trials < 1:
        raise SimError("trials must be at least 1")
    if oe_count < 0:
        raise SimError("oe_count must be non-negative")
    _check_lanes(r, m)
    if oe_count == 0:
        return 0.0, 0.0
    k = oe_count * r
    hits = 0
    for block, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        n = min(CHUNK_TRIALS, trials - start)
        oe, layouts = _draw_with_layout(_block_rng(seed, block), n * k, n * l, r, m)
        hits += int(kernels.cover_hits(oe.reshape(n, k), layouts.reshape(n, l, r), m).sum())
    p = hits / trials
    return p, _binomial_stderr(p, trials)


def run_overlap_experiment(
    params: SystemParams, oe_counts: tuple[int, ...], trials: int, seed: int
) -> list[ExperimentRow]:
    """Sweep the blinding element count; one row per value.

    The analytic column is the paper's single-user, single-location
    expression C(occupied, r) * l * r! / m^r at the rounded mean occupied
    count, round(expected_distinct_positions(m, r, oe)). It is an
    estimate, not a strict upper bound on the Monte Carlo value: at m=432,
    l=50, r=6, oe=14 and 100000 trials the estimate reads 0.00142 +- 0.00012
    against 0.00121."""
    _check_sweep(oe_counts, trials)
    m, l, r = params.m, params.l, params.r
    rows = []
    for sweep_index, oe in enumerate(oe_counts):
        est, se = overlap_estimate(m, l, r, oe, trials, seed + sweep_index)
        bound = blinding_collision_bound(1, round(expected_distinct_positions(m, r, oe)), r, l, 1, m).bound
        rows.append(ExperimentRow("oe_count", oe, trials, est, se, bound, seed))
    return rows


# --- buffer overflow ----------------------------------------------------------

def max_occupancies(
    m: int, t: int, q: int, r: int, trials: int, seed: int
) -> np.ndarray:
    """Per-trial maximum buffer occupancy when t users each insert q
    elements of r uniform positions."""
    if t < 0:
        raise SimError("the user count t must be non-negative")
    out = np.empty(trials, dtype=np.int64)
    for start, positions in _uniform_blocks(m, t * q * r, trials, seed):
        out[start : start + len(positions)] = kernels.max_occupancy(positions, m)
    return out


def _overflow_row(
    sweep_name: str, sweep_value: int, maxes: np.ndarray, beta: int, trials: int, seed: int
) -> ExperimentRow:
    est = float((maxes > beta).mean())
    return ExperimentRow(sweep_name, sweep_value, trials, est, _binomial_stderr(est, trials), None, seed)


def run_beta_sweep(
    params: SystemParams, t: int, betas: tuple[int, ...], trials: int, seed: int
) -> list[ExperimentRow]:
    """Sweep the per-buffer capacity at a fixed user count t. Estimates
    are the fraction of trials whose maximum occupancy exceeds the
    capacity; every capacity reads the same trials.

    Positions are uniform and independent, as if no two users shared a
    keyword at a sub-location. Shared keywords put their r positions in
    the same buffers for every holder, so for such a population these
    estimates, and those of `run_t_sweep`, understate the store's
    overflow probability."""
    _check_sweep(betas, trials)
    maxes = max_occupancies(params.m, t, params.q, params.r, trials, seed)
    return [_overflow_row("beta", beta, maxes, beta, trials, seed) for beta in betas]


def run_t_sweep(params: SystemParams, ts: tuple[int, ...], trials: int, seed: int) -> list[ExperimentRow]:
    """Sweep the user count at the params' beta; user count i of the
    sweep draws under seed + i."""
    _check_sweep(ts, trials)
    return [_overflow_row("t", t, max_occupancies(params.m, t, params.q, params.r, trials, seed + i),
                          params.beta, trials, seed)
            for i, t in enumerate(ts)]


# --- end-to-end accuracy --------------------------------------------------------

@dataclass
class AccuracyReport:
    users: int
    probes: int
    recall: float
    precision: float
    false_positives_blinding: int
    false_positives_hash: int


def run_accuracy_experiment(params: SystemParams, t: int, seed: int) -> AccuracyReport:
    """Build t users with random keyword subsets and locations, upload
    through the real stack, then probe every (user, keyword, location)
    and measure recall/precision. False positives are attributed to
    blinding overlap when the colliding record needs its obfuscation
    positions to cover the probe, otherwise to hash collision."""
    rng = Random(seed)
    vocab = [random_token(rng, params.n_bits) for _ in range(params.l)]
    ms = generate_master_secrets(params, vocab, rng)
    zone = random_token(rng, params.n_bits)
    locations = [random_token(rng, params.n_bits) for _ in range(params.gamma_count)]
    store = StorageBloomFilter(params, zone)

    truth: dict[bytes, tuple[list[bytes], bytes, set[int]]] = {}
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
        truth[packet.sealed.handle] = (keywords, location, real_positions)

    agent_keyrings: dict[bytes, UserKeyring] = {}
    expected = returned = recalled = fp_blind = fp_hash = 0
    probes = 0
    for handle, (keywords, location, _) in truth.items():
        for w in keywords:
            probes += 1
            kr = agent_keyrings.setdefault(w, register_user(ms, [w], zone, params))
            probe_ps = keyword_positions(kr, w, location, params)
            result = store.search_positions(probe_ps)
            got = {rec.handle for rec in result.matches}
            holders = {
                h for h, (kws, loc, _) in truth.items() if loc == location and w in kws
            }
            expected += len(holders)
            returned += len(got)
            recalled += len(got & holders)
            for fp in got - holders:
                _, _, real_ps = truth[fp]
                if set(probe_ps) <= real_ps:
                    fp_hash += 1
                else:
                    fp_blind += 1
    recall = recalled / expected if expected else 1.0
    precision = recalled / returned if returned else 1.0
    return AccuracyReport(
        users=t, probes=probes, recall=recall, precision=precision,
        false_positives_blinding=fp_blind, false_positives_hash=fp_hash,
    )


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
