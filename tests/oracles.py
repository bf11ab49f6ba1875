"""Brute-force and reference implementations, kept as test oracles.

None of these run in the system: the closed forms in `analysis`, the
single-draw layout and the uniform overflow model in `sim`, and the
acceptance checks are measured against them.

- enumerate_overlap / enumerate_keyword_cover: exhaustive placement of
  one occupied-subset against a fixed one (small m only);
- spearman_rho: rank correlation with average ranks for ties;
- draw_keyword_layout_by_passes: the keyword layout as `sim` drew it
  before a block made one draw, redrawing the rows that hold a repeated
  position pass after pass, one `rng.integers` call per pass. The
  single-draw layout must produce the same array from the same
  generator.
- real_stack_occupancies / model_occupancies / overflow_cross_check:
  buffer occupancies from genuine uploads through the PRF chain and the
  store, and from `sim`'s uniform position model (drawn as `sim` draws
  it), compared by ks_two_sample, a two-sample Kolmogorov-Smirnov test.
- prf / keyword_trapdoor / derive_location_vector: the key schedule's
  uncached chain, one HMAC per evaluation, each counted in
  `crypto.prf_calls`. `index` memoises the chain's repeating points, and
  the paper's per-stage PRF budgets are read through these.
- open_record_uncached: the canonical-key rule, X25519, HKDF, AES-GCM
  and the parse, with no memo, against which the memoised
  `crypto.open_record` is checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from sbfsearch import index, sim
from sbfsearch.crypto import (
    MetaInfo,
    SealedRecord,
    check_prf_key,
    hkdf_sha256,
    hmac_prf,
    prf_calls,
    random_token,
)
from sbfsearch.index import (
    UserKeyring,
    build_user_index,
    generate_master_secrets,
    make_upload_packet,
    register_user,
)
from sbfsearch.params import SystemParams
from sbfsearch.store import StorageBloomFilter


def _check_overlap_args(m: int, occupied: int, r: int) -> None:
    if not 1 <= r <= occupied <= m:
        raise ValueError(f"need 1 <= r <= occupied <= m, got m={m}, occupied={occupied}, r={r}")


def enumerate_overlap(m: int, occupied: int, r: int) -> Fraction:
    """Exhaustively place one occupied-subset against a fixed occupied-subset and
    count placements intersecting in >= r positions. Exact; O(C(m, occupied))."""
    _check_overlap_args(m, occupied, r)
    fixed = set(range(occupied))
    hits = sum(1 for a in combinations(range(m), occupied) if len(fixed.intersection(a)) >= r)
    return Fraction(hits, math.comb(m, occupied))


def enumerate_keyword_cover(m: int, occupied: int, r: int, q: int) -> Fraction:
    """Same exhaustive placement, accumulating C(|intersection|, r)
    weights: the expected number of covered r-subsets, scaled to q
    keywords out of the C(occupied, r) possible position sets."""
    _check_overlap_args(m, occupied, r)
    fixed = set(range(occupied))
    weight = sum(
        math.comb(len(fixed.intersection(a)), r) for a in combinations(range(m), occupied)
    )
    return Fraction(q * weight, math.comb(m, occupied) * math.comb(occupied, r))


def spearman_rho(x: list[float], y: list[float]) -> float:
    """Rank correlation with average ranks for ties."""
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("rank correlation needs two equal-length samples")

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


def draw_keyword_layout_by_passes(rng: np.random.Generator, rows: int, r: int, m: int) -> np.ndarray:
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
    for start, positions in sim._uniform_blocks(params.m, t * params.q * params.r, trials, seed):
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
        raise sim.SimError("cross-check fixture needs t*q <= l so keywords are disjoint")
    real = real_stack_occupancies(params, t, trials, seed).ravel()
    model = model_occupancies(params, t, trials, seed + 1).ravel()
    return ks_two_sample(real, model)


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


def prf(key: bytes, message: bytes, s_bits: int) -> bytes:
    """Keyed PRF: HMAC truncated to s bits. Deterministic in (key, message).
    Every call counts once in `prf_calls`."""
    check_prf_key(key, s_bits)
    prf_calls.count += 1
    return hmac_prf(key, message, s_bits)


def keyword_trapdoor(kr: UserKeyring, w: bytes, params: SystemParams) -> list[bytes]:
    """z_i = PRF(k_i, w); r PRF calls."""
    return [prf(k, w, params.s_bits) for k in index._registered_subkeys(kr, w)]


def derive_location_vector(trapdoor: list[bytes], location: bytes, params: SystemParams) -> list[bytes]:
    """y_i = PRF(z_i, location); r PRF calls. Users and agents holding
    the same keyword material derive identical vectors for (w, location)."""
    return [prf(z, location, params.s_bits) for z in trapdoor]


def open_record_uncached(agent_private: bytes, rec: SealedRecord, n_bits: int) -> MetaInfo:
    """`seal_record` inverted step by step with no memo. Raises what the
    library raises: `ValueError` for a bad key or point, `InvalidTag` for
    a forged or cut record, `CryptoError` for a bad parse; and
    `ValueError` for an ephemeral key not in canonical form (top bit set,
    or a value of at least 2^255 - 19), which X25519 itself would accept."""
    ct = rec.ciphertext
    if len(ct) >= 32 and (ct[31] & 0x80 or int.from_bytes(ct[:32], "little") >= 2**255 - 19):
        raise ValueError("ephemeral key not canonical")
    eph_pub = X25519PublicKey.from_public_bytes(ct[:32])
    shared = X25519PrivateKey.from_private_bytes(agent_private).exchange(eph_pub)
    plain = AESGCM(hkdf_sha256(shared, b"sbfsearch record seal")).decrypt(ct[32:44], ct[44:], None)
    return MetaInfo.from_bytes(plain, n_bits)
