"""Closed-form evaluators for the scheme's privacy and resource
quantities. The exact enumeration oracles that validate them on small
instances live with the tests (`tests/oracles.py`).

The combinatorial model: a user's index marks `occupied` distinct
positions out of m (the expected distinct count, rounded to nearest
before entering these formulas). Intersections between two such position
sets follow a hypergeometric law.

- prob_index_overlap(m, occupied, r): probability two users' position sets
  share at least r positions. High values mean an observer cannot read
  keyword co-occurrence from raw overlap.
- prob_keyword_cover(m, occupied, r, q): expected number of a user's q
  keyword position sets whose r positions are all covered by another
  user's set, i.e. spurious full matches. Linear in q; not clamped.
- blinding_collision_bound(t, occupied, r, l, gamma, m): union-style upper
  bound on any of t users' blinding load fully covering some vocabulary
  keyword at some location: t * C(occupied, r) * l * gamma * r! / m^r.

Each quantity has one evaluator. The keyword cover collapses to the
exact rational q * C(occupied, r) / C(m, r). The overlap probability sums
the hypergeometric weights C(occupied, k) * C(m - occupied, occupied - k)
in log space, shifted by their peak, and divides the upper tail k >= r by
the computed total; C(m, occupied) cancels and is never formed. Against
exact rationals the relative error is at most 4e-15 on every instance
with m <= 14 and at most 3.4e-11 at m up to 100000 with occupied up to
1000, including tails near 1e-8 (m=28854, occupied=150, r=10), where
one minus a lower tail loses about 1 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .crypto import HANDLE_BYTES, SEAL_OVERHEAD_BYTES, position_width
from .params import SystemParams


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class CollisionBound:
    bound: float
    clamped: bool


def _check_overlap_args(m: int, occupied: int, r: int) -> None:
    if not 0 <= occupied <= m:
        raise AnalysisError(f"need 0 <= occupied <= m, got occupied={occupied}, m={m}")
    if not 1 <= r <= occupied:
        raise AnalysisError(f"need 1 <= r <= occupied, got r={r}, occupied={occupied}")


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def prob_index_overlap(m: int, occupied: int, r: int) -> float:
    """P(|A n B| >= r) for independent uniform occupied-subsets A, B of m
    positions: the hypergeometric upper tail over its total weight."""
    _check_overlap_args(m, occupied, r)
    low = max(0, 2 * occupied - m)
    logs = [_log_comb(occupied, k) + _log_comb(m - occupied, occupied - k)
            for k in range(low, occupied + 1)]
    peak = max(logs)
    weights = [math.exp(v - peak) for v in logs]
    return math.fsum(weights[max(0, r - low):]) / math.fsum(weights)


def prob_keyword_cover(m: int, occupied: int, r: int, q: int) -> float:
    """(q / C(occupied, r)) * sum_{k=r}^{occupied} P(|A n B| = k) * C(k, r),
    which collapses to q * C(occupied, r) / C(m, r), evaluated exactly.

    Expected number of a user's q keyword position sets fully covered by
    another user's occupied-subset. Linear in q by construction."""
    _check_overlap_args(m, occupied, r)
    if q < 1:
        raise AnalysisError("q must be at least 1")
    return float(Fraction(q * math.comb(occupied, r), math.comb(m, r)))


def blinding_collision_bound(
    t: int, occupied: int, r: int, l: int, gamma_count: int, m: int
) -> CollisionBound:
    """Upper bound t * C(occupied, r) * l * gamma * r! / m^r, clamped at 1
    with a flag. occupied below r is allowed and yields a zero bound."""
    if t < 0 or l < 1 or gamma_count < 1 or r < 1:
        raise AnalysisError("invalid bound arguments")
    if not 0 <= occupied <= m:
        raise AnalysisError(f"need 0 <= occupied <= m, got occupied={occupied}, m={m}")
    raw = Fraction(t * math.comb(occupied, r) * l * gamma_count * math.factorial(r), m**r)
    return CollisionBound(bound=float(min(raw, Fraction(1))), clamped=raw > 1)


# --- communication and memory models ----------------------------------------

UPLOAD_FRAMING_BYTES = HANDLE_BYTES + 4 + 4  # handle + two length prefixes


def meta_record_bytes(keyword_count: int, n_bits: int) -> int:
    """Serialized record size: three fixed tokens plus keyword_count list
    tokens and two one-byte count prefixes."""
    n_bytes = (n_bits + 7) // 8
    return (3 + keyword_count) * n_bytes + 2


def sparse_filter_bound_bytes(set_bits: int, m: int) -> int:
    """The longest sparse filter of at most `set_bits` positions out of m:
    the codec sets no more than m positions."""
    return 4 + (min(m, set_bits) * position_width(m) + 7) // 8


def upload_size_bits(params: SystemParams) -> int:
    """Worst-case upload payload size in bits: sealed record for q
    keywords, compressed filter at min(m, q*r) set bits, zone token, and
    packet framing. Matches UploadPacket.to_bytes() exactly; transport
    overhead is not included."""
    sealed_bits = (meta_record_bytes(params.q, params.n_bits) + SEAL_OVERHEAD_BYTES) * 8
    sparse_bits = sparse_filter_bound_bytes(params.q * params.r, params.m) * 8
    zone_bits = params.n_bytes * 8
    return sealed_bits + sparse_bits + zone_bits + UPLOAD_FRAMING_BYTES * 8


RESULT_RECORD_PREFIX_BITS = 32  # per-record length prefix on the wire
RESULT_HEADER_BITS = 32         # match-count field


def result_size_bits(matches: int, sealed_bits: int) -> int:
    """Search response payload: per-match sealed record with its length
    prefix, plus the count header."""
    if matches < 0:
        raise AnalysisError("matches must be non-negative")
    return matches * (sealed_bits + RESULT_RECORD_PREFIX_BITS) + RESULT_HEADER_BITS


def provisioned_memory_bytes(params: SystemParams) -> int:
    """Capacity model m * beta * tau, in bytes; linear in beta."""
    return params.m * params.beta * params.tau_bits // 8


def bytes_to_mib(n: int) -> float:
    return n / 2**20
