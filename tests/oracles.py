"""Brute-force and reference implementations, kept as test oracles.

None of these run in the system: the closed forms in `analysis`, the
single-draw layout in `sim` and the acceptance checks are measured
against them.

- enumerate_overlap / enumerate_keyword_cover: exhaustive placement of
  one occupied-subset against a fixed one (small m only);
- spearman_rho: rank correlation with average ranks for ties;
- draw_keyword_layout_by_passes: the keyword layout as `sim` drew it
  before a block made one draw, redrawing the rows that hold a repeated
  position pass after pass, one `rng.integers` call per pass. The
  single-draw layout must produce the same array from the same
  generator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


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
