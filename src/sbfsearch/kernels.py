"""Hot Monte Carlo kernels, in numpy.

The simulation experiments spend their kernel time in two deterministic
inner loops: checking whether any keyword's position row is covered by
a trial's inserted positions, and computing per-trial maximum buffer
occupancy. All random positions are drawn by the caller.
"""

from __future__ import annotations

import numpy as np

# Kept for the benchmark's environment report, which records it.
ACTIVE_BACKEND = "numpy"


def cover_hits(oe_positions: np.ndarray, layouts: np.ndarray, m: int) -> np.ndarray:
    """For each trial, 1 if any layout row has all its positions among
    the trial's inserted positions.

    oe_positions: (trials, k) int64, layouts: (trials, rows, r) int64;
    layouts may be a broadcast view of one fixed layout. The trials'
    filters lie end to end in one flat array: trial i's position p is
    element i*m + p. One scatter sets them, one gather reads every
    layout lane, and a row is covered when all r of its lanes are set.
    The lanes are counted by a product with a ones vector, in the
    smallest unsigned type that holds r: at small blocks that is about
    twice as fast as a reduction along the rows.
    """
    trials, rows, r = layouts.shape
    base = np.arange(0, trials * m, m)
    filt = np.zeros(trials * m, dtype=np.uint8)
    filt[(oe_positions + base[:, None]).ravel()] = 1
    covered = filt[(layouts + base[:, None, None]).reshape(trials * rows, r)]
    lanes = covered @ np.ones(r, dtype=np.min_scalar_type(r))
    return (lanes == r).reshape(trials, rows).any(axis=1).astype(np.uint8)


def max_occupancy(positions: np.ndarray, m: int) -> np.ndarray:
    """Per-trial maximum bin count. positions: (trials, k) int64.

    One bincount per trial: a single offset bincount over the whole
    block is slower, because its count array no longer fits in cache.
    """
    out = np.empty(positions.shape[0], dtype=np.int64)
    for i in range(positions.shape[0]):
        out[i] = np.bincount(positions[i], minlength=m).max()
    return out
