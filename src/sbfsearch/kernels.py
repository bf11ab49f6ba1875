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
    layouts may be a broadcast view of one fixed layout.
    """
    trials = oe_positions.shape[0]
    filt = np.zeros((trials, m), dtype=bool)
    filt[np.arange(trials)[:, None], oe_positions] = True
    covered = filt[np.arange(trials)[:, None, None], layouts]
    return covered.all(axis=2).any(axis=1).astype(np.uint8)


def max_occupancy(positions: np.ndarray, m: int) -> np.ndarray:
    """Per-trial maximum bin count. positions: (trials, k) int64.

    One bincount per trial: a single offset bincount over the whole
    block is slower, because its count array no longer fits in cache.
    """
    out = np.empty(positions.shape[0], dtype=np.int64)
    for i in range(positions.shape[0]):
        out[i] = np.bincount(positions[i], minlength=m).max()
    return out
