"""The dense client index, kept as a test oracle.

This is how `build_user_index` and `build_removal_request` worked when
every filter was an m-length numpy array: m bits for the upload and
obfuscating filters, m int64 counters, and every surviving blinding
element re-hashed on each removal. It draws from the RNG in the order
the scheme fixes, so the set-based client must produce the same
uploads, pruning filters and RNG state. `file_bytes` writes the dense
SBFINDX1 index file, the only form `files.save_index` wrote before
SBFINDX2; `files` no longer reads it, and the golden pins hash it. `of`
turns a set-based index into this dense form.
"""

from __future__ import annotations

import struct
from random import Random

import numpy as np

from sbfsearch.crypto import compress_positions, rand_bytes
from sbfsearch.index import SchemeError, blinding_positions, keyword_positions

INDEX_V1_MAGIC = b"SBFINDX1"


class DenseIndex:
    def __init__(self, zone: bytes, m: int):
        self.zone = zone
        self.bf = np.zeros(m, dtype=bool)
        self.counters = np.zeros(m, dtype=np.int64)
        self.obf = np.zeros(m, dtype=bool)
        self.obf_elements: list[bytes] = []

    def upload_filter(self) -> bytes:
        return compress_positions(np.flatnonzero(self.bf), len(self.bf))

    def file_bytes(self) -> bytes:
        """The SBFINDX1 file of this index."""
        m = len(self.bf)

        def dense(bits):
            return m.to_bytes(8, "big") + np.packbits(bits, bitorder="little").tobytes()

        parts = [INDEX_V1_MAGIC, struct.pack(">IB", m, len(self.zone)), self.zone, dense(self.bf),
                 self.counters.astype(">u4").tobytes(), dense(self.obf), struct.pack(">H", len(self.obf_elements))]
        parts.extend(struct.pack(">H", len(v)) + v for v in self.obf_elements)
        return b"".join(parts)


def of(idx) -> DenseIndex:
    """A `UserIndex` in dense form."""
    dense = DenseIndex(idx.zone, idx.cbf.m)
    dense.bf[idx.bf.positions()] = True
    dense.obf[idx.obf.positions()] = True
    dense.counters[list(idx.cbf.counters)] = list(idx.cbf.counters.values())
    dense.obf_elements = list(idx.obf_elements)
    return dense


def build(kr, location: bytes, params, rng: Random | None = None) -> DenseIndex:
    idx = DenseIndex(kr.zone, params.m)
    for w in kr.keys:
        ps = keyword_positions(kr, w, location, params)
        idx.bf[ps] = True
        np.add.at(idx.counters, ps, 1)
    for _ in range(params.q - len(kr.keys)):
        value = rand_bytes(rng, params.n_bytes)
        idx.obf[blinding_positions(value, params)] = True
        idx.obf_elements.append(value)
    idx.bf |= idx.obf
    return idx


def remove(idx: DenseIndex, kr, w: bytes, location: bytes, params, rng: Random | None = None) -> bytes:
    """The compressed pruning filter; updates the index in place."""
    ps = keyword_positions(kr, w, location, params)
    occurrences: dict[int, int] = {}
    for p in ps:
        occurrences[p] = occurrences.get(p, 0) + 1
    for p, n in occurrences.items():
        if idx.counters[p] < n:
            raise SchemeError("keyword was never inserted at this location")
    prune = np.zeros(params.m, dtype=bool)
    prune[ps] = True
    pick = rng if rng is not None else Random()
    for p in sorted(occurrences):
        if idx.counters[p] <= occurrences[p]:
            continue
        prune[p] = False
        prune[_draw_swap_position(idx, prune, params, pick)] = True
    delta = np.zeros(params.m, dtype=np.int64)
    np.add.at(delta, ps, 1)
    idx.counters -= delta
    idx.obf = np.zeros(params.m, dtype=bool)
    for value in idx.obf_elements:
        idx.obf[blinding_positions(value, params)] = True
    idx.bf = (idx.counters > 0) | idx.obf
    return compress_positions(np.flatnonzero(prune), params.m)


def _draw_swap_position(idx: DenseIndex, prune: np.ndarray, params, rng: Random) -> int:
    order = list(range(len(idx.obf_elements)))
    rng.shuffle(order)
    for i in order:
        positions = blinding_positions(idx.obf_elements[i], params)
        usable = [p for p in positions if idx.counters[p] == 0 and not prune[p]]
        if usable:
            idx.obf_elements.pop(i)
            return rng.choice(usable)
    raise SchemeError("no unused blinding element available for a removal swap")
