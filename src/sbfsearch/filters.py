"""Bit filters, counting filters, and the indexed hash family shared by
clients and the store."""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .crypto import compress_positions, decompress_positions


class FilterError(ValueError):
    pass


def hash_positions(elements: list[bytes], m: int, r: int) -> list[int]:
    """Map one keyword's r lane elements to filter positions.

    Position i is SHA256(be32(i) || element_i) taken as a big-endian
    integer mod m, with the lane index i starting at 1. Duplicate
    positions are permitted; two lanes may collide.
    """
    if len(elements) != r:
        raise FilterError(f"expected {r} lane elements, got {len(elements)}")
    sha256 = hashlib.sha256
    return [int.from_bytes(sha256(lane + e).digest(), "big") % m
            for lane, e in zip(_lane_prefixes(r), elements)]


@functools.lru_cache
def _lane_prefixes(r: int) -> tuple[bytes, ...]:
    """be32(1) .. be32(r), the lane prefixes of hash_positions."""
    return tuple(i.to_bytes(4, "big") for i in range(1, r + 1))


def _check_positions(positions: list[int], m: int) -> None:
    for p in positions:
        if not 0 <= p < m:
            raise FilterError(f"position {p} out of range for m={m}")


class BitFilter:
    """Fixed-length bit array over numpy bool storage."""

    def __init__(self, m: int, bits: np.ndarray | None = None):
        if m < 1:
            raise FilterError("filter length must be positive")
        self.m = m
        self.bits = np.zeros(m, dtype=bool) if bits is None else bits

    def insert(self, positions: list[int]) -> None:
        _check_positions(positions, self.m)
        self.bits[positions] = True

    def test(self, positions: list[int]) -> bool:
        """True iff every position is set (no false negatives for
        anything actually inserted)."""
        _check_positions(positions, self.m)
        return bool(self.bits[positions].all())

    def union(self, other: "BitFilter") -> "BitFilter":
        if self.m != other.m:
            raise FilterError("length mismatch in filter union")
        return BitFilter(self.m, self.bits | other.bits)

    __or__ = union

    @property
    def popcount(self) -> int:
        return int(self.bits.sum())

    def positions(self) -> list[int]:
        return np.flatnonzero(self.bits).tolist()

    def copy(self) -> "BitFilter":
        return BitFilter(self.m, self.bits.copy())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitFilter)
            and self.m == other.m
            and bool(np.array_equal(self.bits, other.bits))
        )

    def compress(self) -> bytes:
        return compress_positions(np.flatnonzero(self.bits), self.m)

    @classmethod
    def decompress(cls, data: bytes, m: int, max_count: int | None = None) -> "BitFilter":
        """Invert compress; a count above `max_count` is refused undecoded."""
        bf = cls(m)
        bf.bits[decompress_positions(data, m, max_count)] = True  # the codec checked the range
        return bf

    def to_bytes(self) -> bytes:
        """Dense form: 8-byte big-endian length, then ceil(m/8) bytes with
        bit 0 of byte 0 holding position 0."""
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        return self.m.to_bytes(8, "big") + packed

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitFilter":
        if len(data) < 8:
            raise FilterError("dense filter missing length header")
        m = int.from_bytes(data[:8], "big")
        body = data[8:]
        if len(body) != (m + 7) // 8:
            raise FilterError("dense filter length mismatch")
        bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8), bitorder="little")[:m]
        return cls(m, bits.astype(bool))


class CountingFilter:
    """Per-position counters enabling exact removal; counters are
    unbounded non-negative integers, never saturated."""

    def __init__(self, m: int, counters: np.ndarray | None = None):
        if m < 1:
            raise FilterError("filter length must be positive")
        self.m = m
        self.counters = np.zeros(m, dtype=np.int64) if counters is None else counters

    def add(self, positions: list[int]) -> None:
        """Increment once per occurrence in positions."""
        _check_positions(positions, self.m)
        np.add.at(self.counters, positions, 1)

    def subtract(self, positions: list[int]) -> None:
        """Decrement once per occurrence; underflow means the caller is
        removing something never inserted and is rejected before any
        counter changes."""
        _check_positions(positions, self.m)
        delta = np.zeros(self.m, dtype=np.int64)
        np.add.at(delta, positions, 1)
        if (self.counters < delta).any():
            raise FilterError("counting filter underflow: element was never inserted")
        self.counters -= delta

    def nonzero_bits(self) -> BitFilter:
        return BitFilter(self.m, self.counters > 0)

    @property
    def total(self) -> int:
        return int(self.counters.sum())

    def copy(self) -> "CountingFilter":
        return CountingFilter(self.m, self.counters.copy())
