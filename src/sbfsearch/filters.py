"""Bit filters and the indexed hash family shared by clients and the
store.

A `BitFilter` holds only what is set: the set of its set positions. So
every operation costs the positions it touches, never the filter length
m, and no dense m-bit form exists here. A client's counting filter is a
plain `collections.Counter` of its nonzero counters (`index.UserIndex`)."""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Collection, Iterable, Iterator

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


def _check_positions(positions: Collection[int], m: int) -> None:
    if positions and not (0 <= min(positions) and max(positions) < m):
        bad = next(p for p in positions if not 0 <= p < m)
        raise FilterError(f"position {bad} out of range for m={m}")


class BitFilter:
    """An m-bit filter held as the set of its set positions."""

    def __init__(self, m: int, positions: Iterable[int] = ()):
        if m < 1:
            raise FilterError("filter length must be positive")
        if getattr(positions, "dtype", None) == bool:
            raise FilterError("BitFilter takes positions, not a dense boolean array")
        self.m = m
        self._positions = set(positions)
        _check_positions(self._positions, m)

    @classmethod
    def _of(cls, m: int, positions: set[int]) -> "BitFilter":
        """A filter over a position set already known to be in range."""
        bf = cls.__new__(cls)
        bf.m, bf._positions = m, positions
        return bf

    def insert(self, positions: list[int]) -> None:
        _check_positions(positions, self.m)
        self._positions.update(positions)

    @property
    def popcount(self) -> int:
        return len(self._positions)

    def positions(self) -> list[int]:
        """The set positions, ascending."""
        return sorted(self._positions)

    def __iter__(self) -> Iterator[int]:
        """The set positions in no particular order, without a sort."""
        return iter(self._positions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitFilter) and self.m == other.m and self._positions == other._positions

    def compress(self) -> bytes:
        return compress_positions(self.positions(), self.m)

    @classmethod
    def decompress(cls, data: bytes, m: int, max_count: int | None = None) -> "BitFilter":
        """Invert compress; a count above `max_count` is refused undecoded."""
        return cls._of(m, set(decompress_positions(data, m, max_count)))  # the codec checked the range
