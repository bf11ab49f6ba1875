"""Server-side storage: an array of m bounded buffers of record handles
over a shared record table, one store per zone.

A record is stored once in the table; its handle is appended to every
buffer addressed by the uploaded filter. Search intersects the addressed
buffers (smallest first) and never scans the table, so cost is bounded
by the number of marked positions, not by store size. The provisioned
capacity model is m * beta * tau bits even though the implementation
deduplicates ciphertexts through the table.

Concurrency: many searches may run in parallel with each other; ingest
and remove take the zone's write lock. No lock is held across network
round-trips.
"""

from __future__ import annotations

import logging
import struct
import threading
from collections.abc import Container
from dataclasses import dataclass
from pathlib import Path

from .crypto import HANDLE_BYTES, SealedRecord
from .filters import BitFilter
from .index import RemovalRequest, UploadPacket
from .params import SystemParams

log = logging.getLogger(__name__)

SNAPSHOT_MAGIC = b"SBFSTOR1"


class StoreError(Exception):
    pass


class ZoneMismatch(StoreError):
    pass


class DuplicateHandle(StoreError):
    pass


class UnknownHandle(StoreError):
    pass


class BufferOverflow(StoreError):
    def __init__(self, buffer_index: int):
        super().__init__(f"buffer {buffer_index} is at capacity")
        self.buffer_index = buffer_index


class _RWLock:
    """Writer-preference readers-writer lock."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


@dataclass
class SearchResult:
    matches: list[SealedRecord]
    buffer_cardinalities: list[int]


class StorageBloomFilter:
    """m buffers of record handles plus a handle -> sealed record table."""

    def __init__(self, params: SystemParams, zone: bytes):
        self.params = params
        self.zone = zone
        self.buffers: list[list[bytes]] = [[] for _ in range(params.m)]
        self.table: dict[bytes, SealedRecord] = {}
        self.buffer_reads = 0  # diagnostic: buffers touched by searches
        self._lock = _RWLock()

    # -- mutations ----------------------------------------------------------

    def ingest(self, packet: UploadPacket) -> int:
        """Store the sealed record and append its handle to every buffer
        marked in the uploaded filter. Atomic: an overflow rejects the
        whole upload and leaves the store untouched."""
        positions = self._upload_positions(packet)
        self._lock.acquire_write()
        try:
            self._check_upload(packet.sealed.handle, positions)
            self._insert(packet.sealed, positions)
            return len(positions)
        finally:
            self._lock.release_write()

    def remove(self, req: RemovalRequest) -> int:
        """Delete the handle from every buffer marked in the pruning
        filter. A marked buffer that lacks the handle is logged and
        skipped; removal proceeds. Returns the number of buffers pruned.

        A replacement upload is checked against the store as it will be
        after the prune, before anything changes; prune and replacement
        then apply under one write lock, so a rejected replacement leaves
        the store untouched."""
        if req.zone != self.zone:
            raise ZoneMismatch("removal request for another zone")
        if req.rbf_prime.m != self.params.m:
            raise StoreError("pruning filter length mismatch")
        marked = req.rbf_prime.positions()
        new = req.replacement
        new_positions = self._upload_positions(new) if new is not None else []
        h = req.handle
        self._lock.acquire_write()
        try:
            if h not in self.table:
                raise UnknownHandle(f"handle {h.hex()} not stored")
            leaving = None
            if new is not None:
                freed = {p for p in marked if h in self.buffers[p]}
                # the record's own handle may return only once the prune drops its last copy
                if new.sealed.handle == h and not any(
                        buf.count(h) > (i in freed) for i, buf in enumerate(self.buffers)):
                    leaving = h
                self._check_upload(new.sealed.handle, new_positions, freed, leaving)
            pruned = 0
            for p in marked:
                try:
                    self.buffers[p].remove(h)
                    pruned += 1
                except ValueError:
                    log.warning("removal bit %d does not hold handle %s", p, h.hex())
            if leaving is not None or not any(h in buf for buf in self.buffers):
                del self.table[h]
            if new is not None:
                self._insert(new.sealed, new_positions)
            return pruned
        finally:
            self._lock.release_write()

    def _upload_positions(self, packet: UploadPacket) -> list[int]:
        if packet.zone != self.zone:
            raise ZoneMismatch(f"packet zone {packet.zone.hex()} != store zone {self.zone.hex()}")
        return BitFilter.decompress(packet.compressed_bf, self.params.m).positions()

    def _check_upload(self, handle: bytes, positions: list[int],
                      freed: Container[int] = (), leaving: bytes | None = None) -> None:
        """Raise unless the upload fits once each buffer in `freed` has
        lost one entry and the record `leaving` has left the table."""
        if handle in self.table and handle != leaving:
            raise DuplicateHandle(f"handle {handle.hex()} already ingested")
        for p in positions:
            if len(self.buffers[p]) - (p in freed) >= self.params.beta:
                raise BufferOverflow(p)

    def _insert(self, sealed: SealedRecord, positions: list[int]) -> None:
        self.table[sealed.handle] = sealed
        for p in positions:
            self.buffers[p].append(sealed.handle)

    # -- reads --------------------------------------------------------------

    def search_positions(self, positions: list[int]) -> SearchResult:
        """Records whose handles occur in all addressed buffers."""
        for p in positions:
            if not 0 <= p < self.params.m:
                raise StoreError(f"position {p} out of range")
        distinct = sorted(set(positions))
        self._lock.acquire_read()
        try:
            addressed = [self.buffers[p] for p in distinct]
            self.buffer_reads += len(addressed)
            cardinalities = [len(buf) for buf in addressed]
            # intersect smallest-first; any empty buffer ends the search
            order = sorted(range(len(addressed)), key=lambda i: cardinalities[i])
            live: set[bytes] | None = None
            for i in order:
                if live is None:
                    live = set(addressed[i])
                else:
                    live &= set(addressed[i])
                if not live:
                    return SearchResult([], cardinalities)
            matches = [self.table[h] for h in sorted(live or set())]
            return SearchResult(matches, cardinalities)
        finally:
            self._lock.release_read()

    def search_filter(self, query: BitFilter) -> SearchResult:
        if query.m != self.params.m:
            raise StoreError("query filter length mismatch")
        positions = query.positions()
        if not positions:
            raise StoreError("all-zero query filter rejected")
        return self.search_positions(positions)

    def memory_usage(self) -> tuple[int, int]:
        """(provisioned capacity in bytes: m * beta * tau / 8,
        actual buffer entries currently held)."""
        self._lock.acquire_read()
        try:
            actual = sum(len(buf) for buf in self.buffers)
        finally:
            self._lock.release_read()
        model_bytes = self.params.m * self.params.beta * self.params.tau_bits // 8
        return model_bytes, actual

    def occupancy_histogram(self) -> list[tuple[int, int]]:
        """(occupancy, buffer count) pairs ascending; counts sum to m."""
        self._lock.acquire_read()
        try:
            counts: dict[int, int] = {}
            for buf in self.buffers:
                counts[len(buf)] = counts.get(len(buf), 0) + 1
        finally:
            self._lock.release_read()
        return sorted(counts.items())

    # -- snapshot persistence -------------------------------------------------

    def save(self, path: str | Path) -> None:
        self._lock.acquire_read()
        try:
            parts = [SNAPSHOT_MAGIC]
            p = self.params
            parts.append(struct.pack(
                ">9I", p.l, p.r, p.gamma_count, p.q, p.m, p.s_bits, p.n_bits, p.beta, p.tau_bits
            ))
            parts.append(struct.pack(">B", len(self.zone)) + self.zone)
            parts.append(struct.pack(">I", len(self.table)))
            for handle in sorted(self.table):
                ct = self.table[handle].ciphertext
                parts.append(handle + struct.pack(">I", len(ct)) + ct)
            nonempty = [(i, buf) for i, buf in enumerate(self.buffers) if buf]
            parts.append(struct.pack(">I", len(nonempty)))
            for i, buf in nonempty:
                parts.append(struct.pack(">II", i, len(buf)) + b"".join(buf))
        finally:
            self._lock.release_read()
        Path(path).write_bytes(b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> "StorageBloomFilter":
        data = Path(path).read_bytes()
        off = 0

        def take(k: int) -> bytes:
            nonlocal off
            if off + k > len(data):
                raise StoreError("truncated snapshot")
            out = data[off : off + k]
            off += k
            return out

        if take(8) != SNAPSHOT_MAGIC:
            raise StoreError("bad snapshot magic")
        l, r, gamma, q, m, s_bits, n_bits, beta, tau = struct.unpack(">9I", take(36))
        params = SystemParams(l=l, r=r, gamma_count=gamma, q=q, m=m,
                              s_bits=s_bits, n_bits=n_bits, beta=beta, tau_bits=tau)
        (zone_len,) = struct.unpack(">B", take(1))
        store = cls(params, take(zone_len))
        (n_records,) = struct.unpack(">I", take(4))
        for _ in range(n_records):
            handle = take(HANDLE_BYTES)
            (ct_len,) = struct.unpack(">I", take(4))
            if handle in store.table:
                raise StoreError("duplicate handle in snapshot")
            store.table[handle] = SealedRecord(handle=handle, ciphertext=take(ct_len))
        (n_buffers,) = struct.unpack(">I", take(4))
        referenced: set[bytes] = set()
        for _ in range(n_buffers):
            pos, count = struct.unpack(">II", take(8))
            if pos >= m:
                raise StoreError(f"snapshot buffer position {pos} out of range")
            if count > beta:
                raise StoreError(f"snapshot buffer {pos} exceeds capacity")
            handles = [take(HANDLE_BYTES) for _ in range(count)]
            for h in handles:
                if h not in store.table:
                    raise StoreError("snapshot buffer references unknown handle")
            if len(set(handles)) != count:
                raise StoreError(f"snapshot buffer {pos} repeats a handle")
            store.buffers[pos] = handles
            referenced.update(handles)
        if off != len(data):
            raise StoreError("trailing bytes after snapshot")
        if referenced != set(store.table):
            raise StoreError("snapshot table holds records absent from every buffer")
        return store
