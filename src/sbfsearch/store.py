"""Server-side storage: an array of m bounded buffers of record handles
over a shared record table, one store per zone.

A record is stored once in the table; its handle is appended to every
buffer addressed by the uploaded filter. Search seeds a set with the
smallest addressed buffer and probes each larger one into it in C,
stopping once nothing survives: at most the sum of the addressed
cardinalities in C-level probes, and never a scan of the table. Removal
finds the handle in each marked buffer with one C-level scan and deletes
it at that index, and keeps a per-handle count of the buffers holding
each record. Query and pruning filters hold their positions, not m
bits. So both cost what the addressed buffers hold, not the store size or
m. Ingest decodes the sparse upload straight to its position list
(linear in the count, refused undecoded above q*r, and refused when
empty), gathers the target buffers once to check capacity and appends to
those same lists: O(positions), with no dense m-bit filter. The
provisioned capacity model is m * beta * tau bits even though the
implementation deduplicates ciphertexts through the table.

Concurrency: the network server runs requests one at a time, so it never
contends for a store. The readers-writer lock still guards in-process
callers: many searches may run in parallel with each other, and ingest
and remove take the zone's write lock. No lock is held across network
round-trips.
"""

from __future__ import annotations

import logging
import os
import struct
import tempfile
import threading
from collections import Counter
from collections.abc import Container
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .crypto import HANDLE_BYTES, SEAL_OVERHEAD_BYTES, Reader, SealedRecord, decompress_positions
from .filters import BitFilter
from .index import RemovalRequest, UploadPacket
from .params import ParamsError, SystemParams

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


def _check_sealed_size(size: int, params: SystemParams) -> None:
    """A sealed record may be no longer than `seal_record` makes one at
    tau: tau/8 bytes plus the sealing overhead."""
    limit = SEAL_OVERHEAD_BYTES + params.tau_bits // 8
    if size > limit:
        raise StoreError(f"sealed record of {size} bytes exceeds tau bound {limit}")


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
        # handle -> buffers holding it; a buffer never holds a handle twice
        self._live: Counter[bytes] = Counter()
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
            self._insert(packet.sealed, self._check_upload(packet.sealed.handle, positions))
            return len(positions)
        finally:
            self._lock.release_write()

    def remove(self, req: RemovalRequest) -> int:
        """Delete the handle from every buffer marked in the pruning
        filter; cost is one scan per marked buffer, whatever the store size
        or m (the filter holds its marked positions, not m bits).
        Marked buffers that lack the handle are skipped and counted in one
        warning, which names neither them nor the handle. Returns the
        number of buffers pruned.

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
            held = []  # (position, buffer, index of h): one scan per marked buffer
            for p in marked:
                buf = self.buffers[p]
                try:
                    held.append((p, buf, buf.index(h)))
                except ValueError:
                    pass
            if new is not None:
                # the record's own handle may return only once the prune drops its last copy
                leaving = h if self._live[h] == len(held) else None
                freed = {p for p, _, _ in held}
                targets = self._check_upload(new.sealed.handle, new_positions, freed, leaving)
            if len(held) < len(marked):
                log.warning("removal: %d marked buffers did not hold the record", len(marked) - len(held))
            for _, buf, i in held:
                del buf[i]
            self._live[h] -= len(held)
            if not self._live[h]:
                del self._live[h], self.table[h]
            if new is not None:
                self._insert(new.sealed, targets)
            return len(held)
        finally:
            self._lock.release_write()

    def _upload_positions(self, packet: UploadPacket) -> list[int]:
        """The upload's positions, decoded in O(count): ascending, in range,
        at least one and at most q*r (a larger count is refused undecoded).
        The sealed record may be no longer than `seal_record` makes one
        at tau (tau/8 bytes plus the sealing overhead), so tau bounds every
        stored record as the capacity model assumes."""
        if packet.zone != self.zone:
            raise ZoneMismatch(f"packet zone {packet.zone.hex()} != store zone {self.zone.hex()}")
        _check_sealed_size(len(packet.sealed.ciphertext), self.params)
        positions = decompress_positions(packet.compressed_bf, self.params.m, self.params.max_positions)
        if not positions:
            raise StoreError("upload filter has no bit set")
        return positions

    def _check_upload(self, handle: bytes, positions: list[int],
                      freed: Container[int] = (), leaving: bytes | None = None) -> list[list[bytes]]:
        """The buffers the upload goes to. Raise unless it fits once each
        buffer in `freed` has lost one entry and the record `leaving` has
        left the table."""
        if handle in self.table and handle != leaving:
            raise DuplicateHandle(f"handle {handle.hex()} already ingested")
        targets = list(map(self.buffers.__getitem__, positions))
        if max(map(len, targets)) >= self.params.beta:  # only a full buffer needs the exact test
            for p, buf in zip(positions, targets):
                if len(buf) - (p in freed) >= self.params.beta:
                    raise BufferOverflow(p)
        return targets

    def _insert(self, sealed: SealedRecord, targets: list[list[bytes]]) -> None:
        self.table[sealed.handle] = sealed
        self._live[sealed.handle] = len(targets)
        for buf in targets:
            buf.append(sealed.handle)

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
            cardinalities = list(map(len, addressed))
            if not addressed:
                return SearchResult([], cardinalities)
            # seed with the smallest buffer, then probe each larger one in C;
            # stop as soon as nothing survives
            addressed.sort(key=len)
            live = set(addressed[0])
            for buf in addressed[1:]:
                if not live:
                    break
                live.intersection_update(buf)
            return SearchResult([self.table[h] for h in sorted(live)], cardinalities)
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
            counts = Counter(map(len, self.buffers))
        finally:
            self._lock.release_read()
        return sorted(counts.items())

    # -- snapshot persistence -------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write via a synced temporary file, a rename and a sync of the
        directory: never half-written, and the rename survives a power cut."""
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
        fd, tmp = tempfile.mkstemp(dir=Path(path).parent, prefix=f".{Path(path).name}.")
        try:
            with open(fd, "wb") as f:
                f.write(b"".join(parts))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        # the rename is durable only once the directory entry is synced too
        dir_fd = os.open(Path(path).parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def load(cls, path: str | Path) -> "StorageBloomFilter":
        """Read a snapshot under ingest's rules: every record known, in at
        least one and at most q*r buffers, no longer than tau allows, and
        no buffer over beta or holding a handle twice."""
        rd = Reader(Path(path).read_bytes(), StoreError)
        if rd.take(8) != SNAPSHOT_MAGIC:
            raise StoreError("bad snapshot magic")
        l, r, gamma, q, m, s_bits, n_bits, beta, tau = struct.unpack(">9I", rd.take(36))
        try:
            params = SystemParams(l=l, r=r, gamma_count=gamma, q=q, m=m,
                                  s_bits=s_bits, n_bits=n_bits, beta=beta, tau_bits=tau)
        except ParamsError as exc:
            raise StoreError(f"bad snapshot parameters: {exc}") from exc
        store = cls(params, rd.take(rd.u8()))
        for _ in range(rd.u32()):
            handle = rd.take(HANDLE_BYTES)
            if handle in store.table:
                raise StoreError("duplicate handle in snapshot")
            size = rd.u32()
            _check_sealed_size(size, params)
            store.table[handle] = SealedRecord(handle=handle, ciphertext=rd.take(size))
        for _ in range(rd.u32()):
            pos, count = struct.unpack(">II", rd.take(8))
            if pos >= m:
                raise StoreError(f"snapshot buffer position {pos} out of range")
            if count > beta:
                raise StoreError(f"snapshot buffer {pos} exceeds capacity")
            blob = rd.take(HANDLE_BYTES * count)
            handles = [blob[i : i + HANDLE_BYTES] for i in range(0, len(blob), HANDLE_BYTES)]
            distinct = set(handles)
            if not store.table.keys() >= distinct:
                raise StoreError("snapshot buffer references unknown handle")
            if len(distinct) != count:
                raise StoreError(f"snapshot buffer {pos} repeats a handle")
            store.buffers[pos] = handles
        rd.done()
        store._live.update(chain.from_iterable(store.buffers))  # one call: counted in C
        if store._live.keys() != store.table.keys():
            raise StoreError("snapshot table holds records absent from every buffer")
        if store._live and max(store._live.values()) > params.max_positions:
            raise StoreError(f"snapshot record held by more than q*r = {params.max_positions} buffers")
        return store
