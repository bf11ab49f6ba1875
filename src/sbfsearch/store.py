"""Server-side storage: an array of m bounded buffers of record handles
over a shared record table, one store per zone.

A record is stored once in the table; its handle is appended to every
buffer addressed by the uploaded filter. Search seeds a set with the
smallest addressed buffer and probes each larger one into it in C,
stopping once nothing survives: at most the sum of the addressed
cardinalities in C-level probes, and never a scan of the table. Removal
keeps a per-handle count of the buffers holding each record and prunes
each marked buffer with one C-level `list.remove`, which keeps the
buffer's other handles in order. A replacement is checked first, against
the store as the prune will leave it, so a refused one changes nothing;
it must carry a handle the store does not hold.
Query and pruning filters hold their positions, not m bits, and removal
visits them unsorted. So search and removal cost what the addressed
buffers hold, not the store size or m. Ingest decodes the sparse upload
straight to its position list (linear in the count, refused undecoded
above q*r, and refused when empty), gathers the target buffers once to
check capacity and appends to those same lists: O(positions), with no
dense m-bit filter. A sealed record whose ephemeral key is not in
canonical form is refused, at ingest and at load, as `open_record`
refuses it.
The provisioned capacity model, `analysis.provisioned_memory_bytes`, is
m * beta * tau bits even though the implementation deduplicates
ciphertexts through the table.

Snapshots (`save`, `load`) are SBFSTOR3 files: the parameters and the
zone, then each live record in table order, framed as an upload frames
it (the sealed record, then its current positions in the sparse codec
behind a u32 length), and a SHA-256 over all of it, which
`files.read_checksummed` checks before anything is parsed. Load ingests
the records in that order, so a snapshot is refused by ingest's own
checks and no others. Ingest is the only code that appends a handle to
a buffer, and it puts the record last in the table; pruning never
reorders. So every buffer lists its handles in table order, and
replaying the records in that order rebuilds every buffer exactly.

Concurrency: one plain lock per zone store serialises every call that
reads or changes the buffers, searches included. Searches hold the GIL
throughout, so letting them share the store bought no parallelism, and
the network server runs requests one at a time anyway. No lock is held
across network round-trips.
"""

from __future__ import annotations

import logging
import struct
import threading
from collections import Counter
from collections.abc import Container
from dataclasses import dataclass
from pathlib import Path

from .crypto import (CryptoError, SealedRecord, canonical_x25519, compress_positions, decompress_positions,
                     max_sealed_bytes)
from .files import read_checksummed, write_checksummed
from .filters import BitFilter
from .index import RemovalRequest, UploadPacket
from .params import ParamsError, SystemParams

log = logging.getLogger(__name__)

SNAPSHOT_MAGIC = b"SBFSTOR3"


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


def _check_sealed(ct: bytes, params: SystemParams) -> None:
    """A sealed record may be no longer than `seal_record` makes one at
    tau: tau/8 bytes plus the sealing overhead. Its first 32 bytes, the
    ephemeral key, must be in canonical form, as `open_record` requires,
    so the store never holds a second encoding of a record."""
    limit = max_sealed_bytes(params.tau_bits)
    if len(ct) > limit:
        raise StoreError(f"sealed record of {len(ct)} bytes exceeds tau bound {limit}")
    if len(ct) >= 32 and not canonical_x25519(ct[:32]):
        raise StoreError("sealed record's ephemeral key is not canonical")


@dataclass
class SearchResult:
    matches: list[SealedRecord]
    buffer_cardinalities: list[int]


class StorageBloomFilter:
    """m buffers of record handles plus a handle -> sealed record table."""

    def __init__(self, params: SystemParams, zone: bytes):
        if len(zone) != params.n_bytes:
            raise StoreError(f"zone {zone.hex()} is not {params.n_bytes} bytes long")
        self.params = params
        self.zone = zone
        self.buffers: list[list[bytes]] = [[] for _ in range(params.m)]
        self.table: dict[bytes, SealedRecord] = {}
        # handle -> buffers holding it; a buffer never holds a handle twice
        self._live: Counter[bytes] = Counter()
        self._lock = threading.Lock()

    # -- mutations ----------------------------------------------------------

    def ingest(self, packet: UploadPacket) -> int:
        """Store the sealed record and append its handle to every buffer
        marked in the uploaded filter. Atomic: an overflow rejects the
        whole upload and leaves the store untouched."""
        positions = self._upload_positions(packet)
        with self._lock:
            self._insert(packet.sealed, self._check_upload(packet.sealed.handle, positions))
        return len(positions)

    def remove(self, req: RemovalRequest) -> int:
        """Delete the handle from every buffer marked in the pruning
        filter with one `list.remove` each; cost is one scan per marked
        buffer, whatever the store size or m (the filter holds its marked
        positions, not m bits, and they are visited in the filter's own
        order, unsorted).
        Marked buffers that lack the handle are skipped and counted in one
        warning, which names neither them nor the handle. Returns the
        number of buffers pruned.

        A replacement upload is checked before anything changes, against
        the store as it will be after the prune: each marked buffer that
        holds the handle has lost it. Its handle must be new to the store:
        the removed record's own is refused even when the prune drops the
        record's last copy. Prune and replacement then apply
        under one hold of the lock, so a refused replacement leaves the
        store untouched."""
        if req.zone != self.zone:
            raise ZoneMismatch("removal request for another zone")
        marked = req.rbf_prime
        if marked.m != self.params.m:
            raise StoreError("pruning filter length mismatch")
        new = req.replacement
        new_positions = self._upload_positions(new) if new is not None else []
        h = req.handle
        buffers = self.buffers
        with self._lock:
            if h not in self.table:
                raise UnknownHandle(f"handle {h.hex()} not stored")
            if new is not None:
                freed = {p for p in marked if h in buffers[p]}
                targets = self._check_upload(new.sealed.handle, new_positions, freed)
            missing = 0
            for p in marked:  # in range: checked when the filter was built
                try:
                    buffers[p].remove(h)
                except ValueError:
                    missing += 1
            if missing:
                log.warning("removal: %d marked buffers did not hold the record", missing)
            pruned = marked.popcount - missing
            self._live[h] -= pruned
            if not self._live[h]:
                del self._live[h], self.table[h]
            if new is not None:
                self._insert(new.sealed, targets)
            return pruned

    def _upload_positions(self, packet: UploadPacket) -> list[int]:
        """The upload's positions, decoded in O(count): ascending, in range,
        at least one and at most q*r (a larger count is refused undecoded).
        The sealed record may be no longer than `seal_record` makes one
        at tau (tau/8 bytes plus the sealing overhead), so tau bounds every
        stored record as the capacity model assumes, and its ephemeral key
        must be canonical."""
        if packet.zone != self.zone:
            raise ZoneMismatch(f"packet zone {packet.zone.hex()} != store zone {self.zone.hex()}")
        _check_sealed(packet.sealed.ciphertext, self.params)
        positions = decompress_positions(packet.compressed_bf, self.params.m, self.params.max_positions)
        if not positions:
            raise StoreError("upload filter has no bit set")
        return positions

    def _check_upload(self, handle: bytes, positions: list[int], freed: Container[int] = ()) -> list[list[bytes]]:
        """The buffers the upload goes to. Raise if its handle is stored,
        or unless it fits once each buffer in `freed` has lost one entry."""
        if handle in self.table:
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
        with self._lock:
            addressed = [self.buffers[p] for p in distinct]
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

    def search_filter(self, query: BitFilter) -> SearchResult:
        if query.m != self.params.m:
            raise StoreError("query filter length mismatch")
        positions = query.positions()
        if not positions:
            raise StoreError("all-zero query filter rejected")
        return self.search_positions(positions)

    def occupancy_histogram(self) -> list[tuple[int, int]]:
        """(occupancy, buffer count) pairs ascending; counts sum to m."""
        with self._lock:
            counts = Counter(map(len, self.buffers))
        return sorted(counts.items())

    # -- snapshot persistence -------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write an SBFSTOR3 snapshot with `files.write_checksummed`: never
        half-written, and the rename survives a power cut."""
        with self._lock:
            held = {h: [] for h in self.table}  # handle -> its positions, ascending
            for position, buf in enumerate(self.buffers):
                for h in buf:
                    held[h].append(position)
            p = self.params
            parts = [SNAPSHOT_MAGIC,
                     struct.pack(">9IB", p.l, p.r, p.gamma_count, p.q, p.m, p.s_bits, p.n_bits, p.beta,
                                 p.tau_bits, len(self.zone)),
                     self.zone,
                     struct.pack(">I", len(self.table))]
            for h, rec in self.table.items():
                positions = compress_positions(held[h], p.m)
                parts += [rec.to_bytes(), struct.pack(">I", len(positions)), positions]
        write_checksummed(path, b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> "StorageBloomFilter":
        """Read an SBFSTOR3 snapshot by ingesting its records in order, so
        each is held to ingest's rules: a sealed record no longer than tau
        allows with a canonical ephemeral key, 1 to q*r positions,
        ascending and in range, a handle not yet stored, and no buffer
        over beta. The SHA-256 trailer is checked before anything is
        parsed."""
        rd = read_checksummed(path, SNAPSHOT_MAGIC, StoreError)
        l, r, gamma, q, m, s_bits, n_bits, beta, tau = struct.unpack(">9I", rd.take(36))
        try:
            params = SystemParams(l=l, r=r, gamma_count=gamma, q=q, m=m,
                                  s_bits=s_bits, n_bits=n_bits, beta=beta, tau_bits=tau)
        except ParamsError as exc:
            raise StoreError(f"bad snapshot parameters: {exc}") from exc
        store = cls(params, rd.take(rd.u8()))
        for _ in range(rd.u32()):
            sealed = SealedRecord.read(rd)
            try:
                store.ingest(UploadPacket(store.zone, rd.take(rd.u32()), sealed))
            except CryptoError as exc:
                raise StoreError(f"snapshot record: {exc}") from exc
        rd.done()
        return store
