import dataclasses
import os
import stat
import struct
import sys
import tempfile
import threading
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from sbfsearch import analysis
from sbfsearch.crypto import HANDLE_BYTES, SEAL_OVERHEAD_BYTES, CryptoError, SealedRecord, token_from_text
from sbfsearch.filters import BitFilter
from sbfsearch.index import (
    RemovalRequest,
    UploadPacket,
    build_removal_request,
    build_user_index,
    keyword_positions,
    make_upload_packet,
    register_user,
)
from sbfsearch.params import derive_params
from sbfsearch.store import (
    BufferOverflow,
    DuplicateHandle,
    StorageBloomFilter,
    StoreError,
    UnknownHandle,
    ZoneMismatch,
)

from conftest import SystemFixture, blinding_filter, fill_disk_halfway, resealed


@pytest.fixture
def loaded(system):
    """Store with three users sharing keyword 0 at location 0 and one
    user with keyword 5 only."""
    store = StorageBloomFilter(system.params, system.zone)
    packets = {}
    for i, (name, kws) in enumerate((("a", [0, 1]), ("b", [0, 2]), ("c", [0, 3]), ("d", [5]))):
        kr, idx = system.user(kws, seed=100 + i)
        packet = make_upload_packet(idx, system.meta(name), system.secrets.agent_public,
                                    system.zone, system.params, Random(200 + i))
        store.ingest(packet)
        packets[name] = (kr, idx, packet)
    return store, packets


def _probe(system, kr, keyword_index):
    return keyword_positions(kr, system.vocab[keyword_index],
                             system.locations[0], system.params)


class TestIngest:
    def test_buffer_writes_match_popcount(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        _, idx = system.user([0, 1, 2])
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, system.params, Random(1))
        written = store.ingest(packet)
        assert written == idx.bf.popcount
        assert len(store.table) == 1
        assert sum(len(b) for b in store.buffers) == written

    def test_duplicate_handle_rejected(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        _, idx = system.user([0])
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, system.params, Random(2))
        store.ingest(packet)
        with pytest.raises(DuplicateHandle):
            store.ingest(packet)

    def test_zone_mismatch_rejected(self, system):
        store = StorageBloomFilter(system.params, token_from_text("elsewhere", 64))
        _, idx = system.user([0])
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, system.params, Random(3))
        with pytest.raises(ZoneMismatch):
            store.ingest(packet)

    def test_overflow_is_atomic(self, system):
        params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=1, tau_bits=4096, n_bits=64)
        sys2 = SystemFixture(params, seed=9)
        store = StorageBloomFilter(params, sys2.zone)
        # same keyword, same location: identical positions, beta=1 overflows
        kr1, idx1 = sys2.user([0], seed=10)
        kr2, idx2 = sys2.user([0], seed=11)
        p1 = make_upload_packet(idx1, sys2.meta("a"), sys2.secrets.agent_public,
                                sys2.zone, params, Random(12))
        p2 = make_upload_packet(idx2, sys2.meta("b"), sys2.secrets.agent_public,
                                sys2.zone, params, Random(13))
        store.ingest(p1)
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        with pytest.raises(BufferOverflow) as info:
            store.ingest(p2)
        assert 0 <= info.value.buffer_index < params.m
        assert store.table == table_before
        assert [list(b) for b in store.buffers] == buffers_before


class TestSearch:
    def test_shared_keyword_returns_all_holders(self, system, loaded):
        store, packets = loaded
        kr, _, _ = packets["a"]
        result = store.search_positions(_probe(system, kr, 0))
        handles = {rec.handle for rec in result.matches}
        expected = {packets[n][2].sealed.handle for n in ("a", "b", "c")}
        assert expected <= handles
        assert packets["d"][2].sealed.handle not in handles

    def test_never_inserted_probes_return_nothing(self, system, loaded):
        store, _ = loaded
        rng = Random(20)
        params = system.params
        empty = 0
        for _ in range(1000):
            probe = [rng.randrange(params.m) for _ in range(params.r)]
            if not store.search_positions(probe).matches:
                empty += 1
        assert empty >= 998  # collision-scale false positives at most

    def test_empty_buffer_short_circuits(self, system, loaded):
        store, _ = loaded
        empty_pos = next(i for i, b in enumerate(store.buffers) if not b)
        full_pos = next(i for i, b in enumerate(store.buffers) if b)
        result = store.search_positions([empty_pos, full_pos])
        assert result.matches == []
        assert sorted(result.buffer_cardinalities) == sorted(
            [len(store.buffers[empty_pos]), len(store.buffers[full_pos])]
        )

    def test_filter_and_position_search_agree(self, system, loaded):
        store, packets = loaded
        kr, _, _ = packets["b"]
        ps = _probe(system, kr, 0)
        query = BitFilter(system.params.m)
        query.insert(ps)
        by_filter = {r.handle for r in store.search_filter(query).matches}
        by_positions = {r.handle for r in store.search_positions(ps).matches}
        assert by_filter == by_positions

    def test_conjunctive_results_contained_in_singles(self, system, loaded):
        store, packets = loaded
        kr, _, _ = packets["a"]
        single0 = {r.handle for r in store.search_positions(_probe(system, kr, 0)).matches}
        single1 = {r.handle for r in store.search_positions(_probe(system, kr, 1)).matches}
        both = BitFilter(system.params.m)
        both.insert(_probe(system, kr, 0))
        both.insert(_probe(system, kr, 1))
        conj = {r.handle for r in store.search_filter(both).matches}
        assert conj <= single0 and conj <= single1

    def test_all_zero_query_rejected(self, system, loaded):
        store, _ = loaded
        with pytest.raises(StoreError):
            store.search_filter(BitFilter(system.params.m))

    def test_out_of_range_position_rejected(self, system, loaded):
        store, _ = loaded
        with pytest.raises(StoreError):
            store.search_positions([system.params.m])

    def test_buffer_reads_equal_query_popcount(self, system, loaded):
        store, packets = loaded
        kr, _, _ = packets["a"]
        ps = _probe(system, kr, 0)
        mark = store.buffer_reads
        store.search_positions(ps)
        assert store.buffer_reads - mark == len(set(ps))
        query = BitFilter(system.params.m)
        query.insert(_probe(system, kr, 0))
        query.insert(_probe(system, kr, 1))
        mark = store.buffer_reads
        store.search_filter(query)
        assert store.buffer_reads - mark == query.popcount

    def test_empty_position_list_matches_nothing(self, loaded):
        store, _ = loaded
        result = store.search_positions([])
        assert (result.matches, result.buffer_cardinalities) == ([], [])


PROPERTY_PARAMS = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64)
# mostly a few shared positions, so records overlap; sometimes any of the m=231
_position = st.one_of(st.integers(0, 7), st.integers(0, PROPERTY_PARAMS.m - 1))


@st.composite
def _stores_and_holdings(draw):
    """A store of at most beta records, some of them partly withdrawn, and
    each live handle's positions as the model has them."""
    store = StorageBloomFilter(PROPERTY_PARAMS, b"zone")
    held = {}
    for i in range(draw(st.integers(0, PROPERTY_PARAMS.beta))):
        handle = bytes([i]) * 16
        positions = draw(st.sets(_position, min_size=1, max_size=6))
        store.ingest(UploadPacket(b"zone", _filter(positions).compress(),
                                  SealedRecord(handle, b"sealed %d" % i)))
        prune = draw(st.sets(st.sampled_from(sorted(positions)), max_size=len(positions)))
        if prune:
            store.remove(RemovalRequest(zone=b"zone", rbf_prime=_filter(prune), handle=handle))
        if positions - prune:
            held[handle] = positions - prune
    return store, held


def _filter(positions):
    bf = BitFilter(PROPERTY_PARAMS.m)
    bf.insert(sorted(positions))
    return bf


class TestSearchProperties:
    @settings(max_examples=80)
    @given(_stores_and_holdings(), st.lists(_position, max_size=8))
    def test_search_is_a_brute_force_intersection(self, case, query):
        """Repeated positions, empty buffers and the empty query included:
        the matches are the handles held at every queried position, in
        handle order, and the cardinalities follow the distinct positions
        in ascending order."""
        store, held = case
        distinct = sorted(set(query))
        expected = sorted(h for h, ps in held.items() if distinct and ps.issuperset(distinct))
        result = store.search_positions(query)
        assert [rec.handle for rec in result.matches] == expected
        assert result.buffer_cardinalities == [sum(p in ps for ps in held.values()) for p in distinct]


class TestRemove:
    def test_insert_then_full_removal_drops_record(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        kr, idx = system.user([0])
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, system.params, Random(30))
        store.ingest(packet)
        # prune every buffer the record occupies
        rbf = BitFilter.decompress(packet.compressed_bf, system.params.m)
        pruned = store.remove(RemovalRequest(zone=system.zone, rbf_prime=rbf,
                                             handle=packet.sealed.handle))
        assert pruned == rbf.popcount
        assert not store.table
        assert sum(len(b) for b in store.buffers) == 0

    def test_unknown_handle_rejected(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        rbf = BitFilter(system.params.m)
        rbf.insert([1])
        with pytest.raises(UnknownHandle):
            store.remove(RemovalRequest(zone=system.zone, rbf_prime=rbf, handle=b"x" * 16))

    def test_bit_on_foreign_buffer_is_tolerated(self, system, caplog):
        store = StorageBloomFilter(system.params, system.zone)
        kr, idx = system.user([0])
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, system.params, Random(31))
        store.ingest(packet)
        occupied = set(idx.bf.positions())
        # the highest free position: its digits cannot be mistaken for the count
        foreign = max(set(range(system.params.m)) - occupied)
        rbf = BitFilter(system.params.m)
        rbf.insert([foreign, next(iter(occupied))])
        with caplog.at_level("WARNING"):
            pruned = store.remove(RemovalRequest(zone=system.zone, rbf_prime=rbf,
                                                 handle=packet.sealed.handle))
        assert pruned == 1
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        # positions and handles are access-pattern data and stay out of the log
        assert packet.sealed.handle.hex() not in caplog.text
        assert str(foreign) not in caplog.text

    def test_swap_path_prunes_blinding_buffer(self, system):
        from test_index import _colliding_pair

        params = system.params
        kr, loc, w1, w2, shared = _colliding_pair(system, d=params.q - 2)
        idx = build_user_index(kr, loc, params, Random(32))
        store = StorageBloomFilter(params, system.zone)
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, params, Random(33))
        store.ingest(packet)
        obf_before = set(blinding_filter(idx))
        req = build_removal_request(idx, kr, w1, loc, packet.sealed.handle, params, Random(34))
        swap_bits = set(req.rbf_prime.positions()) & obf_before
        assert swap_bits, "collision fixture must force a swap"
        store.remove(req)
        for p in swap_bits:
            assert packet.sealed.handle not in store.buffers[p]
        # surviving keyword still resolves
        assert store.search_positions(keyword_positions(kr, w2, loc, params)).matches

    def test_removal_with_replacement_reingests(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        kr, idx = system.user([0, 1])
        packet = make_upload_packet(idx, system.meta("old"), system.secrets.agent_public,
                                    system.zone, system.params, Random(35))
        store.ingest(packet)
        loc = system.locations[0]
        replacement_kr, replacement_idx = system.user([1], seed=36)
        replacement = make_upload_packet(replacement_idx, system.meta("new"),
                                         system.secrets.agent_public, system.zone,
                                         system.params, Random(37))
        rbf = BitFilter.decompress(packet.compressed_bf, system.params.m)
        store.remove(RemovalRequest(zone=system.zone, rbf_prime=rbf,
                                    handle=packet.sealed.handle, replacement=replacement))
        assert replacement.sealed.handle in store.table
        assert packet.sealed.handle not in store.table


def _handle(name):
    return name.encode().ljust(16, b"\0")


def _raw_packet(zone, m, name, positions, version=b""):
    bf = BitFilter(m)
    bf.insert(positions)
    handle = _handle(name)
    return UploadPacket(zone=zone, compressed_bf=bf.compress(),
                        sealed=SealedRecord(handle=handle, ciphertext=b"sealed " + handle + version))


class TestReplacement:
    """remove() with a replacement: checked against the pruned store,
    applied whole or not at all. beta=2; record a holds buffers 0-3, b
    holds 3-5 and c holds 5-6, so buffers 3 and 5 are full."""

    @pytest.fixture
    def store(self, system):
        params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=2, tau_bits=4096, n_bits=64)
        store = StorageBloomFilter(params, system.zone)
        for name, positions in (("a", [0, 1, 2, 3]), ("b", [3, 4, 5]), ("c", [5, 6])):
            store.ingest(_raw_packet(system.zone, params.m, name, positions))
        return store

    def _remove_a(self, store, prune, replacement):
        rbf = BitFilter(store.params.m)
        rbf.insert(prune)
        return store.remove(RemovalRequest(zone=store.zone, rbf_prime=rbf,
                                           handle=_handle("a"),
                                           replacement=replacement))

    @pytest.mark.parametrize("prune, name, positions, error", [
        ([0, 1, 2, 3], "b", [10], DuplicateHandle),     # another stored record's handle
        ([0], "a", [10], DuplicateHandle),              # own handle, record survives the prune
        ([0, 1, 2, 3], "d", [3, 5], BufferOverflow),    # 3 is freed, 5 is not
        ([0], "d", [3], BufferOverflow),                # 3 still holds a
        ([0, 1, 2, 3], "d", [10], ZoneMismatch),
    ], ids=["other-handle", "own-handle-survives", "unfreed-full-buffer", "still-held-buffer", "zone"])
    def test_failed_replacement_leaves_store_unchanged(self, store, prune, name, positions, error):
        zone = store.zone if error is not ZoneMismatch else token_from_text("elsewhere", 64)
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        with pytest.raises(error):
            self._remove_a(store, prune, _raw_packet(zone, store.params.m, name, positions))
        assert store.table == table_before
        assert [list(b) for b in store.buffers] == buffers_before

    def test_replacement_may_use_pruned_capacity(self, store):
        d = _raw_packet(store.zone, store.params.m, "d", [3, 7])
        assert self._remove_a(store, [0, 1, 2, 3], d) == 4
        assert set(store.table) == {_handle("b"), _handle("c"), _handle("d")}
        assert len(store.buffers[3]) == 2 and d.sealed.handle in store.buffers[3]

    def test_own_handle_returns_after_full_prune(self, store):
        a = _raw_packet(store.zone, store.params.m, "a", [8])
        self._remove_a(store, [0, 1, 2, 3], a)
        assert store.table[a.sealed.handle] == a.sealed
        assert [i for i, buf in enumerate(store.buffers) if a.sealed.handle in buf] == [8]

    def test_removal_never_scans_the_buffers(self, store, monkeypatch):
        """Neither a withdrawal nor a replacement iterates over the m
        buffers or sorts the pruning filter's positions."""
        class NoScan(list):
            def __iter__(self):
                raise AssertionError("removal iterated over all m buffers")

        def no_sort(self):
            raise AssertionError("removal sorted the pruning filter's positions")

        withdraw_b = BitFilter(store.params.m)
        withdraw_b.insert([3, 4, 5])
        a = _raw_packet(store.zone, store.params.m, "a", [8], version=b" v2")  # compresses: sorts
        store.buffers = NoScan(store.buffers)
        monkeypatch.setattr(BitFilter, "positions", no_sort)
        assert store.remove(RemovalRequest(zone=store.zone, rbf_prime=withdraw_b,
                                           handle=_handle("b"))) == 3
        assert self._remove_a(store, [0, 1, 2, 3], a) == 4
        a_, c_ = _handle("a"), _handle("c")
        assert set(store.table) == {a_, c_} and store.table[a_] == a.sealed
        # indexed, since the buffers can no longer be iterated
        assert [store.buffers[p] for p in range(10)] == [[], [], [], [], [], [c_], [c_], [], [a_], []]


class TestPruneOrder:
    """Pruning one handle leaves the buffer's other handles in the order
    they were ingested, which is the order the snapshot writes them."""

    @pytest.mark.parametrize("victim", [0, 2, 4], ids=["head", "middle", "tail"])
    def test_prune_keeps_the_other_handles_in_order(self, system, victim, tmp_path):
        params = system.params
        names = ["a", "b", "c", "d", "e"]
        store = StorageBloomFilter(params, system.zone)
        for i, name in enumerate(names):
            store.ingest(_raw_packet(system.zone, params.m, name, [3, 10 + i]))
        rbf = BitFilter(params.m)
        rbf.insert([3, 10 + victim])
        assert store.remove(RemovalRequest(zone=system.zone, rbf_prime=rbf, handle=_handle(names[victim]))) == 2
        survivors = [name for i, name in enumerate(names) if i != victim]
        assert store.buffers[3] == [_handle(name) for name in survivors]
        # byte-identical to a store that never held the pruned record
        fresh = StorageBloomFilter(params, system.zone)
        for i, name in enumerate(names):
            if i != victim:
                fresh.ingest(_raw_packet(system.zone, params.m, name, [3, 10 + i]))
        store.save(tmp_path / "pruned.sbf")
        fresh.save(tmp_path / "fresh.sbf")
        assert (tmp_path / "pruned.sbf").read_bytes() == (tmp_path / "fresh.sbf").read_bytes()


class TestCostIndependentOfStoreSize:
    """Search and removal touch only the addressed buffers: a store ten
    times larger, whose extra records hold none of the probed record's
    buffers, gives the same search cardinalities and buffer reads, prunes
    the same count, and keeps the extra records' buffers as they were."""

    PROBED = [4, 9, 17, 40, 41, 90]

    def _store(self, system, extra):
        params = system.params
        store = StorageBloomFilter(params, system.zone)
        store.ingest(_raw_packet(system.zone, params.m, "probed", self.PROBED))
        for i in range(4):  # records sharing some of the probed buffers
            store.ingest(_raw_packet(system.zone, params.m, f"near{i}", self.PROBED[i : i + 3] + [120 + i]))
        rng = Random(5)
        elsewhere = sorted(set(range(params.m)) - set(self.PROBED))
        for i in range(extra):
            store.ingest(_raw_packet(system.zone, params.m, f"far{i}", sorted(rng.sample(elsewhere, 6))))
        return store

    @pytest.mark.parametrize("ask", ["search", "remove"])
    def test_ten_times_the_records_costs_the_same(self, system, ask):
        small, large = self._store(system, 0), self._store(system, 45)
        assert len(large.table) == 10 * len(small.table)
        readings = []
        for store in (small, large):
            before = [list(buf) for buf in store.buffers]
            mark = store.buffer_reads
            if ask == "search":
                result = store.search_positions(self.PROBED)
                readings.append((result.buffer_cardinalities, store.buffer_reads - mark,
                                 [rec.handle for rec in result.matches]))
            else:
                rbf = BitFilter(system.params.m, self.PROBED)
                readings.append(store.remove(RemovalRequest(zone=system.zone, rbf_prime=rbf,
                                                            handle=_handle("probed"))))
            assert all(store.buffers[p] == before[p]
                       for p in range(system.params.m) if p not in self.PROBED)
        assert readings[0] == readings[1]
        if ask == "search":
            assert readings[0][1] == len(self.PROBED) and readings[0][2] == [_handle("probed")]
        else:
            assert readings[0] == len(self.PROBED)


class TestUploadBounds:
    def test_empty_upload_rejected_and_snapshot_round_trips(self, system, loaded, tmp_path):
        # a record in no buffer would make the saved snapshot unloadable
        store, _ = loaded
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        with pytest.raises(StoreError, match="no bit set"):
            store.ingest(_raw_packet(system.zone, system.params.m, "empty", []))
        assert store.table == table_before
        assert [list(b) for b in store.buffers] == buffers_before
        path = tmp_path / "zone.sbf"
        store.save(path)
        again = StorageBloomFilter.load(path)
        assert again.table == store.table and again.buffers == store.buffers

    def test_sealed_record_bounded_by_tau(self, system):
        """A sealed record may be as long as seal_record makes one at tau
        and no longer, uploaded or as a replacement."""
        store = StorageBloomFilter(system.params, system.zone)
        limit = SEAL_OVERHEAD_BYTES + system.params.tau_bits // 8

        def packet(name, size):
            p = _raw_packet(system.zone, system.params.m, name, [0, 1])
            return dataclasses.replace(p, sealed=SealedRecord(p.sealed.handle, bytes(size)))

        assert store.ingest(packet("a", limit)) == 2
        rbf = BitFilter(system.params.m)
        rbf.insert([0, 1])
        for req in (packet("b", limit + 1),
                    RemovalRequest(zone=system.zone, rbf_prime=rbf, handle=_handle("a"),
                                   replacement=packet("c", limit + 1))):
            call = store.ingest if isinstance(req, UploadPacket) else store.remove
            with pytest.raises(StoreError, match="exceeds tau bound"):
                call(req)
        assert set(store.table) == {_handle("a")}
        assert store.buffers[0] == store.buffers[1] == [_handle("a")]

    @pytest.mark.parametrize("u", [2**255 + 1, 2**255 - 19], ids=["top-bit", "p"])
    def test_non_canonical_ephemeral_key_refused(self, system, tmp_path, u):
        """A sealed record whose first 32 bytes are not a canonical X25519
        key would be a second encoding of a record: refused uploaded, as
        a replacement and in a snapshot, and a refused call leaves the
        store unchanged."""
        store = StorageBloomFilter(system.params, system.zone)

        def packet(name, key):
            p = _raw_packet(system.zone, system.params.m, name, [0, 1])
            ct = key.to_bytes(32, "little") + bytes(28)
            return dataclasses.replace(p, sealed=SealedRecord(p.sealed.handle, ct))

        assert store.ingest(packet("a", 2**255 - 20)) == 2
        rbf = BitFilter(system.params.m, [0, 1])
        for req in (packet("b", u),
                    RemovalRequest(zone=system.zone, rbf_prime=rbf, handle=_handle("a"),
                                   replacement=packet("c", u))):
            call = store.ingest if isinstance(req, UploadPacket) else store.remove
            with pytest.raises(StoreError, match="not canonical"):
                call(req)
        assert set(store.table) == {_handle("a")}
        assert store.buffers[0] == store.buffers[1] == [_handle("a")]
        path = tmp_path / "zone.sbf"
        store.save(path)
        assert StorageBloomFilter.load(path).table == store.table
        store.table[_handle("a")] = packet("a", u).sealed
        store.save(path)
        with pytest.raises(StoreError, match="not canonical"):
            StorageBloomFilter.load(path)

    def test_ingest_and_replacement_build_no_dense_filter(self, system, monkeypatch):
        store = StorageBloomFilter(system.params, system.zone)
        a = _raw_packet(system.zone, system.params.m, "a", [0, 1, 2])
        b = _raw_packet(system.zone, system.params.m, "b", [2, 3])
        rbf = BitFilter(system.params.m)
        rbf.insert([0, 1, 2])
        req = RemovalRequest(zone=system.zone, rbf_prime=rbf, handle=a.sealed.handle, replacement=b)

        def no_dense_filter(self, *args, **kwargs):
            raise AssertionError("an m-bit filter was built")

        monkeypatch.setattr(BitFilter, "__init__", no_dense_filter)
        assert store.ingest(a) == 3
        assert store.remove(req) == 3
        assert set(store.table) == {b.sealed.handle}
        assert [store.buffers[p] for p in range(5)] == [[], [], [b.sealed.handle], [b.sealed.handle], []]


class TestAccounting:
    def test_memory_usage_model_and_actual(self, system, loaded):
        store, packets = loaded
        p = system.params
        assert analysis.provisioned_memory_bytes(p) == p.m * p.beta * p.tau_bits // 8
        assert sum(map(len, store.buffers)) == sum(idx.bf.popcount for _, idx, _ in packets.values())

    def test_entries_accumulate_per_ingest(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        total = 0
        for u in range(5):
            _, idx = system.user([u % system.params.l], seed=40 + u)
            packet = make_upload_packet(idx, system.meta(f"u{u}"), system.secrets.agent_public,
                                        system.zone, system.params, Random(50 + u))
            total += store.ingest(packet)
        assert sum(map(len, store.buffers)) == total

    def test_occupancy_histogram(self, system, loaded):
        store, _ = loaded
        histogram = store.occupancy_histogram()
        assert sum(count for _, count in histogram) == system.params.m
        assert sum(occ * count for occ, count in histogram) == sum(map(len, store.buffers))
        recount: dict[int, int] = {}
        for b in store.buffers:
            recount[len(b)] = recount.get(len(b), 0) + 1
        assert dict(histogram) == recount

    def test_empty_store_histogram(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        assert store.occupancy_histogram() == [(0, system.params.m)]


class TestSnapshot:
    def test_save_load_bit_exact(self, system, loaded, tmp_path):
        store, _ = loaded
        first = tmp_path / "zone.sbf"
        second = tmp_path / "zone2.sbf"
        store.save(first)
        again = StorageBloomFilter.load(first)
        again.save(second)
        assert first.read_bytes() == second.read_bytes()
        assert again.params == store.params and again.zone == store.zone

    def test_load_validates_magic(self, tmp_path):
        bad = tmp_path / "bad.sbf"
        bad.write_bytes(b"NOTMAGIC" + bytes(40))
        with pytest.raises(StoreError):
            StorageBloomFilter.load(bad)

    def test_load_rejects_dangling_reference(self, system, loaded, tmp_path):
        store, _ = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        data = bytearray(path.read_bytes())
        # the last slot, just before the trailer, names a record past the table
        data[-36:-32] = len(store.table).to_bytes(4, "big")
        path.write_bytes(resealed(bytes(data)))
        with pytest.raises(StoreError, match="unknown handle"):
            StorageBloomFilter.load(path)

    def test_load_rejects_repeated_handle_in_buffer(self, system, loaded, tmp_path):
        # a repeated handle would survive remove, which drops one copy per buffer
        store, _ = loaded
        buf = next(b for b in store.buffers if b)
        buf.append(buf[0])
        path = tmp_path / "zone.sbf"
        store.save(path)
        with pytest.raises(StoreError, match="repeats a handle"):
            StorageBloomFilter.load(path)

    def test_load_rejects_record_longer_than_tau_allows(self, system, loaded, tmp_path):
        # ingest refuses such a record; a snapshot must not bring one in
        store, _ = loaded
        handle = next(iter(store.table))
        limit = SEAL_OVERHEAD_BYTES + system.params.tau_bits // 8
        store.table[handle] = SealedRecord(handle, b"x" * (limit + 1))
        path = tmp_path / "zone.sbf"
        store.save(path)
        with pytest.raises(StoreError, match="tau bound"):
            StorageBloomFilter.load(path)
        store.table[handle] = SealedRecord(handle, b"x" * limit)
        store.save(path)
        assert StorageBloomFilter.load(path).table[handle].ciphertext == b"x" * limit

    def test_load_rejects_record_in_more_than_qr_buffers(self, system, tmp_path):
        # ingest decodes at most q*r positions; a snapshot must not hold more
        params = system.params
        store = StorageBloomFilter(params, system.zone)
        handle = _handle("wide")
        store.ingest(_raw_packet(system.zone, params.m, "wide", range(params.max_positions)))
        path = tmp_path / "zone.sbf"
        store.save(path)
        assert StorageBloomFilter.load(path).table.keys() == {handle}
        store.buffers[params.max_positions].append(handle)
        store.save(path)
        with pytest.raises(StoreError, match="q\\*r"):
            StorageBloomFilter.load(path)

    def test_failed_save_keeps_previous_snapshot(self, system, loaded, tmp_path, monkeypatch):
        store, packets = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        before = path.read_bytes()
        packet = packets["d"][2]
        store.remove(RemovalRequest(zone=system.zone, handle=packet.sealed.handle,
                                    rbf_prime=BitFilter.decompress(packet.compressed_bf, system.params.m)))
        fill_disk_halfway(monkeypatch)
        with pytest.raises(OSError):
            store.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert packet.sealed.handle in StorageBloomFilter.load(path).table

    def test_save_syncs_the_directory_after_the_rename(self, loaded, tmp_path, monkeypatch):
        """The file is synced before the rename and its directory after it,
        so the new name survives a power cut; the bytes are unchanged."""
        store, _ = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        before = path.read_bytes()
        path.unlink()
        synced = []  # (is a directory, bytes at path when synced)
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.read_bytes() if path.exists() else None))
            if synced[-1][0]:
                assert os.path.samestat(os.fstat(fd), os.stat(tmp_path))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.save(path)
        assert synced == [(False, None), (True, before)]
        assert path.read_bytes() == before

    def test_load_rejects_invalid_params_as_store_error(self, system, loaded, tmp_path):
        store, _ = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        data = bytearray(path.read_bytes())
        q_at = 8 + 4 * 3  # magic, then l, r, gamma_count, q, ... as u32
        assert int.from_bytes(data[q_at : q_at + 4], "big") == system.params.q
        data[q_at : q_at + 4] = (99).to_bytes(4, "big")  # q > l = 20
        path.write_bytes(resealed(bytes(data)))
        with pytest.raises(StoreError, match="q=99 exceeds"):
            StorageBloomFilter.load(path)

    def test_load_rejects_truncation(self, system, loaded, tmp_path):
        store, _ = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StoreError):
            StorageBloomFilter.load(path)


def _shares_table_handles(store):
    own = {h: h for h in store.table}
    return all(h is own[h] for buf in store.buffers for h in buf)


def _column_offsets(store):
    """Where an SBFSTOR2 file of `store` keeps its positions and counts
    columns, counted from the end of the file."""
    k = sum(1 for buf in store.buffers if buf)
    slots_at = -32 - 4 * sum(map(len, store.buffers))
    return slots_at - 8 * k, slots_at - 4 * k


class TestSnapshotFormats:
    def test_v2_load_shares_the_table_handles(self, loaded, tmp_path):
        store, _ = loaded
        store.save(tmp_path / "zone.sbf")
        again = StorageBloomFilter.load(tmp_path / "zone.sbf")
        assert again.buffers == store.buffers
        assert _shares_table_handles(again)

    def test_every_flipped_byte_is_refused(self, loaded, tmp_path):
        store, _ = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        data = path.read_bytes()
        for at in range(len(data)):
            for mask in (0x01, 0xFF):
                damaged = bytearray(data)
                damaged[at] ^= mask
                path.write_bytes(bytes(damaged))
                with pytest.raises(StoreError):
                    StorageBloomFilter.load(path)

    @pytest.mark.parametrize("edit, match", [
        ("journal", "journal position 1"),
        ("position-range", "out of range"),
        ("position-order", "not strictly ascending"),
        ("count-zero", "listed but empty"),
        ("count-over-beta", "exceeds capacity"),
    ])
    def test_resealed_bad_columns_refused(self, system, loaded, tmp_path, edit, match):
        """A file with a valid trailer is still held to ingest's rules."""
        store, _ = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        data = bytearray(path.read_bytes())
        positions_at, counts_at = _column_offsets(store)
        if edit == "journal":
            at = 8 + 36 + 1 + len(store.zone)
            data[at : at + 8] = (1).to_bytes(8, "big")
        elif edit == "position-range":
            data[counts_at - 4 : counts_at] = system.params.m.to_bytes(4, "big")
        elif edit == "position-order":
            data[positions_at : positions_at + 8] = data[positions_at + 4 : positions_at + 8] * 2
        else:
            count = 0 if edit == "count-zero" else system.params.beta + 1
            data[counts_at : counts_at + 4] = count.to_bytes(4, "big")
        path.write_bytes(resealed(bytes(data)))
        with pytest.raises(StoreError, match=match):
            StorageBloomFilter.load(path)


class TestSnapshotTable:
    """A resealed file whose record table breaks ingest's rules is
    refused: handles must ascend strictly, and every record must be held
    by some buffer. Three records of the same length, a, b and c."""

    # the handle, a u32 length, then `_raw_packet`'s ciphertext b"sealed " + handle
    RECORD_BYTES = HANDLE_BYTES + 4 + len(b"sealed ") + HANDLE_BYTES

    @pytest.fixture
    def saved(self, system, tmp_path):
        store = StorageBloomFilter(system.params, system.zone)
        for name, positions in (("a", [0, 1]), ("b", [1, 2]), ("c", [3])):
            store.ingest(_raw_packet(system.zone, system.params.m, name, positions))
        path = tmp_path / "zone.sbf"
        store.save(path)
        StorageBloomFilter.load(path)
        count_at = 8 + 36 + 1 + len(system.zone) + 8  # magic, parameters, zone, journal position
        return path, path.read_bytes(), count_at

    @pytest.mark.parametrize("edit", ["swapped", "repeated"])
    def test_handles_must_ascend_strictly(self, saved, edit):
        path, data, count_at = saved
        at, size = count_at + 4, self.RECORD_BYTES
        a, b = data[at : at + size], data[at + size : at + 2 * size]
        assert (a[:1], b[:1]) == (b"a", b"b")
        records = b + a if edit == "swapped" else a + a
        path.write_bytes(resealed(data[:at] + records + data[at + 2 * size :]))
        with pytest.raises(StoreError, match="handles not strictly ascending"):
            StorageBloomFilter.load(path)

    def test_record_in_no_buffer_refused(self, saved):
        path, data, count_at = saved
        end = count_at + 4 + 3 * self.RECORD_BYTES
        spare = _handle("z") + struct.pack(">I", 5) + b"spare"
        path.write_bytes(resealed(data[:count_at] + struct.pack(">I", 4) + data[count_at + 4 : end]
                                  + spare + data[end:]))
        with pytest.raises(StoreError, match="absent from every buffer"):
            StorageBloomFilter.load(path)


class TestConcurrency:
    def test_parallel_searches_during_mutations(self, system):
        params = system.params
        store = StorageBloomFilter(params, system.zone)
        kr, idx = system.user([0], seed=60)
        ps = keyword_positions(kr, system.vocab[0], system.locations[0], params)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    store.search_positions(ps)
                    store.occupancy_histogram()
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(8)]
        for t in readers:
            t.start()
        try:
            for u in range(30):
                _, uidx = system.user([u % params.l], seed=70 + u)
                packet = make_upload_packet(uidx, system.meta(f"w{u}"),
                                            system.secrets.agent_public,
                                            system.zone, params, Random(80 + u))
                store.ingest(packet)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=5)
        assert not errors
        assert len(store.table) == 30

    def test_buffer_reads_exact_under_concurrent_searches(self, system, loaded):
        """Eight threads search at once; no search's count is lost."""
        store, packets = loaded
        kr, _, _ = packets["a"]
        ps = _probe(system, kr, 0)
        searches = 400
        start = threading.Barrier(8, timeout=10)

        def searcher():
            start.wait()
            for _ in range(searches):
                store.search_positions(ps)

        mark = store.buffer_reads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the searches interleave
        try:
            threads = [threading.Thread(target=searcher) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert store.buffer_reads - mark == 8 * searches * len(set(ps))


MODEL_ZONE = token_from_text("zone-model", 64)
MODEL_SPOTS = 4  # records use only positions 0..3, so buffers fill, overflow and hold three handles often
_names = st.sampled_from("abcdef")
_spots = st.sets(st.integers(0, MODEL_SPOTS - 1), min_size=1, max_size=4)


class StoreModel(RuleBasedStateMachine):
    """The store against a reference model: each live handle's set of
    positions and its sealed record, and each position's handles in the
    order they were ingested, a prune dropping the handle's one
    occurrence. beta=3 over four positions and six handles, so duplicate,
    overflow, unknown-handle and own-handle cases all come up, as do
    prunes of a handle ahead of two others, empty and oversize uploads
    and sealed records longer than tau allows. A rejected operation must
    leave table and buffers as they were; after every step the table and
    every buffer, in order, must match the model."""

    def __init__(self):
        super().__init__()
        self.params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=3, tau_bits=4096, n_bits=64)
        self.store = StorageBloomFilter(self.params, MODEL_ZONE)
        self.held: dict[bytes, set[int]] = {}
        self.order: list[list[bytes]] = [[] for _ in range(MODEL_SPOTS)]  # position -> handles, ingest order
        self.sealed: dict[bytes, SealedRecord] = {}
        self.uploads = 0
        self.dir = tempfile.TemporaryDirectory()

    def teardown(self):
        self.dir.cleanup()

    def _packet(self, name, positions, zone=MODEL_ZONE):
        self.uploads += 1  # a new ciphertext each time, so a replacement is told from the original
        return _raw_packet(zone, self.params.m, name, sorted(positions), version=b"%d" % self.uploads)

    def _add(self, handle, positions, sealed):
        self.held[handle] = set(positions)
        self.sealed[handle] = sealed
        for p in positions:
            self.order[p].append(handle)

    def _upload_error(self, handle, positions, freed=(), leaving=None):
        if handle in self.held and handle != leaving:
            return DuplicateHandle
        if any(len(self.order[p]) - (p in freed) >= self.params.beta for p in positions):
            return BufferOverflow
        return None

    def _rejected(self, error, op, arg, match=None):
        table, buffers = dict(self.store.table), [list(b) for b in self.store.buffers]
        with pytest.raises(error, match=match):
            op(arg)
        assert self.store.table == table
        assert [list(b) for b in self.store.buffers] == buffers

    def _remove(self, handle, prune, replacement):
        rbf = BitFilter(self.params.m)
        rbf.insert(sorted(prune))
        new = None if replacement is None else self._packet(*replacement)
        req = RemovalRequest(zone=MODEL_ZONE, rbf_prime=rbf, handle=handle, replacement=new)
        if handle not in self.held:
            return self._rejected(UnknownHandle, self.store.remove, req)
        freed = prune & self.held[handle]
        if new is not None:
            leaving = handle if freed == self.held[handle] else None
            error = self._upload_error(new.sealed.handle, replacement[1], freed, leaving)
            if error is not None:
                return self._rejected(error, self.store.remove, req)
        assert self.store.remove(req) == len(freed)
        self.held[handle] -= freed
        for p in freed:
            self.order[p].remove(handle)
        if not self.held[handle]:
            del self.held[handle], self.sealed[handle]
        if new is not None:
            self._add(new.sealed.handle, replacement[1], new.sealed)

    @rule(name=_names, positions=_spots)
    def ingest(self, name, positions):
        packet = self._packet(name, positions)
        error = self._upload_error(packet.sealed.handle, positions)
        if error is not None:
            return self._rejected(error, self.store.ingest, packet)
        assert self.store.ingest(packet) == len(positions)
        self._add(packet.sealed.handle, positions, packet.sealed)

    @rule(name=_names, positions=_spots)
    def ingest_into_another_zone(self, name, positions):
        packet = self._packet(name, positions, zone=token_from_text("elsewhere", 64))
        self._rejected(ZoneMismatch, self.store.ingest, packet)

    def _refused(self, data, as_replacement, packet, error, match):
        """An upload, or a replacement for a stored or unknown record, that
        must be refused whatever the store holds."""
        if not as_replacement:
            return self._rejected(error, self.store.ingest, packet, match)
        handle = data.draw(st.sampled_from(sorted(self.held) + [_handle("z")]))
        rbf = BitFilter(self.params.m)
        rbf.insert(sorted(self.held.get(handle, {0})))
        req = RemovalRequest(zone=MODEL_ZONE, rbf_prime=rbf, handle=handle, replacement=packet)
        self._rejected(error, self.store.remove, req, match)

    @rule(data=st.data(), as_replacement=st.booleans())
    def empty_upload(self, data, as_replacement):
        self._refused(data, as_replacement, self._packet(data.draw(_names), []), StoreError, "no bit set")

    @rule(data=st.data(), as_replacement=st.booleans())
    def oversize_upload(self, data, as_replacement):
        """More positions than the q*r a record can hold."""
        count = data.draw(st.integers(self.params.max_positions + 1, self.params.m))
        positions = Random(data.draw(st.integers(0, 2**32 - 1))).sample(range(self.params.m), count)
        packet = self._packet(data.draw(_names), positions)
        self._refused(data, as_replacement, packet, CryptoError, "exceeds bound")

    @rule(data=st.data(), as_replacement=st.booleans(), positions=_spots)
    def oversize_record(self, data, as_replacement, positions):
        """A sealed record longer than seal_record makes one at tau."""
        packet = self._packet(data.draw(_names), positions)
        limit = SEAL_OVERHEAD_BYTES + self.params.tau_bits // 8
        sealed = SealedRecord(packet.sealed.handle, bytes(data.draw(st.integers(limit + 1, 2 * limit))))
        self._refused(data, as_replacement, dataclasses.replace(packet, sealed=sealed), StoreError,
                      "exceeds tau bound")

    @rule(data=st.data(), foreign=st.sets(st.integers(0, MODEL_SPOTS - 1), max_size=2),
          replacement=st.none() | st.tuples(_names, _spots))
    def remove(self, data, foreign, replacement):
        """Keyword removal, with or without a replacement: prune some of a
        record's positions, plus buffers that may lack it. The handle may
        be unknown ("z" never uploads)."""
        handle = data.draw(st.sampled_from(sorted(self.held) + [_handle("z")]))
        own = sorted(self.held.get(handle, ()))
        prune = data.draw(st.sets(st.sampled_from(own))) if own else set()
        self._remove(handle, prune | foreign, replacement)

    @precondition(lambda self: self.held)
    @rule(data=st.data(), replacement=st.none() | _spots)
    def withdraw(self, data, replacement):
        """Prune every position a record holds; a replacement reuses its handle."""
        handle = data.draw(st.sampled_from(sorted(self.held)))
        name = handle.rstrip(b"\0").decode()
        self._remove(handle, set(self.held[handle]), None if replacement is None else (name, replacement))

    @rule(data=st.data(), probe=_spots)
    def search(self, data, probe):
        if self.held and data.draw(st.booleans()):
            # probe a subset of a stored record's positions, so searches also hit
            handle = data.draw(st.sampled_from(sorted(self.held)))
            probe = data.draw(st.sets(st.sampled_from(sorted(self.held[handle])), min_size=1))
        expected = sorted(h for h, ps in self.held.items() if probe <= ps)
        result = self.store.search_positions(sorted(probe))
        assert result.matches == [self.sealed[h] for h in expected]

    @rule()
    def save_and_load(self):
        """An SBFSTOR2 round trip: the loaded store saves the same bytes."""
        path = Path(self.dir.name) / "zone.sbf"
        self.store.save(path)
        data = path.read_bytes()
        assert data[:8] == b"SBFSTOR2"
        self.store = StorageBloomFilter.load(path)
        self.store.save(path)
        assert path.read_bytes() == data

    @invariant()
    def table_matches_model(self):
        assert self.store.table == self.sealed

    @invariant()
    def buffers_match_model(self):
        for p in range(MODEL_SPOTS):
            assert self.store.buffers[p] == self.order[p]
        assert not any(self.store.buffers[MODEL_SPOTS:])


# a small budget: with the suite's fixed cases, tier-1 runs the same ~1.5 s of steps every time
StoreModel.TestCase.settings = settings(max_examples=60, stateful_step_count=30)
TestStoreModel = StoreModel.TestCase
