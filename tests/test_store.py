import threading
from random import Random

import pytest

from sbfsearch.crypto import SealedRecord, token_from_text
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

from conftest import SystemFixture


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
        foreign = next(i for i in range(system.params.m) if i not in occupied)
        rbf = BitFilter(system.params.m)
        rbf.insert([foreign, next(iter(occupied))])
        with caplog.at_level("WARNING"):
            pruned = store.remove(RemovalRequest(zone=system.zone, rbf_prime=rbf,
                                                 handle=packet.sealed.handle))
        assert pruned == 1
        assert "does not hold handle" in caplog.text

    def test_swap_path_prunes_blinding_buffer(self, system):
        from test_index import _colliding_pair

        params = system.params
        kr, loc, w1, w2, shared = _colliding_pair(system, d=params.q - 2)
        idx = build_user_index(kr, loc, params, Random(32))
        store = StorageBloomFilter(params, system.zone)
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, params, Random(33))
        store.ingest(packet)
        obf_before = set(idx.obf.positions())
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


def _raw_packet(zone, m, name, positions):
    bf = BitFilter(m)
    bf.insert(positions)
    handle = _handle(name)
    return UploadPacket(zone=zone, compressed_bf=bf.compress(),
                        sealed=SealedRecord(handle=handle, ciphertext=b"sealed " + handle))


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


class TestAccounting:
    def test_memory_usage_model_and_actual(self, system, loaded):
        store, _ = loaded
        model, actual = store.memory_usage()
        p = system.params
        assert model == p.m * p.beta * p.tau_bits // 8
        assert actual == sum(len(b) for b in store.buffers)

    def test_entries_accumulate_per_ingest(self, system):
        store = StorageBloomFilter(system.params, system.zone)
        total = 0
        for u in range(5):
            _, idx = system.user([u % system.params.l], seed=40 + u)
            packet = make_upload_packet(idx, system.meta(f"u{u}"), system.secrets.agent_public,
                                        system.zone, system.params, Random(50 + u))
            total += store.ingest(packet)
        assert store.memory_usage()[1] == total

    def test_occupancy_histogram(self, system, loaded):
        store, _ = loaded
        histogram = store.occupancy_histogram()
        assert sum(count for _, count in histogram) == system.params.m
        assert sum(occ * count for occ, count in histogram) == store.memory_usage()[1]
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
        # corrupt one stored handle inside a buffer list (trailing bytes)
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError):
            StorageBloomFilter.load(path)

    def test_load_rejects_truncation(self, system, loaded, tmp_path):
        store, _ = loaded
        path = tmp_path / "zone.sbf"
        store.save(path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StoreError):
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
