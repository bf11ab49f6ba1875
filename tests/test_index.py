import hashlib
import random
import tempfile
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_index
from sbfsearch import crypto, files, index
from sbfsearch.crypto import prf_calls, token_from_text
from sbfsearch.filters import BitFilter, hash_positions
from sbfsearch.index import (
    SchemeError,
    blinding_positions,
    build_conjunctive_query,
    build_removal_request,
    build_user_index,
    generate_master_secrets,
    keyword_positions,
    make_upload_packet,
    register_user,
)
from sbfsearch.params import derive_params
from sbfsearch.store import StorageBloomFilter

from conftest import SystemFixture, blinding_filter
from oracles import derive_location_vector, keyword_trapdoor, prf
from test_acceptance import _property_e_prf_budgets
from test_crypto import _cold_memos, _memo_misses
from test_formats import _index_fields

SMALL_PARAMS = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64)
PAPER_PARAMS = derive_params(l=100, r=10, gamma_count=20, q=15, beta=50, tau_bits=5120)


class TestSetup:
    def test_shapes(self, system):
        assert len(system.secrets.init_vectors) == system.params.r
        assert len(system.secrets.keyword_secrets) == system.params.l

    def test_secrets_distinct_across_large_vocabulary(self):
        params = derive_params(l=1000, r=2, gamma_count=1, q=5, beta=4, tau_bits=2048, n_bits=64)
        vocab = [token_from_text(f"w{i}", 64) for i in range(1000)]
        ms = generate_master_secrets(params, vocab, Random(0))
        assert len(set(ms.keyword_secrets.values())) == 1000

    def test_fresh_entropy_gives_disjoint_material(self, small_params):
        vocab = [token_from_text(f"w{i}", 64) for i in range(small_params.l)]
        a = generate_master_secrets(small_params, vocab, Random(1))
        b = generate_master_secrets(small_params, vocab, Random(2))
        assert set(a.keyword_secrets.values()).isdisjoint(b.keyword_secrets.values())

    def test_duplicate_vocabulary_rejected(self, small_params):
        vocab = [token_from_text("same", 64)] * small_params.l
        with pytest.raises(SchemeError):
            generate_master_secrets(small_params, vocab, Random(3))

    def test_wrong_vocabulary_size_rejected(self, small_params):
        with pytest.raises(SchemeError):
            generate_master_secrets(small_params, [token_from_text("w", 64)], Random(4))


class TestRegistration:
    def test_prf_call_budget(self):
        params = derive_params(l=20, r=3, gamma_count=1, q=6, beta=4, tau_bits=2048, n_bits=64)
        sys = SystemFixture(params, seed=5)
        mark = prf_calls.count
        kr = register_user(sys.secrets, sys.vocab[:1], sys.zone, params)
        assert prf_calls.count - mark == 3
        assert len(kr.keys[sys.vocab[0]]) == 3

    def test_large_registration_budget(self):
        params = derive_params(l=20, r=10, gamma_count=1, q=15, beta=4, tau_bits=2048, n_bits=64)
        sys = SystemFixture(params, seed=6)
        mark = prf_calls.count
        register_user(sys.secrets, sys.vocab[:15], sys.zone, params)
        assert prf_calls.count - mark == 150

    def test_cross_user_keys_identical(self, system):
        kr_a = register_user(system.secrets, system.vocab[:2], system.zone, system.params)
        kr_b = register_user(system.secrets, system.vocab[1:3], system.zone, system.params)
        assert kr_a.keys[system.vocab[1]] == kr_b.keys[system.vocab[1]]

    def test_unknown_keyword_rejected(self, system):
        with pytest.raises(SchemeError):
            register_user(system.secrets, [token_from_text("absent", 64)], system.zone, system.params)

    def test_quota_enforced(self, system):
        too_many = system.vocab[: system.params.q + 1]
        with pytest.raises(SchemeError):
            register_user(system.secrets, too_many, system.zone, system.params)


class TestDerivations:
    def test_trapdoor_deterministic_and_costs_r(self, system):
        kr = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        mark = prf_calls.count
        t1 = keyword_trapdoor(kr, system.vocab[0], system.params)
        assert prf_calls.count - mark == system.params.r
        assert t1 == keyword_trapdoor(kr, system.vocab[0], system.params)

    def test_trapdoors_differ_in_every_lane(self, system):
        kr = register_user(system.secrets, system.vocab[:6], system.zone, system.params)
        rng = Random(7)
        for _ in range(1000):
            w1, w2 = rng.sample(system.vocab[:6], 2)
            t1 = keyword_trapdoor(kr, w1, system.params)
            t2 = keyword_trapdoor(kr, w2, system.params)
            assert all(a != b for a, b in zip(t1, t2))

    def test_unregistered_keyword_rejected(self, system):
        kr = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        with pytest.raises(SchemeError):
            keyword_trapdoor(kr, system.vocab[5], system.params)

    def test_location_vectors_cross_user_equal(self, system):
        kr_a = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        kr_b = register_user(system.secrets, system.vocab[:2], system.zone, system.params)
        loc = system.locations[1]
        assert keyword_positions(kr_a, system.vocab[0], loc, system.params) == \
            keyword_positions(kr_b, system.vocab[0], loc, system.params)

    def test_location_vectors_differ_per_location(self, system):
        kr = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        t = keyword_trapdoor(kr, system.vocab[0], system.params)
        rng = Random(8)
        for _ in range(1000):
            g1 = crypto.random_token(rng, system.params.n_bits)
            g2 = crypto.random_token(rng, system.params.n_bits)
            if g1 == g2:
                continue
            v1 = derive_location_vector(t, g1, system.params)
            v2 = derive_location_vector(t, g2, system.params)
            assert all(a != b for a, b in zip(v1, v2))

    def test_location_stage_costs_r(self, system):
        kr = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        t = keyword_trapdoor(kr, system.vocab[0], system.params)
        mark = prf_calls.count
        derive_location_vector(t, system.locations[0], system.params)
        assert prf_calls.count - mark == system.params.r


# golden values at every HMAC hash width: a change to the PRF chain,
# hash_positions or the sparse codec that moves a position or byte fails here
GOLDEN_KEYWORD_POSITIONS = {
    256: [[172, 214, 129, 6], [137, 28, 33, 7], [43, 121, 81, 170]],
    384: [[129, 163, 80, 50], [91, 199, 59, 16], [96, 25, 144, 214]],
    512: [[55, 218, 150, 149], [54, 101, 126, 16], [160, 200, 169, 214]],
}
GOLDEN_UPLOAD_FILTER = {
    256: "000000170b0f132a2c343c40515657586d839aa7adb9c1c7cbd1dd",
    384: "000000170b1434393e40494b5758656d7b839aa7b0b9c1c7dde1e5",
    512: "000000180b0c26343d40485557585960646b6d6f839aa7b9c7d0dde2",
}


class TestGoldenVectors:
    @pytest.mark.parametrize("s_bits", [256, 384, 512])
    def test_keyword_positions_and_upload_filter(self, s_bits):
        params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64,
                               s_bits=s_bits)
        sys = SystemFixture(params, seed=11)
        kr = register_user(sys.secrets, sys.vocab[:3], sys.zone, params)
        got = [keyword_positions(kr, w, sys.locations[1], params) for w in sys.vocab[:3]]
        assert got == GOLDEN_KEYWORD_POSITIONS[s_bits]
        idx = build_user_index(kr, sys.locations[0], params, Random(12))
        assert idx.bf.compress().hex() == GOLDEN_UPLOAD_FILTER[s_bits]

    def test_blinding_positions(self, small_params):
        got = [blinding_positions(bytes([i]) * 8, small_params) for i in range(3)]
        assert got == [[148, 158, 202, 158], [115, 52, 221, 210], [123, 215, 140, 20]]


def _index_file_bytes(idx, params):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "user.idx"
        files.save_index(idx, path, params)
        return path.read_bytes()


def _load_index_bytes(data, params):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "user.idx"
        path.write_bytes(data)
        return files.load_index(path, params)


def _golden_sequence(params, fixture_seed, kw_ids, order, build_seed, remove_seed):
    """Build one user index, remove keywords in `order`, and return every
    byte the client emits or stores along the way."""
    sys = SystemFixture(params, seed=fixture_seed)
    loc = sys.locations[0]
    mark = prf_calls.count
    kr = register_user(sys.secrets, [sys.vocab[i] for i in kw_ids], sys.zone, params)
    idx = build_user_index(kr, loc, params, Random(build_seed))
    upload = idx.bf.compress()
    rng = Random(remove_seed)
    prunes, swaps = [], 0
    for i in order:
        w = sys.vocab[kw_ids[i]]
        req = build_removal_request(idx, kr, w, loc, b"h" * 16, params, rng)
        swaps += set(req.rbf_prime.positions()) != set(keyword_positions(kr, w, loc, params))
        prunes.append(req.rbf_prime.compress().hex())
    agent = register_user(sys.secrets, sys.vocab[:2], sys.zone, params)
    query = build_conjunctive_query(agent, sys.vocab[:2], sys.locations[1], params).compress()
    return dict(upload_sha256=hashlib.sha256(upload).hexdigest(), prunes=prunes, swaps=swaps,
                rng_after=rng.random(), index_sha256=hashlib.sha256(dense_index.of(idx).file_bytes()).hexdigest(),
                query=query.hex(), prf_calls=prf_calls.count - mark)


# golden bytes of a whole client sequence, pinned before filters held
# positions instead of m-bit arrays: upload filter, each pruning filter
# (the small case swaps twice), the RNG state after the removals, the
# index in its SBFINDX1 form, one conjunctive query and the PRF calls spent
GOLDEN_SEQUENCES = [
    ((SMALL_PARAMS, 26, [0, 1, 2, 3], [2, 0, 3, 1], 126, 226), dict(
        upload_sha256=hashlib.sha256(bytes.fromhex(
            "0000001504081f223e404b5363767f848995999ba4bad6e2e5")).hexdigest(),
        prunes=["000000040840639b", "000000041f2276e2", "000000043e4bbae5", "000000047f8489d6"],
        swaps=2, rng_after=0.5502082525841857,
        index_sha256="5557da89190dc8f17929ccd43a77e4469c2a9c61d9c8dc352feb81ed299f4234",
        query="00000008093e5e6166a8d1d4", prf_calls=136)),
    ((PAPER_PARAMS, 3, list(range(12)), [5, 0, 11, 3], 31, 32), dict(
        upload_sha256="48545f3787cb3d362c224ea8af65abbb79db360e529072ddabbcaec0aeaccc1e",
        prunes=["0000000a3c26b695aeb374b7f9b1c92cc8db27c833ac88", "0000000a06a22044557a8536156fbe21814c1cd3fbb400",
                "0000000a093c3d588fd287d7442f936a62db86b9fd7c98", "0000000a09ce36387be287f90ed2d2a86ed2c0d115b984"],
        swaps=0, rng_after=0.07742178385330412,
        index_sha256="c8a915ccdca0b6914bb9b83ae07a8ce3d6cdcf03784edb3c553622e7b02e3bf0",
        query="00000014002819ac36f19bf37a27f7116b26526208cc45b03bc2784773d46a1d56bbbcbdabab7fa701a0",
        prf_calls=580)),
]


class TestGoldenSequence:
    @pytest.mark.parametrize("args, expected", GOLDEN_SEQUENCES, ids=["small-swaps", "paper"])
    def test_client_bytes_unchanged(self, args, expected):
        assert _golden_sequence(*args) == expected

    def test_warm_prf_memo_changes_no_byte_and_no_count(self):
        """Each sequence run twice without clearing the subkey and
        position memos: the second run is served from the memos alone and
        gives the same bytes, RNG state and `prf_calls` as the first."""
        for args, expected in GOLDEN_SEQUENCES:
            assert _golden_sequence(*args) == expected
            misses = _memo_misses()
            assert _golden_sequence(*args) == expected
            assert _memo_misses() == misses

    def test_prf_budgets_hold_on_a_warm_memo(self):
        """Criterion 7(e)'s budgets count PRF evaluations requested, so
        warm memos read the same counts as cold ones."""
        cold = _property_e_prf_budgets()
        misses = _memo_misses()
        assert _property_e_prf_budgets() == cold
        assert cold[1] and _memo_misses() == misses


class TestKeyScheduleOracle:
    """The memoised `register_user` and `keyword_positions` against the
    uncached chain: k_i = prf(secret_w, v_i), then `keyword_trapdoor`,
    `derive_location_vector` and `hash_positions`, which keep no memo."""

    @settings(max_examples=60)
    @given(s=st.sampled_from([128, 256, 384, 512]), r=st.integers(1, 6), data=st.data())
    def test_memoised_chain_equals_uncached_chain(self, s, r, data):
        params = derive_params(l=6, r=r, gamma_count=2, q=4, beta=8, tau_bits=2048, n_bits=64, s_bits=s)
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True), label="seeds")
        authorities = [SystemFixture(params, seed) for seed in seeds]  # the same tokens, their own secrets
        _cold_memos()
        for _ in ("cold", "warm"):
            for sys in authorities:
                kw = data.draw(st.lists(st.sampled_from(sys.vocab), unique=True, min_size=1, max_size=params.q))
                kr = register_user(sys.secrets, kw, sys.zone, params)
                for w in kw:
                    secret = sys.secrets.keyword_secrets[w]
                    assert kr.keys[w] == tuple(prf(secret, v, s) for v in sys.secrets.init_vectors)
                    for g in sys.locations:
                        chain = derive_location_vector(keyword_trapdoor(kr, w, params), g, params)
                        got = keyword_positions(kr, w, g, params)
                        assert got == hash_positions(chain, params.m, r)
                        got.append(-1)  # the caller's list, not the memo's entry
                        assert keyword_positions(kr, w, g, params) == got[:-1]
                absent = next((w for w in sys.vocab if w not in kw), None)
                if absent is not None:
                    with pytest.raises(SchemeError):
                        keyword_positions(kr, absent, sys.locations[0], params)
                with pytest.raises(SchemeError):
                    register_user(sys.secrets, [token_from_text("absent", 64)], sys.zone, params)
        a, b = authorities
        w = a.vocab[0]
        assert register_user(a.secrets, [w], a.zone, params).keys != register_user(b.secrets, [w], b.zone, params).keys


class TestDenseOracle:
    """The set-based client against the dense builder it replaced
    (`tests/dense_index.py`): same upload, pruning filters and RNG draws,
    and the oracle's arrays hold our index's filters, counters and
    blinding elements, after every step, over random keyword sets,
    removal orders (a keyword removed twice included), seeds and small m,
    where swaps and exhausted blinding elements are common; a refused
    removal must leave the index as it was. Some steps first reload the
    index from its SBFINDX2 file, so removals from a loaded index are
    covered too."""

    @settings(max_examples=100)
    @given(st.data())
    def test_matches_dense_builder(self, data):
        m = data.draw(st.integers(10, 60), label="m")
        params = derive_params(l=12, r=6, gamma_count=1, q=8, beta=12, tau_bits=4096, n_bits=64, m_override=m)
        sys = SystemFixture(params, seed=data.draw(st.integers(0, 2**16), label="fixture seed"))
        kw = data.draw(st.lists(st.integers(0, params.l - 1), unique=True, max_size=params.q), label="keywords")
        order = data.draw(st.permutations(kw), label="removal order")
        order += data.draw(st.lists(st.sampled_from(kw), max_size=1) if kw else st.just([]), label="again")
        build_seed, remove_seed = data.draw(st.integers(0, 2**32), label="seeds"), data.draw(st.integers(0, 2**32))
        loc = sys.locations[data.draw(st.integers(0, params.gamma_count - 1))]
        kr = register_user(sys.secrets, [sys.vocab[i] for i in kw], sys.zone, params)
        idx = build_user_index(kr, loc, params, Random(build_seed))
        want = dense_index.build(kr, loc, params, Random(build_seed))
        assert idx.bf.compress() == want.upload_filter()
        _assert_matches_dense(idx, want)
        ours, theirs = Random(remove_seed), Random(remove_seed)
        for i in order:
            if data.draw(st.booleans(), label="reload"):
                idx = _load_index_bytes(_index_file_bytes(idx, params), params)
            w = sys.vocab[i]
            try:
                expected = dense_index.remove(want, kr, w, loc, params, theirs)
            except SchemeError:
                before = _index_file_bytes(idx, params)
                with pytest.raises(SchemeError):
                    build_removal_request(idx, kr, w, loc, b"h" * 16, params, ours)
                assert _index_file_bytes(idx, params) == before  # a refused removal changes nothing
                break
            req = build_removal_request(idx, kr, w, loc, b"h" * 16, params, ours)
            assert req.rbf_prime.compress() == expected
            assert ours.getstate() == theirs.getstate()
            _assert_matches_dense(idx, want)


def _assert_matches_dense(idx, dense):
    """`idx` holds what the dense oracle's arrays hold."""
    assert idx.zone == dense.zone
    assert idx.bf.positions() == np.flatnonzero(dense.bf).tolist()
    assert blinding_filter(idx).positions() == np.flatnonzero(dense.obf).tolist()
    held = np.flatnonzero(dense.counters)
    assert idx.counters == dict(zip(held.tolist(), dense.counters[held].tolist()))
    assert idx.obf_elements == dense.obf_elements


class TestBuildIndex:
    def test_full_quota_means_no_padding(self, system):
        kr, idx = system.user(range(system.params.q))
        assert blinding_filter(idx).popcount == 0 and not idx.obf_elements
        assert set(idx.bf) == set(idx.counters)

    def test_all_padding_when_no_keywords(self, system):
        kr, idx = system.user([])
        assert idx.counters.total() == 0
        assert idx.bf == blinding_filter(idx)
        assert idx.bf.popcount <= system.params.q * system.params.r

    def test_counting_filter_totals(self, system):
        kr, idx = system.user(range(4))
        assert idx.counters.total() == 4 * system.params.r

    def test_prf_budget_inside_build(self, system):
        kr = register_user(system.secrets, system.vocab[:3], system.zone, system.params)
        mark = prf_calls.count
        build_user_index(kr, system.locations[0], system.params, Random(9))
        assert prf_calls.count - mark == 3 * 2 * system.params.r

    def test_set_relations(self, system):
        for d in (0, 2, system.params.q):
            _, idx = system.user(range(d))
            assert set(idx.counters) <= set(idx.bf.positions())
            assert set(blinding_filter(idx)) <= set(idx.bf.positions())
            assert len(idx.obf_elements) == system.params.q - d

    def test_load_bounded_by_quota(self, system):
        for d in (0, 3, 6):
            _, idx = system.user(range(d))
            assert idx.bf.popcount <= system.params.q * system.params.r


class TestUploadPacket:
    def test_round_trip_and_zone_check(self, system):
        _, idx = system.user(range(3))
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, system.params, Random(10))
        assert BitFilter.decompress(packet.compressed_bf, system.params.m) == idx.bf
        with pytest.raises(SchemeError):
            make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                               token_from_text("other-zone", 64), system.params)

    def test_wire_round_trip(self, system):
        _, idx = system.user(range(2))
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, system.params, Random(11))
        from sbfsearch.index import UploadPacket
        again = UploadPacket.from_bytes(packet.to_bytes(), system.params.n_bytes)
        assert again == packet


def _colliding_pair(system, d=None):
    """Two registered keywords sharing at least one position at some
    location, found by searching the small filter space."""
    params = system.params
    kr = register_user(system.secrets, system.vocab[: d or params.q], system.zone, params)
    for loc_id in range(200):
        loc = token_from_text(f"probe-loc-{loc_id}", params.n_bits)
        sets = {w: set(keyword_positions(kr, w, loc, params)) for w in list(kr.keys)}
        words = list(sets)
        for i, w1 in enumerate(words):
            for w2 in words[i + 1:]:
                shared = sets[w1] & sets[w2]
                if len(shared) == 1 and len(sets[w1]) == params.r and len(sets[w2]) == params.r:
                    return kr, loc, w1, w2, next(iter(shared))
    raise AssertionError("no colliding keyword pair found")


class TestRemoval:
    def test_collision_free_removal_prunes_exact_positions(self, system):
        kr = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        loc = system.locations[0]
        ps = keyword_positions(kr, system.vocab[0], loc, system.params)
        if len(set(ps)) != len(ps):
            pytest.skip("lane self-collision in fixture")
        idx = build_user_index(kr, loc, system.params, Random(12))
        req = build_removal_request(idx, kr, system.vocab[0], loc, b"h" * 16, system.params, Random(13))
        assert sorted(req.rbf_prime.positions()) == sorted(set(ps))
        assert idx.counters.total() == 0

    def test_shared_position_swapped_for_blinding(self, system):
        kr, loc, w1, w2, shared = _colliding_pair(system, d=system.params.q - 2)
        idx = build_user_index(kr, loc, system.params, Random(14))
        before_elements = len(idx.obf_elements)
        req = build_removal_request(idx, kr, w1, loc, b"h" * 16, system.params, Random(15))
        assert shared not in req.rbf_prime.positions()
        assert len(idx.obf_elements) == before_elements - 1
        # the surviving keyword still tests positive client-side
        assert set(keyword_positions(kr, w2, loc, system.params)) <= set(idx.bf)

    def test_swaps_draw_from_the_os_by_default(self, system, monkeypatch):
        kr, loc, w1, _, shared = _colliding_pair(system, d=system.params.q - 2)
        idx = build_user_index(kr, loc, system.params, Random(14))
        draws = []
        real = random.SystemRandom.getrandbits
        monkeypatch.setattr(random.SystemRandom, "getrandbits", lambda self, k: draws.append(k) or real(self, k))
        req = build_removal_request(idx, kr, w1, loc, b"h" * 16, system.params)
        assert shared not in req.rbf_prime.positions()
        assert draws  # the swap's shuffle and choice came from the OS

    def test_swap_needs_blinding_elements(self):
        params = derive_params(l=8, r=4, gamma_count=1, q=8, beta=16, tau_bits=2048, n_bits=64)
        sys = SystemFixture(params, seed=16)
        kr, loc, w1, w2, _ = _colliding_pair(sys)
        idx = build_user_index(kr, loc, params, Random(17))
        assert not idx.obf_elements  # d == q leaves no padding
        with pytest.raises(SchemeError):
            build_removal_request(idx, kr, w1, loc, b"h" * 16, params, Random(18))

    def test_removal_rehashes_no_blinding_element(self, system, monkeypatch, tmp_path):
        """Blinding positions are hashed once per element: when the index is
        built or loaded; never by a removal."""
        kr, loc, w1, w2, _ = _colliding_pair(system, d=system.params.q - 3)
        idx = build_user_index(kr, loc, system.params, Random(14))
        hashed = []
        real = index.blinding_positions
        monkeypatch.setattr(index, "blinding_positions", lambda v, p: hashed.append(v) or real(v, p))
        req = build_removal_request(idx, kr, w1, loc, b"h" * 16, system.params, Random(15))
        assert set(req.rbf_prime.positions()) != set(keyword_positions(kr, w1, loc, system.params))  # swapped
        assert hashed == []
        files.save_index(idx, tmp_path / "user.idx", system.params)
        idx = files.load_index(tmp_path / "user.idx", system.params)
        survivors = list(idx.obf_elements)
        assert hashed == survivors
        build_removal_request(idx, kr, w2, loc, b"h" * 16, system.params, Random(16))
        assert hashed == survivors
        third = next(w for w in kr.keys if w not in (w1, w2))
        build_removal_request(idx, kr, third, loc, b"h" * 16, system.params, Random(17))
        assert hashed == survivors

    def test_removing_never_inserted_keyword_rejected(self, system):
        kr, idx = system.user(range(2))
        counters, elements, bf = dict(idx.counters), list(idx.obf_elements), idx.bf
        with pytest.raises(SchemeError):
            build_removal_request(idx, kr, system.vocab[1], system.locations[1],
                                  b"h" * 16, system.params, Random(19))
        assert (idx.counters, idx.obf_elements, idx.bf) == (counters, elements, bf)  # a refusal changes nothing

    def test_cbf_total_tracks_held_keywords(self, system):
        kr, idx = system.user(range(3))
        r = system.params.r
        assert idx.counters.total() == 3 * r
        build_removal_request(idx, kr, system.vocab[0], system.locations[0],
                              b"h" * 16, system.params, Random(20))
        assert idx.counters.total() == 2 * r
        build_removal_request(idx, kr, system.vocab[1], system.locations[0],
                              b"h" * 16, system.params, Random(21))
        assert idx.counters.total() == 1 * r

    def test_index_invariants_hold_after_removal(self, system):
        kr, idx = system.user(range(4))
        build_removal_request(idx, kr, system.vocab[2], system.locations[0],
                              b"h" * 16, system.params, Random(22))
        assert set(idx.counters) <= set(idx.bf.positions())
        assert set(blinding_filter(idx)) <= set(idx.bf.positions())

    def test_end_to_end_insert_remove_search(self, system):
        params = system.params
        kr, idx = system.user(range(3))
        store = StorageBloomFilter(params, system.zone)
        packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public,
                                    system.zone, params, Random(23))
        store.ingest(packet)
        loc = system.locations[0]
        w = system.vocab[1]
        assert store.search_positions(keyword_positions(kr, w, loc, params)).matches
        req = build_removal_request(idx, kr, w, loc, packet.sealed.handle, params, Random(24))
        store.remove(req)
        assert not store.search_positions(keyword_positions(kr, w, loc, params)).matches



class TestLoadedIndexIntegrity:
    """One flipped bit in a saved index (m=231) is refused by `load_index`:
    the SBFINDX2 checksum refuses any flipped bit, so a damaged element
    never reaches a removal."""

    def test_flipped_bit_in_v2_file_refused(self, system, tmp_path):
        kr = register_user(system.secrets, system.vocab[:2], system.zone, system.params)  # four blinding elements
        idx = build_user_index(kr, system.locations[0], system.params, Random(5))
        path = tmp_path / "user.idx"
        files.save_index(idx, path, system.params)
        data = path.read_bytes()
        for at in range(len(data)):
            damaged = bytearray(data)
            damaged[at] ^= 0x01
            path.write_bytes(bytes(damaged))
            with pytest.raises(files.FileFormatError):
                files.load_index(path, system.params)


class TestConjunctiveQuery:
    def test_single_keyword_equals_positions(self, system):
        kr = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        loc = system.locations[0]
        query = build_conjunctive_query(kr, system.vocab[:1], loc, system.params)
        expected = BitFilter(system.params.m)
        expected.insert(keyword_positions(kr, system.vocab[0], loc, system.params))
        assert query == expected

    def test_disjoint_keywords_sum_popcounts(self, system):
        params = system.params
        kr = register_user(system.secrets, system.vocab[:params.q], system.zone, params)
        loc = system.locations[0]
        words = list(kr.keys)
        for i, w1 in enumerate(words):
            for w2 in words[i + 1:]:
                p1 = set(keyword_positions(kr, w1, loc, params))
                p2 = set(keyword_positions(kr, w2, loc, params))
                if len(p1) == params.r and len(p2) == params.r and not (p1 & p2):
                    query = build_conjunctive_query(kr, [w1, w2], loc, params)
                    assert query.popcount == 2 * params.r
                    return
        pytest.skip("no disjoint pair in fixture")

    def test_empty_keyword_list_rejected(self, system):
        kr = register_user(system.secrets, system.vocab[:1], system.zone, system.params)
        with pytest.raises(SchemeError):
            build_conjunctive_query(kr, [], system.locations[0], system.params)

    def test_and_results_match_plaintext_oracle(self):
        params = derive_params(l=16, r=4, gamma_count=1, q=5, beta=64, tau_bits=4096, n_bits=64)
        sys = SystemFixture(params, seed=25)
        store = StorageBloomFilter(params, sys.zone)
        rng = Random(26)
        holders: dict[bytes, set[int]] = {}
        loc = sys.locations[0]
        for u in range(50):
            count = rng.randint(0, params.q)
            keyword_ids = rng.sample(range(params.l), count)
            kr, idx = sys.user(keyword_ids, location=loc, seed=1000 + u)
            packet = make_upload_packet(idx, sys.meta(f"user{u}"), sys.secrets.agent_public,
                                        sys.zone, params, Random(2000 + u))
            store.ingest(packet)
            holders[packet.sealed.handle] = set(keyword_ids)
        agent = register_user(sys.secrets, sys.vocab[:2], sys.zone, params)
        query = build_conjunctive_query(agent, sys.vocab[:2], loc, params)
        got = {rec.handle for rec in store.search_filter(query).matches}
        expected = {h for h, kws in holders.items() if {0, 1} <= kws}
        assert expected <= got  # no false negatives, ever
        extras = got - expected
        assert len(extras) <= 2  # collision-scale false positives only
