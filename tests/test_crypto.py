import hashlib
import hmac
import re
from random import Random

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from sbfsearch import crypto, files, index
from sbfsearch.crypto import (
    CryptoError,
    MetaInfo,
    compress_positions,
    decompress_positions,
    generate_agent_keypair,
    hkdf_sha256,
    hmac_digest,
    open_record,
    position_width,
    seal_record,
    token_from_text,
    unwrap_transport,
    wrap_transport,
)
from sbfsearch.params import derive_params

from oracles import open_record_uncached, prf


def _mi(n_bits=64, attrs=2, emergency=1):
    tok = lambda s: token_from_text(s, n_bits)
    return MetaInfo(
        user_pseudonym=tok("alice"),
        health_attrs=tuple(tok(f"attr{i}") for i in range(attrs)),
        server_id=tok("cs-7"),
        memory_index=tok("slot-12"),
        emergency_info=tuple(tok(f"em{i}") for i in range(emergency)),
    )


class TestPrf:
    def test_deterministic(self):
        key = bytes(32)
        assert prf(key, b"msg", 256) == prf(key, b"msg", 256)

    def test_output_width(self):
        for s in (128, 256, 384, 512):
            assert len(prf(bytes(s // 8), b"x", s)) == s // 8
        with pytest.raises(CryptoError):
            prf(bytes(80), b"x", 640)

    def test_key_length_enforced(self):
        with pytest.raises(CryptoError):
            prf(bytes(31), b"x", 256)

    def test_no_collisions_across_messages(self):
        rng = Random(0)
        key = bytes(32)
        outputs = {prf(key, rng.randbytes(16), 256) for _ in range(10_000)}
        assert len(outputs) == 10_000

    def test_key_separation(self):
        rng = Random(1)
        msg = b"fixed message"
        outputs = {prf(rng.randbytes(32), msg, 256) for _ in range(10_000)}
        assert len(outputs) == 10_000

    def test_call_counter(self):
        mark = crypto.prf_calls.count
        prf(bytes(32), b"m", 256)
        prf(bytes(32), b"m", 256)
        assert crypto.prf_calls.count - mark == 2


# RFC 4231 test cases 1-4: (key, data, HMAC-SHA-256, HMAC-SHA-384, HMAC-SHA-512)
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
     "afd03944d84895626b0825f4ab46907f15f9dadbe4101ec682aa034c7cebc59c"
     "faea9ea9076ede7f4af152e8b2fa9cb6",
     "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
     "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
     "af45d2e376484031617f78d2b58a6b1b9c7ef464f5a01b47e42ec3736322445e"
     "8e2240ca5e69e2c78b3239ecfab21649",
     "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554"
     "9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
     "88062608d3e6ad8a0aa2ace014c8a86f0aa635d947ac9febe83ef4e55966144b"
     "2a5ab39dc13814b94e3ab6e101a34f27",
     "fa73b0089d56a284efb0f0756c890be9b1b5dbdd8ee81a3655f83e33b2279d39"
     "bf3e848279a722c806b485a47e67c807b946a337bee8942674278859e13292fb"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
     "3e8a69b7783c25851933ab6290af6ca77a9981480850009cc5577c6e1f573b4e"
     "6801dd23c4a7d679ccf8a386c674cffb",
     "b0ba465637458c6990e5a8c5f61d4af7e576d97ff94b872de76f8050361ee3db"
     "a91ca5c11aa25eb4d679275cc5788063a5f19741120c4f2de2adebeb10a298dd"),
]


def _reference_hash(s_bits):
    return hashlib.sha256 if s_bits <= 256 else hashlib.sha384 if s_bits <= 384 else hashlib.sha512


class TestHmacHkdf:
    @pytest.mark.parametrize("key,data,sha256,sha384,sha512", RFC4231)
    def test_rfc4231_vectors(self, key, data, sha256, sha384, sha512):
        assert hmac_digest(key, data).hex() == sha256
        assert hmac_digest(key, data, hashlib.sha384, 128).hex() == sha384
        assert hmac_digest(key, data, hashlib.sha512, 128).hex() == sha512

    def test_rfc5869_case_3(self):
        # SHA-256, IKM = 22 bytes of 0x0b, no salt, no info; OKM's first 16 bytes
        assert hkdf_sha256(b"\x0b" * 22, b"").hex() == "8da4e775a563c18f715f802a063c5a31"

    def test_key_longer_than_block_refused(self):
        with pytest.raises(CryptoError):
            hmac_digest(bytes(65), b"x")
        with pytest.raises(CryptoError):
            hmac_digest(bytes(129), b"x", hashlib.sha512, 128)

    @settings(max_examples=50)
    @given(key=st.binary(min_size=64, max_size=64), msg=st.binary(max_size=300))
    def test_prf_equals_stdlib_hmac_at_every_width(self, key, msg):
        """Twice per width: `prf` keeps no memo, and a repeat call gives
        the same bytes and counts again."""
        for s in range(128, 513, 8):
            k = key[: s // 8]
            expected = hmac.new(k, msg, _reference_hash(s)).digest()[: s // 8]
            calls = crypto.prf_calls.count
            assert prf(k, msg, s) == expected == prf(k, msg, s)
            assert crypto.prf_calls.count - calls == 2

    @settings(max_examples=50)
    @given(secret=st.binary(max_size=100), info=st.binary(max_size=100))
    def test_hkdf_equals_cryptography(self, secret, info):
        expected = HKDF(algorithm=SHA256(), length=16, salt=None, info=info).derive(secret)
        assert hkdf_sha256(secret, info) == expected


def _authority(s_bits, r, seed):
    """Master secrets for a small vocabulary at PRF width s and r lanes."""
    params = derive_params(l=8, r=r, gamma_count=2, q=4, beta=8, tau_bits=2048, n_bits=64, s_bits=s_bits)
    vocab = [token_from_text(f"kw{i}", 64) for i in range(params.l)]
    locations = [token_from_text(f"loc{i}", 64) for i in range(params.gamma_count)]
    return params, vocab, locations, index.generate_master_secrets(params, vocab, Random(seed))


def _cold_memos():
    index._subkeys.cache_clear()
    index._positions.cache_clear()


def _memo_misses():
    return index._subkeys.cache_info().misses, index._positions.cache_info().misses


class TestPrfMemo:
    """The memos of PRF outputs: `index` keeps keyword subkeys and (w, g)
    positions, and `prf` itself keeps none. The memos must change no
    output, no refusal and no count."""

    def test_bound_holds_one_zone_chain_at_the_paper_parameters(self):
        """Subkeys per keyword, positions per (keyword, sub-location)."""
        p = derive_params(l=100, r=10, gamma_count=20, q=15, beta=50, tau_bits=5120)
        assert index._subkeys.cache_info().maxsize == index.SUBKEY_MEMO_ENTRIES >= p.l
        assert index._positions.cache_info().maxsize == index.POSITION_MEMO_ENTRIES >= p.l * p.gamma_count
        assert not hasattr(prf, "cache_info")

    @settings(max_examples=40)
    @given(s=st.sampled_from([128, 256, 384, 512]), r=st.integers(1, 4), data=st.data())
    def test_every_call_counts_once_hit_or_miss(self, s, r, data):
        """A sequence of registrations and position lookups over a few
        keywords and locations, so inputs repeat: each registered keyword
        counts r PRF calls and each lookup 2r, hit or miss, and each
        distinct input misses once."""
        params, vocab, locations, ms = _authority(s, r, seed=data.draw(st.integers(0, 99)))
        steps = data.draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(locations)), max_size=20))
        _cold_memos()
        calls = crypto.prf_calls.count
        for i, g in steps:
            kr = index.register_user(ms, [vocab[i]], b"zone", params)
            index.keyword_positions(kr, vocab[i], g, params)
        assert crypto.prf_calls.count - calls == 3 * r * len(steps)
        assert _memo_misses() == (len({i for i, _ in steps}), len(set(steps)))
        subkeys, positions = index._subkeys.cache_info(), index._positions.cache_info()
        assert subkeys.hits + subkeys.misses == positions.hits + positions.misses == len(steps)

    @settings(max_examples=40)
    @given(s=st.sampled_from([128, 256, 384, 512]), r=st.integers(1, 4))
    def test_wrong_length_key_refused_after_a_valid_key_was_cached(self, s, r):
        """Warm entries for a keyword, then a keyring whose subkeys, or a
        keyword secret, are a byte short or long, or params of another
        width: each is refused and counts nothing."""
        params, vocab, locations, ms = _authority(s, r, seed=5)
        w, g = vocab[0], locations[0]
        _cold_memos()
        kr = index.register_user(ms, [w], b"zone", params)
        index.keyword_positions(kr, w, g, params)
        calls = crypto.prf_calls.count
        key, secret = kr.keys[w][-1], ms.keyword_secrets[w]
        for bad_key, bad_secret in ((key[:-1], secret[:-1]), (key + b"\0", secret + b"\0")):
            bad_kr = index.UserKeyring(b"zone", {w: (*kr.keys[w][:-1], bad_key)})
            with pytest.raises(CryptoError):
                index.keyword_positions(bad_kr, w, g, params)
            bad_ms = index.MasterSecrets({**ms.keyword_secrets, w: bad_secret}, ms.init_vectors,
                                         ms.agent_public, ms.agent_private)
            with pytest.raises(CryptoError):
                index.register_user(bad_ms, [w], b"zone", params)
        other = derive_params(l=8, r=r, gamma_count=2, q=4, beta=8, tau_bits=2048, n_bits=64,
                              s_bits=256 if s != 256 else 512)
        with pytest.raises(CryptoError):
            index.keyword_positions(kr, w, g, other)
        with pytest.raises(CryptoError):
            index.register_user(ms, [w], b"zone", other)
        assert crypto.prf_calls.count == calls

    @settings(max_examples=40)
    @given(s=st.sampled_from([128, 256, 384, 512]),
           key_type=st.sampled_from([bytes, bytearray, memoryview]),
           msg_type=st.sampled_from([bytes, bytearray, memoryview]))
    def test_buffer_arguments_match_bytes(self, s, key_type, msg_type):
        """A bytearray or memoryview keyword secret, subkey or location,
        cold or warm, gives the output of the same bytes and shares its
        memo entry."""
        params, vocab, locations, ms = _authority(s, 3, seed=9)
        w, g = vocab[1], locations[1]
        _cold_memos()
        expected_kr = index.register_user(ms, [w], b"zone", params)
        expected = index.keyword_positions(expected_kr, w, g, params)
        odd_ms = index.MasterSecrets({w: key_type(ms.keyword_secrets[w])}, tuple(map(msg_type, ms.init_vectors)),
                                     ms.agent_public, ms.agent_private)
        for _ in ("cold", "warm"):
            kr = index.register_user(odd_ms, [w], b"zone", params)
            assert all(type(k) is bytes for k in kr.keys[w]) and kr.keys == expected_kr.keys
            odd_kr = index.UserKeyring(b"zone", {w: tuple(map(key_type, kr.keys[w]))})
            assert index.keyword_positions(odd_kr, w, msg_type(g), params) == expected
        assert _memo_misses() == (1, 1)
        assert prf(key_type(ms.keyword_secrets[w]), msg_type(g), s) == prf(ms.keyword_secrets[w], g, s)


class TestTokens:
    def test_deterministic_and_truncated(self):
        t = token_from_text("asthma", 160)
        assert t == token_from_text("asthma", 160)
        assert len(t) == 20

    def test_sub_byte_width_masks_high_bits(self):
        t = token_from_text("x", 12)
        assert len(t) == 2 and t[0] <= 0x0F


class TestSealing:
    def test_round_trip(self):
        pub, priv = generate_agent_keypair(Random(3))
        mi = _mi()
        rec = seal_record(pub, mi, 4096, Random(4))
        assert open_record(priv, rec, 64) == mi

    def test_golden_seal(self):
        # golden bytes: a change to the seal's key schedule or layout fails here
        pub, priv = generate_agent_keypair(Random(21))
        rec = seal_record(pub, _mi(), 4096, Random(22))
        assert rec.handle.hex() == "587c2e15e0ed9827a6c38ad2bd55fcad"
        assert rec.ciphertext.hex() == (
            "3a1a0c39afb2e66d57861b25264dbc97c832a46e90e12694fda3f6a4df64e677"
            "1edf1f1eb3b3406c2f2b3f2ce089f39d38cd2c40d7a36da41f4614cb173b6a3b"
            "320d3cee5b14c1e973373273e8585efc80f126614b5f2f4a2e1e0f66bee79f29"
            "d3bbb0cc4afdbd0f2b14eee009ac"
        )
        assert open_record(priv, rec, 64) == _mi()

    def test_randomized_encryption(self):
        pub, _ = generate_agent_keypair(Random(3))
        mi = _mi()
        a = seal_record(pub, mi, 4096)
        b = seal_record(pub, mi, 4096)
        assert a.ciphertext != b.ciphertext
        assert a.handle != b.handle

    def test_wrong_key_fails_loudly(self):
        pub, _ = generate_agent_keypair(Random(5))
        _, other_priv = generate_agent_keypair(Random(6))
        rec = seal_record(pub, _mi(), 4096)
        with pytest.raises(CryptoError):
            open_record(other_priv, rec, 64)

    def test_wrong_key_fails_after_the_right_one_was_cached(self):
        pub, priv = generate_agent_keypair(Random(11))
        _, other_priv = generate_agent_keypair(Random(12))
        rec = seal_record(pub, _mi(), 4096)
        assert open_record(priv, rec, 64) == _mi()
        assert crypto._opened_record.cache_info().currsize == 1  # the right key's entry is warm
        for wrong in (other_priv, bytearray(other_priv), priv[:31]):
            with pytest.raises(CryptoError):
                open_record(wrong, rec, 64)
        assert open_record(bytearray(priv), rec, 64) == _mi()

    def test_many_opens_load_the_key_once(self, monkeypatch):
        pub, priv = generate_agent_keypair(Random(13))
        records = [seal_record(pub, _mi(), 4096) for _ in range(5)]
        loads = []
        real = crypto.X25519PrivateKey

        class CountingKey:
            @staticmethod
            def from_private_bytes(data):
                loads.append(data)
                return real.from_private_bytes(data)

        monkeypatch.setattr(crypto, "X25519PrivateKey", CountingKey)
        crypto._agent_key.cache_clear()
        for i, rec in enumerate(records):  # a bytearray key hits the same entry
            assert open_record(priv if i % 2 else bytearray(priv), rec, 64) == _mi()
        assert loads == [priv]

    def test_truncated_ciphertext_fails(self):
        pub, priv = generate_agent_keypair(Random(7))
        rec = seal_record(pub, _mi(), 4096)
        broken = crypto.SealedRecord(rec.handle, rec.ciphertext[:-3])
        with pytest.raises(CryptoError):
            open_record(priv, broken, 64)

    @pytest.mark.parametrize(("u", "canonical"), [
        (bytes(32), True), ((2**255 - 20).to_bytes(32, "little"), True),
        ((2**255 - 19).to_bytes(32, "little"), False), ((2**255 - 1).to_bytes(32, "little"), False),
        ((2**255 + 9).to_bytes(32, "little"), False), (b"\xff" * 32, False),
        (b"", False), (bytes(31), False), (bytes(33), False),
    ], ids=["zero", "p-1", "p", "2^255-1", "top-bit", "all-ones", "empty", "31-bytes", "33-bytes"])
    def test_canonical_x25519_predicate(self, u, canonical):
        assert crypto.canonical_x25519(u) is canonical

    def test_top_bit_of_the_ephemeral_key_refused(self):
        """X25519 would mask the top bit and open the same record; a
        second encoding of a record must fail, cold and after a warm open
        of the genuine one, and is never kept."""
        pub, priv = generate_agent_keypair(Random(14))
        rec = seal_record(pub, _mi(), 4096, Random(15))
        ct = bytearray(rec.ciphertext)
        ct[31] ^= 0x80
        flipped = crypto.SealedRecord(rec.handle, bytes(ct))
        for warm in (False, True):
            if warm:
                assert open_record(priv, rec, 64) == _mi()
            size = crypto._opened_record.cache_info().currsize
            with pytest.raises(CryptoError, match="not canonical"):
                open_record(priv, flipped, 64)
            assert crypto._opened_record.cache_info().currsize == size
        with pytest.raises(ValueError, match="not canonical"):
            open_record_uncached(priv, flipped, 64)

    def test_oversize_record_rejected(self):
        pub, _ = generate_agent_keypair(Random(8))
        with pytest.raises(CryptoError):
            seal_record(pub, _mi(attrs=20), 128)

    def test_handles_unique_over_many_seals(self):
        pub, _ = generate_agent_keypair(Random(9))
        mi = _mi(attrs=0, emergency=0)
        handles = {seal_record(pub, mi, 4096).handle for _ in range(10_000)}
        assert len(handles) == 10_000

    def test_size_accounting(self):
        pub, _ = generate_agent_keypair(Random(10))
        mi = _mi()
        rec = seal_record(pub, mi, 4096)
        overhead = crypto.SEAL_OVERHEAD_BYTES + crypto.HANDLE_BYTES
        assert 8 * (16 + len(rec.ciphertext)) == (len(mi.to_bytes()) + overhead) * 8


class TestRecordKeyMemo:
    """open_record keeps the records it opened, bounded, keyed by the
    exact ciphertext bytes it verified; a failed open is never kept.
    conftest clears the memo before each test."""

    def test_reopening_a_record_derives_its_key_once(self, monkeypatch):
        pub, priv = generate_agent_keypair(Random(31))
        rec = seal_record(pub, _mi(), 4096, Random(32))
        exchanges = []
        real = crypto.X25519PublicKey

        class CountingPublicKey:
            @staticmethod
            def from_public_bytes(data):
                exchanges.append(data)
                return real.from_public_bytes(data)

        monkeypatch.setattr(crypto, "X25519PublicKey", CountingPublicKey)
        for _ in range(5):
            assert open_record(priv, rec, 64) == _mi()
        assert exchanges == [rec.ciphertext[:32]]
        info = crypto._opened_record.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    @pytest.mark.parametrize("offset", [0, 31, 32, 43, 44, -17, -16, -1], ids=[
        "eph-first", "eph-last", "nonce-first", "nonce-last",
        "body-first", "body-last", "tag-first", "tag-last"])
    def test_a_changed_byte_fails_after_a_warm_open(self, offset):
        pub, priv = generate_agent_keypair(Random(33))
        rec = seal_record(pub, _mi(), 4096, Random(34))
        assert open_record(priv, rec, 64) == _mi()
        ct = bytearray(rec.ciphertext)
        ct[offset] ^= 0x01
        for changed in (bytes(ct), rec.ciphertext[:-1], rec.ciphertext + b"\0"):
            with pytest.raises(CryptoError):
                open_record(priv, crypto.SealedRecord(rec.handle, changed), 64)
        info = crypto._opened_record.cache_info()
        assert (info.currsize, info.misses) == (1, 4)
        assert open_record(priv, rec, 64) == _mi()
        assert crypto._opened_record.cache_info().hits == 1

    def test_memoised_key_matches_an_independent_derivation(self):
        pub, priv = generate_agent_keypair(Random(38))
        rec = seal_record(pub, _mi(), 4096, Random(39))
        cold = open_record(priv, rec, 64)
        warm = open_record(priv, rec, 64)
        assert cold == warm == _mi() == open_record_uncached(priv, rec, 64)
        assert crypto._opened_record(priv, rec.ciphertext, 64) is cold
        assert crypto._opened_record.cache_info().misses == 1

    def test_the_memo_is_bounded(self):
        size = crypto._opened_record.cache_info().maxsize
        assert size == crypto.RECORD_MEMO_ENTRIES == 4096
        pub, priv = generate_agent_keypair(Random(40))
        rng = Random(41)
        records = [seal_record(pub, _mi(), 4096, rng) for _ in range(size + 8)]
        for rec in records:
            assert open_record(priv, rec, 64) == _mi()
        info = crypto._opened_record.cache_info()
        assert (info.currsize, info.misses) == (size, size + 8)
        assert open_record(priv, records[0], 64) == _mi()  # evicted: opened again
        assert crypto._opened_record.cache_info().misses == size + 9

    @pytest.mark.parametrize("case", ["low-order-point", "short-agent-key", "wrong-agent-key"])
    def test_a_failed_open_raises_crypto_error_and_is_not_kept(self, case):
        """Each failure maps to CryptoError, cold and after a warm open of
        the genuine record, and leaves the memo as it was."""
        pub, priv = generate_agent_keypair(Random(42))
        rec = seal_record(pub, _mi(), 4096, Random(43))
        low_order = crypto.SealedRecord(rec.handle, bytes(32) + rec.ciphertext[32:])
        key, bad, cause = {
            "low-order-point": (priv, low_order, ValueError),
            "short-agent-key": (priv[:31], rec, ValueError),
            "wrong-agent-key": (generate_agent_keypair(Random(44))[1], rec, InvalidTag),
        }[case]
        for warm in (False, True):
            if warm:
                assert open_record(priv, rec, 64) == _mi()
            size = crypto._opened_record.cache_info().currsize
            with pytest.raises(CryptoError) as caught:
                open_record(key, bad, 64)
            assert isinstance(caught.value.__cause__, cause)
            assert crypto._opened_record.cache_info().currsize == size

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), attrs=st.integers(0, 4), emergency=st.integers(0, 3),
           change=st.sampled_from(["none", "flip", "cut", "append", "wrong-key"]), warm=st.booleans(),
           data=st.data())
    def test_open_matches_the_uncached_oracle(self, seed, attrs, emergency, change, warm, data):
        """A random record at n = 64, unchanged, with one byte flipped, cut
        short, extended by one byte, or opened under another key, with or
        without a warm open of the genuine record first: the first open
        and a repeat return the oracle's record, or raise CryptoError
        where the oracle raises."""
        rng = Random(seed)
        pub, priv = generate_agent_keypair(rng)
        tok = lambda: crypto.random_token(rng, 64)
        mi = MetaInfo(tok(), tuple(tok() for _ in range(attrs)), tok(), tok(),
                      tuple(tok() for _ in range(emergency)))
        rec = seal_record(pub, mi, 4096, rng)
        ct, key = rec.ciphertext, priv
        if change == "flip":
            at = data.draw(st.integers(0, len(ct) - 1), label="at")
            ct = ct[:at] + bytes([ct[at] ^ data.draw(st.integers(1, 255), label="mask")]) + ct[at + 1:]
        elif change == "cut":
            ct = ct[:data.draw(st.integers(0, len(ct) - 1), label="length")]
        elif change == "append":
            ct += data.draw(st.binary(min_size=1, max_size=1), label="byte")
        elif change == "wrong-key":
            key = generate_agent_keypair(rng)[1]
        changed = crypto.SealedRecord(rec.handle, ct)
        try:
            expected = open_record_uncached(key, changed, 64)
        except (InvalidTag, ValueError, CryptoError):
            expected = None
        # one encoding per record: every change fails, the top bit of the ephemeral key included
        assert expected == (mi if change == "none" else None)
        if warm:
            assert open_record(priv, rec, 64) == mi
        size = crypto._opened_record.cache_info().currsize
        for _ in ("first", "repeat"):
            if expected is None:
                with pytest.raises(CryptoError):
                    open_record(key, changed, 64)
                assert crypto._opened_record.cache_info().currsize == size
            else:
                assert open_record(key, changed, 64) == expected


class TestMetaInfo:
    def test_serialization_round_trip(self):
        mi = _mi(n_bits=64, attrs=3, emergency=2)
        assert MetaInfo.from_bytes(mi.to_bytes(), 64) == mi

    def test_empty_lists(self):
        mi = _mi(attrs=0, emergency=0)
        assert MetaInfo.from_bytes(mi.to_bytes(), 64) == mi

    def test_mixed_widths_rejected(self):
        mi = MetaInfo(token_from_text("a", 64), (token_from_text("b", 160),),
                      token_from_text("c", 64), token_from_text("d", 64), ())
        with pytest.raises(CryptoError):
            mi.to_bytes()

    def test_trailing_bytes_rejected(self):
        data = _mi().to_bytes() + b"\x00"
        with pytest.raises(CryptoError):
            MetaInfo.from_bytes(data, 64)


class TestTransport:
    def test_round_trip(self):
        aead = AESGCM(bytes(16))
        env = wrap_transport(aead, b"payload")
        assert unwrap_transport(aead, env) == b"payload"

    def test_tamper_rejected(self):
        aead = AESGCM(bytes(16))
        env = wrap_transport(aead, b"payload")
        for at in (0, 12, len(env) - 1):  # nonce, ciphertext, tag
            flipped = env[:at] + bytes([env[at] ^ 1]) + env[at + 1 :]
            with pytest.raises(CryptoError):
                unwrap_transport(aead, flipped)

    def test_envelope_bytes_round_trip(self):
        # an envelope is nonce(12) || ciphertext with its 16-byte tag
        aead = AESGCM(bytes(16))
        env = wrap_transport(aead, b"data")
        assert env == env[:12] + aead.encrypt(env[:12], b"data", None)
        assert len(env) == 12 + 4 + 16
        assert unwrap_transport(aead, env) == b"data"
        for short in (b"", env[:27]):
            with pytest.raises(CryptoError, match="too short"):
                unwrap_transport(aead, short)

    def test_nonce_uniqueness(self):
        aead = AESGCM(bytes(16))
        nonces = {wrap_transport(aead, b"x")[:12] for _ in range(10_000)}
        assert len(nonces) == 10_000


class TestSparseCodec:
    def test_empty_filter_is_header_only(self):
        assert compress_positions([], 30_000) == b"\x00\x00\x00\x00"
        assert decompress_positions(b"\x00\x00\x00\x00", 30_000, 30_000) == []

    def test_reference_size(self):
        # 150 positions in a 30720-position filter: 15 bits each
        positions = list(range(0, 30_000, 200))
        data = compress_positions(positions, 30_720)
        assert len(data) == 4 + (150 * 15 + 7) // 8

    def test_round_trip_random_instances(self):
        rng = Random(17)
        for _ in range(1000):
            m = rng.randint(1, 4096)
            count = rng.randint(0, min(m, 64))
            positions = sorted(rng.sample(range(m), count))
            data = compress_positions(positions, m)
            assert decompress_positions(data, m, m) == positions

    def test_rejects_bad_positions(self):
        with pytest.raises(CryptoError):
            compress_positions([5, 5], 10)
        with pytest.raises(CryptoError):
            compress_positions([3, 2], 10)
        with pytest.raises(CryptoError):
            compress_positions([10], 10)
        good = compress_positions([1, 2], 10)
        with pytest.raises(CryptoError):
            decompress_positions(good, 2, 2)  # decoded position out of range
        with pytest.raises(CryptoError):
            decompress_positions(good[:-1] + b"", 2, 2)

    def test_decompress_rejects_non_ascending(self):
        # two 4-bit positions packed as (7, 3)
        data = (2).to_bytes(4, "big") + bytes([0x73])
        with pytest.raises(CryptoError):
            decompress_positions(data, 16, 16)


CODEC_M = (1, 2, 3, 231, 28854)
codec_settings = settings(max_examples=80)


def _reference_encoding(positions, m):
    """The format as first written: one big integer, shifted per position."""
    width = position_width(m)
    acc = 0
    for p in positions:
        acc = (acc << width) | p
    total_bits = len(positions) * width
    acc <<= (-total_bits) % 8
    return len(positions).to_bytes(4, "big") + acc.to_bytes((total_bits + 7) // 8, "big")


@st.composite
def _position_sets(draw, max_count=None):
    """(m, ascending distinct positions), any count from 0 to m (or max_count)."""
    m = draw(st.sampled_from(CODEC_M))
    count = draw(st.integers(0, m if max_count is None else min(m, max_count)))
    return m, sorted(Random(draw(st.integers(0, 2**32 - 1))).sample(range(m), count))


class TestSparseCodecProperties:
    @pytest.mark.parametrize("m", CODEC_M)
    def test_empty_and_full_filters(self, m):
        for positions in ([], list(range(m))):
            data = compress_positions(positions, m)
            assert data == _reference_encoding(positions, m)
            assert decompress_positions(data, m, m) == positions

    @codec_settings
    @given(_position_sets())
    def test_round_trip_matches_reference_bytes(self, case):
        m, positions = case
        data = compress_positions(positions, m)
        assert data == _reference_encoding(positions, m)
        assert decompress_positions(data, m, len(positions)) == positions

    @codec_settings
    @given(_position_sets(max_count=300))
    def test_prefix_or_trailing_byte_rejected(self, case):
        m, positions = case
        data = compress_positions(positions, m)
        for k in range(len(data)):
            with pytest.raises(CryptoError):
                decompress_positions(data[:k], m, m)
        with pytest.raises(CryptoError):
            decompress_positions(data + b"\x00", m, m)

    @codec_settings
    @given(m=st.sampled_from(CODEC_M), data=st.data())
    def test_count_above_bound_refused_before_decoding(self, m, data):
        bound = data.draw(st.integers(0, 2 * m))  # a bound above m still refuses a count above m
        count = data.draw(st.integers(min(m, bound) + 1, 2**32 - 1))
        body = data.draw(st.binary(max_size=8))  # far too short for the count
        with pytest.raises(CryptoError, match="exceeds bound"):
            decompress_positions(count.to_bytes(4, "big") + body, m, bound)


def test_key_file_round_trip(tmp_path):
    path = tmp_path / "agent.key"
    files.write_key_file(path, b"\x01\x02\xff")
    assert path.read_text() == "0102ff\n"
    assert files.read_key_file(path, 3) == b"\x01\x02\xff"
    for length in (2, 4):  # a key of any other length is refused, naming the file
        with pytest.raises(files.FileFormatError, match="agent.key"):
            files.read_key_file(path, length)


@pytest.mark.parametrize("content", [b"zz01\n", b"\xff\xfe"], ids=["bad-digit", "not-text"])
def test_a_key_file_that_is_not_hex_text_is_refused_naming_it(tmp_path, content):
    path = tmp_path / "receipt"
    path.write_bytes(content)
    with pytest.raises(files.FileFormatError, match=re.escape(str(path))):
        files.read_key_file(path, 2)
