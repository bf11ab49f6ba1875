"""One property per binary format: a valid encoding round-trips, and every
proper prefix, or the encoding plus one byte, raises that format's own
error and nothing else."""

import struct
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbfsearch import files
from sbfsearch.crypto import CryptoError, MetaInfo, SealedRecord, compress_positions
from sbfsearch.index import (MasterSecrets, SchemeError, UploadPacket, UserIndex, UserKeyring, build_removal_request,
                             generate_master_secrets, make_upload_packet)
from sbfsearch.params import derive_params
from sbfsearch.store import StorageBloomFilter, StoreError

from conftest import SystemFixture, blinding_filter, fill_disk_halfway, resealed

format_settings = settings(max_examples=15)
SNAPSHOT_PARAMS = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64)


def _fixed(width):
    return st.binary(min_size=width, max_size=width)


def _assert_damage_rejected(encoding, decode, error):
    for k in range(len(encoding)):
        with pytest.raises(error):
            decode(encoding[:k])
    with pytest.raises(error):
        decode(encoding + b"\x00")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats") / "file"


def _via_file(path, load):
    def decode(data):
        path.write_bytes(data)
        return load(path)
    return decode


@st.composite
def _meta_infos(draw):
    n_bits = draw(st.sampled_from((8, 61, 64)))
    tok = _fixed((n_bits + 7) // 8)
    return n_bits, MetaInfo(draw(tok), tuple(draw(st.lists(tok, max_size=4))), draw(tok), draw(tok),
                            tuple(draw(st.lists(tok, max_size=4))))


@st.composite
def _upload_packets(draw):
    sealed = SealedRecord(draw(_fixed(16)), draw(st.binary(max_size=80)))
    return UploadPacket(draw(st.binary(min_size=1, max_size=12)), draw(st.binary(max_size=40)), sealed)


@st.composite
def _stores(draw):
    zone = draw(_fixed(SNAPSHOT_PARAMS.n_bytes))
    store = StorageBloomFilter(SNAPSHOT_PARAMS, zone)
    for i in range(draw(st.integers(0, 3))):
        positions = sorted(draw(st.sets(st.integers(0, SNAPSHOT_PARAMS.m - 1), min_size=1, max_size=4)))
        sealed = SealedRecord(bytes([i]) * 16, draw(st.binary(max_size=24)))
        store.ingest(UploadPacket(zone, compress_positions(positions, SNAPSHOT_PARAMS.m), sealed))
    return store


@st.composite
def _master_secrets(draw):
    tok, key = _fixed(draw(st.integers(1, 9))), _fixed(draw(st.integers(1, 33)))
    tokens = draw(st.sets(tok, min_size=1, max_size=5))
    return MasterSecrets({t: draw(key) for t in tokens}, tuple(draw(st.lists(tok, max_size=4))),
                         draw(_fixed(32)), draw(_fixed(32)))


@st.composite
def _keyrings(draw):
    width, r, key = draw(st.integers(1, 9)), draw(st.integers(1, 4)), _fixed(draw(st.integers(1, 33)))
    tokens = draw(st.sets(_fixed(width), max_size=5))
    return UserKeyring(draw(_fixed(width)), {t: tuple(draw(key) for _ in range(r)) for t in tokens})


@st.composite
def _indexes(draw):
    params = derive_params(l=4, r=draw(st.integers(1, 4)), gamma_count=1, q=4, beta=1, tau_bits=1024,
                           m_override=draw(st.integers(1, 70)))
    counters = Counter(draw(st.dictionaries(st.integers(0, params.m - 1), st.integers(1, 2**32 - 1))))
    return params, UserIndex(draw(st.binary(max_size=9)), counters, draw(st.lists(st.binary(max_size=12), max_size=4)),
                             params)


def _index_fields(idx):
    return idx.zone, idx.bf, blinding_filter(idx), idx.obf_elements, idx.m, idx.counters


class TestFormatProperties:
    @format_settings
    @given(_meta_infos())
    def test_meta_info(self, case):
        n_bits, mi = case
        data = mi.to_bytes()
        assert MetaInfo.from_bytes(data, n_bits) == mi
        _assert_damage_rejected(data, lambda d: MetaInfo.from_bytes(d, n_bits), CryptoError)

    @format_settings
    @given(_upload_packets())
    def test_upload_packet(self, packet):
        data = packet.to_bytes()
        assert UploadPacket.from_bytes(data, len(packet.zone)) == packet
        _assert_damage_rejected(data, lambda d: UploadPacket.from_bytes(d, len(packet.zone)), SchemeError)

    @format_settings
    @given(_stores())
    def test_snapshot(self, scratch, store):
        store.save(scratch)
        data = scratch.read_bytes()
        again = StorageBloomFilter.load(scratch)
        assert (again.params, again.zone, again.table) == (store.params, store.zone, store.table)
        assert again.buffers == store.buffers
        _assert_damage_rejected(data, _via_file(scratch, StorageBloomFilter.load), StoreError)

    @format_settings
    @given(_master_secrets())
    def test_master_secrets(self, scratch, ms):
        files.save_master_secrets(ms, scratch)
        data = scratch.read_bytes()
        assert files.load_master_secrets(scratch) == ms
        _assert_damage_rejected(data, _via_file(scratch, files.load_master_secrets), files.FileFormatError)

    @format_settings
    @given(_keyrings())
    def test_keyring(self, scratch, kr):
        files.save_keyring(kr, scratch)
        data = scratch.read_bytes()
        assert files.load_keyring(scratch) == kr
        _assert_damage_rejected(data, _via_file(scratch, files.load_keyring), files.FileFormatError)

    @format_settings
    @given(_indexes())
    def test_index(self, scratch, case):
        params, idx = case
        files.save_index(idx, scratch, params)
        data = scratch.read_bytes()
        assert data[:8] == files.INDEX_MAGIC
        assert _index_fields(files.load_index(scratch, params)) == _index_fields(idx)
        _assert_damage_rejected(data, _via_file(scratch, lambda path: files.load_index(path, params)),
                                files.FileFormatError)


class TestIndexParameters:
    """An SBFINDX2 file stays small at the paper's parameters, and
    `load_index` refuses a file written under another m or r."""

    def test_index_at_paper_parameters_saves_under_1kb(self, tmp_path):
        """At the paper's parameters (m=28854) an index with d=4 fits in
        under 1 KB."""
        params = derive_params(l=100, r=10, gamma_count=20, q=15, beta=50, tau_bits=5120)
        system = SystemFixture(params, seed=3)
        _, idx = system.user(range(4), seed=4)
        path = tmp_path / "user.idx"
        files.save_index(idx, path, params)
        assert path.read_bytes()[:8] == files.INDEX_MAGIC and path.stat().st_size < 1024
        assert _index_fields(files.load_index(path, params)) == _index_fields(idx)

    @pytest.mark.parametrize("other", [dict(m_override=232), dict(m_override=230), dict(r=5), dict(r=3)],
                             ids=["m+1", "m-1", "r+1", "r-1"])
    def test_other_m_or_r_refused(self, system, tmp_path, other):
        _, idx = system.user([0, 1], seed=5)
        path = tmp_path / "user.idx"
        files.save_index(idx, path, system.params)
        files.load_index(path, system.params)
        fields = dict(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64, m_override=231)
        with pytest.raises(files.FileFormatError):
            files.load_index(path, derive_params(**{**fields, **other}))


class TestAtomicWrites:
    """A file whose write fails, at the rename or halfway through on a
    full disk, is left byte-identical, with no temporary file behind."""

    @pytest.mark.parametrize("kind", ["master secrets", "keyring", "key file", "index"])
    def test_failed_write_keeps_the_old_file(self, system, tmp_path, monkeypatch, kind):
        path = tmp_path / kind.replace(" ", "_")
        old_kr, old_idx = system.user([0, 1, 2], seed=6)
        new_kr, new_idx = system.user([3, 4], seed=7)
        save, old, new = {
            "master secrets": (files.save_master_secrets, system.secrets,
                               generate_master_secrets(system.params, system.vocab, Random(8))),
            "keyring": (files.save_keyring, old_kr, new_kr),
            "key file": (lambda key, p: files.write_key_file(p, key), b"\x01" * 16, b"\x02" * 16),
            "index": (lambda idx, p: files.save_index(idx, p, system.params), old_idx, new_idx),
        }[kind]
        save(old, path)
        before = path.read_bytes()
        fill_disk_halfway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save(new, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == [path.name]
        monkeypatch.undo()
        save(new, path)
        assert path.read_bytes() != before

    @pytest.mark.parametrize("kind", ["index", "snapshot"])
    def test_failed_rename_keeps_the_old_file(self, system, tmp_path, monkeypatch, kind):
        kr, idx = system.user([0, 1, 2], seed=6)
        store = StorageBloomFilter(system.params, system.zone)
        if kind == "index":
            path = tmp_path / "user.idx"
            save, change = (lambda: files.save_index(idx, path, system.params),
                            lambda: build_removal_request(idx, kr, system.vocab[0], system.locations[0],
                                                          b"h" * 16, system.params, Random(7)))
        else:
            path = tmp_path / "zone.sbf"
            packet = make_upload_packet(idx, system.meta(), system.secrets.agent_public, system.zone,
                                        system.params, Random(8))
            save, change = (lambda: store.save(path), lambda: store.ingest(packet))
        save()
        before = path.read_bytes()
        change()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(files.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == [path.name]
        monkeypatch.undo()
        save()
        assert path.read_bytes() != before


class TestKeywordTokens:
    """A key file that repeats a keyword token, or a master-secrets file
    with no keyword, is refused rather than loaded short. Each edited
    file is resealed, so load gets past the checksum to the check under
    test."""

    def test_repeated_token_in_master_secrets_rejected(self, tmp_path):
        path = tmp_path / "master.keys"
        files.save_master_secrets(MasterSecrets({b"a": b"k", b"b": b"j"}, (b"v",), b"P" * 32, b"S" * 32), path)
        data = path.read_bytes()
        at = 8 + 9  # magic, header; then token, key pairs in token order
        assert data[at : at + 4] == b"akbj"
        path.write_bytes(resealed(data[:at] + b"akaj" + data[at + 4 :]))
        with pytest.raises(files.FileFormatError, match="repeated"):
            files.load_master_secrets(path)

    def test_repeated_token_in_keyring_rejected(self, tmp_path):
        path = tmp_path / "user.ring"
        files.save_keyring(UserKeyring(b"z", {b"a": (b"k",), b"b": (b"j",)}), path)
        data = path.read_bytes()
        at = 8 + 9 + 1  # magic, header, zone; then token, keys pairs
        assert data[at : at + 4] == b"akbj"
        path.write_bytes(resealed(data[:at] + b"akaj" + data[at + 4 :]))
        with pytest.raises(files.FileFormatError, match="repeated"):
            files.load_keyring(path)

    def test_master_secrets_without_keywords_rejected(self, tmp_path):
        path = tmp_path / "master.keys"
        files.write_checksummed(path, files.MASTER_MAGIC + struct.pack(">BHHI", 1, 1, 0, 0) + b"P" * 32 + b"S" * 32)
        with pytest.raises(files.FileFormatError, match="no keyword"):
            files.load_master_secrets(path)


def _key_files(system):
    """Each checksummed key format: its first-version magic, save, load,
    and a value holding two keywords."""
    kr, _ = system.user([0, 1])
    return {"master secrets": (b"SBFKEYS1", files.save_master_secrets, files.load_master_secrets, system.secrets),
            "keyring": (b"SBFKRNG1", files.save_keyring, files.load_keyring, kr)}


class TestKeyFileChecksums:
    """Master-secrets and keyring files carry a SHA-256 trailer: a bit
    flipped in a key is refused, where the unchecked first version
    loaded it and moved that keyword's positions."""

    @pytest.mark.parametrize("kind", ["master secrets", "keyring"])
    def test_a_flipped_key_bit_is_refused(self, system, tmp_path, kind):
        _, save, load, value = _key_files(system)[kind]
        path = tmp_path / "key.bin"
        save(value, path)
        data = bytearray(path.read_bytes())
        data[-files.DIGEST_BYTES - 1] ^= 0x01  # the last byte of the last key
        path.write_bytes(bytes(data))
        with pytest.raises(files.FileFormatError, match="checksum mismatch"):
            load(path)

    @pytest.mark.parametrize("kind", ["master secrets", "keyring"])
    def test_the_readme_recipe_carries_a_first_version_file_over(self, system, tmp_path, kind):
        """A first-version file is the same body under the old magic and
        no trailer. It is refused, and the README's one-line recipe makes
        it load to the same value."""
        old_magic, save, load, value = _key_files(system)[kind]
        path = tmp_path / "key.bin"
        save(value, path)
        new_magic = path.read_bytes()[:8]
        path.write_bytes(old_magic + path.read_bytes()[8 : -files.DIGEST_BYTES])
        with pytest.raises(files.FileFormatError, match=f"not an {new_magic.decode()} file"):
            load(path)
        data = path.read_bytes()
        files.write_checksummed(path, new_magic + data[8:])
        assert load(path) == value

