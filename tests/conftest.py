import errno
import hashlib
from itertools import chain
from random import Random

import pytest
from hypothesis import settings

from sbfsearch import crypto, files, index
from sbfsearch.filters import BitFilter
from sbfsearch.params import derive_params

# every property test runs fixed cases with no example database: the same
# examples, and the same tier-1 time, on every run; tests set only budgets
settings.register_profile("sbfsearch", deadline=None, database=None, derandomize=True)
settings.load_profile("sbfsearch")


@pytest.fixture(autouse=True)
def _cold_key_memos():
    """Seeded records and keyword secrets repeat across tests; start each
    test with empty key, opened-record, subkey and position memos so no
    outcome depends on the order tests run in."""
    crypto._agent_key.cache_clear()
    crypto._opened_record.cache_clear()
    index._subkeys.cache_clear()
    index._positions.cache_clear()


def resealed(snapshot: bytes) -> bytes:
    """A checksummed file edited by a test, with its SHA-256 trailer
    recomputed, so load gets past the checksum to the check under test."""
    return snapshot[:-32] + hashlib.sha256(snapshot[:-32]).digest()


class DiskFullHalfway:
    """A file whose write stores half the bytes, then fails as a full
    disk does."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "no space left on device")


def blinding_filter(idx) -> BitFilter:
    """The union of an index's blinding lanes: the obfuscating filter."""
    return BitFilter(idx.m, chain.from_iterable(idx.obf_positions))


def fill_disk_halfway(monkeypatch):
    """Make every file that `files.write_atomically` opens a DiskFullHalfway."""
    real_open = open
    monkeypatch.setattr(files, "open", lambda *a, **k: DiskFullHalfway(real_open(*a, **k)), raising=False)


@pytest.fixture
def small_params():
    return derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64)


class SystemFixture:
    """A full client-side system: params, vocabulary, secrets, tokens."""

    def __init__(self, params, seed=0):
        self.params = params
        self.rng = Random(seed)
        self.vocab = [crypto.token_from_text(f"kw{i}", params.n_bits) for i in range(params.l)]
        self.secrets = index.generate_master_secrets(params, self.vocab, self.rng)
        self.zone = crypto.token_from_text("zone-a", params.n_bits)
        self.locations = [
            crypto.token_from_text(f"loc-{i}", params.n_bits) for i in range(params.gamma_count)
        ]

    def user(self, keyword_indexes, location=None, seed=None):
        """Register and build one user; returns (keyring, index)."""
        rng = self.rng if seed is None else Random(seed)
        kr = index.register_user(
            self.secrets, [self.vocab[i] for i in keyword_indexes], self.zone, self.params
        )
        idx = index.build_user_index(kr, location or self.locations[0], self.params, rng)
        return kr, idx

    def meta(self, name="user"):
        n = self.params.n_bits
        return crypto.MetaInfo(
            user_pseudonym=crypto.token_from_text(name, n),
            health_attrs=(crypto.token_from_text(name + "-attr", n),),
            server_id=crypto.token_from_text("cs-1", n),
            memory_index=crypto.token_from_text(name + "-slot", n),
            emergency_info=(),
        )


@pytest.fixture
def system(small_params):
    return SystemFixture(small_params, seed=1)
