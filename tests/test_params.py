
import numpy as np
import pytest

from sbfsearch.params import (
    ParamsError,
    derive_params,
    expected_distinct_positions,
    filter_length,
    load_params_file,
)
from sbfsearch.store import StorageBloomFilter, StoreError

from conftest import resealed


def test_filter_length_reference_values():
    assert filter_length(100, 10, 1) == 1443
    assert filter_length(100, 10, 20) == 28854
    assert filter_length(100, 10, 5) == 7214
    assert filter_length(1, 1, 1) == 2  # ceil(1 / ln 2)


def test_derive_params_carries_m():
    p = derive_params(l=100, r=10, gamma_count=1, q=15, beta=35, tau_bits=5120)
    assert p.m == 1443
    assert p.s_bits == 256 and p.n_bits == 160


def test_m_override():
    p = derive_params(l=50, r=6, gamma_count=1, q=20, beta=10, tau_bits=5120, m_override=432)
    assert p.m == 432
    with pytest.raises(ParamsError):
        derive_params(l=50, r=6, gamma_count=1, q=20, beta=10, tau_bits=5120, m_override=0)


def test_rejects_bad_inputs():
    with pytest.raises(ParamsError):
        derive_params(l=5, r=2, gamma_count=1, q=6, beta=1, tau_bits=64)  # q > l
    with pytest.raises(ParamsError):
        derive_params(l=0, r=2, gamma_count=1, q=0, beta=1, tau_bits=64)
    with pytest.raises(ParamsError):
        derive_params(l=5, r=-1, gamma_count=1, q=2, beta=1, tau_bits=64)
    with pytest.raises(ParamsError):
        derive_params(l=5, r=2, gamma_count=1, q=2, beta=1, tau_bits=64, s_bits=64)
    with pytest.raises(ParamsError):
        derive_params(l=5, r=2, gamma_count=1, q=2, beta=1, tau_bits=64, s_bits=129)


def test_s_bits_capped_at_sha512():
    # the widest HMAC hash is SHA-512: a wider PRF could never be computed
    p = derive_params(l=5, r=3, gamma_count=2, q=3, beta=4, tau_bits=2048, s_bits=512)
    assert p.s_bytes == 64
    for s_bits in (520, 1024):
        with pytest.raises(ParamsError, match="512"):
            derive_params(l=5, r=3, gamma_count=2, q=3, beta=4, tau_bits=2048, s_bits=s_bits)


def test_s_bits_cap_in_params_file_and_snapshot(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("l=5\nr=3\ngamma=2\nq=3\nbeta=4\ntau_kbits=2\ns_bits=520\n")
    with pytest.raises(ParamsError, match="512"):
        load_params_file(cfg)
    cfg.write_text("l=5\nr=3\ngamma=2\nq=3\nbeta=4\ntau_kbits=2\ns_bits=512\n")
    assert load_params_file(cfg).s_bits == 512
    # a snapshot whose header names s_bits=520 is refused as a store error
    snap = tmp_path / "zone.sbf"
    params = load_params_file(cfg)
    StorageBloomFilter(params, bytes(params.n_bytes)).save(snap)
    data = bytearray(snap.read_bytes())
    s_bits_at = 8 + 5 * 4  # magic, then l, r, gamma, q, m before s_bits
    assert int.from_bytes(data[s_bits_at : s_bits_at + 4], "big") == 512
    data[s_bits_at : s_bits_at + 4] = (520).to_bytes(4, "big")
    snap.write_bytes(resealed(bytes(data)))
    with pytest.raises(StoreError, match="512"):
        StorageBloomFilter.load(snap)


def test_m_monotone_in_each_argument():
    base = filter_length(40, 6, 3)
    assert filter_length(41, 6, 3) >= base
    assert filter_length(40, 7, 3) >= base
    assert filter_length(40, 6, 4) >= base


def test_derivation_is_pure():
    a = derive_params(l=30, r=5, gamma_count=2, q=10, beta=8, tau_bits=2048)
    b = derive_params(l=30, r=5, gamma_count=2, q=10, beta=8, tau_bits=2048)
    assert a == b


def test_expected_distinct_reference_value():
    lam = expected_distinct_positions(1443, 10, 15)
    assert lam == pytest.approx(142.467, abs=0.01)
    assert round(lam) == 142


def test_expected_distinct_edges():
    assert expected_distinct_positions(1443, 10, 0) == 0.0
    with pytest.raises(ParamsError):
        expected_distinct_positions(100, 4, -1)


def test_expected_distinct_monotone_and_bounded():
    values = [expected_distinct_positions(500, 5, n) for n in range(0, 200, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 500 for v in values)


def test_expected_distinct_against_monte_carlo():
    # independent oracle: insert 20 elements x 6 positions into a 432-slot
    # filter and count set bits; analytic and empirical mean agree within 1%
    m, r, inserted, trials = 432, 6, 20, 100_000
    rng = np.random.default_rng(99)
    total = 0
    chunk = 20_000
    for _ in range(trials // chunk):
        pos = rng.integers(0, m, size=(chunk, inserted * r))
        filt = np.zeros((chunk, m), dtype=bool)
        filt[np.arange(chunk)[:, None], pos] = True
        total += int(filt.sum())
    empirical = total / trials
    analytic = expected_distinct_positions(m, r, inserted)
    assert abs(empirical - analytic) / analytic < 0.01


def test_load_params_file(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(
        "# core sizes\nl=100\nr=10\ngamma=1\nq=15\nbeta=35\ntau_kbits=5\n"
    )
    p = load_params_file(cfg)
    assert p.m == 1443 and p.tau_bits == 5120


def test_load_params_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("l=100\nr=ten\n")
    with pytest.raises(ParamsError):
        load_params_file(bad)
    bad.write_text("l=100\nwhat=3\n")
    with pytest.raises(ParamsError):
        load_params_file(bad)
    bad.write_text("l=100\n")
    with pytest.raises(ParamsError):
        load_params_file(bad)  # missing required keys
    bad.write_text("l=100\nr=4\ngamma=1\nq=4\nbeta=8\ntau_kbits=4\nq=6\n")
    with pytest.raises(ParamsError, match=rf"{bad}:7: .*'q'"):
        load_params_file(bad)  # a repeated key would split the parties sharing the file


def test_token_and_key_byte_widths():
    p = derive_params(l=4, r=2, gamma_count=1, q=2, beta=1, tau_bits=64, n_bits=12)
    assert p.n_bytes == 2 and p.s_bytes == 32
