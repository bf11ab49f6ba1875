import math
from fractions import Fraction

import pytest

from sbfsearch import analysis
from sbfsearch.analysis import (
    AnalysisError,
    blinding_collision_bound,
    prob_index_overlap,
    prob_keyword_cover,
    meta_record_bytes,
    result_size_bits,
    sparse_filter_bound_bytes,
    upload_size_bits,
)
from sbfsearch.crypto import MetaInfo, generate_agent_keypair, seal_record, token_from_text
from sbfsearch.filters import BitFilter
from sbfsearch.index import UploadPacket
from sbfsearch.params import derive_params
from sbfsearch.store import StorageBloomFilter

from oracles import enumerate_keyword_cover, enumerate_overlap


class TestOverlapProbability:
    def test_reference_configuration(self):
        # l=100, r=10, gamma=1, q=15 gives m=1443, occupied=142
        value = prob_index_overlap(1443, 142, 10)
        assert value == pytest.approx(0.9128, abs=5e-4)

    def test_full_filter_is_certain(self):
        assert prob_index_overlap(50, 50, 7) == pytest.approx(1.0)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(AnalysisError):
            prob_index_overlap(10, 11, 2)
        with pytest.raises(AnalysisError):
            prob_index_overlap(10, 4, 5)
        with pytest.raises(AnalysisError):
            prob_index_overlap(10, 4, 0)

    def test_matches_enumeration_oracle(self):
        exact = enumerate_overlap(12, 5, 2)
        assert prob_index_overlap(12, 5, 2) == pytest.approx(float(exact), rel=1e-12)

    def test_matches_exact_rational(self):
        # (28854, 150, 10) is the gamma=20 setting, where the tail is ~7e-9
        for m, occupied, r in ((2000, 180, 8), (3000, 200, 10), (3200, 250, 10),
                               (28854, 150, 10), (100_000, 1000, 10)):
            lower = sum(math.comb(occupied, k) * math.comb(m - occupied, occupied - k)
                        for k in range(r))
            exact = 1 - Fraction(lower, math.comb(m, occupied))
            got = prob_index_overlap(m, occupied, r)
            assert got == pytest.approx(float(exact), rel=1e-9, abs=0)

    def test_large_operands_do_not_overflow(self):
        value = prob_index_overlap(1_000_000, 100_000, 64)
        assert value == pytest.approx(1.0, abs=1e-12)


class TestKeywordCoverProbability:
    def test_reference_configuration_value(self):
        # collapses to q * C(m-r, occupied-r) / C(m, occupied); both forms must agree
        value = prob_keyword_cover(1443, 142, 10, 15)
        collapsed = 15 * Fraction(math.comb(1433, 132), math.comb(1443, 142))
        assert value == pytest.approx(float(collapsed), rel=1e-12)
        assert value == pytest.approx(9.53e-10, rel=0.01)

    def test_linear_in_q(self):
        one = prob_keyword_cover(200, 40, 4, 1)
        two = prob_keyword_cover(200, 40, 4, 2)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_matches_enumeration_oracle(self):
        exact = enumerate_keyword_cover(12, 5, 2, 1)
        assert prob_keyword_cover(12, 5, 2, 1) == pytest.approx(float(exact), rel=1e-12)

    def test_matches_exact_sum(self):
        # the defining sum over intersection sizes, not the collapsed form
        for m, occupied, r in ((3000, 150, 6), (28854, 150, 10), (100_000, 1000, 10)):
            total = sum(math.comb(occupied, k) * math.comb(m - occupied, occupied - k)
                        * math.comb(k, r) for k in range(r, occupied + 1))
            exact = Fraction(15 * total, math.comb(m, occupied) * math.comb(occupied, r))
            got = prob_keyword_cover(m, occupied, r, 15)
            assert got == pytest.approx(float(exact), rel=1e-9, abs=0)

    def test_invalid_arguments(self):
        with pytest.raises(AnalysisError):
            prob_keyword_cover(10, 5, 2, 0)


def test_enumeration_agreement_all_small_instances():
    # every instance with m <= 14: closed forms match exhaustive placement
    # to 1e-12 relative
    for m in range(2, 15):
        for occupied in range(1, m + 1):
            for r in range(1, min(occupied, 4) + 1):
                exact_overlap = float(enumerate_overlap(m, occupied, r))
                assert prob_index_overlap(m, occupied, r) == pytest.approx(
                    exact_overlap, rel=1e-12, abs=1e-15
                )
                exact_cover = float(enumerate_keyword_cover(m, occupied, r, 2))
                assert prob_keyword_cover(m, occupied, r, 2) == pytest.approx(
                    exact_cover, rel=1e-12, abs=1e-15
                )


def test_overlap_monotone_in_lambda_where_enumeration_says_so():
    # enumeration on small instances shows both quantities grow with occupied
    for m, r in ((10, 2), (12, 3)):
        overlaps = [prob_index_overlap(m, occupied, r) for occupied in range(r, m + 1)]
        covers = [prob_keyword_cover(m, occupied, r, 1) for occupied in range(r, m + 1)]
        enum_overlaps = [float(enumerate_overlap(m, occupied, r)) for occupied in range(r, m + 1)]
        assert all(b >= a for a, b in zip(enum_overlaps, enum_overlaps[1:]))
        assert all(b >= a for a, b in zip(overlaps, overlaps[1:]))
        assert all(b >= a for a, b in zip(covers, covers[1:]))


class TestBlindingCollisionBound:
    def test_reference_configuration(self):
        collision = blinding_collision_bound(1000, 142, 10, 100, 1, 1443)
        assert collision.bound == pytest.approx(6.16e-6, rel=0.01)
        assert not collision.clamped

    def test_zero_users(self):
        assert blinding_collision_bound(0, 142, 10, 100, 1, 1443).bound == 0.0

    def test_lambda_below_lanes_gives_zero(self):
        assert blinding_collision_bound(10, 3, 6, 50, 1, 432).bound == 0.0

    def test_clamped_above_one(self):
        collision = blinding_collision_bound(10**12, 142, 10, 100, 1, 1443)
        assert collision.bound == 1.0 and collision.clamped

    def test_location_scaling_identity(self):
        # at fixed occupied, scaling both gamma and m by g divides the bound
        # by g^(r-1)
        r, occupied = 6, 100
        base = blinding_collision_bound(1, occupied, r, 50, 1, 432).bound
        for g in (2, 5, 20):
            scaled = blinding_collision_bound(1, occupied, r, 50, g, 432 * g).bound
            assert scaled == pytest.approx(base / g ** (r - 1), rel=1e-9)

    def test_invalid_ranges(self):
        with pytest.raises(AnalysisError):
            blinding_collision_bound(-1, 10, 2, 5, 1, 100)
        with pytest.raises(AnalysisError):
            blinding_collision_bound(1, 200, 2, 5, 1, 100)


class TestResourceModels:
    def test_upload_bound_reference(self):
        params = derive_params(l=100, r=10, gamma_count=20, q=15, beta=50, tau_bits=5120)
        bits = upload_size_bits(params)
        assert bits < 6144
        # piecewise accounting
        assert meta_record_bytes(15, 160) == 18 * 20 + 2
        assert sparse_filter_bound_bytes(150, params.m) == 4 + (150 * 15 + 7) // 8

    def test_upload_bound_counts_at_most_m_positions(self):
        """With q*r > m the codec sets at most m positions, so the bound is
        the size of the largest upload the store accepts: a record of q
        keywords whose filter sets every position."""
        params = derive_params(l=20, r=10, gamma_count=2, q=15, beta=4, tau_bits=4096, n_bits=64,
                               m_override=100)
        n = params.n_bits
        mi = MetaInfo(token_from_text("pseudonym", n), tuple(token_from_text(f"kw{i}", n) for i in range(params.q)),
                      token_from_text("cs-1", n), token_from_text("slot", n), ())
        sealed = seal_record(generate_agent_keypair()[0], mi, params.tau_bits)
        zone = token_from_text("zone-a", n)
        packet = UploadPacket(zone, BitFilter(params.m, range(params.m)).compress(), sealed)
        assert StorageBloomFilter(params, zone).ingest(packet) == params.m
        assert upload_size_bits(params) == 8 * len(packet.to_bytes()) == 2640

    def test_upload_monotone_in_q(self):
        sizes = [
            upload_size_bits(derive_params(l=100, r=10, gamma_count=20, q=q,
                                           beta=50, tau_bits=5120))
            for q in range(1, 16)
        ]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_result_size(self):
        assert result_size_bits(0, 5120) == analysis.RESULT_HEADER_BITS
        assert result_size_bits(10, 5120) == 10 * (5120 + 32) + analysis.RESULT_HEADER_BITS
        with pytest.raises(AnalysisError):
            result_size_bits(-1, 100)

    def test_memory_model_reference(self):
        params = derive_params(l=100, r=10, gamma_count=20, q=15, beta=50, tau_bits=5 * 1024)
        mib = analysis.bytes_to_mib(analysis.provisioned_memory_bytes(params))
        assert mib == pytest.approx(880.5, abs=1.0)

    def test_memory_model_linear_in_beta(self):
        two, six = (analysis.provisioned_memory_bytes(derive_params(l=20, r=4, gamma_count=2, q=6, beta=beta,
                                                                    tau_bits=1024, n_bits=64))
                    for beta in (2, 6))
        assert six == 3 * two
