import math
from collections import Counter
from random import Random

import numpy as np
import pytest

from sbfsearch.filters import BitFilter, CountingFilter, FilterError, hash_positions


def _elements(rng, r, width=16):
    return [rng.randbytes(width) for _ in range(r)]


class TestHashPositions:
    def test_deterministic(self):
        rng = Random(0)
        elems = _elements(rng, 4)
        assert hash_positions(elems, 100, 4) == hash_positions(elems, 100, 4)

    def test_lane_count_enforced(self):
        with pytest.raises(FilterError):
            hash_positions([b"a", b"b"], 100, 3)

    def test_uniform_over_two_positions(self):
        rng = Random(1)
        counts = Counter(hash_positions([rng.randbytes(8)], 2, 1)[0] for _ in range(10_000))
        sigma = math.sqrt(10_000 * 0.25)
        assert abs(counts[0] - 5000) <= 3 * sigma

    def test_birthday_distinct_positions(self):
        # 10 lanes into 1443 positions: expected distinct = 10 - C(10,2)/1443
        rng = Random(2)
        trials = 10_000
        total = sum(len(set(hash_positions(_elements(rng, 10, 8), 1443, 10))) for _ in range(trials))
        assert total / trials >= 9.96

    def test_lane_index_matters(self):
        # same element in two lanes gives independent positions
        elem = b"same-element"
        ps = hash_positions([elem, elem], 1_000_003, 2)
        assert ps[0] != ps[1]


class TestBitFilter:
    def test_insert_and_popcount(self):
        bf = BitFilter(64)
        bf.insert([1, 5, 5, 9])
        assert bf.popcount == 3
        assert bf.positions() == [1, 5, 9]

    def test_out_of_range_rejected(self):
        bf = BitFilter(8)
        with pytest.raises(FilterError):
            bf.insert([8])

    def test_membership_no_false_negatives(self):
        rng = Random(3)
        bf = BitFilter(512)
        inserted = [_elements(rng, 4) for _ in range(50)]
        for elems in inserted:
            bf.insert(hash_positions(elems, 512, 4))
        assert all(set(hash_positions(e, 512, 4)) <= set(bf) for e in inserted)

    def test_empty_filter_tests_false(self):
        bf = BitFilter(64)
        assert not {0, 1} <= set(bf)

    def test_union_identity_idempotence(self):
        rng = Random(4)
        a = BitFilter(128)
        a.insert([int(rng.random() * 128) for _ in range(20)])
        zero = BitFilter(128)
        assert a | zero == a
        assert a | a == a
        with pytest.raises(FilterError):
            a.union(BitFilter(64))

    def test_union_popcount_subadditive(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = BitFilter(96, np.flatnonzero(rng.random(96) < 0.2).tolist())
            b = BitFilter(96, np.flatnonzero(rng.random(96) < 0.2).tolist())
            assert (a | b).popcount <= a.popcount + b.popcount

    def test_false_positive_rate_matches_analytic(self):
        # load q*r positions into m bits; FPR for absent elements is
        # approximately (1 - exp(-q*r/m))^r
        m, r, q = 144, 3, 16
        rng = Random(6)
        bf = BitFilter(m)
        for _ in range(q):
            bf.insert(hash_positions(_elements(rng, r, 8), m, r))
        probes = 100_000
        held = set(bf)
        hits = sum(set(hash_positions(_elements(rng, r, 8), m, r)) <= held for _ in range(probes))
        analytic = (1 - math.exp(-q * r / m)) ** r
        assert abs(hits / probes - analytic) / analytic < 0.20

    def test_sparse_round_trip(self):
        rng = np.random.default_rng(8)
        bf = BitFilter(300, np.flatnonzero(rng.random(300) < 0.1).tolist())
        assert BitFilter.decompress(bf.compress(), 300) == bf

    def test_positions_constructor(self):
        bf = BitFilter(64, [9, 1, 5, 5])
        assert bf.positions() == [1, 5, 9] and bf.popcount == 3
        with pytest.raises(FilterError):
            BitFilter(64, [64])
        with pytest.raises(FilterError):
            BitFilter(64, [-1, 3])

    def test_boolean_array_refused(self):
        # a dense array would otherwise read as the positions {0, 1}
        with pytest.raises(FilterError, match="dense"):
            BitFilter(16, np.ones(16, dtype=bool))


class TestCountingFilter:
    def test_add_counts_occurrences(self):
        cbf = CountingFilter(32)
        cbf.add([3, 3, 7])
        assert cbf.counters[3] == 2 and cbf.counters[7] == 1
        cbf.add([3, 3, 7])
        assert cbf.counters[3] == 4

    def test_subtract_is_inverse(self):
        cbf = CountingFilter(32)
        cbf.add([1, 2, 2])
        snapshot = Counter(cbf.counters)
        cbf.add([2, 9, 9])
        cbf.subtract([2, 9, 9])
        assert cbf.counters == snapshot
        assert set(cbf.counters) == {1, 2}  # a counter back at zero is not held

    def test_underflow_rejected_atomically(self):
        cbf = CountingFilter(16)
        cbf.add([1])
        with pytest.raises(FilterError):
            cbf.subtract([1, 2])
        assert cbf.counters[1] == 1  # nothing changed

    def test_fresh_filter_underflows(self):
        with pytest.raises(FilterError):
            CountingFilter(8).subtract([0])

    def test_random_interleavings_match_multiset_oracle(self):
        rng = Random(9)
        cbf = CountingFilter(40)
        oracle: Counter = Counter()
        live: list[list[int]] = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                ps = live.pop(rng.randrange(len(live)))
                cbf.subtract(ps)
                oracle.subtract(ps)
            else:
                ps = [rng.randrange(40) for _ in range(5)]
                cbf.add(ps)
                oracle.update(ps)
                live.append(ps)
        for pos in range(40):
            assert cbf.counters[pos] == oracle[pos]

    def test_bits_match_counting_filter(self):
        # identical insert/remove streams keep bits(bf) == (counters > 0)
        rng = Random(10)
        m, r = 128, 3
        bf = BitFilter(m)
        cbf = CountingFilter(m)
        for _ in range(30):
            ps = hash_positions(_elements(rng, r, 8), m, r)
            bf.insert(ps)
            cbf.add(ps)
        assert bf == cbf.nonzero_bits()
