import math
from collections import Counter
from random import Random

import numpy as np
import pytest

from sbfsearch.filters import BitFilter, FilterError, hash_positions


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
        assert BitFilter.decompress(bf.compress(), 300, 300) == bf

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

