import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sbfsearch import kernels, sim
from sbfsearch.params import derive_params
from sbfsearch.sim import (
    SimError,
    rows_to_csv,
    run_accuracy_experiment,
    run_beta_sweep,
    run_overlap_experiment,
    run_t_sweep,
)

from oracles import draw_keyword_layout_by_passes, ks_two_sample, overflow_cross_check, spearman_rho


def draw_keyword_layout(rng: np.random.Generator, rows: int, r: int, m: int) -> np.ndarray:
    """rows x r positions, distinct within each row, as an overlap block
    draws its layout: one draw that may leave `rng` past the last row."""
    sim._check_lanes(r, m)
    return sim._draw_with_layout(rng, 0, rows, r, m)[1]


@pytest.fixture(scope="module")
def small_sweep_params():
    return derive_params(l=50, r=6, gamma_count=1, q=20, beta=10, tau_bits=5120,
                         m_override=432)


class TestReproducibility:
    def test_identical_config_and_seed_bitwise_equal(self, small_sweep_params):
        a = rows_to_csv(run_overlap_experiment(small_sweep_params, (8, 16), 2000, 5))
        b = rows_to_csv(run_overlap_experiment(small_sweep_params, (8, 16), 2000, 5))
        assert a == b

    def test_seed_changes_output(self, small_sweep_params):
        base = run_overlap_experiment(small_sweep_params, (16,), 2000, 5)
        other = run_overlap_experiment(small_sweep_params, (16,), 2000, 6)
        assert rows_to_csv(base) != rows_to_csv(other)


class TestOverlapExperiment:
    def test_zero_elements_never_overlap(self, small_sweep_params):
        rows = run_overlap_experiment(small_sweep_params, (0,), 500, 1)
        assert rows[0].estimate == 0.0 and rows[0].analytic == 0.0

    def test_estimates_respect_analytic_bound(self, small_sweep_params):
        for row in run_overlap_experiment(small_sweep_params, (14, 20), 8000, 2):
            assert row.estimate <= row.analytic + 3 * row.stderr

    def test_monotone_in_blinding_count(self, small_sweep_params):
        rows = run_overlap_experiment(small_sweep_params, (10, 14, 18, 22), 8000, 3)
        rho = spearman_rho([float(r.sweep_value) for r in rows],
                           [r.estimate for r in rows])
        assert rho > 0.9

    def test_stderr_follows_inverse_root_law(self):
        # quadrupling the trial count halves the standard error
        _, se_small = sim.overlap_estimate(97, 8, 4, 10, 4000, seed=10)
        _, se_large = sim.overlap_estimate(97, 8, 4, 10, 16000, seed=10)
        assert se_large / se_small == pytest.approx(0.5, rel=0.2)

    def test_layout_rows_have_distinct_positions(self):
        rng = np.random.default_rng(11)
        layout = draw_keyword_layout(rng, 200, 6, 64)
        for row in layout:
            assert len(set(row.tolist())) == 6


class TestGoldenDraws:
    """Values pinned from the pass-by-pass layout draw (kept in
    `tests/oracles.py`), before a block made one draw: the single draw
    must reproduce every one of them bit for bit."""

    @pytest.mark.parametrize("oe, hits", [(12, 2), (14, 2), (16, 13), (18, 27), (20, 27)])
    def test_bench_sweep_points(self, oe, hits):
        est, se = sim.overlap_estimate(432, 50, 6, oe, 3000, seed=1400 + oe)
        assert (est, se) == (hits / 3000, sim._binomial_stderr(hits / 3000, 3000))

    def test_two_blocks(self):
        est, _ = sim.overlap_estimate(97, 8, 4, 10, 2 * sim.CHUNK_TRIALS, seed=24)
        assert est == 374 / (2 * sim.CHUNK_TRIALS)

    def test_fixed_layout(self):
        layout = draw_keyword_layout(np.random.default_rng(4), 50, 6, 432)
        digest = hashlib.sha256(layout.tobytes()).hexdigest()
        assert digest == "42a0b8dd93168d1f475c6245fe991f570826126d1507b9a9a37becc20c94b9bc"

    def test_tight_layout_tops_up_its_spare_rows(self):
        # at m=8, r=6 most rows repeat a position, so the spare rows run out
        layout = draw_keyword_layout(np.random.default_rng(31), 300, 6, 8)
        digest = hashlib.sha256(layout.tobytes()).hexdigest()
        assert digest == "c08219409907037c72fd9bd49d9371cd88e0dd26cd1f8ba15bf7c77c17f2c8ae"

    def test_criterion_3_csv(self, small_sweep_params):
        csv = rows_to_csv(run_overlap_experiment(small_sweep_params, (12, 14, 16, 18, 20), 100_000, 20260808))
        digest = hashlib.sha256(csv.encode()).hexdigest()
        assert digest == "2cea98c9a83d19e6a1b590dc90abcd303ecc0cac848ec9f75450727eebb1f78e"


class TestLayoutDraw:
    @settings(max_examples=300)
    @given(rows=st.integers(0, 300), r=st.integers(1, 8),
           extra=st.one_of(st.integers(0, 3), st.integers(4, 600)), seed=st.integers(0, 2**64 - 1))
    def test_single_draw_matches_pass_by_pass_oracle(self, rows, r, extra, seed):
        # m close to r makes most rows repeat a position, so the spare rows
        # run out and get topped up; rows that almost never come out
        # distinct would only slow the oracle down
        m = r + extra
        assume(math.prod((m - i) / m for i in range(r)) >= 0.01)
        got = draw_keyword_layout(np.random.default_rng(seed), rows, r, m)
        want = draw_keyword_layout_by_passes(np.random.default_rng(seed), rows, r, m)
        assert np.array_equal(got, want)


class TestArgumentChecks:
    def test_more_lanes_than_positions_is_refused_before_any_draw(self, monkeypatch):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SimError):
            draw_keyword_layout(rng, 5, 6, 4)
        assert rng.bit_generator.state == state
        monkeypatch.setattr(sim, "_block_rng", None)  # any draw fails with TypeError
        for oe in (0, 3):
            with pytest.raises(SimError):
                sim.overlap_estimate(4, 5, 6, oe, 10, seed=0)

    def test_trial_and_element_counts(self, monkeypatch):
        monkeypatch.setattr(sim, "_block_rng", None)
        for trials, oe in ((0, 3), (-2, 3), (10, -1)):
            with pytest.raises(SimError):
                sim.overlap_estimate(432, 50, 6, oe, trials, seed=0)
        assert sim.overlap_estimate(432, 50, 6, 0, 10, seed=0) == (0.0, 0.0)  # drew nothing
        with pytest.raises(SimError):
            sim.max_occupancies(97, -1, 3, 4, 10, seed=0)

    def test_every_sweep_refuses_an_empty_sweep_and_too_few_trials(self, small_sweep_params, monkeypatch):
        monkeypatch.setattr(sim, "_block_rng", None)  # any draw fails with TypeError
        sweeps = {
            "overlap": lambda values, trials: run_overlap_experiment(small_sweep_params, values, trials, 0),
            "beta": lambda values, trials: run_beta_sweep(small_sweep_params, 5, values, trials, 0),
            "t": lambda values, trials: run_t_sweep(small_sweep_params, values, trials, 0),
        }
        for name, sweep in sweeps.items():
            with pytest.raises(SimError, match="nonempty"):
                sweep((), 10)
            for trials in (0, -1):
                with pytest.raises(SimError, match="at least 1"):
                    sweep((4,), trials)


class TestOverflowExperiment:
    def test_beta_sweep_monotone_decreasing(self):
        params = derive_params(l=40, r=5, gamma_count=1, q=10, beta=10, tau_bits=5120)
        rows = run_beta_sweep(params, 50, (6, 10, 14, 100), 300, 12)
        estimates = [r.estimate for r in rows]
        assert all(b <= a for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] == 0.0

    def test_t_sweep_monotone_increasing(self):
        params = derive_params(l=40, r=5, gamma_count=1, q=10, beta=12, tau_bits=5120)
        rows = run_t_sweep(params, (20, 60, 180), 200, 13)
        estimates = [r.estimate for r in rows]
        assert estimates[0] <= estimates[-1]

    def test_cross_check_against_real_stack(self):
        params = derive_params(l=200, r=4, gamma_count=1, q=4, beta=50,
                               tau_bits=5120, n_bits=64)
        stat, p_value = overflow_cross_check(params, t=30, trials=5, seed=14)
        assert p_value >= 0.05

    def test_cross_check_needs_disjoint_keywords(self):
        params = derive_params(l=10, r=4, gamma_count=1, q=4, beta=50,
                               tau_bits=5120, n_bits=64)
        with pytest.raises(SimError):
            overflow_cross_check(params, t=30, trials=2, seed=15)


class TestAccuracyExperiment:
    def test_perfect_recall_small_system(self):
        params = derive_params(l=30, r=5, gamma_count=3, q=6, beta=64,
                               tau_bits=5120, n_bits=64)
        report = run_accuracy_experiment(params, t=40, seed=16)
        assert report.recall == 1.0
        assert report.precision > 0.9
        assert 0 < report.probes <= 40 * params.q

    def test_empty_system(self):
        params = derive_params(l=30, r=5, gamma_count=3, q=6, beta=64,
                               tau_bits=5120, n_bits=64)
        report = run_accuracy_experiment(params, t=0, seed=17)
        assert report.probes == 0
        assert report.recall == 1.0 and report.precision == 1.0

    def test_negative_user_count_refused(self):
        params = derive_params(l=30, r=5, gamma_count=3, q=6, beta=64,
                               tau_bits=5120, n_bits=64)
        with pytest.raises(SimError, match="non-negative"):
            run_accuracy_experiment(params, t=-5, seed=17)


class TestKernels:
    def test_cover_hits_against_set_containment(self):
        # r=300 needs a lane count wider than one byte
        for r, m in ((1, 97), (4, 97), (6, 97), (10, 97), (300, 1009)):
            rng = np.random.default_rng(18)
            oe = rng.integers(0, m, size=(50, max(40, r)), dtype=np.int64)
            layouts = rng.integers(0, m, size=(50, 12, r), dtype=np.int64)
            # every row of the fixed layout (layouts[0]) holds position 0,
            # which trials 1, 4, ... lack and trial 0 holds
            oe[0, 0] = 0
            for i in range(1, 50, 3):
                oe[i][oe[i] == 0] = 1
            for i in range(0, 50, 3):
                layouts[i, 5] = oe[i, :r]  # covered
            for i in range(1, 50, 3):
                layouts[i, :, 0] = min(set(range(m)) - set(oe[i].tolist()))  # never covered
            layouts[0, :, 0] = 0
            fixed = np.broadcast_to(layouts[0], layouts.shape)
            for rows in (layouts, fixed):
                expected = [
                    int(any(set(row) <= set(oe[i].tolist()) for row in rows[i].tolist()))
                    for i in range(50)
                ]
                assert kernels.cover_hits(oe, rows, m).tolist() == expected
                assert 0 < sum(expected) < 50  # both outcomes occur

    def test_max_occupancy_against_bincount(self):
        rng = np.random.default_rng(19)
        positions = rng.integers(0, 31, size=(20, 100), dtype=np.int64)
        out = kernels.max_occupancy(positions, 31)
        for i in range(20):
            assert out[i] == np.bincount(positions[i], minlength=31).max()


def _record_kernel(monkeypatch, name):
    """Record the inputs sim passes to one kernel, call by call."""
    calls = []
    real = getattr(kernels, name)

    def recording(positions, *args):
        calls.append(np.array(positions))
        return real(positions, *args)

    monkeypatch.setattr(kernels, name, recording)
    return calls


class TestBlockSeeding:
    """Calls spanning two blocks: a seed fixes every block's draws, and
    no block repeats another's."""

    def test_overlap_estimate(self, monkeypatch):
        calls = _record_kernel(monkeypatch, "cover_hits")
        trials = 2 * sim.CHUNK_TRIALS
        first = sim.overlap_estimate(97, 8, 4, 10, trials, seed=24)
        assert sim.overlap_estimate(97, 8, 4, 10, trials, seed=24) == first
        assert len(calls) == 4
        assert np.array_equal(calls[0], calls[2]) and np.array_equal(calls[1], calls[3])
        assert not np.array_equal(calls[0], calls[1])

    def test_max_occupancies(self, monkeypatch):
        calls = _record_kernel(monkeypatch, "max_occupancy")
        trials = 2 * sim.CHUNK_TRIALS
        first = sim.max_occupancies(97, 2, 3, 4, trials, seed=25)
        assert np.array_equal(sim.max_occupancies(97, 2, 3, 4, trials, seed=25), first)
        assert len(calls) == 4
        assert np.array_equal(calls[0], calls[2]) and np.array_equal(calls[1], calls[3])
        assert not np.array_equal(calls[0], calls[1])
        # block size does not depend on the trial count
        one_block = sim.max_occupancies(97, 2, 3, 4, sim.CHUNK_TRIALS, seed=25)
        assert np.array_equal(one_block, first[: sim.CHUNK_TRIALS])


class TestStatsHelpers:
    def test_ks_identical_samples(self):
        rng = np.random.default_rng(20)
        a = rng.poisson(3.0, size=4000)
        b = rng.poisson(3.0, size=4000)
        stat, p = ks_two_sample(a, b)
        assert p > 0.05

    def test_ks_detects_shift(self):
        rng = np.random.default_rng(21)
        a = rng.poisson(3.0, size=4000)
        b = rng.poisson(6.0, size=4000)
        stat, p = ks_two_sample(a, b)
        assert p < 0.01

    def test_spearman_perfect_and_reversed(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_rho([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)

    def test_spearman_with_ties(self):
        rho = spearman_rho([1, 2, 3, 4, 5], [0, 0, 1, 2, 3])
        assert 0.9 <= rho <= 1.0

    def test_spearman_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(22)
        x = rng.random(50).tolist()
        y = (np.asarray(x) + rng.random(50)).tolist()
        ours = spearman_rho(x, y)
        theirs = scipy_stats.spearmanr(x, y).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)


def test_csv_format(small_sweep_params):
    text = rows_to_csv(run_overlap_experiment(small_sweep_params, (4,), 100, 23))
    header, row = text.strip().splitlines()
    assert header == "sweep_name,sweep_value,trials,estimate,stderr,analytic,seed"
    fields = row.split(",")
    assert fields[0] == "oe_count" and fields[1] == "4" and fields[-1] == "23"
