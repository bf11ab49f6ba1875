import numpy as np
import pytest

from sbfsearch import kernels, sim
from sbfsearch.params import derive_params
from sbfsearch.sim import (
    ExperimentConfig,
    SimError,
    ks_two_sample,
    overlap_probability_mc,
    rows_to_csv,
    run_accuracy_experiment,
    run_overflow_experiment,
    run_overlap_experiment,
    spearman_rho,
)


@pytest.fixture(scope="module")
def small_sweep_params():
    return derive_params(l=50, r=6, gamma_count=1, q=20, beta=10, tau_bits=5120,
                         m_override=432)


class TestReproducibility:
    def test_identical_config_and_seed_bitwise_equal(self, small_sweep_params):
        cfg = ExperimentConfig(params=small_sweep_params, sweep_name="oe_count",
                               sweep_values=(8, 16), trials=2000, seed=5)
        a = rows_to_csv(run_overlap_experiment(cfg))
        b = rows_to_csv(run_overlap_experiment(cfg))
        assert a == b

    def test_seed_changes_output(self, small_sweep_params):
        base = ExperimentConfig(params=small_sweep_params, sweep_name="oe_count",
                                sweep_values=(16,), trials=2000, seed=5)
        other = ExperimentConfig(params=small_sweep_params, sweep_name="oe_count",
                                 sweep_values=(16,), trials=2000, seed=6)
        assert rows_to_csv(run_overlap_experiment(base)) != rows_to_csv(run_overlap_experiment(other))


class TestOverlapExperiment:
    def test_zero_elements_never_overlap(self, small_sweep_params):
        cfg = ExperimentConfig(params=small_sweep_params, sweep_name="oe_count",
                               sweep_values=(0,), trials=500, seed=1)
        rows = run_overlap_experiment(cfg)
        assert rows[0].estimate == 0.0 and rows[0].analytic == 0.0

    def test_estimates_respect_analytic_bound(self, small_sweep_params):
        cfg = ExperimentConfig(params=small_sweep_params, sweep_name="oe_count",
                               sweep_values=(14, 20), trials=8000, seed=2)
        for row in run_overlap_experiment(cfg):
            assert row.estimate <= row.analytic + 3 * row.stderr

    def test_monotone_in_blinding_count(self, small_sweep_params):
        cfg = ExperimentConfig(params=small_sweep_params, sweep_name="oe_count",
                               sweep_values=(10, 14, 18, 22), trials=8000, seed=3)
        rows = run_overlap_experiment(cfg)
        rho = spearman_rho([float(r.sweep_value) for r in rows],
                           [r.estimate for r in rows])
        assert rho > 0.9

    def test_fixed_layout_oracle(self, small_sweep_params):
        rng = np.random.default_rng(4)
        layout = sim.draw_keyword_layout(rng, small_sweep_params.l, small_sweep_params.r, 432)
        est, se = overlap_probability_mc(small_sweep_params, 20, layout, 4000, seed=7)
        assert 0.0 <= est <= 1.0 and se > 0
        zero, zero_se = overlap_probability_mc(small_sweep_params, 0, layout, 100, seed=8)
        assert zero == 0.0 and zero_se == 0.0

    def test_stderr_follows_inverse_root_law(self, small_sweep_params):
        # quadrupling the trial count halves the standard error
        rng = np.random.default_rng(9)
        layout = sim.draw_keyword_layout(rng, 50, 6, 432)
        _, se_small = overlap_probability_mc(small_sweep_params, 20, layout, 4000, seed=10)
        _, se_large = overlap_probability_mc(small_sweep_params, 20, layout, 16000, seed=10)
        assert se_large / se_small == pytest.approx(0.5, rel=0.2)

    def test_layout_rows_have_distinct_positions(self):
        rng = np.random.default_rng(11)
        layout = sim.draw_keyword_layout(rng, 200, 6, 64)
        for row in layout:
            assert len(set(row.tolist())) == 6


class TestOverflowExperiment:
    def test_beta_sweep_monotone_decreasing(self):
        params = derive_params(l=40, r=5, gamma_count=1, q=10, beta=10, tau_bits=5120)
        cfg = ExperimentConfig(params=params, sweep_name="beta",
                               sweep_values=(6, 10, 14, 100), trials=300, seed=12)
        rows = run_overflow_experiment(cfg, t=50)
        estimates = [r.estimate for r in rows]
        assert all(b <= a for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] == 0.0

    def test_t_sweep_monotone_increasing(self):
        params = derive_params(l=40, r=5, gamma_count=1, q=10, beta=12, tau_bits=5120)
        cfg = ExperimentConfig(params=params, sweep_name="t",
                               sweep_values=(20, 60, 180), trials=200, seed=13)
        rows = run_overflow_experiment(cfg)
        estimates = [r.estimate for r in rows]
        assert estimates[0] <= estimates[-1]

    def test_sweep_validation(self):
        params = derive_params(l=40, r=5, gamma_count=1, q=10, beta=12, tau_bits=5120)
        cfg = ExperimentConfig(params=params, sweep_name="beta",
                               sweep_values=(6,), trials=10, seed=0)
        with pytest.raises(SimError):
            run_overflow_experiment(cfg)  # missing t
        bad = ExperimentConfig(params=params, sweep_name="oe_count",
                               sweep_values=(6,), trials=10, seed=0)
        with pytest.raises(SimError):
            run_overflow_experiment(bad, t=5)

    def test_config_validation(self):
        params = derive_params(l=40, r=5, gamma_count=1, q=10, beta=12, tau_bits=5120)
        with pytest.raises(SimError):
            ExperimentConfig(params=params, sweep_name="beta", sweep_values=(), trials=10, seed=0)
        with pytest.raises(SimError):
            ExperimentConfig(params=params, sweep_name="beta", sweep_values=(5,), trials=0, seed=0)

    def test_cross_check_against_real_stack(self):
        params = derive_params(l=200, r=4, gamma_count=1, q=4, beta=50,
                               tau_bits=5120, n_bits=64)
        stat, p_value = sim.overflow_cross_check(params, t=30, trials=5, seed=14)
        assert p_value >= 0.05

    def test_cross_check_needs_disjoint_keywords(self):
        params = derive_params(l=10, r=4, gamma_count=1, q=4, beta=50,
                               tau_bits=5120, n_bits=64)
        with pytest.raises(SimError):
            sim.overflow_cross_check(params, t=30, trials=2, seed=15)


class TestAccuracyExperiment:
    def test_perfect_recall_small_system(self):
        params = derive_params(l=30, r=5, gamma_count=3, q=6, beta=64,
                               tau_bits=5120, n_bits=64)
        report = run_accuracy_experiment(params, t=40, seed=16)
        assert report.recall == 1.0
        assert report.precision > 0.9
        assert report.probes == sum(report.per_user_keywords)

    def test_empty_system(self):
        params = derive_params(l=30, r=5, gamma_count=3, q=6, beta=64,
                               tau_bits=5120, n_bits=64)
        report = run_accuracy_experiment(params, t=0, seed=17)
        assert report.probes == 0 and report.returned_matches == 0
        assert report.recall == 1.0 and report.precision == 1.0


class TestKernels:
    def test_cover_hits_against_set_containment(self):
        rng = np.random.default_rng(18)
        oe = rng.integers(0, 97, size=(50, 40), dtype=np.int64)
        layouts = rng.integers(0, 97, size=(50, 12, 4), dtype=np.int64)
        fixed = np.broadcast_to(layouts[0], layouts.shape)
        for rows in (layouts, fixed):
            expected = [
                int(any(set(row) <= set(oe[i].tolist()) for row in rows[i].tolist()))
                for i in range(50)
            ]
            assert kernels.cover_hits(oe, rows, 97).tolist() == expected
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
    cfg = ExperimentConfig(params=small_sweep_params, sweep_name="oe_count",
                           sweep_values=(4,), trials=100, seed=23)
    text = rows_to_csv(run_overlap_experiment(cfg))
    header, row = text.strip().splitlines()
    assert header == "sweep_name,sweep_value,trials,estimate,stderr,analytic,seed"
    fields = row.split(",")
    assert fields[0] == "oe_count" and fields[1] == "4" and fields[-1] == "23"
