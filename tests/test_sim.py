"""Monte Carlo experiment engine: eigen experiments, BER sweeps, determinism."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import oracles
from mimospectra import estimation, rmt, sim
from mimospectra.channel import SystemParams
from mimospectra.errors import ConfigError


def _params(**kw):
    base = dict(num_antennas=200, users_per_cell=5, num_cells=4, block_length=500,
                aoa_counts=(100,), signal_power=0.1, interference_power=0.025,
                noise_enabled=False, spacing_ratio=2.0, scenario="identical_aoas")
    base.update(kw)
    return SystemParams(**base)


class TestPowerDiagonal:
    def test_worst_case_layout(self):
        d = sim.worst_case_power_diagonal(2, 3, 0.1, 0.025)
        np.testing.assert_allclose(d, [0.1, 0.1, 0.025, 0.025, 0.025, 0.025])

    def test_single_cell_all_signal(self):
        np.testing.assert_allclose(sim.worst_case_power_diagonal(3, 1, 0.2, 0.0),
                                   [0.2, 0.2, 0.2])

    def test_two_mass_multiset(self):
        d = sim.worst_case_power_diagonal(5, 4, 0.1, 0.025)
        values, counts = np.unique(d, return_counts=True)
        np.testing.assert_allclose(values, [0.025, 0.1])
        np.testing.assert_array_equal(counts, [15, 5])


class TestEigenExperiment:
    def test_single_cell_rank(self):
        p = _params(num_cells=1, num_antennas=50, block_length=100, aoa_counts=(25,))
        res = sim.run_eigen_experiment(p, trials=4, seed=0)
        for s in res:
            assert len(s) == 5
        pooled = np.concatenate(res)
        assert pooled.max() / pooled.min() < 50  # one bulk, no split

    def test_rank_bound_all_terms(self):
        p = _params()
        res = sim.run_eigen_experiment(p, trials=3, seed=1)
        for s in res:
            assert len(s) == min(200, 500, 20)

    def test_terms_selectors(self):
        p = _params()
        sig = sim.run_eigen_experiment(p, 2, 2, terms="signal")
        intf = sim.run_eigen_experiment(p, 2, 2, terms="interference")
        assert all(len(s) == 5 for s in sig)
        assert all(len(s) == 15 for s in intf)
        with pytest.raises(ConfigError):
            sim.run_eigen_experiment(p, 1, 0, terms="bogus")
        with pytest.raises(ConfigError):
            sim.overlays(p, "bogus")

    def test_seed_determinism(self):
        p = _params()
        a = sim.run_eigen_experiment(p, 5, 7)
        b = sim.run_eigen_experiment(p, 5, 7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_support_containment_invariant(self):
        p = _params()
        res = sim.run_eigen_experiment(p, trials=10, seed=3)
        supports = sim.overlays(p, "all")
        assert "double_sided" in supports
        pooled = np.concatenate(res)
        inside = oracles.contains(supports["double_sided"], pooled, slack=0.05)
        assert inside.mean() >= 0.99

    def test_two_bulk_structure_desk_scale(self):
        p = _params()
        res = sim.run_eigen_experiment(p, trials=10, seed=4)
        pooled = np.sort(np.concatenate(res))
        per_trial = 20
        lows = np.concatenate([np.sort(s)[:15] for s in res])
        highs = np.concatenate([np.sort(s)[15:] for s in res])
        assert lows.max() < highs.min()  # separated clusters
        # desk-scale ratios skew the bulks further below their centers than
        # the full-size run (checked at 10% in the acceptance suite)
        n = p.block_length
        assert abs(np.mean(highs) - n * 0.1) / (n * 0.1) < 0.2
        assert abs(np.mean(lows) - n * 0.025) / (n * 0.025) < 0.2

    def test_distinct_widening(self):
        base = dict(num_antennas=200, users_per_cell=5, num_cells=4,
                    block_length=500, signal_power=0.1, interference_power=0.025,
                    noise_enabled=False, scenario="distinct_aoas")
        equal = SystemParams(aoa_counts=(100, 100, 100, 100), **base)
        with pytest.warns(UserWarning, match="K << P"):
            skew = SystemParams(aoa_counts=(100, 100, 100, 10), **base)
        res_e = sim.run_eigen_experiment(equal, 10, 5)
        res_s = sim.run_eigen_experiment(skew, 10, 5)

        def intf_width(res):
            return np.array([np.ptp(np.sort(s)[:15]) for s in res])

        assert intf_width(res_s).mean() > intf_width(res_e).mean()

    @pytest.mark.parametrize("scenario,counts", [("identical_aoas", (100,)),
                                                 ("distinct_aoas", (40, 40, 50, 50))])
    def test_closed_form_gram_matches_direct_path(self, scenario, counts):
        # noiseless samples from the closed-form steering Gram against the
        # same blocks' eigenvalues through the built composite
        p = _params(scenario=scenario, aoa_counts=counts, users_per_cell=4)
        for t in range(5):
            channel, amp, x = _noiseless_block(p, sim.trial_rng(9, t))
            got = sim._product_eigs(channel, slice(None), _chol_factor(amp, x))
            h, x = channel.composite, amp[:, None] * x
            want = np.sort(np.linalg.eigvals(
                (h.conj().T @ h / p.num_antennas) @ (x @ x.conj().T)).real)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_noisy_path_uses_full_spectrum(self):
        p = _params(noise_enabled=True, num_antennas=50, block_length=80,
                    aoa_counts=(25,))
        res = sim.run_eigen_experiment(p, 1, 6)
        # noise lifts the rank: all min(M, N) eigenvalues are nonzero
        assert len(res[0]) == 50


def _noiseless_block(p, rng):
    """The channel, sqrt(powers) and K*L x N CN(0,1) symbols of a noiseless
    ``sim.draw_block``, drawn in its order: the channel, then the symbols."""
    channel = sim.realize_channel(p, rng)
    x = sim.crandn(rng, p.users_per_cell * p.num_cells, p.block_length)
    amp = np.sqrt(sim.worst_case_power_diagonal(p.users_per_cell, p.num_cells,
                                                p.signal_power, p.interference_power))
    return channel, amp, x


def _product_eigs_reference(channel, amp, x):
    """Nonzero eigenvalues of (H^H H / M)(X X^H), X scaled by ``amp``, from
    the general eigen solve."""
    m = channel.params.num_antennas
    scaled = amp[:, None] * x
    lam = np.linalg.eigvals(channel.gram(slice(None)) / m
                            @ (scaled @ scaled.conj().T))
    lam = np.sort(lam.real)
    return lam[lam > sim.NONZERO_EIG_RTOL * lam.max()]


def _chol_factor(amp, x):
    """diag(sqrt(p)) chol(X X^H) of a drawn block: a factor of its scaled
    symbol Gram."""
    return amp[:, None] * np.linalg.cholesky(x @ x.conj().T)


class TestHermitianProductSolve:
    """The Hermitian solve F^H (H^H H / M) F of the noiseless product."""

    FIG = dict(users_per_cell=5, num_cells=4, block_length=1000, signal_power=0.1,
               interference_power=10.0 ** -1.6)

    @pytest.mark.parametrize("shape", [
        dict(num_antennas=400, aoa_counts=(200,)),                        # fig3
        dict(num_antennas=600, aoa_counts=(100,)),                        # fig4, physical
        dict(num_antennas=100, scenario="iid"),                           # fig4, i.d.
        dict(num_antennas=400, aoa_counts=(200,) * 4, scenario="distinct_aoas"),  # fig5
    ])
    def test_matches_general_eigen_solve_on_figure_shapes(self, shape):
        p = _params(**self.FIG, **shape)
        for t in range(3):
            channel, amp, x = _noiseless_block(p, sim.trial_rng(21, t))
            got = sim._product_eigs(channel, slice(None), _chol_factor(amp, x))
            want = _product_eigs_reference(channel, amp, x)
            assert got.shape == want.shape == (20,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestDrawBlock:
    """The received block is the noise array with the product added into it
    in place: bitwise the product plus the noise, drawn in the same order."""

    # (scenario, M, N, K, L) of every block the presets and the benchmark
    # build (fig7 200-600 x 400, intro 100 x 400 with two cells, fig9 200 or
    # 400 x N), then small, short and tall ones
    SHAPES = [("identical_aoas", 200, 400, 5, 4), ("identical_aoas", 400, 400, 5, 4),
              ("identical_aoas", 600, 400, 5, 4), ("identical_aoas", 100, 400, 5, 2),
              ("iid", 200, 30, 15, 4), ("iid", 200, 60, 15, 4), ("iid", 200, 120, 15, 4),
              ("iid", 400, 30, 15, 4), ("iid", 400, 60, 15, 4), ("iid", 400, 120, 15, 4),
              ("iid", 8, 12, 2, 2), ("iid", 50, 20, 3, 4), ("iid", 100, 15, 3, 4),
              ("identical_aoas", 30, 200, 5, 4)]

    @staticmethod
    def _draw(scenario, m, n, k, l, cols=slice(None)):
        """draw_block's (Y, X[cols]) and the same block formed as the
        product plus the noise, from an identically seeded generator."""
        p = _params(scenario=scenario, num_antennas=m, block_length=n, users_per_cell=k,
                    num_cells=l, aoa_counts=() if scenario == "iid" else (25,),
                    noise_enabled=True)
        amp = np.sqrt(np.random.default_rng(1).uniform(0.1, 2.0, k * l))[cols]

        def symbols(rng):
            return sim.crandn(rng, k * l, n)

        got = sim.draw_block(p, np.random.default_rng(7), symbols, amp, cols)
        rng = np.random.default_rng(7)
        h, x = sim.realize_channel(p, rng).composite, symbols(rng)
        w = sim.crandn(rng, m, n)
        return got, (h[:, cols] @ (amp[:, None] * x[cols]) + w, x[cols])

    @pytest.mark.parametrize("bundled", [True, False])
    @pytest.mark.parametrize("scenario,m,n,k,l", SHAPES)
    def test_equals_product_plus_noise(self, scenario, m, n, k, l, bundled, monkeypatch):
        if not bundled:
            monkeypatch.setattr(estimation, "bundled_openblas", lambda: None)
        (y, x), (y_ref, x_ref) = self._draw(scenario, m, n, k, l)
        assert y.shape == (m, n) and y.tobytes() == y_ref.tobytes()
        assert x.tobytes() == x_ref.tobytes()

    @pytest.mark.parametrize("cols", [slice(0, 5), slice(5, 20)])
    def test_kept_users_equal_product_plus_noise(self, cols):
        (y, x), (y_ref, x_ref) = self._draw("identical_aoas", 200, 400, 5, 4, cols)
        assert y.tobytes() == y_ref.tobytes() and x.tobytes() == x_ref.tobytes()

    def test_holds_one_block_beside_the_received_one(self, traced_peak):
        # the benchmark's fig7 block: 200 x 400, K = 5, L = 4, P = 100, -5 dB SNR
        p = _params(num_antennas=200, block_length=400, spacing_ratio=0.5,
                    noise_enabled=True, signal_power=1.0, interference_power=1.0)
        layout = estimation.PilotLayout(num_users=5, block_length=400)
        p_s = sim.db_to_linear(-5.0)
        amp = np.sqrt(sim.worst_case_power_diagonal(5, 4, p_s, sim.db_to_linear(-6.0) * p_s))

        def symbols(rng):
            return np.vstack([layout.assemble(layout.data_block(rng)) for _ in range(4)])

        peak = traced_peak(lambda: sim.draw_block(p, sim.trial_rng(1234, (0, 0)), symbols, amp))
        # forming the product beside the noise and adding them held 2.28 blocks
        assert peak < 2.0 * 200 * 400 * np.dtype(complex).itemsize


class TestBartlettFactor:
    """L L^H from ``sim.bartlett_factor`` against the moments of X X^H for a
    size x dof CN(0,1) matrix X, a complex Wishart CW_size(dof, I)."""

    SIZE, DOF, DRAWS = 6, 10, 20_000
    # over 200 seeds of the trial comparison the smallest per-rank KS p-value
    # was 1.9e-4; with Gamma(N - i - 1) on the diagonal it was at most 1e-31
    KS_PMIN = 1e-6

    @pytest.fixture(scope="class")
    def grams(self):
        rng = np.random.default_rng(17)
        low = np.stack([sim.bartlett_factor(rng, self.SIZE, self.DOF)
                        for _ in range(self.DRAWS)])
        assert np.all(np.triu(low, 1) == 0)
        diag = np.diagonal(low, axis1=1, axis2=2)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)
        return low @ low.conj().transpose(0, 2, 1)

    def _within_5_se(self, samples, want):
        # samples: draws along axis 0; bound: 5 standard errors of their mean
        se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0) - want) < 5 * se)

    def test_mean_is_dof_times_identity(self, grams):
        off = ~np.eye(self.SIZE, dtype=bool)
        self._within_5_se(grams.real, self.DOF * np.eye(self.SIZE))
        self._within_5_se(grams.imag[:, off], 0.0)  # the diagonal is real

    def test_off_diagonal_second_moment_is_dof(self, grams):
        off = ~np.eye(self.SIZE, dtype=bool)
        self._within_5_se(np.abs(grams[:, off]) ** 2, self.DOF)

    def test_diagonal_variance_is_dof(self, grams):
        diag = np.diagonal(grams, axis1=1, axis2=2).real
        self._within_5_se((diag - diag.mean(axis=0)) ** 2 * self.DRAWS / (self.DRAWS - 1),
                          self.DOF)

    def test_trial_matches_direct_symbol_path(self):
        # Bartlett trials against trials drawn as draw_block draws them (C x N
        # symbols, general eigen solve): one two-sample KS test per eigenvalue
        # rank, whose values are independent across trials
        from scipy.stats import ks_2samp
        p = _params(num_antennas=16, users_per_cell=2, num_cells=2, block_length=8,
                    aoa_counts=(12,))
        trials = 2000
        new = np.array(sim.run_eigen_experiment(p, trials, 3))
        direct = np.array([_product_eigs_reference(
            *_noiseless_block(p, sim.trial_rng(1003, t))) for t in range(trials)])
        assert new.shape == direct.shape == (trials, 4)
        pvalues = [ks_2samp(new[:, j], direct[:, j]).pvalue for j in range(4)]
        assert min(pvalues) > self.KS_PMIN, pvalues


class TestSupportOverlays:
    def test_noise_enabled_attaches_none(self):
        # the laws are noiseless; a noise bulk would sit outside them
        p = _params(noise_enabled=True, num_antennas=50, block_length=80,
                    aoa_counts=(25,))
        with pytest.warns(UserWarning, match="could not attach.*noise enabled"):
            supports = sim.overlays(p, "all")
        assert supports == {}

    def test_unequal_interferer_counts_say_so(self):
        # fig6 layout: the distinct interference law needs one shared count
        p = _params(scenario="distinct_aoas", aoa_counts=(100, 100, 100, 20))
        with pytest.warns(UserWarning,
                          match="could not attach distinct_interference.*unequal"):
            supports = sim.overlays(p, "all")
        assert set(supports) == {"one_sided_signal"}


class TestSaturationExperiment:
    def test_requires_enough_antennas(self):
        with pytest.raises(ConfigError):
            sim.run_saturation_experiment(100, 50, _params(), 2, 0)

    def test_negative_control_same_m(self):
        # P = M_physical: steering structure at aspect 1 is not i.d.; the
        # KS statistic is recorded with no pass bound
        from scipy.stats import ks_2samp
        p = _params(num_antennas=100, block_length=300, aoa_counts=(50,))
        phys, iid = sim.run_saturation_experiment(100, 100, p, 40, 0)
        ks = ks_2samp(np.concatenate(phys), np.concatenate(iid)).statistic
        assert 0.0 <= ks <= 1.0

    def test_pools_have_expected_sizes(self, monkeypatch):
        p = _params(num_antennas=100, block_length=300, aoa_counts=(50,))
        runs = []
        run = sim.run_eigen_experiment
        monkeypatch.setattr(sim, "run_eigen_experiment",
                            lambda q, *a, **kw: runs.append(q) or run(q, *a, **kw))
        phys, iid = sim.run_saturation_experiment(60, 120, p, 10, 1)
        assert np.concatenate(phys).size == 10 * 20
        assert np.concatenate(iid).size == 10 * 20
        assert runs[0].num_antennas == 120
        assert runs[1].num_antennas == 60


class TestBerExperiment:
    def test_interference_free_high_snr(self):
        # matched filtering leaves cross-user leakage ~ sqrt(1/P + 1/M); the
        # sub-1e-3 sanity bound needs the rich-scattering channel
        p = SystemParams(num_antennas=128, users_per_cell=5, num_cells=1,
                         block_length=200,
                         signal_power=sim.db_to_linear(20.0),
                         interference_power=0.0, noise_enabled=True,
                         scenario="iid")
        res = sim.run_ber_experiment(p, [-300.0], bits_target=10_000, seed=0)
        assert res["subspace"][0].ber < 1e-3
        assert res["pilot"][0].ber < 1e-3

    def test_ber_range_and_ci_shape(self):
        p = _params(noise_enabled=True, signal_power=0.3,
                    num_antennas=64, block_length=120, aoa_counts=(40,))
        res = sim.run_ber_experiment(p, [-9.0, -3.0], bits_target=20_000, seed=1)
        for scheme in ("subspace", "pilot"):
            for pt in res[scheme]:
                assert 0.0 <= pt.ci_lo <= pt.ber <= pt.ci_hi
                assert pt.ber <= 0.55
                assert pt.bits >= 20_000

    def test_seed_determinism(self):
        p = _params(noise_enabled=True, signal_power=0.3, num_antennas=64,
                    block_length=120, aoa_counts=(40,))
        a = sim.run_ber_experiment(p, [-6.0], bits_target=15_000, seed=5)
        b = sim.run_ber_experiment(p, [-6.0], bits_target=15_000, seed=5)
        assert a["subspace"][0].ber == b["subspace"][0].ber
        assert a["pilot"][0].ber == b["pilot"][0].ber

    def test_ci_meta_coverage(self):
        # 20 independent runs of a cheap config: each run's 95% CI should
        # cover the grand mean at roughly the nominal rate
        p = _params(noise_enabled=True, signal_power=0.3, num_antennas=48,
                    block_length=150, aoa_counts=(24,))
        runs = [sim.run_ber_experiment(p, [-6.0], bits_target=30_000, seed=100 + i)
                for i in range(20)]
        bers = np.array([r["subspace"][0].ber for r in runs])
        grand = bers.mean()
        covered = sum(r["subspace"][0].ci_lo <= grand
                      <= r["subspace"][0].ci_hi for r in runs)
        assert covered >= 16

    def test_ci_shrinks_with_bits(self):
        p = _params(noise_enabled=True, signal_power=0.3, num_antennas=48,
                    block_length=150, aoa_counts=(24,))
        small = sim.run_ber_experiment(p, [-6.0], bits_target=15_000, seed=2)
        large = sim.run_ber_experiment(p, [-6.0], bits_target=120_000, seed=2)
        width = lambda r: r[0].ci_hi - r[0].ci_lo
        assert width(large["subspace"]) < width(small["subspace"])


class TestDistinctAndShortCoherence:
    def test_p4_family_matches_direct_run_within_ci(self):
        base = SystemParams(num_antennas=100, users_per_cell=5, num_cells=4,
                            block_length=200, aoa_counts=(50, 50, 50, 50),
                            signal_power=0.3, interference_power=0.03,
                            noise_enabled=True, scenario="distinct_aoas")
        fam = sim.run_distinct_aoa_ber(base, [25, 50], [-9.0], 15_000, seed=3)
        assert set(fam) == {25, 50}
        # p4 equal to the shared count reproduces the plain distinct run
        # within CI (independent seeds, same distribution)
        direct = sim.run_ber_experiment(base, [-9.0], 15_000, seed=4)
        p50 = fam[50]["subspace"][0]
        ref = direct["subspace"][0]
        lo = min(p50.ci_lo, ref.ci_lo) - 1e-9
        hi = max(p50.ci_hi, ref.ci_hi) + 1e-9
        assert lo <= p50.ber <= hi and lo <= ref.ber <= hi

    def test_requires_distinct_scenario(self):
        with pytest.raises(ConfigError):
            sim.run_distinct_aoa_ber(_params(), [10], [-9.0], 10_000, 0)

    def test_short_coherence_runs_iid(self):
        base = SystemParams(num_antennas=100, users_per_cell=15, num_cells=4,
                            block_length=120, signal_power=1.0, interference_power=1.0,
                            noise_enabled=True, scenario="iid")
        fam = sim.run_short_coherence_ber(base, [30, 60], ratios_db=[-9.0],
                                          bits_target=15_000, seed=5)
        assert set(fam) == {30, 60}
        for n, res in fam.items():
            for scheme in ("subspace", "pilot"):
                assert 0.0 <= res[scheme][0].ber <= 0.55


class TestSaturationShapeBattery:
    def test_ber_monotone_in_antennas_with_saturation(self):
        # subspace BER nonincreasing in M with diminishing returns
        bers = []
        for m in (100, 200, 400):
            p = SystemParams(num_antennas=m, users_per_cell=5, num_cells=4,
                             block_length=400, aoa_counts=(50,),
                             signal_power=sim.db_to_linear(-5.0),
                             interference_power=0.0, noise_enabled=True,
                             spacing_ratio=0.5, scenario="identical_aoas")
            res = sim.run_ber_experiment(p, [-9.0], bits_target=200_000, seed=9)
            bers.append(res["subspace"][0].ber)
        assert bers[0] >= bers[1] >= bers[2]
        assert (bers[1] - bers[2]) < (bers[0] - bers[1])


def _cpus(monkeypatch, n):
    """Let the trial map see n usable CPUs."""
    monkeypatch.setattr(sim, "_usable_cpus", lambda: n)


class TestUsableCpus:
    def test_affinity_set(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity call on this platform")
        assert sim._usable_cpus() == len(os.sched_getaffinity(0))

    def test_every_cpu_without_affinity(self, monkeypatch):
        monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 6)
        assert sim._usable_cpus() == 6
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        assert sim._usable_cpus() == 1


@pytest.fixture
def blas_threads():
    """Getter of numpy's OpenBLAS thread count, set to 2 for the test and
    restored after; None where that library is not found."""
    openblas = estimation.bundled_openblas()
    if openblas is None:
        yield None
        return
    before = openblas.scipy_openblas_get_num_threads64_()
    openblas.scipy_openblas_set_num_threads64_(2)
    yield openblas.scipy_openblas_get_num_threads64_
    openblas.scipy_openblas_set_num_threads64_(before)


class TestBlasThreads:
    """Trials run with one BLAS thread, in every thread of the map; the
    caller's count comes back after."""

    @pytest.fixture
    def controls(self, blas_threads):
        if blas_threads is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        return blas_threads

    def test_one_thread_inside_restored_after(self, controls):
        seen = sim._map_trials(lambda t: controls(), 3)
        assert seen == [1] * 3
        assert controls() == 2

    def test_one_thread_in_helpers(self, controls, monkeypatch):
        # every trial waits for the other two, so each runs on its own thread
        _cpus(monkeypatch, 4)
        barrier = threading.Barrier(3)

        def trial(t):
            barrier.wait(timeout=30)
            return threading.get_ident(), controls()

        seen = sim._map_trials(trial, 3)
        assert len({ident for ident, _ in seen}) == 3
        assert [count for _, count in seen] == [1] * 3
        assert controls() == 2

    def test_restored_after_a_trial_raises(self, controls, monkeypatch):
        # the lowest-numbered failure is raised once every helper is joined
        _cpus(monkeypatch, 4)
        threads_before = threading.active_count()

        def trial(t):
            if t == 1:
                time.sleep(0.05)  # let trial 3 fail first
            if t in (1, 3):
                raise RuntimeError(f"trial {t} failed")
            return t

        with pytest.raises(RuntimeError, match="^trial 1 failed$"):
            sim._map_trials(trial, 6)
        assert controls() == 2
        assert threading.active_count() == threads_before

    def test_helper_that_cannot_start(self, controls, monkeypatch):
        # the first helper runs; the second cannot start, so the first takes
        # no further trials and is joined before the start error leaves
        _cpus(monkeypatch, 4)
        threads_before = threading.active_count()
        start = threading.Thread.start
        starts = []
        ran = []

        def failing_start(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        def trial(t):
            ran.append((t, controls()))
            time.sleep(0.02)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            sim._map_trials(trial, 100)
        assert threading.active_count() == threads_before
        assert controls() == 2
        taken = len(ran)
        assert 1 <= taken < 100
        assert {count for _, count in ran} == {1}
        time.sleep(0.05)
        assert len(ran) == taken


class TestParallelTrials:
    """BER blocks give, on any number of CPUs, exactly the results of one CPU;
    eigen trials run on the calling thread; helper threads run under the
    caller's numpy error state."""

    def test_ber_matches_one_cpu(self, monkeypatch):
        p = _params(noise_enabled=True, signal_power=0.3, num_antennas=48,
                    block_length=60, aoa_counts=(24,))
        runs = []
        for cpus in (1, 4):
            _cpus(monkeypatch, cpus)
            runs.append(sim.run_ber_experiment(p, [-6.0, 0.0], bits_target=3000, seed=5))
        assert runs[0] == runs[1]
        assert all(len(pts) == 2 for pts in runs[0].values())

    @pytest.mark.parametrize("noise", [False, True])
    def test_eigen_trials_stay_on_calling_thread(self, monkeypatch, noise, blas_threads):
        # and each runs with one BLAS thread, where numpy's OpenBLAS is found
        _cpus(monkeypatch, 4)
        threads, counts = [], []
        rng = sim.trial_rng

        def traced_rng(*key):
            threads.append(threading.get_ident())
            counts.append(blas_threads() if blas_threads else 1)
            return rng(*key)

        monkeypatch.setattr(sim, "trial_rng", traced_rng)
        p = _params(noise_enabled=noise, num_antennas=50, block_length=80, aoa_counts=(25,))
        assert len(sim.run_eigen_experiment(p, trials=6, seed=3)) == 6
        assert threads == [threading.get_ident()] * 6
        assert counts == [1] * 6
        assert blas_threads is None or blas_threads() == 2

    def test_helpers_keep_callers_errstate(self, monkeypatch):
        _cpus(monkeypatch, 4)
        barrier = threading.Barrier(3)

        def trial(t):
            barrier.wait(timeout=30)
            with pytest.raises(FloatingPointError):
                np.float64(1.0) / np.float64(0.0)
            return threading.get_ident()

        with np.errstate(divide="raise"):
            assert len(set(sim._map_trials(trial, 3))) == 3

    def test_each_trial_runs_once_under_contention(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter allows
        _cpus(monkeypatch, 8)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = sim._map_trials(lambda t: calls.append(t) or t * t, 400)
        finally:
            sys.setswitchinterval(interval)
        assert out == [t * t for t in range(400)]
        assert sorted(calls) == list(range(400))


class TestOneMapPerFamily:
    """A BER family's blocks, over all its ratio points, go through one trial
    map; errors still surface as if the points ran one after another."""

    P = dict(noise_enabled=True, signal_power=0.3, num_antennas=48, block_length=60,
             aoa_counts=(24,))

    def test_one_map_call_for_every_block(self, monkeypatch):
        calls = []
        map_trials = sim._map_trials
        monkeypatch.setattr(sim, "_map_trials",
                            lambda fn, n: calls.append(n) or map_trials(fn, n))
        p = _params(**self.P)
        res = sim.run_ber_experiment(p, [-6.0, 0.0, 3.0], bits_target=3000, seed=5)
        layout = estimation.PilotLayout(num_users=p.users_per_cell,
                                        block_length=p.block_length)
        n_blocks = int(np.ceil(3000 / (2 * p.users_per_cell * layout.num_data)))
        assert n_blocks > 2
        assert calls == [3 * n_blocks]
        assert [pt.sweep_value for pt in res["pilot"]] == [-6.0, 0.0, 3.0]

    def test_points_share_the_family_params(self, monkeypatch):
        # K / P = 5 / 24 > 0.2: building the params warns once, and the ratio
        # points, which change only the blocks' amplitudes, build none
        p = _params(**self.P)
        built = []
        post_init = SystemParams.__post_init__
        monkeypatch.setattr(SystemParams, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim.run_ber_experiment(p, [-6.0, 0.0, 3.0], bits_target=100, seed=5)
        assert built == []
        assert not [w for w in caught if "K << P" in str(w.message)]

    def test_lowest_failing_block_raises(self, monkeypatch, blas_threads):
        # block (2, 1) fails first, then block (1, 0); the map raises (1, 0)'s
        # error, as a point-by-point sweep would, with every helper joined
        _cpus(monkeypatch, 4)
        threads_before = threading.active_count()
        later_failed = threading.Event()
        rng = sim.trial_rng

        def failing_rng(seed, key):
            if key == (2, 1):
                later_failed.set()
                raise RuntimeError("block (2, 1) failed")
            if key == (1, 0):
                assert later_failed.wait(timeout=30)
                raise RuntimeError("block (1, 0) failed")
            return rng(seed, key)

        monkeypatch.setattr(sim, "trial_rng", failing_rng)
        with pytest.raises(RuntimeError, match=r"^block \(1, 0\) failed$"):
            # 100 bits fit in one block, so each point runs the minimum of two
            sim.run_ber_experiment(_params(**self.P), [-6.0, 0.0, 3.0],
                                   bits_target=100, seed=5)
        assert threading.active_count() == threads_before
        assert blas_threads is None or blas_threads() == 2
