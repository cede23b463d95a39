"""Channel model: steering geometry, AoA draws, realizations, received blocks
(assembled by ``sim.draw_block``)."""

import math
import warnings

import numpy as np
import pytest

from conftest import crandn as crandn_reference
from mimospectra.channel import (
    SystemParams,
    build_steering_matrix,
    crandn,
    draw_aoa_set,
    realize_channel,
    steering_gram,
)
from mimospectra.errors import ConfigError
from mimospectra.sim import draw_block, worst_case_power_diagonal


def _steering(ch):
    """Each AoA set's M x P_i steering matrix, as the composite builds it."""
    return [build_steering_matrix(a, ch.params.num_antennas, ch.params.spacing_ratio)
            for a in ch.aoas]


def _params(**kw):
    base = dict(num_antennas=100, users_per_cell=5, num_cells=4, block_length=400,
                aoa_counts=(50,), signal_power=0.1, interference_power=0.025,
                noise_enabled=False, spacing_ratio=2.0, scenario="identical_aoas")
    base.update(kw)
    return SystemParams(**base)


def _column(angle, num_antennas, spacing):
    """One steering column; with P = 1 it is the unscaled array response."""
    return build_steering_matrix(np.array([angle]), num_antennas, spacing)[:, 0]


class TestSteeringVector:
    def test_broadside_all_ones(self):
        v = _column(np.pi / 2, 4, 0.5)
        np.testing.assert_allclose(v, np.ones(4), atol=1e-12)

    def test_endfire_alternating(self):
        v = _column(0.0, 2, 0.5)
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-12)

    def test_unit_modulus_and_norm(self):
        v = _column(1.0, 8, 2.0)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(np.sqrt(8))

    def test_phase_formula(self):
        # entry m is exp(-j*2*pi*(d/lambda)*m*cos(angle)), m = 0..M-1
        v = _column(0.7, 6, 1.5)
        want = np.exp(-2j * np.pi * 1.5 * np.arange(6) * np.cos(0.7))
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-12)

    def test_angle_domain_error(self):
        with pytest.raises(ConfigError):
            _column(-0.1, 4, 0.5)
        with pytest.raises(ConfigError):
            _column(np.pi + 0.1, 4, 0.5)

    def test_norm_for_random_angles_and_spacings(self, rng):
        for _ in range(50):
            angle = rng.uniform(0, np.pi)
            m = int(rng.integers(1, 64))
            sp = rng.uniform(0.1, 4.0)
            v = _column(angle, m, sp)
            assert np.linalg.norm(v) == pytest.approx(np.sqrt(m), rel=1e-12)


class TestSteeringGram:
    """The closed-form S_i^H S_j against the product of the built matrices."""

    @staticmethod
    def _rel_err(a, b, m, spacing):
        got = steering_gram(a, b, m, spacing)
        want = build_steering_matrix(a, m, spacing).conj().T @ build_steering_matrix(
            b, m, spacing)
        return np.abs(got - want).max() / np.abs(want).max()

    @pytest.mark.parametrize("m", [200, 600, 10_000])
    @pytest.mark.parametrize("spacing", [0.5, 2.0])
    def test_matches_direct_product(self, m, spacing, rng):
        a = rng.uniform(0, np.pi, 40)
        a[1] = a[0] + 1e-9          # a nearly coincident pair
        a[2] = a[0]                 # a repeated angle: sin(pi*delta) = 0
        a[3:5] = np.pi / 3, np.pi / 2   # delta ~ 1 at d/lambda = 2 (grating lobe)
        b = rng.uniform(0, np.pi, 25)
        b[0] = a[0] - 1e-9
        assert self._rel_err(a, a, m, spacing) <= 1e-10   # within a cell
        assert self._rel_err(a, b, m, spacing) <= 1e-10   # across cells

    @pytest.mark.parametrize("m", [200, 600, 10_000])
    @pytest.mark.parametrize("spacing", [0.5, 2.0])
    def test_pairs_either_side_of_the_cancellation_switch(self, m, spacing):
        # partners of an anchor angle at delta = base -+ eps for base 0 and 1
        # (at d/lambda = 0.5 only 1 - eps is reachable), so |sin(pi*delta)|
        # falls on both sides of the 1e-3 below which the kernel switches to
        # the reduced delta
        anchors = {0.0: 0.3, 1.0: 1.0 if spacing == 0.5 else 0.6}  # base -> cos(anchor)
        angles = []
        for base, c0 in anchors.items():
            angles.append(np.arccos(c0))
            for eps in (1e-7, 1e-5, 1e-4, 2e-3):
                for sign in (-1.0, 1.0):
                    c = c0 - (base + sign * eps) / spacing
                    if -1.0 <= c <= 1.0:
                        angles.append(np.arccos(c))
        a = np.array(angles)
        assert a.size == (18 if spacing == 2.0 else 14)
        assert self._rel_err(a, a, m, spacing) <= 1e-10
        assert self._rel_err(a[:1], a, m, spacing) <= 1e-10
        assert self._rel_err(a[9:], a, m, spacing) <= 1e-10

    def test_angle_domain_error(self):
        with pytest.raises(ConfigError):
            steering_gram(np.array([0.5]), np.array([4.0]), 8, 0.5)
        with pytest.raises(ConfigError):
            steering_gram(np.array([]), np.array([0.5]), 8, 0.5)


class TestDrawAoaSet:
    def test_mean_at_large_samples(self):
        a = draw_aoa_set(10 ** 5, 7)
        assert abs(a.mean() - np.pi / 2) < 0.01

    def test_deterministic(self):
        a = draw_aoa_set(5, 123)
        b = draw_aoa_set(5, 123)
        np.testing.assert_array_equal(a, b)

    def test_range(self):
        a = draw_aoa_set(3, 99)
        assert np.all((a >= 0) & (a <= np.pi))


class TestBuildSteeringMatrix:
    def test_single_broadside_column(self):
        s = build_steering_matrix(np.array([np.pi / 2]), 3, 0.5)
        np.testing.assert_allclose(s[:, 0], np.ones(3), atol=1e-12)
        assert np.linalg.norm(s, "fro") ** 2 == pytest.approx(3.0)

    def test_frobenius_norm(self, rng):
        s = build_steering_matrix(rng.uniform(0, np.pi, 50), 100, 2.0)
        assert np.linalg.norm(s, "fro") ** 2 == pytest.approx(100.0, abs=1e-10)

    def test_gram_eigenvalue_regression_bound(self):
        # frozen from a 100-seed sweep at M=400, P=200, d/lambda=2: the
        # largest Gram eigenvalue observed was 22.40 (steering spectra have a
        # heavier upper tail than an iid matrix of the same variance)
        worst = 0.0
        for seed in range(100):
            g = np.random.default_rng(seed)
            s = build_steering_matrix(g.uniform(0, np.pi, 200), 400, 2.0)
            lam = np.linalg.eigvalsh(s.conj().T @ s)
            assert lam.min() > -1e-12
            worst = max(worst, lam.max())
        assert worst < 25.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            build_steering_matrix(np.array([]), 4, 0.5)

    @pytest.mark.parametrize("m, p", [(1, 1), (3, 2), (401, 37), (400, 200), (600, 100)])
    def test_in_place_scale_is_the_division(self, m, p, rng):
        # bitwise the phase-table product divided by sqrt(P), rebuilt here
        aoas = rng.uniform(0, np.pi, p)
        b = math.isqrt(max(m - 1, 0)) + 1
        q = -(-m // b)
        theta = -2.0 * np.pi * 2.0 * np.cos(aoas)
        coarse = np.exp(1j * (b * np.arange(q))[:, None] * theta)
        fine = np.exp(1j * np.arange(b)[:, None] * theta)
        want = (coarse[:, None, :] * fine[None, :, :]).reshape(q * b, p)[:m] / np.sqrt(p)
        got = build_steering_matrix(aoas, m, 2.0)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _direct(aoas, m, spacing):
        """The unscaled array response from one exponential per entry."""
        return np.exp(-2j * np.pi * spacing * np.arange(m)[:, None] * np.cos(aoas)[None, :])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double on this platform")
    @pytest.mark.parametrize("m", [400, 10_000, 100_000])
    def test_phase_tables_against_long_double_phases(self, m, rng):
        # reference phases in long double, reduced to [-pi, pi] before the
        # double exponential; the bound is one ulp-scale error of the largest
        # phase 2 pi (d/lambda) M, which the direct exponential can exceed
        aoas = rng.uniform(0, np.pi, 8)
        spacing = 2.0
        ld = np.longdouble
        two_pi = 8 * np.arctan(ld(1))
        phase = (-two_pi * ld(spacing)) * np.arange(m, dtype=ld)[:, None] \
            * np.cos(aoas.astype(ld))[None, :]
        phase -= two_pi * np.rint(phase / two_pi)
        want = np.exp(1j * phase.astype(float))
        got = build_steering_matrix(aoas, m, spacing) * np.sqrt(aoas.size)
        err = np.abs(got - want).max()
        assert err <= np.finfo(float).eps * 2 * np.pi * spacing * m
        assert err <= np.abs(self._direct(aoas, m, spacing) - want).max()

    @pytest.mark.parametrize("m", [1, 2, 7, 401])
    def test_phase_tables_when_m_is_not_a_multiple_of_the_block(self, m, rng):
        aoas = rng.uniform(0, np.pi, 5)
        got = build_steering_matrix(aoas, m, 1.5)
        assert got.shape == (m, 5)
        np.testing.assert_allclose(got * np.sqrt(5), self._direct(aoas, m, 1.5),
                                   rtol=0, atol=1e-12)


def test_crandn_bit_identical_to_the_complex_expression():
    got = crandn(np.random.default_rng(3), 20, 1000)
    want = crandn_reference(np.random.default_rng(3), 20, 1000)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestRealizeChannel:
    def test_iid_shape_and_no_factors(self):
        p = _params(scenario="iid", num_antennas=4, users_per_cell=2, num_cells=2,
                    block_length=16, aoa_counts=())
        ch = realize_channel(p, 0)
        assert ch.composite.shape == (4, 4)
        assert _steering(ch) == [] and ch.fading == []

    def test_column_energy_unit_mean(self):
        # E ||h_k||^2 / M = 1 follows from the 1/sqrt(P) steering scaling
        p = _params(num_antennas=400, aoa_counts=(200,))
        acc = np.zeros(p.users_per_cell * p.num_cells)
        n_real = 1000
        for t in range(n_real):
            ch = realize_channel(p, (1000, t))
            acc += (np.abs(ch.composite) ** 2).sum(axis=0) / p.num_antennas
        mean = acc / n_real
        assert np.all(np.abs(mean - 1.0) < 0.02)

    def test_identical_shares_steering(self):
        # the shared AoA set is kept once and steers every cell's columns
        ch = realize_channel(_params(), 5)
        steering = _steering(ch)
        assert len(ch.aoas) == len(steering) == 1
        k = ch.params.users_per_cell
        for cell, f in enumerate(ch.fading):
            np.testing.assert_array_equal(ch.composite[:, cell * k:(cell + 1) * k],
                                          steering[0] @ f)

    def test_distinct_draws_independent_sets(self):
        with pytest.warns(UserWarning, match="K << P"):
            p = _params(scenario="distinct_aoas", aoa_counts=(50, 50, 50, 20))
        ch = realize_channel(p, 5)
        steering = _steering(ch)
        assert steering[3].shape == (100, 20)
        assert not np.array_equal(steering[0], steering[1])
        k = ch.params.users_per_cell
        for cell, (s, f) in enumerate(zip(steering, ch.fading)):
            np.testing.assert_array_equal(ch.composite[:, cell * k:(cell + 1) * k], s @ f)

    @pytest.mark.parametrize("scenario,counts", [
        ("identical_aoas", (50,)), ("distinct_aoas", (20, 20, 25, 25)),
        ("distinct_aoas", (50, 50, 50, 50)), ("iid", ())])
    @pytest.mark.parametrize("cols", [slice(None), slice(0, 5), slice(5, 20)])
    def test_gram_matches_composite_product(self, scenario, counts, cols):
        # the closed-form path (at most M distinct AoAs) and the composite
        # path (more AoAs than antennas, or iid) give the same H^H H
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = _params(scenario=scenario, aoa_counts=counts)
        ch = realize_channel(p, 3)
        h = ch.composite[:, cols]
        want = h.conj().T @ h
        got = ch.gram(cols)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_composite_built_on_demand(self):
        ch = realize_channel(_params(), 4)
        assert "composite" not in vars(ch)
        ch.gram()
        assert "composite" not in vars(ch)
        assert ch.composite.shape == (100, 20)

    def test_k_above_p_rejected(self):
        with pytest.raises(ConfigError):
            _params(aoa_counts=(4,))

    def test_k_over_p_warns(self):
        with pytest.warns(UserWarning, match="K << P"):
            _params(aoa_counts=(20,))

    def test_determinism(self):
        a = realize_channel(_params(), 11)
        b = realize_channel(_params(), 11)
        np.testing.assert_array_equal(a.composite, b.composite)

    def test_user_orthogonality_median(self):
        # K << P quasi-orthogonality: median |h_k^H h_l| / M over 100 pairs.
        # The conditional rms is sqrt(tr((S^H S)^2))/M ~ sqrt(1/P + 1/M),
        # i.e. ~0.09 at M=400, P=200, so the median sits near 0.07.
        p = _params(num_antennas=400, aoa_counts=(200,))
        vals = []
        t = 0
        while len(vals) < 100:
            ch = realize_channel(p, (42, t))
            h = ch.composite
            k = h.shape[1]
            i, j = np.random.default_rng(t).integers(0, k, 2)
            if i != j:
                vals.append(abs(h[:, i].conj() @ h[:, j]) / p.num_antennas)
            t += 1
        assert np.median(vals) < 0.1


def _zeros(rng):
    return np.zeros((20, 400), dtype=complex)


def _amp(p):
    """Every user's amplitude under the worst-case split of p's powers."""
    return np.sqrt(worst_case_power_diagonal(p.users_per_cell, p.num_cells,
                                             p.signal_power, p.interference_power))


class TestReceivedBlock:
    def test_zero_symbols_zero_output(self):
        y, _ = draw_block(_params(), np.random.default_rng(1), _zeros, _amp(_params()))
        assert np.all(y == 0)

    @pytest.mark.parametrize("noise,expect", [(True, 1.875), (False, 0.875)])
    def test_mean_entry_energy(self, noise, expect):
        # E|Y_mn|^2 = K p_s + K (L-1) p_i + (1 if noise); at these powers
        # 0.5 + 0.375 (+ 1.0)
        p = _params(noise_enabled=noise)
        total = 0.0
        count = 0
        n_blocks = 1000 if not noise else 300
        for t in range(n_blocks):
            y, _ = draw_block(p, np.random.default_rng((7, t)),
                              lambda g: crandn(g, 20, 400), _amp(p))
            total += float((np.abs(y) ** 2).sum())
            count += y.size
        assert total / count == pytest.approx(expect, rel=0.02)

    def test_single_cell_column_exact(self):
        p = _params(num_cells=1, aoa_counts=(50,))
        eye = np.concatenate([np.eye(5), np.zeros((5, 395))], axis=1).astype(complex)
        y, x = draw_block(p, np.random.default_rng(3), lambda g: eye, _amp(p))
        # the composite is the channel drawn first from the same stream
        h = realize_channel(p, np.random.default_rng(3)).composite
        np.testing.assert_allclose(y[:, :5], np.sqrt(0.1) * h, atol=1e-12)
        np.testing.assert_array_equal(x, eye)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            draw_block(_params(), np.random.default_rng(1),
                       lambda g: np.zeros((5, 10)), _amp(_params()))

    def test_matches_per_cell_sum(self):
        # reference: sqrt(p_s) H_1 X_1 + sqrt(p_i) sum_{i>=2} H_i X_i + W,
        # summed cell by cell; the builder does one matmul
        p = _params(noise_enabled=True)
        got, sent = draw_block(p, np.random.default_rng(5), lambda g: crandn(g, 20, 400),
                               _amp(p))
        g = np.random.default_rng(5)
        ch = realize_channel(p, g)
        x = crandn(g, 20, 400)
        y = crandn(g, 100, 400)
        for i in range(4):
            power = p.signal_power if i == 0 else p.interference_power
            y += np.sqrt(power) * (ch.composite[:, 5 * i:5 * (i + 1)] @ x[5 * i:5 * (i + 1)])
        np.testing.assert_array_equal(sent, x)
        np.testing.assert_allclose(got, y, rtol=0, atol=1e-12)

    def test_determinism(self):
        p = _params(noise_enabled=True)
        a, _ = draw_block(p, np.random.default_rng(13), lambda g: crandn(g, 20, 400), _amp(p))
        b, _ = draw_block(p, np.random.default_rng(13), lambda g: crandn(g, 20, 400), _amp(p))
        np.testing.assert_array_equal(a, b)
