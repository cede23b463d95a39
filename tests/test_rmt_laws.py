"""Stieltjes-domain law evaluators against closed forms and Monte Carlo."""

import json
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import crandn, onesided_product_eigs, steering
from mimospectra import rmt
from mimospectra.errors import ConfigError
from mimospectra.rmt import laws

FIG3_ONESIDED = rmt.OneSidedParams(scale=0.1, inner_dim=5, m=400, n=1000, p=200)
FIG3_DOUBLE = rmt.DoubleSidedParams(num_users=5, num_cells=4, num_antennas=400,
                                    block_length=1000, num_aoas=200,
                                    p_signal=0.1, p_interference=0.025)


def _resolvent_trace(eigs, s, total_dim=None, nonzero_count=None):
    """(1/n) tr (A - sI)^{-1} from the nonzero spectrum plus the zero atom."""
    tr = np.sum(1.0 / (eigs - s))
    if total_dim is not None:
        tr += (total_dim - (nonzero_count if nonzero_count is not None else len(eigs))) * (-1.0 / s)
        return tr / total_dim
    return tr / len(eigs)


class TestMpStieltjes:
    def test_zero_density_off_support(self):
        beta = 0.25
        for x in (0.05, 0.15, 2.4, 5.0):
            g = rmt.mp_stieltjes(x + 1e-6j, beta)
            assert abs(g.imag) < 1e-3

    def test_wishart_resolvent_2000(self):
        rng = np.random.default_rng(0)
        x = crandn(rng, 2000, 2000)
        lam = np.linalg.eigvalsh(x @ x.conj().T / 2000)
        s = 2 + 0.5j
        mc = np.mean(1.0 / (lam - s))
        assert abs(rmt.mp_stieltjes(s, 1.0) - mc) < 2e-2

    def test_decay(self):
        s = 1e6 * 1j
        assert abs(rmt.mp_stieltjes(s, 0.25) + 1.0 / s) < 1e-9

    def test_real_argument_rejected(self):
        with pytest.raises(ConfigError):
            rmt.mp_stieltjes(2.0 + 0.0j, 0.5)

    def test_lower_half_plane_conjugate_symmetry(self):
        g_up = rmt.mp_stieltjes(1.0 + 0.3j, 0.5)
        g_dn = rmt.mp_stieltjes(1.0 - 0.3j, 0.5)
        assert abs(g_dn - np.conj(g_up)) < 1e-12


class TestOneSided:
    def test_decay(self):
        s = 0.05 + 1e6j
        g = rmt.stieltjes_onesided(s, FIG3_ONESIDED)
        assert abs(g + 1.0 / s) < 1e-8

    def test_bulk_mass_matches_rank_fraction(self):
        # the n x n law carries a zero atom of mass 1 - l/n; the bulk mass is
        # recovered by integrating Im G with the atom's transform subtracted
        # (its Lorentzian tail otherwise dominates at this eps)
        p = FIG3_ONESIDED
        atom = 1.0 - p.inner_dim / p.n
        xs = np.linspace(0.03, 0.25, 400)
        g = rmt.stieltjes_onesided(xs + 1e-3j, p)
        bulk = (g + atom / (xs + 1e-3j)).imag / np.pi
        mass = np.trapezoid(bulk, xs)
        expected = p.inner_dim / p.n
        assert abs(mass - expected) / expected < 0.05
        # Monte Carlo eigencount over the same window
        rng = np.random.default_rng(1)
        counts = []
        for _ in range(20):
            lam = onesided_product_eigs(rng, p.scale, p.inner_dim, p.m, p.n, p.p)
            counts.append(np.sum((lam > xs[0]) & (lam < xs[-1])) / p.n)
        assert abs(mass - np.mean(counts)) / expected < 0.05

    def test_matches_iid_limit_at_huge_aspect(self):
        p = FIG3_ONESIDED
        rng = np.random.default_rng(2)
        wide = rmt.OneSidedParams(scale=p.scale, inner_dim=p.inner_dim,
                                  m=p.m, n=p.n, p=10 ** 4 * p.m)
        for _ in range(10):
            s = complex(rng.uniform(0.01, 0.3), rng.uniform(1e-3, 0.5))
            g_full = rmt.stieltjes_onesided(s, wide)
            g_iid = rmt.stieltjes_iid_limit(s, p.scale, p.alpha, p.gamma)
            assert abs(g_full - g_iid) / abs(g_iid) < 0.01

    def test_resolvent_consistency(self):
        # doubled fig3 dimensions put the sample dimension at n = 2000
        p = rmt.OneSidedParams(scale=0.1, inner_dim=10, m=800, n=2000, p=400)
        rng = np.random.default_rng(3)
        for s in (0.1 + 0.1j, 0.03 + 0.1j):
            mc = np.mean([
                _resolvent_trace(
                    onesided_product_eigs(rng, p.scale, p.inner_dim, p.m, p.n, p.p),
                    s, total_dim=p.n)
                for _ in range(20)])
            g = rmt.stieltjes_onesided(s, p)
            assert abs(g - mc) / abs(mc) < 0.03


class TestIidLimit:
    def test_decay(self):
        s = 0.1 + 1e6j
        g = rmt.stieltjes_iid_limit(s, 0.1, 5 / 400, 5 / 1000)
        assert abs(g + 1.0 / s) < 1e-8

    def test_density_against_monte_carlo_histogram(self):
        # same ratios as alpha=5/400, gamma=5/1000 but dimensions x5: a rank-5
        # spectrum is five rigid order statistics, not a smooth bulk
        p_s, m, n, k = 0.1, 2000, 5000, 25
        rng = np.random.default_rng(4)
        pooled = []
        for _ in range(120):
            h = crandn(rng, m, k)
            x = crandn(rng, k, n)
            lam = np.linalg.eigvals((h.conj().T @ h / m) @ (x @ x.conj().T / n)) * p_s
            pooled.append(np.sort(lam.real))
        pooled = np.concatenate(pooled)
        hist, edges = np.histogram(pooled, bins=25, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        # nonzero-bulk density of the n x n law, rescaled to the bulk alone
        g = rmt.stieltjes_iid_limit(centers + 1e-4j, p_s, k / m, k / n)
        bulk = np.clip((g + (1 - k / n) / (centers + 1e-4j)).imag / np.pi, 0, None)
        bulk_density = bulk / (k / n)
        err = np.abs(bulk_density - hist).max()
        assert err < 0.1 * hist.max()

    def test_herglotz_on_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = complex(rng.uniform(-0.2, 0.4), rng.uniform(1e-4, 1.0))
            g = rmt.stieltjes_iid_limit(s, 0.1, 5 / 400, 5 / 1000)
            assert g.imag > 0


class TestTwoMass:
    def test_equal_powers_constant(self):
        for z in (0.1, 0.8 + 0.2j, -0.4 + 0.05j, 3.0):
            s_val = oracles.s_transform_two_mass(z, 0.1, 0.1, 4)
            assert abs(s_val - 10.0) < 1e-10

    def test_zero_argument_limit(self):
        expected = 4 / (0.1 + 3 * 0.025)
        assert abs(oracles.s_transform_two_mass(0.0, 0.1, 0.025, 4) - expected) < 1e-9
        near = oracles.s_transform_two_mass(1e-9, 0.1, 0.025, 4)
        assert abs(near - expected) < 1e-6

    def test_against_independent_quadratic_roots(self):
        p_s, p_i, l, z = 0.1, 0.025, 4, 0.3
        got = oracles.s_transform_two_mass(z, p_s, p_i, l)
        b = p_s - p_i + l * p_i + l * (p_i + p_s) * z
        roots = np.roots([l * p_i * p_s * z, -b, l * (1 + z)])
        minus = roots.min()  # the smaller root is the minus branch
        assert abs(got - minus) < 1e-12

    def test_exact_transform_matches_mass_function(self):
        s = 0.06 + 0.01j
        direct = (1 / 4) / (0.1 - s) + (3 / 4) / (0.025 - s)
        assert abs(oracles.two_mass_stieltjes(s, 0.1, 0.025, 4) - direct) < 1e-14


class TestDoubleSided:
    def test_decay(self):
        s = 0.05 + 1e6j
        g = rmt.stieltjes_double_sided(s, FIG3_DOUBLE)
        assert abs(g + 1.0 / s) < 1e-8

    def test_two_bulks_with_zero_gap(self):
        xs = np.linspace(0.002, 0.25, 300)
        dens = rmt.density_from_stieltjes(
            lambda s: rmt.stieltjes_double_sided(s, FIG3_DOUBLE), xs, eps=1e-5)
        peak = dens.max()
        sig = dens[(xs > 0.07) & (xs < 0.14)]
        intf = dens[(xs > 0.012) & (xs < 0.04)]
        gap = dens[(xs > 0.05) & (xs < 0.064)]
        assert sig.max() > 0.05 * peak
        assert intf.max() > 0.05 * peak
        assert gap.max() < 1e-3 * peak

    def test_equal_powers_single_bulk(self):
        p = rmt.DoubleSidedParams(num_users=5, num_cells=4, num_antennas=400,
                                  block_length=1000, num_aoas=200,
                                  p_signal=0.1, p_interference=0.1)
        xs = np.linspace(0.04, 0.19, 200)
        dens = rmt.density_from_stieltjes(
            lambda s: rmt.stieltjes_double_sided(s, p), xs, eps=1e-5)
        # no interior zero-density window: the bulk is connected
        assert dens.min() > 1e-3 * dens.max()

    def test_resolvent_consistency(self):
        # dimensions scaled x5 so the largest matrix dimension reaches 2000
        p = rmt.DoubleSidedParams(num_users=25, num_cells=4, num_antennas=2000,
                                  block_length=5000, num_aoas=1000,
                                  p_signal=0.1, p_interference=0.025)
        rng = np.random.default_rng(6)
        d = np.concatenate([np.full(p.num_users, p.p_signal),
                            np.full(p.num_users * 3, p.p_interference)])
        kl = 4 * p.num_users
        for s in (0.1 + 0.1j, 0.02 + 0.1j):
            vals = []
            for _ in range(20):
                # given H, the rows of A H / sqrt(P) (A i.i.d. CN(0, 1)) are
                # i.i.d. CN(0, H^H H / P): draw them as Z L^H with
                # L = chol(H^H H / P) instead of drawing the M x P factor A
                h = crandn(rng, p.num_aoas, kl)
                low = np.linalg.cholesky(h.conj().T @ h / p.num_aoas)
                sh = crandn(rng, p.num_antennas, kl) @ low.conj().T
                x = crandn(rng, kl, p.block_length)
                g22 = sh.conj().T @ sh / p.num_antennas
                xd = np.sqrt(d)[:, None] * x
                g21 = xd @ xd.conj().T / p.block_length
                lam = np.linalg.eigvals(g21 @ g22).real
                vals.append(np.mean(1.0 / (lam - s)))
            mc = np.mean(vals)
            g = rmt.stieltjes_double_sided(s, p)
            assert abs(g - mc) / abs(mc) < 0.03


class TestMixture:
    def test_single_component_matches_closed_forms(self):
        # two independent closed-form routes to the block law: atom plus
        # aspect-beta bulk, and the rescaled wide-aspect law
        beta = 0.25
        comp = [oracles.MixtureComponent(weight=1.0, ratio=beta)]
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = complex(rng.uniform(-1.5, 3.0), rng.uniform(1e-4, 1.0))
            g = oracles.mixture_stieltjes(s, comp)
            route_a = (1 - beta) * (-1.0 / s) + beta * rmt.mp_stieltjes(s, beta)
            route_b = (1.0 / beta) * rmt.mp_stieltjes(s / beta, 1.0 / beta)
            assert abs(g - route_a) < 1e-8
            assert abs(g - route_b) < 1e-8

    def test_finite_size_block_identity(self):
        # block-diagonal resolvent trace equals the weighted per-block sum
        # exactly at finite size
        rng = np.random.default_rng(8)
        k, sizes = 5, (50, 100, 200)
        blocks = [crandn(rng, p, k) for p in sizes]
        n = sum(sizes)
        s = 1.0 + 1.0j
        whole = 0.0
        parts = 0.0
        for p, b in zip(sizes, blocks):
            gram = b @ b.conj().T
            tr = np.trace(np.linalg.inv(gram - s * np.eye(p)))
            whole += tr
            parts += (p / n) * (tr / p)
        assert abs(whole / n - parts) < 1e-12

    def test_equal_counts_reduce_to_single_law(self):
        comps = oracles.equal_aoa_mixture(5, [200, 200, 200])
        single = [oracles.MixtureComponent(weight=1.0, ratio=5 / 200)]
        for s in (0.5 + 0.1j, 2.0 + 1e-3j):
            assert abs(oracles.mixture_stieltjes(s, comps)
                       - oracles.mixture_stieltjes(s, single)) < 1e-12

    def test_weight_sum_enforced(self):
        with pytest.raises(ConfigError):
            oracles.mixture_stieltjes(1j, [oracles.MixtureComponent(weight=0.5, ratio=0.1)])


class TestLinkIdentity:
    def test_mp_law(self):
        grid = [x + 1j * y for x in np.linspace(-3, 3, 10) for y in (0.5, 2.0)]
        res = oracles.s_stieltjes_link_check(
            lambda z: oracles.mp_s_transform(z, 0.5),
            lambda s: rmt.mp_stieltjes(s, 0.5), grid)
        assert res < 1e-8

    def test_two_mass_law(self):
        grid = [x + 1j * y for x in np.linspace(-1, 1, 10) for y in (0.5, 2.0)]
        res = oracles.s_stieltjes_link_check(
            lambda z: oracles.s_transform_two_mass(z, 0.1, 0.025, 4),
            lambda s: oracles.two_mass_stieltjes(s, 0.1, 0.025, 4), grid)
        assert res < 1e-8

    def test_mismatched_laws_fail(self):
        grid = [x + 0.5j for x in np.linspace(-2, 2, 20)]
        res = oracles.s_stieltjes_link_check(
            lambda z: oracles.mp_s_transform(z, 0.5),
            lambda s: rmt.mp_stieltjes(s, 0.1), grid)
        assert res > 1e-3


class TestDensityRecovery:
    def test_mp_closed_form(self):
        beta = 0.25
        a, b = (1 - np.sqrt(beta)) ** 2, (1 + np.sqrt(beta)) ** 2
        xs = np.linspace(a + 0.05, b - 0.05, 200)
        dens = rmt.density_from_stieltjes(lambda s: rmt.mp_stieltjes(s, beta),
                                          xs, eps=1e-4)
        assert np.abs(dens - oracles.mp_density(xs, beta)).max() < 0.02

    def test_nonnegative(self):
        xs = np.linspace(-1.0, 4.0, 100)
        dens = rmt.density_from_stieltjes(lambda s: rmt.mp_stieltjes(s, 0.5),
                                          xs, eps=1e-3)
        assert np.all(dens >= 0)

    def test_eps_validation(self):
        with pytest.raises(ConfigError):
            rmt.density_from_stieltjes(lambda s: s, [1.0], eps=0.0)

    def test_iid_bulk_mass(self):
        p_s, alpha, gamma = 0.1, 5 / 400, 5 / 1000
        xs = np.linspace(0.05, 0.17, 300)
        g = rmt.stieltjes_iid_limit(xs + 1e-3j, p_s, alpha, gamma)
        bulk = np.clip((g + (1 - gamma) / (xs + 1e-3j)).imag / np.pi, 0, None)
        mass = np.trapezoid(bulk, xs)
        assert abs(mass - gamma) / gamma < 0.05


LAWS = {
    "mp": (lambda s: rmt.mp_stieltjes(s, 0.25),
           lambda s, g: abs(0.25 * s * g * g - (1 - 0.25 - s) * g + 1.0)
           / (abs(0.25 * s * g * g) + abs((1 - 0.25 - s) * g) + 1.0)),
    "onesided": (lambda s: rmt.stieltjes_onesided(s, FIG3_ONESIDED),
                 lambda s, g: rmt.onesided_residual(s, g, FIG3_ONESIDED)),
    "iid": (lambda s: rmt.stieltjes_iid_limit(s, 0.1, 5 / 400, 5 / 1000),
            lambda s, g: rmt.iid_limit_residual(s, g, 0.1, 5 / 400, 5 / 1000)),
    "double": (lambda s: rmt.stieltjes_double_sided(s, FIG3_DOUBLE),
               lambda s, g: rmt.double_sided_residual(s, g, FIG3_DOUBLE)),
}


@pytest.mark.parametrize("name", sorted(LAWS))
class TestLawBattery:
    def test_herglotz_on_100_point_grid(self, name):
        evaluator, _ = LAWS[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()) % 2 ** 32)
        for _ in range(100):
            s = complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-4, 10.0))
            assert evaluator(s).imag > 0, f"{name} at {s}"

    def test_decay_at_1e6(self, name):
        # |sG + 1| -> m1/|s| exactly, which is 1e-6 on the nose for the
        # unit-mean mp oracle law; factor-2 headroom covers that asymptote
        evaluator, _ = LAWS[name]
        for s in (1e6j, 0.3 + 1e6j, -2.0 + 1e6j):
            g = evaluator(s)
            assert abs(s * g + 1.0) < 2e-6

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-1])
    def test_grid_agrees_with_scalar_points(self, name, eps, request):
        # a sorted grid walked as one array against each point's own descent
        if name in ("onesided", "iid") and eps < 1e-2:
            request.applymarker(pytest.mark.xfail(strict=True, reason=(
                "nearest-root steps between grid points far apart against Im s "
                "follow another root with Im G > 0; the descents agree with "
                "Monte Carlo resolvents")))
        evaluator, _ = LAWS[name]
        rng = np.random.default_rng(zlib.crc32((name + "w").encode()) % 2 ** 32)
        s = np.sort(rng.uniform(-0.05, 0.4, 24)) + 1j * eps
        np.testing.assert_allclose(evaluator(s), [evaluator(sc) for sc in s],
                                   rtol=1e-12, atol=0.0)

    def test_defining_equation_residual(self, name):
        evaluator, residual = LAWS[name]
        rng = np.random.default_rng(zlib.crc32((name + "r").encode()) % 2 ** 32)
        for _ in range(25):
            s = complex(rng.uniform(0.005, 0.4), rng.uniform(1e-3, 1.0))
            g = evaluator(s)
            assert residual(s, g) < 1e-8, f"{name} at {s}"


class TestMpResolventBattery:
    def test_average_over_20_trials(self):
        # X X^H / m for a 2000 x 4000 complex Gaussian X, drawn through the
        # beta = 2 bidiagonal Laguerre model (Dumitriu & Edelman, J. Math.
        # Phys. 2002): X X^H has the spectrum of B B^T for an n x n lower
        # bidiagonal B with diagonal sqrt(chi2_{2(m-i)} / 2), i = 0..n-1,
        # and subdiagonal sqrt(chi2_{2(n-i)} / 2), i = 1..n-1
        from scipy.linalg import eigvalsh_tridiagonal
        n, m = 2000, 4000
        rng = np.random.default_rng(9)
        s = 1.2 + 0.1j
        vals = []
        for _ in range(20):
            diag = rng.chisquare(2 * np.arange(m, m - n, -1)) / 2
            sub = rng.chisquare(2 * np.arange(n - 1, 0, -1)) / 2
            lam = eigvalsh_tridiagonal(diag + np.r_[0.0, sub],
                                       np.sqrt(diag[:-1] * sub)) / m
            vals.append(np.mean(1.0 / (lam - s)))
        mc = np.mean(vals)
        assert abs(rmt.mp_stieltjes(s, 0.5) - mc) / abs(mc) < 0.03

    def test_iid_law_resolvent(self):
        p_s, m, n, k = 0.1, 800, 2000, 10
        rng = np.random.default_rng(10)
        s = 0.1 + 0.1j
        vals = []
        for _ in range(20):
            h = crandn(rng, m, k)
            x = crandn(rng, k, n)
            lam = np.linalg.eigvals((h.conj().T @ h / m) @ (x @ x.conj().T / n)).real * p_s
            vals.append(_resolvent_trace(lam, s, total_dim=n))
        mc = np.mean(vals)
        g = rmt.stieltjes_iid_limit(s, p_s, k / m, k / n)
        assert abs(g - mc) / abs(mc) < 0.03


class TestSteeringVersusIidSurrogate:
    def test_physical_steering_matches_onesided_law(self):
        # the law assumes iid mixing entries; physical steering obeys the
        # same bulk at these dimensions
        p = FIG3_ONESIDED
        rng = np.random.default_rng(11)
        s = 0.1 + 0.05j
        vals = []
        for _ in range(20):
            lam = onesided_product_eigs(rng, p.scale, p.inner_dim, p.m, p.n, p.p,
                                        physical=True)
            vals.append(_resolvent_trace(lam, s, total_dim=p.n))
        mc = np.mean(vals)
        g = rmt.stieltjes_onesided(s, p)
        assert abs(g - mc) / abs(mc) < 0.03


# Reference continuation for the stacked solve: the per-point form of
# laws._track_to and of _eval_implicit's walk, one np.roots call per path
# point.  Its coefficients come from laws.coeffs_at, over the same stack of
# points as the solver's: a matrix product may round a column differently
# with another number of columns.

def _ref_track_to(table, s_from, g_from, s_to, depth=0, coeffs=None):
    if coeffs is None:
        coeffs = laws.coeffs_at(table, [s_to])[:, 0]
    roots = np.roots(coeffs[::-1])
    d = np.abs(roots - g_from)
    order = np.argsort(d)
    margin = d[order[1]] / max(d[order[0]], 1e-300) if len(order) > 1 else np.inf
    if margin > 3.0:
        return roots[order[0]]
    assert depth < 24
    mid = 0.5 * (s_from + s_to)
    g_mid = _ref_track_to(table, s_from, g_from, mid, depth + 1)
    return _ref_track_to(table, mid, g_mid, s_to, depth + 1, coeffs)


def _ref_descent(s):
    top = max(1e6, 2.0 * s.imag)
    n_steps = max(48, int(32 * max(1.0, math.log10(top / s.imag))))
    return s.real + 1j * np.geomspace(top, s.imag, n_steps)


def _ref_walk(table, s):
    """G at each point of s in turn: one step from the previous point when
    they are nearer each other than half of either's |s|, else a descent
    seeded at G = -1/s."""
    s = [complex(sc) for sc in s]
    legs = [np.array([sc]) if i and abs(sc - s[i - 1]) <= 0.5 * min(abs(sc), abs(s[i - 1]))
            else _ref_descent(sc) for i, sc in enumerate(s)]
    coeffs = iter(laws.coeffs_at(table, np.concatenate(legs)).T)
    out, g, s_prev = [], None, None
    for leg in legs:
        if len(leg) > 1:            # a descent: at least 48 points
            g, s_prev = -1.0 / leg[0], leg[0]
        for sk in leg:
            g = _ref_track_to(table, s_prev, g, complex(sk), coeffs=next(coeffs))
            s_prev = complex(sk)
        assert g.imag >= -1e-10
        out.append(g)
    return np.array(out)


class TestStackedDescent:
    """One walk from one stacked root solve against the per-point reference,
    on the points of the benchmark's law operation: the 400-point density
    grid at eps = 1e-4 and cold points at Im s = 1e-3."""

    TABLES = {
        "double_sided": lambda: laws.double_sided_table(FIG3_DOUBLE),
        "one_sided": lambda: laws.onesided_table(FIG3_ONESIDED),
        "iid": lambda: laws.iid_table(0.1, 5 / 400, 5 / 1000),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_bitwise_equal_to_per_point_tracking(self, name):
        table = self.TABLES[name]()
        grid = np.linspace(0.002, 0.25, 400) + 1e-4j
        got = laws._eval_implicit(table, grid)
        assert got.tobytes() == _ref_walk(table, grid).tobytes()
        # a far point splices two more descents into the walk: its own and
        # the next grid point's
        spliced = np.r_[grid[:200], 3.0 + 1e-3j, grid[200:]]
        assert laws._eval_implicit(table, spliced).tobytes() == \
            _ref_walk(table, spliced).tobytes()
        for x in np.random.default_rng(1234).uniform(0.002, 0.25, 8):
            s = complex(x, 1e-3)
            assert laws._eval_implicit(table, s) == _ref_walk(table, [s])[0]
            assert laws._eval_implicit(table, np.array([s])).tobytes() == \
                np.array([laws._eval_implicit(table, s)]).tobytes()

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_no_point_is_solved_twice(self, name, monkeypatch):
        # the first solve is the whole walk, stacked: a scalar's descent, or a
        # grid's first descent and its 399 steps; every later solve is the
        # midpoint of a refined step, one per halving (whose two half-steps
        # are the tracker's calls at depth > 0)
        table = self.TABLES[name]()
        calls, depths = [], []
        roots_at, track_to = laws._roots_at, laws._track_to
        monkeypatch.setattr(laws, "_roots_at",
                            lambda t, points: calls.append(np.array(points)) or roots_at(t, points))
        monkeypatch.setattr(laws, "_track_to", lambda *args, **kwargs: depths.append(
            args[4] if len(args) > 4 else 0) or track_to(*args, **kwargs))
        s = complex(0.05, 1e-3)
        grid = np.linspace(0.002, 0.25, 400) + 1e-4j
        for points, path in ((s, _ref_descent(s)),
                             (grid, np.r_[_ref_descent(complex(grid[0])), grid[1:]])):
            calls.clear()
            depths.clear()
            laws._eval_implicit(table, points)
            assert calls[0].tobytes() == path.tobytes()
            later = np.concatenate([np.zeros(0, complex)] + calls[1:])
            assert all(len(c) == 1 for c in calls[1:]) and not np.isin(later, path).any()
            assert 2 * len(later) == np.count_nonzero(depths)

    def test_edge_step_is_refined_not_restarted(self, monkeypatch):
        # at x = 0.128797, just past the signal bulk's upper edge (0.1286),
        # the root nearest the previous point's G has Im G = -0.0032 and is
        # only 1.26 times nearer than the next: the step is halved until the
        # choice is clear, and the walk stays on the physical root
        table = self.TABLES["iid"]()
        grid = np.linspace(0.002, 0.25, 400) + 1e-4j
        calls = []
        roots_at = laws._roots_at
        monkeypatch.setattr(laws, "_roots_at",
                            lambda t, points: calls.append(len(points)) or roots_at(t, points))
        got = laws._eval_implicit(table, grid)
        assert [n for n in calls if n > 1] == [320 + 399]   # first descent, 399 steps
        i = np.argmin(np.abs(grid.real - 0.128797))
        np.testing.assert_allclose(got[i], laws._eval_implicit(table, grid[i]),
                                   rtol=1e-12, atol=0.0)

    def test_pair_across_the_zero_atom_is_two_descents(self, monkeypatch):
        # 0.01 + 1e-3i and -0.01 + 1e-3i are 0.02 apart, further than half of
        # either's distance from the zero atom's pole at s = 0, so the second
        # point is no step from the first: both descents go into one stacked
        # solve, and each value equals its scalar evaluation
        table = self.TABLES["iid"]()
        pair = np.array([0.01 + 1e-3j, -0.01 + 1e-3j])
        calls = []
        roots_at = laws._roots_at
        monkeypatch.setattr(laws, "_roots_at",
                            lambda t, points: calls.append(len(points)) or roots_at(t, points))
        got = laws._eval_implicit(table, pair)
        assert [n for n in calls if n > 1] == [288 + 288]
        assert got.tobytes() == np.array([laws._eval_implicit(table, s) for s in pair]).tobytes()
        assert got.tobytes() == _ref_walk(table, pair).tobytes()

    def test_grid_through_the_zero_atom_equals_its_points(self):
        # a sorted grid that walks through s = 0 at Im s = 1.9e-8: the points
        # beside the pole are descents, not steps, and every value is its
        # point's own evaluation (before the relative near rule, the walk was
        # off at x = -0.000181, 0.000245 and 0.000458)
        p = rmt.OneSidedParams(0.0314, 2, 729, 1426, 13)
        s = np.linspace(-0.0087, 0.0241, 155) + 1.9e-8j
        got = rmt.stieltjes_onesided(s, p)
        assert got.tobytes() == np.array([rmt.stieltjes_onesided(sc, p) for sc in s]).tobytes()

    def test_walk_off_the_physical_root_raises_and_density_recovers(self):
        # a shuffled grid whose step into 0.0493678 + 6.4e-5i ends with
        # Im G < 0: the walk raises, naming that point, and the density falls
        # back to each point's own descent (the anchor restart patched that
        # one point and returned 48 of 60 points off their descents, with
        # densities off by up to 32.5)
        from mimospectra.errors import BranchTrackingError
        p = rmt.OneSidedParams(0.0438, 1, 779, 869, 261)
        x = np.random.default_rng(186).permutation(np.linspace(-0.2 * 0.0438, 2.5 * 0.0438, 60))
        with pytest.raises(BranchTrackingError, match="lost Herglotz property at s=0.0493678"):
            rmt.stieltjes_onesided(x + 6.4e-5j, p)
        evaluator = lambda s: rmt.stieltjes_onesided(s, p)
        scalars = np.array([evaluator(complex(xx, 6.4e-5)) for xx in x])
        got = rmt.density_from_stieltjes(evaluator, x, eps=6.4e-5)
        assert got.tobytes() == np.clip(scalars.imag / np.pi, 0.0, None).tobytes()

    def test_ambiguous_step_is_still_refined(self, monkeypatch):
        # G^2 - s^2 has roots +-s: from G = s at s = i, the roots +-1 at s = 1
        # are equally far from G, so the nearest-root choice ties, and only
        # bisection keeps the branch G = s
        table = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        calls = []
        roots_at = laws._roots_at
        monkeypatch.setattr(laws, "_roots_at",
                            lambda t, points: calls.append(points) or roots_at(t, points))
        g = laws._track_to(table, 1j, 1j, 1.0)
        assert len(calls) > 1       # more solves than the one endpoint: it refined
        assert g == _ref_track_to(table, 1j, 1j, 1.0)
        assert abs(g - 1.0) < 1e-12


LAW_PINS = json.loads((Path(__file__).parent / "law_pins.json").read_text())
PIN_DOUBLE = rmt.DoubleSidedParams(num_users=5, num_cells=4, num_antennas=400,
                                   block_length=1000, num_aoas=200,
                                   p_signal=0.1, p_interference=10 ** -1.6)
PIN_LAWS = {
    "double_sided": lambda s: rmt.stieltjes_double_sided(s, PIN_DOUBLE),
    "one_sided": lambda s: rmt.stieltjes_onesided(s, FIG3_ONESIDED),
    "iid": lambda s: rmt.stieltjes_iid_limit(s, 0.1, 5 / 400, 5 / 1000),
    "mp": lambda s: rmt.mp_stieltjes(s, 0.5),
}


@pytest.mark.parametrize("name", sorted(PIN_LAWS))
def test_values_match_recorded_pins(name):
    # law_pins.json holds G recorded from the per-point solver that preceded
    # the stacked table evaluation, at the fig3 point of the benchmark's law
    # operation: the 400-point grid at eps = 1e-4 as one array, and 8 cold
    # scalar points at Im s = 1e-3
    evaluator, pins = PIN_LAWS[name], LAW_PINS[name]
    grid = np.linspace(0.002, 0.25, 400) + 1e-4j
    cold = [complex(x, 1e-3) for x in np.random.default_rng(1234).uniform(0.002, 0.25, 8)]
    got = {"grid": evaluator(grid), "cold": np.array([evaluator(s) for s in cold])}
    for key, values in got.items():
        want = np.array(pins[key]) @ [1.0, 1j]
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)


class TestErrorContracts:
    def test_branch_tracking_error_reports_roots(self):
        from mimospectra.rmt.laws import _track_to
        from mimospectra.errors import BranchTrackingError
        # symmetric roots keep the nearest-root choice ambiguous at any depth
        table = np.array([[-1.0, 0.0, 1.0]])  # G^2 - 1
        with pytest.raises(BranchTrackingError, match="candidate roots"):
            _track_to(table, 1j, 0.0 + 0.0j, 2j)

    @pytest.mark.parametrize("call", [
        lambda: rmt.iid_limit_residual(0.1 + 0.01j, 1 + 1j, -1.0, 0.01, 0.005),
        lambda: rmt.stieltjes_iid_limit(0.1 + 0.01j, 0.1, 0.0, 0.005),
        lambda: rmt.support_iid(0.1, 0.01, -0.005),
    ], ids=["residual", "stieltjes", "support"])
    def test_iid_law_refuses_nonpositive_inputs(self, call):
        with pytest.raises(ConfigError, match="p_s, alpha, gamma must be positive"):
            call()

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    @pytest.mark.parametrize("name", ["onesided", "iid", "double"])
    def test_empty_array_gives_an_empty_array(self, name, shape):
        # used to end in "need at least one array to concatenate"
        got = LAWS[name][0](np.zeros(shape, dtype=complex))
        assert got.shape == shape and got.dtype == complex

    def test_lower_half_plane_rejected_for_implicit_laws(self):
        with pytest.raises(ConfigError):
            rmt.stieltjes_onesided(0.1 - 0.5j, FIG3_ONESIDED)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("s", [complex(math.nan, 0.01), complex(0.05, math.inf),
                                   np.array([0.05 + 0.01j, complex(math.nan, 0.01)])],
                             ids=["nan-real", "inf-imag", "nan-second-in-array"])
    def test_non_finite_point_rejected_for_implicit_laws(self, s, name):
        # used to end in an IndexError from the empty root set of the descent
        # (for a non-first array point, after a warm start from its
        # neighbour), and in nan+nanj for mp
        with pytest.raises(ConfigError, match="requires a finite s"):
            LAWS[name][0](s)

    def test_density_names_a_non_finite_grid_point(self):
        with pytest.raises(ConfigError, match="x=nan"):
            rmt.density_from_stieltjes(LAWS["onesided"][0], [0.05, math.nan])

    def test_power_ordering_warns(self):
        with pytest.warns(UserWarning, match="separation regime"):
            rmt.DoubleSidedParams(num_users=5, num_cells=4, num_antennas=400,
                                  block_length=1000, num_aoas=200,
                                  p_signal=0.01, p_interference=0.025)

    def test_density_failure_reports_grid_location(self):
        def evaluator(s):
            s_arr = np.atleast_1d(np.asarray(s))
            if np.any(s_arr.real > 0.5):
                raise ValueError("synthetic")
            return np.full(np.shape(s), 1j)

        with pytest.raises(ValueError, match="x=0.6"):
            rmt.density_from_stieltjes(evaluator, [0.1, 0.6], eps=1e-3)

    def test_density_failure_reports_the_points_own_error(self):
        # the array call and the point at x = 0.55 fail for different
        # reasons: the point's type and message are raised, not the array's
        from mimospectra.errors import BranchTrackingError

        def evaluator(s):
            if np.ndim(s):
                raise BranchTrackingError("tracked root lost Herglotz property at s=0.0493678")
            if s.real == 0.55:
                raise ConfigError("synthetic point failure")
            return 1j

        with pytest.raises(ConfigError) as info:
            rmt.density_from_stieltjes(evaluator, [0.1, 0.55, 0.6], eps=1e-3)
        assert type(info.value) is ConfigError
        assert str(info.value) == ("density evaluation failed at x=0.55: "
                                   "synthetic point failure")


def test_every_export_has_a_caller_in_the_program():
    """Each name in rmt.__all__ appears as a whole word in some program file
    outside rmt: the rest of the package, perfbench or tools."""
    root = Path(__file__).resolve().parents[1]
    rmt_dir = root / "src" / "mimospectra" / "rmt"
    text = "\n".join(p.read_text() for d in ("src/mimospectra", "perfbench", "tools")
                     for p in sorted((root / d).rglob("*.py")) if rmt_dir not in p.parents)
    unused = [name for name in rmt.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []
