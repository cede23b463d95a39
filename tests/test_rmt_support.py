"""Support-boundary solvers against Monte Carlo extreme eigenvalues."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import mimospectra.rmt.support as support_mod
import oracles
from conftest import crandn, onesided_product_eigs, steering
from mimospectra import rmt
from mimospectra.errors import ConfigError

M, N, P, K, L = 400, 1000, 200, 5, 4
P_S, P_I = 0.1, 0.025


def _bracket(support, samples, slack=0.10):
    """Every sample inside the slack-dilated support union."""
    return bool(np.all(oracles.contains(support, samples, slack=slack)))


class TestSupportOneSided:
    def test_zero_scale_rejected(self):
        with pytest.raises(ConfigError):
            rmt.OneSidedParams(scale=0.0, inner_dim=5, m=M, n=N, p=P)

    @pytest.mark.parametrize("scale,inner", [(P_S, K), (P_I, K * (L - 1))])
    def test_brackets_monte_carlo_spectra(self, scale, inner):
        params = rmt.OneSidedParams(scale=scale, inner_dim=inner, m=M, n=N, p=P)
        sup = rmt.support_onesided(params)
        assert len(sup.intervals) == 1
        rng = np.random.default_rng(inner)
        samples = np.concatenate([
            onesided_product_eigs(rng, scale, inner, M, N, P, physical=True)
            for _ in range(50)])
        assert _bracket(sup, samples)

    def test_mp_sanity_via_tiny_scale_structure(self):
        # a single interval with positive endpoints ordered
        sup = rmt.support_onesided(rmt.OneSidedParams(scale=1.0, inner_dim=50,
                                                      m=500, n=500, p=500))
        (lo, hi), = sup.intervals
        assert 0 < lo < hi


class TestSupportDoubleSided:
    def test_two_intervals_match_empirical_edges(self):
        params = rmt.DoubleSidedParams(num_users=K, num_cells=L, num_antennas=M,
                                       block_length=N, num_aoas=P,
                                       p_signal=P_S, p_interference=P_I)
        sup = rmt.support_double_sided(params)
        assert len(sup.intervals) == 2
        assert not sup.truncation["flags"]
        rng = np.random.default_rng(0)
        d = np.concatenate([np.full(K, P_S), np.full(K * (L - 1), P_I)])
        lows, highs = [], []
        for _ in range(40):
            s = steering(rng, M, P)
            sh = s @ crandn(rng, P, K * L)
            x = crandn(rng, K * L, N)
            xd = np.sqrt(d)[:, None] * x
            lam = np.sort(np.linalg.eigvals(
                (xd @ xd.conj().T / N) @ (sh.conj().T @ sh / M)).real)
            lows.append(lam[:K * (L - 1)])
            highs.append(lam[K * (L - 1):])
        lows, highs = np.array(lows), np.array(highs)
        (lo1, hi1), (lo2, hi2) = sup.intervals
        for endpoint, empirical in ((lo1, lows.min()), (hi1, lows.max()),
                                    (lo2, highs.min()), (hi2, highs.max())):
            assert abs(endpoint - empirical) / empirical < 0.10

    def test_equal_powers_single_interval(self):
        params = rmt.DoubleSidedParams(num_users=K, num_cells=L, num_antennas=M,
                                       block_length=N, num_aoas=P,
                                       p_signal=P_S, p_interference=P_S)
        sup = rmt.support_double_sided(params)
        assert len(sup.intervals) == 1

    def test_pathological_ratios_raise_flags(self):
        # alpha = eta = gamma = 2/3: the validity ratios are 6.75 and 1.5,
        # both below 10
        sup = rmt.support_double_sided(rmt.DoubleSidedParams(
            num_users=5, num_cells=2, num_antennas=15, block_length=15, num_aoas=15,
            p_signal=0.1, p_interference=0.01))
        assert sup.truncation["ratio_triple"] == pytest.approx(6.75)
        assert sup.truncation["ratio_pairwise"] == pytest.approx(1.5)
        assert sup.truncation["flags"] == ["triple-product ratio 6.75 < 10.0",
                                           "pairwise ratio 1.5 < 10.0"]

    def test_support_is_built_complete_and_frozen(self):
        sup = rmt.support_double_sided(rmt.DoubleSidedParams(
            num_users=5, num_cells=2, num_antennas=15, block_length=15, num_aoas=15,
            p_signal=0.1, p_interference=0.01))
        assert sup.scaled(2.0).truncation == sup.truncation
        for field in ("intervals", "truncation"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sup, field, None)

    def test_gap_monotone_in_aoa_count(self):
        prev = -1.0
        for p_count in (25, 50, 100, 200):
            params = rmt.DoubleSidedParams(num_users=K, num_cells=L,
                                           num_antennas=M, block_length=N,
                                           num_aoas=p_count, p_signal=P_S,
                                           p_interference=P_I)
            sup = rmt.support_double_sided(params)
            gap = oracles.gap_widths(sup)[0] if oracles.gap_widths(sup) else 0.0
            assert gap >= prev
            prev = gap


class TestSupportDistinct:
    def test_brackets_block_interference_spectra(self):
        # pooled empirical bulk edges within 10% of the analytic endpoints
        # (physical steering drags the top edge ~9% above the asymptote at
        # these sizes)
        sup = rmt.support_distinct(K, L, M, N, P, P_I)
        assert len(sup.intervals) == 1
        rng = np.random.default_rng(1)
        kk = K * (L - 1)
        samples = []
        for _ in range(50):
            s_all = [steering(rng, M, P) for _ in range(L - 1)]
            h_blocks = [crandn(rng, P, K) for _ in range(L - 1)]
            comp = np.concatenate([s @ h for s, h in zip(s_all, h_blocks)], axis=1)
            x = crandn(rng, kk, N)
            lam = np.linalg.eigvals(
                (x @ x.conj().T * P_I / N) @ (comp.conj().T @ comp / M)).real
            samples.append(np.sort(lam))
        samples = np.concatenate(samples)
        (lo, hi), = sup.intervals
        assert abs(lo - samples.min()) / samples.min() < 0.10
        assert abs(hi - samples.max()) / samples.max() < 0.10
        assert np.mean(oracles.contains(sup, samples, slack=0.10)) > 0.99

    def test_matches_onesided_reduction_for_two_cells(self):
        # one interfering cell is exactly the one-power law
        sup_d = rmt.support_distinct(K, 2, M, N, P, P_I)
        sup_1 = rmt.support_onesided(rmt.OneSidedParams(scale=P_I, inner_dim=K,
                                                        m=M, n=N, p=P))
        (a, b), = sup_d.intervals
        (c, d), = sup_1.intervals
        # both laws share the same nonzero bulk (one carries the zero atom);
        # the two scans locate its edges on different curves, so agreement is
        # limited by extremum-refinement resolution
        assert a == pytest.approx(c, rel=1e-3)
        assert b == pytest.approx(d, rel=1e-3)

    def test_fewer_interferers_narrower_bulk(self):
        sup2 = rmt.support_distinct(K, 2, M, N, P, P_I)
        sup4 = rmt.support_distinct(K, 4, M, N, P, P_I)
        (a2, b2), = sup2.intervals
        (a4, b4), = sup4.intervals
        assert a4 < a2 < b2 < b4

    # known scan failures (ROADMAP item 3): scanning after the one-sided atom
    # map fixes both, but moves fig5's distinct_interference by 1.6e-4, past
    # the benchmark's stored references, so the fix waits for a re-record
    @pytest.mark.xfail(strict=True, raises=ConfigError,
                       reason="distinct scan finds no interval (ROADMAP item 3)")
    def test_two_cells_equal_onesided_at_low_power(self):
        sup_1 = rmt.support_onesided(rmt.OneSidedParams(0.0316, 3, 643, 1603, 98))
        assert sup_1.intervals == [pytest.approx((0.0207394963, 0.0451625016), rel=1e-8)]
        sup_d = rmt.support_distinct(3, 2, 643, 1603, 98, 0.0316)
        assert len(sup_d.intervals) == 1
        assert sup_d.intervals[0] == pytest.approx(sup_1.intervals[0], rel=1e-9)

    @pytest.mark.xfail(strict=True, raises=ConfigError,
                       reason="distinct scan finds no interval (ROADMAP item 3)")
    def test_four_cells_sixty_aoas_scan(self):
        sup = rmt.support_distinct(5, 4, 200, 1000, 60, 10 ** -1.6)
        assert len(sup.intervals) == 1

    def test_unresolved_low_power_bulk_is_refused(self):
        # the default grid cannot resolve a bulk this far below 1e-2; the
        # scan used to return (-0.00100, 0.00030)
        with pytest.warns(UserWarning, match="x-grid too narrow"):
            with pytest.raises(ConfigError, match="did not resolve the bulk"):
                rmt.support_distinct(8, 3, 319, 1150, 166, 4.7e-4)


class TestSupportIid:
    def test_brackets_monte_carlo(self):
        sup = rmt.support_iid(P_S, K / M, K / N)
        rng = np.random.default_rng(2)
        samples = []
        for _ in range(50):
            h = crandn(rng, M, K)
            x = crandn(rng, K, N)
            lam = np.linalg.eigvals((h.conj().T @ h / M) @ (x @ x.conj().T / N)).real
            samples.append(np.sort(lam) * P_S)
        assert _bracket(sup, np.concatenate(samples))

    def test_narrower_than_physical_bulk(self):
        # the finite-AoA law spreads strictly wider on both sides
        sup_iid = rmt.support_iid(P_S, K / M, K / N)
        sup_phy = rmt.support_onesided(rmt.OneSidedParams(scale=P_S, inner_dim=K,
                                                          m=M, n=N, p=P))
        (a_i, b_i), = sup_iid.intervals
        (a_p, b_p), = sup_phy.intervals
        assert a_p < a_i and b_i < b_p


class TestAntennaSaturationLimit:
    def test_huge_antenna_surrogate_matches_iid_with_p_antennas(self):
        # adding antennas beyond the AoA count pins the spectrum to the
        # rich-scattering law with m set to the AoA count
        # 50*P leaves an 8%-of-peak edge residual; 500*P is inside 5%
        p_count = 200
        surrogate = rmt.OneSidedParams(scale=P_S, inner_dim=K, m=500 * p_count,
                                       n=N, p=p_count)
        xs = np.linspace(0.05, 0.2, 250)
        dens_phys = rmt.density_from_stieltjes(
            lambda s: rmt.stieltjes_onesided(s, surrogate), xs, eps=1e-4)
        dens_iid = rmt.density_from_stieltjes(
            lambda s: rmt.stieltjes_iid_limit(s, P_S, K / p_count, K / N),
            xs, eps=1e-4)
        assert np.abs(dens_phys - dens_iid).max() < 0.05 * dens_iid.max()


class TestSortedRealRoots:
    """The batched companion-matrix root finder against per-point np.roots."""

    @staticmethod
    def _per_point(coeffs):
        out = np.full((coeffs.shape[0] - 1, coeffs.shape[1]), np.nan)
        for j, c in enumerate(coeffs.T):
            nz = np.flatnonzero(np.abs(c) > 1e-300)
            c = c[nz[0]:] if nz.size else c[:0]
            r = np.roots(c) if c.size >= 2 else np.array([])
            if r.size:
                real = r[np.abs(r.imag) <= 1e-7 * max(1.0, np.abs(r).max())].real
                out[:real.size, j] = np.sort(real)
        return out

    @pytest.mark.parametrize("degree", [2, 3])
    def test_matches_per_point_np_roots(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal((degree + 1, 200))
        coeffs[0, 7] = 0.0          # leading coefficient 0: one degree lower
        coeffs[:, 11] = 0.0         # identically zero: no roots
        # (s - 1)^2 - t [times (s + 3) for the cubic]: a real pair merges at
        # the double root s = 1 when t = 0 and leaves the real axis
        c = 1.0 - np.linspace(1.0, -1.0, 41)
        one = np.ones_like(c)
        pair = (np.array([one, -2.0 * one, c]) if degree == 2
                else np.array([one, one, c - 6.0, 3.0 * c]))
        coeffs = np.concatenate([coeffs, pair], axis=1)
        got = support_mod._sorted_real_roots(coeffs)
        want = self._per_point(coeffs)
        assert got.shape == (degree, 241)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        counts = np.sum(~np.isnan(got[:, 200:]), axis=0)
        assert counts[0] == degree and counts[-1] == degree - 2
        assert np.sum(~np.isnan(got[:, 7])) <= degree - 1
        assert np.all(np.isnan(got[:, 11]))

    def test_branch_keeps_its_row_when_a_pair_appears_below(self):
        # (s - 1)^2 - t times (s - 3): for t > 0 a real pair 1 +- sqrt(t)
        # appears below s = 3, whose sorted index moves from 0 to 2; row a of
        # the table holds the coefficients of s^a t^0 and s^a t^1
        t = np.linspace(-1.0, 1.0, 40)
        table = np.array([[-3.0, 3.0], [7.0, -1.0], [-5.0, 0.0], [1.0, 0.0]])
        rows = support_mod._track_branches(table, t)
        assert len(rows) == 3
        full = [r for r in rows if not np.isnan(r).any()]
        assert len(full) == 1
        np.testing.assert_allclose(full[0], 3.0, rtol=1e-12)
        pair = sorted((r for r in rows if np.isnan(r).any()), key=np.nanmean)
        for row, sign in zip(pair, (-1.0, 1.0)):
            np.testing.assert_array_equal(np.isnan(row), t < 0)
            np.testing.assert_allclose(row[t > 0], 1.0 + sign * np.sqrt(t[t > 0]),
                                       rtol=1e-9)


# ---------------------------------------------------------------------------
# regression pins: intervals recorded from the per-point np.roots scan with
# greedy nearest-neighbour branch matching, on the default 10^4-point grid
# ---------------------------------------------------------------------------

PS_FIG, PI_FIG = 10 ** (-10 / 10), 10 ** (-16 / 10)   # fig1-fig5 powers


def _one(scale, inner, m=M, n=N, p=P):
    return rmt.support_onesided(rmt.OneSidedParams(scale=scale, inner_dim=inner,
                                                   m=m, n=n, p=p))


def _double(ps, pi, k=K, l=L, m=M, n=N, p=P):
    return rmt.support_double_sided(rmt.DoubleSidedParams(
        num_users=k, num_cells=l, num_antennas=m, block_length=n, num_aoas=p,
        p_signal=ps, p_interference=pi))


# name -> (scan, recorded intervals, or None where the scan raises ConfigError);
# fig* rows are the law calls of the fig1/fig2/fig3/fig5 presets (before N
# scaling), the rest are the parameter sets used elsewhere in this file (its
# P_S one-sided and i.d. sets coincide with the fig rows)
SUPPORT_PINS = {
    "fig_onesided_signal": (
        lambda: _one(PS_FIG, K),
        [(0.06399668660531846, 0.1468451688430047)]),
    "fig_onesided_interference": (
        lambda: _one(PI_FIG, K * (L - 1)),
        [(0.011005110982550354, 0.047386071471890834)]),
    "fig_iid_signal": (
        lambda: rmt.support_iid(PS_FIG, K / M, K / N),
        [(0.0756112643461633, 0.12860513351808683)]),
    "fig_iid_interference": (
        lambda: rmt.support_iid(PI_FIG, K * (L - 1) / M, K * (L - 1) / N),
        [(0.015143230230188539, 0.038267435743289724)]),
    "fig_double_sided": (
        lambda: _double(PS_FIG, PI_FIG),
        [(0.009572902702250854, 0.04404049539098122),
         (0.0677080097490129, 0.14952571485338917)]),
    "fig5_distinct_interference": (
        lambda: rmt.support_distinct(K, L, M, N, P, PI_FIG),
        [(0.01354768406426176, 0.04178931616453926)]),
    "onesided_interference": (
        lambda: _one(P_I, K * (L - 1)),
        [(0.010953033989202502, 0.04716183718467698)]),
    "onesided_square": (
        lambda: _one(1.0, 50, 500, 500, 500),
        [(0.2588546797560945, 2.534626812709569)]),
    "double_sided": (
        lambda: _double(P_S, P_I),
        [(0.00952831441010039, 0.04383623391269516),
         (0.06767553869472474, 0.1495015779325513)]),
    "double_equal_powers": (
        lambda: _double(P_S, P_S),
        [(0.03453788757266135, 0.19946211118289792)]),
    "double_p25": (
        lambda: _double(P_S, P_I, p=25),
        [(0.00013769201111252496, 0.23468011432465535)]),
    "double_p50": (
        lambda: _double(P_S, P_I, p=50),
        [(0.00288090888240283, 0.05517357491892492),
         (0.05760499476171336, 0.1911321875738467)]),
    "double_p100": (
        lambda: _double(P_S, P_I, p=100),
        [(0.006510373606319719, 0.04863632145017146),
         (0.06245195157998344, 0.1650263532854167)]),
    "double_pathological": (
        lambda: _double(0.1, 0.1, k=10, l=1, m=10, n=10, p=10),
        None),
    "distinct": (
        lambda: rmt.support_distinct(K, L, M, N, P, P_I),
        [(0.013484992206563696, 0.0415953859412137)]),
    "distinct_two_cells": (
        lambda: rmt.support_distinct(K, 2, M, N, P, P_I),
        [(0.01599859977692816, 0.03672214064619902)]),
}


@pytest.mark.parametrize("name", sorted(SUPPORT_PINS))
def test_support_matches_recorded_intervals(name):
    scan, expected = SUPPORT_PINS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if expected is None:
            with pytest.raises(ConfigError):
                scan()
            return
        got = scan().intervals
    assert len(got) == len(expected)
    for (lo, hi), (elo, ehi) in zip(got, expected):
        assert lo == pytest.approx(elo, rel=1e-6)
        assert hi == pytest.approx(ehi, rel=1e-6)


def _branch_point(table, s, x, steps=50):
    """Newton on F = dF/dx = 0 for the inverse-function table F(s, x) (entry
    [a, b] the coefficient of s^a x^b) from (s, x); None on a singular step."""
    fx = npp.polyder(table, axis=1)
    jac = [[npp.polyder(table, axis=0), fx],
           [npp.polyder(fx, axis=0), npp.polyder(fx, axis=1)]]
    for _ in range(steps):
        f = [npp.polyval2d(s, x, table), npp.polyval2d(s, x, fx)]
        try:
            ds, dx = np.linalg.solve(
                [[npp.polyval2d(s, x, c) for c in row] for row in jac], f)
        except np.linalg.LinAlgError:
            return None
        s, x = s - ds, x - dx
    return s, x


_FIG_ONE = dict(m=M, n=N, p=P)
_FIG_DOUBLE = rmt.DoubleSidedParams(num_users=K, num_cells=L, num_antennas=M,
                                    block_length=N, num_aoas=P, p_signal=PS_FIG,
                                    p_interference=PI_FIG)
# the fig-point laws of sim.law_support (before N scaling) -> inverse tables
FIG_TABLES = {
    "iid_signal": lambda: support_mod.iid_inverse_coeffs(PS_FIG, K / M, K / N),
    "iid_interference": lambda: support_mod.iid_inverse_coeffs(
        PI_FIG, K * (L - 1) / M, K * (L - 1) / N),
    "one_sided_signal": lambda: support_mod.onesided_inverse_coeffs(
        rmt.OneSidedParams(scale=PS_FIG, inner_dim=K, **_FIG_ONE)),
    "one_sided_interference": lambda: support_mod.onesided_inverse_coeffs(
        rmt.OneSidedParams(scale=PI_FIG, inner_dim=K * (L - 1), **_FIG_ONE)),
    "double_sided": lambda: support_mod.double_inverse_coeffs(_FIG_DOUBLE),
    "distinct_interference": lambda: support_mod.distinct_inverse_coeffs(
        K, L, M, N, P, PI_FIG),
}
# known scan-vs-branch-point gaps (ROADMAP item 3): 2.8e-5 to 1.6e-4 relative,
# where the law's density is already zero; exact edges move the benchmark's
# stored fig-point references, so the fix waits for a re-record
_EDGE_GAP = pytest.mark.xfail(strict=True, raises=AssertionError,
                              reason="scan edge off the branch point (ROADMAP item 3)")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_EDGE_GAP) if name in (
        "iid_signal", "iid_interference", "double_sided", "distinct_interference")
    else name for name in FIG_TABLES])
def test_fig_point_edges_are_branch_points(name):
    """A support edge is a real branch point of the inverse function s(x):
    a real solution of F = dF/dx = 0.  Newton from every scan edge and every
    root x of F(edge, x) must find one within 1e-6 of each edge."""
    table = FIG_TABLES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        edges = np.ravel(support_mod.scan_support(table, name).intervals)
    for edge in edges:
        starts = np.roots(npp.polyval(edge, table)[::-1])
        found = [_branch_point(table, complex(edge), complex(x0)) for x0 in starts]
        real = [s.real for s, x in filter(None, found)
                if abs(s.imag) <= 1e-9 * abs(s) and abs(x.imag) <= 1e-9 * abs(x)]
        assert real, f"{name}: no real branch point from edge {edge}"
        nearest = min(real, key=lambda r: abs(r - edge))
        assert abs(nearest - edge) <= 1e-6 * edge, \
            f"{name}: edge {edge}, branch point {nearest}"


# scan_pins.json holds 40 seeded random scans, ten per law, recorded from the
# multi-helper scan that preceded the one-pass scan_support: each case's
# arguments, its intervals or ConfigError text, and every warning it raised
SCAN_PINS = json.loads((Path(__file__).parent / "scan_pins.json").read_text())
_SCANS = {"onesided": lambda a: rmt.support_onesided(rmt.OneSidedParams(**a)),
          "double": lambda a: rmt.support_double_sided(rmt.DoubleSidedParams(**a)),
          "distinct": lambda a: rmt.support_distinct(**a),
          "iid": lambda a: rmt.support_iid(**a)}


@pytest.mark.parametrize("case", sorted(SCAN_PINS))
def test_scan_matches_exact_pin(case):
    pin = SCAN_PINS[case]
    got = {"law": pin["law"], "args": pin["args"]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got["intervals"] = [list(iv) for iv in _SCANS[pin["law"]](pin["args"]).intervals]
        except ConfigError as exc:
            got["error"] = str(exc)
    got["warnings"] = [str(w.message) for w in caught]
    assert got == pin


def test_scan_pins_cover_every_scan_outcome():
    texts = [t for pin in SCAN_PINS.values() for t in [pin.get("error", "")] + pin["warnings"]]
    for law in _SCANS:
        assert any(pin["law"] == law and "intervals" in pin for pin in SCAN_PINS.values())
    for phrase in ("x-grid too narrow", "no positive support interval",
                   "did not resolve the bulk"):
        assert any(phrase in t for t in texts)
