"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 1 is split so its independently-passing clauses stay visible. Its
bulk-median clause compares each empirical bulk median with the median of
the double-sided law's own density over the matching support interval
(22.41 and 102.32 at the fig3 point, from a trapezoid CDF of Im G/pi), not
with the cluster centres N*p_I = 25.12 and N*p_s = 100: the interference
bulk is right-skewed and pulled down by the signal bulk, so its median sits
about 11% below N*p_I in the law and in the simulation alike. The centres
are still printed for information.
"""

import time
import warnings
import zlib

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import ks_2samp

import oracles
from conftest import crandn, onesided_product_eigs, steering
from mimospectra import rmt, sim
from mimospectra.channel import SystemParams

warnings.filterwarnings("ignore", message=".*K << P.*")

P_S = 10.0 ** (-10.0 / 10.0)          # -10 dB
P_I = 10.0 ** (-16.0 / 10.0)          # -16 dB
FIG3 = SystemParams(num_antennas=400, users_per_cell=5, num_cells=4,
                    block_length=1000, aoa_counts=(200,), signal_power=P_S,
                    interference_power=P_I, noise_enabled=False,
                    spacing_ratio=2.0, scenario="identical_aoas")

_BER_WALL_CLOCK: dict[str, float] = {}


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# per trial, the K*(L-1) lowest eigenvalues form the interference bulk and
# the K highest the signal bulk
FIG3_USERS = FIG3.users_per_cell * FIG3.num_cells
FIG3_SPLIT = FIG3.users_per_cell * (FIG3.num_cells - 1)


def _split_bulks(samples):
    lows = np.concatenate([np.sort(s)[:FIG3_SPLIT] for s in samples])
    highs = np.concatenate([np.sort(s)[FIG3_SPLIT:] for s in samples])
    return lows, highs


def _law_bulk_medians(evaluator, intervals, points=2001, eps=1e-7):
    """(median, mass) of the density Im G(x + i*eps)/pi over each interval,
    read off a trapezoid CDF on ``points`` equispaced nodes."""
    out = []
    for lo, hi in intervals:
        xs = np.linspace(lo, hi, points)
        dens = rmt.density_from_stieltjes(evaluator, xs, eps=eps)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))))
        out.append((float(np.interp(0.5 * cdf[-1], cdf, xs)), float(cdf[-1])))
    return out


@pytest.fixture(scope="module")
def fig3_run():
    t0 = time.time()
    samples = sim.run_eigen_experiment(FIG3, trials=20, seed=1234)
    supports = sim.overlays(FIG3, "all")
    return samples, supports, time.time() - t0


@pytest.fixture(scope="module")
def fig3_law(fig3_run):
    """Law medians and masses per double-sided support interval, N-scaled
    like the Monte Carlo spectrum; apart from fig3_run so that fixture's
    timer covers the run alone."""
    _, supports, _ = fig3_run
    n = FIG3.block_length
    law = rmt.DoubleSidedParams.from_system(FIG3)
    intervals = [(lo / n, hi / n) for lo, hi in supports["double_sided"].intervals]
    return [(med * n, mass) for med, mass in
            _law_bulk_medians(lambda s: rmt.stieltjes_double_sided(s, law), intervals)]


def test_criterion_1_law_median_helper_mp_oracle():
    beta = 0.25
    a, b = (1 - np.sqrt(beta)) ** 2, (1 + np.sqrt(beta)) ** 2
    (med, mass), = _law_bulk_medians(lambda s: rmt.mp_stieltjes(s, beta), [(a, b)])
    density = lambda x: oracles.mp_density(x, beta)  # noqa: E731
    total = quad(density, a, b)[0]
    ref = brentq(lambda x: quad(density, a, x)[0] - 0.5 * total, a, b, xtol=1e-12)
    err = abs(med - ref) / ref
    ok = err < 1e-3 and abs(mass - total) < 1e-3
    assert _verdict("1.helper", ok,
                    f"MP(0.25) median {med:.6f} vs quad/brentq {ref:.6f} "
                    f"({err:.1e} rel), mass {mass:.5f} vs {total:.5f}")


def test_criterion_1_bulk_medians(fig3_run, fig3_law):
    samples, _, _ = fig3_run
    lows, highs = _split_bulks(samples)
    assert len(fig3_law) == 2, f"expected two law bulks, got {len(fig3_law)}"
    (law_lo, mass_lo), (law_hi, mass_hi) = fig3_law
    med_lo, med_hi = np.median(lows), np.median(highs)
    err_lo = abs(med_lo - law_lo) / law_lo
    err_hi = abs(med_hi - law_hi) / law_hi
    want_lo = FIG3_SPLIT / FIG3_USERS
    want_hi = FIG3.users_per_cell / FIG3_USERS
    mass_ok = abs(mass_lo - want_lo) < 0.01 and abs(mass_hi - want_hi) < 0.01
    ok = err_lo < 0.05 and err_hi < 0.05 and mass_ok
    n = FIG3.block_length
    c_lo, c_hi = n * FIG3.interference_power, n * FIG3.signal_power
    _verdict("1.medians", ok,
             f"bulk medians {med_lo:.2f}, {med_hi:.2f} vs law medians "
             f"{law_lo:.2f} ({err_lo:.1%}), {law_hi:.2f} ({err_hi:.1%}); law "
             f"masses {mass_lo:.3f}, {mass_hi:.3f} (want {want_lo:.2f}, "
             f"{want_hi:.2f}); centres N*p_I {c_lo:.2f} "
             f"({abs(med_lo - c_lo) / c_lo:.1%} off), N*p_s {c_hi:.2f} "
             f"({abs(med_hi - c_hi) / c_hi:.1%} off); bulk means "
             f"{lows.mean():.2f}, {highs.mean():.2f}")
    assert ok, (
        f"bulk medians {med_lo:.2f}, {med_hi:.2f} against the law's medians "
        f"{law_lo:.2f}, {law_hi:.2f} (tolerance 5%), law masses "
        f"{mass_lo:.3f}, {mass_hi:.3f} against {want_lo:.2f}, {want_hi:.2f} "
        "(tolerance 0.01)")


def test_criterion_1_support_containment_and_runtime(fig3_run):
    samples, supports, elapsed = fig3_run
    sup = supports["double_sided"]
    assert len(sup.intervals) == 2
    pooled = np.concatenate(samples)
    frac = oracles.contains(sup, pooled, slack=0.05).mean()
    lows, highs = _split_bulks(samples)
    edges = [(sup.intervals[0][0], lows.min()), (sup.intervals[0][1], lows.max()),
             (sup.intervals[1][0], highs.min()), (sup.intervals[1][1], highs.max())]
    edge_errs = [abs(a - e) / e for a, e in edges]
    ok = frac >= 0.99 and max(edge_errs) < 0.10 and elapsed < 120.0
    assert _verdict(
        "1.support", ok,
        f"containment {frac:.2%} (5%-dilated intervals, module invariant), "
        f"worst endpoint-vs-bulk-edge {max(edge_errs):.1%}, runtime {elapsed:.0f}s")


def test_criterion_2_onesided_bracketing():
    checks = []
    for scale, inner, seed in ((P_S, 5, 51), (P_I, 15, 52)):
        params = rmt.OneSidedParams(scale=scale, inner_dim=inner, m=400, n=1000, p=200)
        sup = rmt.support_onesided(params)
        rng = np.random.default_rng(seed)
        samples = np.concatenate([
            onesided_product_eigs(rng, scale, inner, 400, 1000, 200, physical=True)
            for _ in range(50)])
        checks.append(bool(np.all(oracles.contains(sup, samples, slack=0.10))))
    ok = all(checks)
    assert _verdict("2", ok, f"signal bracketed: {checks[0]}, "
                             f"interference bracketed: {checks[1]} (10% slack, 50 trials)")


def test_criterion_3_rich_scattering_convergence():
    wide = rmt.OneSidedParams(scale=P_S, inner_dim=5, m=400, n=1000, p=10 ** 4 * 400)
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(0.005, 0.4), rng.uniform(1e-3, 1.0))
        g10 = rmt.stieltjes_onesided(s, wide)
        g19 = rmt.stieltjes_iid_limit(s, P_S, 5 / 400, 5 / 1000)
        worst = max(worst, abs(g10 - g19) / abs(g19))
    ok = worst < 0.01
    assert _verdict("3", ok, f"worst relative gap over 20 points: {worst:.2e}")


def test_criterion_4_block_mixture_identity():
    rng = np.random.default_rng(54)
    sizes = (50, 100, 200)
    blocks = [crandn(rng, p, 5) for p in sizes]
    n = sum(sizes)
    worst = 0.0
    for _ in range(10):
        s = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
        whole, weighted = 0.0, 0.0
        for p, b in zip(sizes, blocks):
            tr = np.trace(np.linalg.inv(b @ b.conj().T - s * np.eye(p)))
            whole += tr / n
            weighted += (p / n) * (tr / p)
        worst = max(worst, abs(whole - weighted))
    ok = worst < 1e-12
    assert _verdict("4", ok, f"worst identity residual over 10 points: {worst:.2e}")


def test_criterion_5_mp_oracle():
    beta = 0.25
    comp = [oracles.MixtureComponent(weight=1.0, ratio=beta)]
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(-1.5, 3.0), rng.uniform(1e-3, 1.0))
        g = oracles.mixture_stieltjes(s, comp)
        oracle = (1.0 / beta) * rmt.mp_stieltjes(s / beta, 1.0 / beta)
        worst = max(worst, abs(g - oracle))
    a, b = (1 - np.sqrt(beta)) ** 2, (1 + np.sqrt(beta)) ** 2
    xs = np.linspace(a + 0.05, b - 0.05, 200)
    dens = rmt.density_from_stieltjes(lambda s: rmt.mp_stieltjes(s, beta), xs, eps=1e-4)
    dev = np.abs(dens - oracles.mp_density(xs, beta)).max()
    ok = worst < 1e-8 and dev < 0.02
    assert _verdict("5", ok, f"transform sup-diff {worst:.2e}, "
                             f"off-edge density deviation {dev:.4f}")


def test_criterion_6_antenna_saturation():
    base = SystemParams(num_antennas=400, users_per_cell=5, num_cells=4,
                        block_length=1000, aoa_counts=(100,), signal_power=P_S,
                        interference_power=P_I, noise_enabled=False,
                        spacing_ratio=2.0, scenario="identical_aoas")
    ref = None
    ks_values = []
    for m_phys in (200, 400, 600):
        phys, iid = sim.run_saturation_experiment(100, m_phys, base, trials=500,
                                                  seed=77)
        if ref is None:
            ref = np.concatenate(iid)
        pooled = np.concatenate(phys)
        assert pooled.size >= 10_000 and ref.size >= 10_000
        ks_values.append(ks_2samp(pooled, ref).statistic)
    monotone = all(a >= b - 1e-12 for a, b in zip(ks_values, ks_values[1:]))
    ok = ks_values[-1] < 0.05 and monotone
    assert _verdict("6", ok, f"KS over M_phys (200,400,600): "
                             f"{[round(k, 4) for k in ks_values]}; final < 0.05 "
                             f"and nonincreasing: {monotone}")


def test_criterion_6_saturation_at_large_m():
    """Criterion 6 carried to M = 1e4 and 1e5, where the noiseless trials use
    the closed-form steering Gram and cost about what they cost at M = 600."""
    base = SystemParams(num_antennas=400, users_per_cell=5, num_cells=4,
                        block_length=1000, aoa_counts=(100,), signal_power=P_S,
                        interference_power=P_I, noise_enabled=False,
                        spacing_ratio=2.0, scenario="identical_aoas")
    t0 = time.time()
    ks_values = []
    for m_phys in (10_000, 100_000):
        phys, iid = sim.run_saturation_experiment(100, m_phys, base, trials=500,
                                                  seed=77)
        pooled, ref = (np.concatenate(r) for r in (phys, iid))
        assert pooled.size >= 10_000 and ref.size >= 10_000
        ks_values.append(ks_2samp(pooled, ref).statistic)
    elapsed = time.time() - t0
    ok = max(ks_values) < 0.05 and elapsed < 30.0
    assert _verdict("6 (large M)", ok, f"KS at M_phys (1e4, 1e5): "
                                       f"{[round(k, 4) for k in ks_values]} < 0.05; "
                                       f"pair in {elapsed:.1f} s < 30 s")


def test_criterion_7_distinct_widening():
    base = dict(num_antennas=400, users_per_cell=5, num_cells=4, block_length=1000,
                signal_power=P_S, interference_power=P_I, noise_enabled=False,
                spacing_ratio=2.0, scenario="distinct_aoas")
    equal = SystemParams(aoa_counts=(200,) * 4, **base)
    skew = SystemParams(aoa_counts=(200, 200, 200, 20), **base)
    res_e = sim.run_eigen_experiment(equal, 20, 11)
    res_s = sim.run_eigen_experiment(skew, 20, 11)

    def width_ci(res):
        w = np.array([np.ptp(np.sort(s)[:15]) for s in res])
        return w.mean(), 1.96 * w.std(ddof=1) / np.sqrt(len(w))

    me, he = width_ci(res_e)
    ms, hs = width_ci(res_s)
    separated = ms - hs > me + he

    intf = sim.run_eigen_experiment(equal, 20, 12, terms="interference")
    pooled = np.concatenate(intf)
    sup = rmt.support_distinct(5, 4, 400, 1000, 200, P_I).scaled(1000)
    (lo, hi), = sup.intervals
    edge_ok = (abs(lo - pooled.min()) / pooled.min() < 0.10
               and abs(hi - pooled.max()) / pooled.max() < 0.10)
    ok = separated and edge_ok
    assert _verdict("7", ok,
                    f"widths {me:.1f}+-{he:.1f} vs {ms:.1f}+-{hs:.1f} "
                    f"(CI-separated: {separated}); equal-AoA support "
                    f"[{lo:.1f},{hi:.1f}] vs bulk [{pooled.min():.1f},"
                    f"{pooled.max():.1f}] within 10%: {edge_ok}")


def _physical_fig7_params(m):
    snr = sim.db_to_linear(-5.0)
    return SystemParams(num_antennas=m, users_per_cell=5, num_cells=4,
                        block_length=400, aoa_counts=(50,), signal_power=snr,
                        interference_power=snr, noise_enabled=True,
                        spacing_ratio=0.5, scenario="identical_aoas")


def test_criterion_8a_subspace_beats_pilot():
    t0 = time.time()
    res = sim.run_ber_experiment(_physical_fig7_params(100), [-9.0], 200_000, seed=21)
    _BER_WALL_CLOCK["a"] = time.time() - t0
    s, p = res["subspace"][0], res["pilot"][0]
    ok = s.ci_hi < p.ci_lo and s.bits >= 200_000
    assert _verdict("8a", ok,
                    f"subspace {s.ber:.4f} [{s.ci_lo:.4f},{s.ci_hi:.4f}] vs "
                    f"pilot {p.ber:.4f} [{p.ci_lo:.4f},{p.ci_hi:.4f}], "
                    f"{s.bits} bits")


def test_criterion_8b_iid_no_worse_than_physical():
    t0 = time.time()
    ratios = [-12.0, -9.0, -6.0, -3.0, 0.0]
    phys = sim.run_ber_experiment(_physical_fig7_params(100), ratios, 200_000, seed=22)
    iid_params = SystemParams(num_antennas=100, users_per_cell=5, num_cells=4,
                              block_length=400,
                              signal_power=sim.db_to_linear(-5.0),
                              interference_power=1.0, noise_enabled=True,
                              scenario="iid")
    iid = sim.run_ber_experiment(iid_params, ratios, 200_000, seed=22)
    _BER_WALL_CLOCK["b"] = time.time() - t0
    gaps = []
    ok = True
    for ps, pi_ in zip(phys["subspace"], iid["subspace"]):
        ok &= pi_.ber <= ps.ci_hi
        gaps.append(ps.ber - pi_.ber)
    assert _verdict("8b", ok, "physical-minus-iid BER gaps per ratio: "
                              f"{[round(g, 4) for g in gaps]}")


def test_criterion_8c_p4_sweep():
    t0 = time.time()
    snr = sim.db_to_linear(-5.0)
    base = SystemParams(num_antennas=200, users_per_cell=5, num_cells=4,
                        block_length=400, aoa_counts=(100, 100, 100, 100),
                        signal_power=snr, interference_power=snr,
                        noise_enabled=True, spacing_ratio=0.5,
                        scenario="distinct_aoas")
    fam = sim.run_distinct_aoa_ber(base, [10, 20, 50, 100], [-9.0], 200_000, seed=23)
    _BER_WALL_CLOCK["c"] = time.time() - t0
    subs = [fam[p4]["subspace"][0] for p4 in (10, 20, 50, 100)]
    pils = [fam[p4]["pilot"][0] for p4 in (10, 20, 50, 100)]
    # CI-aware nonincreasing: each later point no higher than the earlier
    # point's upper confidence limit
    mono = all(b.ber <= a.ci_hi for a, b in zip(subs, subs[1:]))
    indist = all(max(a.ci_lo, b.ci_lo) <= min(a.ci_hi, b.ci_hi)
                 for i, a in enumerate(pils) for b in pils[i + 1:])
    ok = mono and indist
    assert _verdict("8c", ok,
                    f"subspace BER by P4: {[round(s.ber, 4) for s in subs]} "
                    f"(CI-aware nonincreasing: {mono}); pilot CI-overlapping "
                    f"pairwise: {indist}")


def test_criterion_8d_short_coherence():
    t0 = time.time()
    p_s = sim.db_to_linear(0.0)
    base = SystemParams(num_antennas=200, users_per_cell=15, num_cells=4, block_length=120,
                        signal_power=p_s, interference_power=p_s, noise_enabled=True,
                        scenario="iid")
    fam = sim.run_short_coherence_ber(base, [30, 60], [-9.0], 200_000, seed=24)
    _BER_WALL_CLOCK["d"] = time.time() - t0
    parts = []
    ok = True
    for n in (30, 60):
        s, p = fam[n]["subspace"][0], fam[n]["pilot"][0]
        ok &= s.ci_hi < p.ci_lo
        parts.append(f"N={n}: {s.ber:.4f} < {p.ber:.4f}")
    total = sum(_BER_WALL_CLOCK.values())
    ok &= total < 1800.0
    assert _verdict("8d", ok, "; ".join(parts)
                    + f"; criterion-8 wall clock {total:.0f}s (< 30 min)")


FIG3_ONESIDED = rmt.OneSidedParams(scale=P_S, inner_dim=5, m=400, n=1000, p=200)
FIG3_DOUBLE = rmt.DoubleSidedParams(num_users=5, num_cells=4, num_antennas=400,
                                    block_length=1000, num_aoas=200,
                                    p_signal=P_S, p_interference=P_I)


def test_criterion_9_property_suites():
    evaluators = {
        "mp": (lambda s: rmt.mp_stieltjes(s, 0.25), 2e-6,
               lambda s, g: abs(0.25 * s * g * g - (1 - 0.25 - s) * g + 1.0)
               / (abs(0.25 * s * g * g) + abs((1 - 0.25 - s) * g) + 1.0)),
        "onesided": (lambda s: rmt.stieltjes_onesided(s, FIG3_ONESIDED), 1e-6,
                     lambda s, g: rmt.onesided_residual(s, g, FIG3_ONESIDED)),
        "iid": (lambda s: rmt.stieltjes_iid_limit(s, P_S, 5 / 400, 5 / 1000), 1e-6,
                lambda s, g: rmt.iid_limit_residual(s, g, P_S, 5 / 400, 5 / 1000)),
        "double": (lambda s: rmt.stieltjes_double_sided(s, FIG3_DOUBLE), 1e-6,
                   lambda s, g: rmt.double_sided_residual(s, g, FIG3_DOUBLE)),
    }
    law_ok = {}
    for name, (evaluator, decay_tol, residual) in evaluators.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()) % 2 ** 31)
        herglotz = True
        res_worst = 0.0
        for _ in range(100):
            s = complex(rng.uniform(-0.3, 0.4), rng.uniform(1e-3, 2.0))
            g = evaluator(s)
            herglotz &= g.imag > 0
            res_worst = max(res_worst, residual(s, g))
        decay = max(abs(s * evaluator(s) + 1.0) for s in (1e6j, 0.2 + 1e6j))
        law_ok[name] = herglotz and decay < decay_tol and res_worst < 1e-8

    prev, mono = -1.0, True
    for p_count in (25, 50, 100, 200):
        params = rmt.DoubleSidedParams(num_users=5, num_cells=4, num_antennas=400,
                                       block_length=1000, num_aoas=p_count,
                                       p_signal=P_S, p_interference=P_I)
        sup = rmt.support_double_sided(params)
        gap = oracles.gap_widths(sup)[0] if oracles.gap_widths(sup) else 0.0
        mono &= gap >= prev
        prev = gap

    grid = [x + 1j * y for x in np.linspace(-1, 1, 10) for y in (0.5, 2.0)]
    link_mp = oracles.s_stieltjes_link_check(lambda z: oracles.mp_s_transform(z, 0.5),
                                             lambda s: rmt.mp_stieltjes(s, 0.5), grid)
    link_tm = oracles.s_stieltjes_link_check(
        lambda z: oracles.s_transform_two_mass(z, P_S, P_I, 4),
        lambda s: oracles.two_mass_stieltjes(s, P_S, P_I, 4), grid)
    ok = all(law_ok.values()) and mono and link_mp < 1e-8 and link_tm < 1e-8
    assert _verdict("9", ok,
                    f"law batteries {law_ok}; gap monotone in P: {mono}; "
                    f"link residuals mp {link_mp:.1e}, two-mass {link_tm:.1e}")
