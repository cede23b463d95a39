"""Subspace pipeline, pilot baseline, and QPSK plumbing."""

import ast
import ctypes
import re
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import subspace_angles

from mimospectra import estimation, sim
from mimospectra.channel import SystemParams, crandn, realize_channel
from mimospectra.errors import ConfigError, NumericalError
from mimospectra.estimation import (
    PilotLayout,
    count_bit_errors,
    estimate_subspace_channel,
    mf_detect,
    pilot_based_detect,
    qpsk_map,
    qpsk_quantize,
    signal_subspace,
)


def _single_cell_block(rng, m=64, p=32, k=4, n=128, p_s=0.25):
    aoas = rng.uniform(0, np.pi, p)
    s = np.exp(-2j * np.pi * 2.0 * np.arange(m)[:, None] * np.cos(aoas)) / np.sqrt(p)
    h = s @ crandn(rng, p, k)
    layout = PilotLayout(num_users=k, block_length=n)
    data = layout.data_block(rng)
    x = layout.assemble(data)
    return np.sqrt(p_s) * (h @ x), h, layout, data


class TestSignalSubspace:
    def test_noiseless_single_cell_captures_column_space(self, rng):
        y, h, _, _ = _single_cell_block(rng)
        u = signal_subspace(y, 4)
        res = np.linalg.norm(u @ u.conj().T @ h - h) / np.linalg.norm(h)
        assert res < 1e-8

    def test_orthonormal_columns(self, rng):
        y = crandn(rng, 32, 64)
        u = signal_subspace(y, 6)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)

    def test_full_subspace_is_unitary(self, rng):
        y = crandn(rng, 8, 16)
        u = signal_subspace(y, 8)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_separated_clusters_principal_angle(self):
        # well-separated clusters: the dominant subspace tracks the
        # served-cell channel.  At fixed ratios the angle converges to a
        # nonzero constant (interference leakage); measured median ~13
        # degrees, worst 16.8 over 20 trials at these dimensions.
        params = SystemParams(num_antennas=400, users_per_cell=5, num_cells=4,
                              block_length=1000, aoa_counts=(200,), signal_power=0.1,
                              interference_power=0.025, noise_enabled=False,
                              scenario="identical_aoas")
        worst = 0.0
        for t in range(20):
            g = np.random.default_rng((77, t))
            ch = realize_channel(params, g)
            x = crandn(g, 20, 1000)
            d = np.concatenate([np.full(5, 0.1), np.full(15, 0.025)])
            y = ch.composite @ (np.sqrt(d)[:, None] * x)
            u = signal_subspace(y, 5)
            ang = subspace_angles(u, ch.composite[:, :5]).max()
            worst = max(worst, np.degrees(ang))
        assert worst < 20.0

    def test_degenerate_spectrum_warns(self):
        with pytest.warns(UserWarning, match="degenerate"):
            signal_subspace(np.eye(6, dtype=complex), 3)

    def test_k_too_large(self, rng):
        with pytest.raises(ConfigError):
            signal_subspace(crandn(rng, 8, 16), 9)


def _svd_projector(y, k):
    u = np.linalg.svd(y, full_matrices=False)[0][:, :k]
    return u @ u.conj().T


def _planted(rng, m, n, k, tail):
    """Rank-k signal whose weakest direction is ``tail`` times the strongest,
    plus noise 1e3 times weaker than that direction."""
    scale = np.logspace(0, np.log10(tail), k)
    return (crandn(rng, m, k) @ np.diag(scale) @ crandn(rng, k, n)
            + 1e-3 * tail * crandn(rng, m, n))


class TestGramSideSubspace:
    """signal_subspace solves on the smaller Gram side (Y Y^H when M <= N,
    else Y^H Y lifted by Y V Sigma^-1); the SVD is the reference."""

    @pytest.mark.parametrize("m,n,k", [(32, 64, 6), (64, 32, 6), (200, 400, 5),
                                       (200, 30, 15), (200, 120, 15), (16, 16, 16)])
    def test_matches_svd_subspace(self, rng, m, n, k):
        for y in (crandn(rng, m, n), _planted(rng, m, n, k, 0.1)):
            u = signal_subspace(y, k)
            assert u.shape == (m, k)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(k), rtol=0, atol=1e-12)
            assert np.linalg.norm(u @ u.conj().T - _svd_projector(y, k), 2) < 1e-12

    @pytest.mark.parametrize("m,n", [(10, 6), (6, 10), (40, 40)])
    def test_rank_deficient_is_orthonormal_and_warns(self, rng, m, n):
        # rank 2 < K = 3: sigma_K and sigma_{K+1} are both round-off
        y = crandn(rng, m, 2) @ crandn(rng, 2, n)
        with pytest.warns(UserWarning, match="degenerate"):
            u = signal_subspace(y, 3)
        assert np.isfinite(u).all()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), rtol=0, atol=1e-12)
        # the three columns contain the whole (rank-2) column space
        assert np.linalg.norm(y - u @ (u.conj().T @ y)) < 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("m,n", [(60, 30), (30, 60)])
    @pytest.mark.parametrize("tail", [2e-3, 1e-5, 1e-8])
    def test_ill_conditioned_signal(self, rng, m, n, tail):
        # sigma_K / sigma_1 ~ tail: just above GRAM_RTOL the Gram side still
        # holds to ~eps * tail^-2, below it the SVD is used
        y = _planted(rng, m, n, 5, tail)
        u = signal_subspace(y, 5)
        assert np.isfinite(u).all()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), rtol=0, atol=1e-9)
        assert np.linalg.norm(u @ u.conj().T - _svd_projector(y, 5), 2) < 1e-9

    def test_zero_block(self):
        with pytest.warns(UserWarning, match="degenerate"):
            u = signal_subspace(np.zeros((8, 5), dtype=complex), 2)
        assert np.isfinite(u).all()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def _ber_block(seed, scenario, m, n, k, aoa_counts=()):
    """One received BER block at 0 dB SNR and ratio, drawn as the runner does."""
    params = SystemParams(num_antennas=m, users_per_cell=k, num_cells=4, block_length=n,
                          aoa_counts=aoa_counts, signal_power=1.0, interference_power=1.0,
                          noise_enabled=True, spacing_ratio=0.5, scenario=scenario)
    layout = PilotLayout(num_users=k, block_length=n)

    def draw_symbols(rng):
        return np.vstack([layout.assemble(layout.data_block(rng)) for _ in range(4)])

    return sim.draw_block(params, np.random.default_rng(seed), draw_symbols, np.ones(4 * k))[0]


def _assert_same_projector(u, u_ref):
    """The two bases span the same subspace: their projectors U U^H agree
    within 1e-12 (numpy's eigh solves every pair, so the bits may differ)."""
    assert u.shape == u_ref.shape
    np.testing.assert_allclose(u @ u.conj().T, u_ref @ u_ref.conj().T, rtol=0.0, atol=1e-12)


class TestHermitianSolver:
    """The top eigenpairs come from the bundled LAPACKE_zheevr, bitwise equal
    to scipy.linalg.eigh(subset_by_index=...), which calls the same routine."""

    # fig7 at desk scale (200 x 400, K = 5, left Gram) and fig9 (200 x N,
    # K = 15, right Gram); then K + 1 = min(M, N) and K + 1 > min(M, N),
    # where every eigenpair is taken
    SHAPES = [("identical_aoas", 200, 400, 5, (100,)), ("iid", 200, 30, 15, ()),
              ("iid", 200, 60, 15, ()), ("iid", 200, 120, 15, ()),
              ("iid", 40, 16, 15, ()), ("iid", 15, 40, 15, ())]

    @pytest.mark.parametrize("scenario,m,n,k,aoas", SHAPES)
    def test_bitwise_equal_to_scipy_eigh(self, scenario, m, n, k, aoas):
        for seed in range(3):
            y = _ber_block(seed, scenario, m, n, k, aoas)
            gram = y @ y.conj().T if m <= n else y.conj().T @ y
            r = min(m, n)
            lo = r - min(k + 1, r)
            w, v = estimation._top_eigenpairs(gram, lo)
            w_ref, v_ref = scipy.linalg.eigh(gram, subset_by_index=[lo, r - 1])
            assert w.tobytes() == w_ref.tobytes() and w.shape == (r - lo,)
            assert v.tobytes() == v_ref.tobytes() and v.strides == v_ref.strides

    def test_bundled_solver_found(self):
        openblas = estimation.bundled_openblas()
        assert openblas is not None and callable(openblas.scipy_LAPACKE_zheevr64_)

    @pytest.mark.parametrize("m,n,k", [(200, 400, 5), (200, 60, 15), (15, 40, 15)])
    def test_fallback_gives_same_subspace(self, m, n, k, monkeypatch):
        y = _ber_block(1, "iid", m, n, k)
        bundled = signal_subspace(y, k)
        monkeypatch.setattr(estimation, "bundled_openblas", lambda: None)
        assert estimation.bundled_openblas() is None
        _assert_same_projector(signal_subspace(y, k), bundled)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("bundled", [True, False])
    def test_non_finite_block_is_numerical_error(self, rng, bad, bundled, monkeypatch):
        if not bundled:
            monkeypatch.setattr(estimation, "bundled_openblas", lambda: None)
        y = crandn(rng, 8, 16)
        y[3, 5] = bad
        with pytest.raises(NumericalError, match="not finite") as info:
            signal_subspace(y, 2)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("code", [-1010, 1])
    def test_lapack_info_is_numerical_error(self, rng, code, monkeypatch):
        openblas = estimation.bundled_openblas()._replace(
            scipy_LAPACKE_zheevr64_=lambda *args: code)
        monkeypatch.setattr(estimation, "bundled_openblas", lambda: openblas)
        with pytest.raises(NumericalError, match=f"info={code}$") as info:
            signal_subspace(crandn(rng, 8, 16), 2)
        assert len(str(info.value).splitlines()) == 1

    def test_pilot_is_scipy_dft(self):
        for k in range(1, 17):
            pilot = PilotLayout(num_users=k, block_length=k + 1).pilot
            want = scipy.linalg.dft(k)
            assert pilot.dtype == want.dtype and pilot.shape == want.shape
            assert pilot.tobytes() == want.tobytes()
            assert not pilot.flags.writeable


class TestGramProduct:
    """Each block's Gram is one zgemm that reads Y^H in place: bitwise numpy's
    product with the conjugated copy, and so are the eigenpairs solved on it;
    without that routine it is numpy's product."""

    # (M, N, K) of every block the presets and the benchmark build (fig7 and
    # intro at 200-600 x 400, fig9 at 200 or 400 x N), then small, short and
    # tall ones
    SHAPES = [(200, 400, 5), (400, 400, 5), (600, 400, 5), (100, 400, 5),
              (200, 30, 15), (200, 60, 15), (200, 120, 15), (400, 30, 15),
              (400, 60, 15), (400, 120, 15), (8, 12, 2), (50, 20, 3), (100, 15, 3),
              (30, 200, 5)]

    @pytest.mark.parametrize("bundled", [True, False])
    @pytest.mark.parametrize("m,n,k", SHAPES)
    def test_gram_is_numpys_product(self, m, n, k, bundled, monkeypatch):
        if not bundled:
            monkeypatch.setattr(estimation, "bundled_openblas", lambda: None)
        y = _ber_block(m + n, "iid", m, n, k)
        left = m <= n
        want = y @ y.conj().T if left else y.conj().T @ y
        gram = estimation.product(y, y, adjoint=1 if left else 0)
        assert gram.shape == want.shape and gram.tobytes() == want.tobytes()
        lo = min(m, n) - min(k + 1, m, n)
        (w, v), (w_ref, v_ref) = (estimation._top_eigenpairs(g, lo) for g in (gram, want))
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_bundled_product_found(self):
        openblas = estimation.bundled_openblas()
        assert openblas is not None and callable(openblas.scipy_cblas_zgemm64_)

    @pytest.mark.parametrize("adjoint", [None, 0, 1])
    def test_other_operands_take_numpys_product(self, rng, adjoint):
        # a real array, a column slice and an overlapping out are not handed to BLAS
        a, b = rng.standard_normal((6, 6)), crandn(rng, 6, 8)[:, 1:7]
        ops = [a, b]
        if adjoint is not None:
            ops[adjoint] = ops[adjoint].conj().T
        assert np.array_equal(estimation.product(a, b, adjoint), ops[0] @ ops[1])
        out = crandn(rng, 6, 6)
        want = out + out @ out
        assert estimation.product(out, out.copy(), out=out) is out
        assert np.array_equal(out, want)

    def test_subspace_holds_no_copy_of_the_block(self, traced_peak):
        y = crandn(np.random.default_rng(3), 200, 400)
        peak = traced_peak(lambda: signal_subspace(y, 5))
        # numpy's y @ y.conj().T held a conjugated copy of y: 1.50 y.nbytes
        assert peak < 1.25 * y.nbytes


class TestOpenblasBinding:
    """``estimation`` is the one module that binds numpy's bundled OpenBLAS,
    all four symbols or none; without them the thread cap, the products and
    the solve fall back."""

    def test_bundled_openblas_holds_every_symbol(self):
        openblas = estimation.bundled_openblas()
        assert openblas is not None and openblas._fields == tuple(estimation._SYMBOLS)
        for fn, (restype, *argtypes) in zip(openblas, estimation._SYMBOLS.values()):
            assert fn.restype is restype and list(fn.argtypes) == argtypes

    @pytest.mark.parametrize("missing", list(estimation._SYMBOLS))
    def test_one_missing_symbol_binds_nothing(self, missing, monkeypatch):
        # a stand-in library that exports every symbol but ``missing``
        def stand_in(names):
            return types.SimpleNamespace(**{name: types.SimpleNamespace() for name in names})

        monkeypatch.setattr(ctypes, "CDLL", lambda path: stand_in(estimation._SYMBOLS))
        assert estimation.bundled_openblas.__wrapped__() is not None
        rest = set(estimation._SYMBOLS) - {missing}
        monkeypatch.setattr(ctypes, "CDLL", lambda path: stand_in(rest))
        assert estimation.bundled_openblas.__wrapped__() is None

    def test_no_bundled_openblas(self, monkeypatch):
        y = _ber_block(1, "iid", 200, 60, 15)
        bundled = signal_subspace(y, 15)
        monkeypatch.setattr(estimation, "bundled_openblas", lambda: None)
        assert estimation.bundled_openblas() is None
        ran = []
        with estimation.one_blas_thread():
            ran.append(True)
        assert ran == [True]
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        assert sim._map_trials(lambda t: t * t, 10) == [t * t for t in range(10)]
        _assert_same_projector(signal_subspace(y, 15), bundled)

    def test_only_estimation_binds_openblas(self):
        # no other module imports ctypes or names an OpenBLAS or LAPACKE symbol
        package = Path(estimation.__file__).parent
        owner = package / "estimation.py"
        assert "ctypes" in _imported_modules(owner)
        for path in sorted(package.rglob("*.py")):
            if path != owner:
                assert "ctypes" not in _imported_modules(path), path
                assert not re.search(r"scipy_openblas|LAPACKE", path.read_text()), path


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules that the source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


class TestZfResolve:
    def test_noiseless_equals_projected_channel(self, rng):
        y, h, layout, _ = _single_cell_block(rng)
        u = signal_subspace(y, 4)
        g = layout.fit((u.conj().T @ y)[:, :4])
        expected = u.conj().T @ h * np.sqrt(0.25)
        assert np.abs(g - expected).max() < 1e-10

    def test_matches_plain_inverse_for_square_pilots(self, rng):
        layout = PilotLayout(num_users=4, block_length=8)
        xp = layout.pilot
        yp = crandn(rng, 4, 4)
        g1 = layout.fit(yp)
        g2 = yp @ np.linalg.inv(xp)
        assert np.abs(g1 - g2).max() < 1e-12

    def test_estimation_error_decreases_with_antennas(self):
        # relative subspace-channel error over M in {50, 100, 200}, noisy
        errs = []
        for m in (50, 100, 200):
            params = SystemParams(num_antennas=m, users_per_cell=5, num_cells=4,
                                  block_length=400, aoa_counts=(25,),
                                  signal_power=0.316, interference_power=0.04,
                                  noise_enabled=True, scenario="identical_aoas")
            layout = PilotLayout(num_users=5, block_length=400)
            tot = 0.0
            for t in range(30):
                g = np.random.default_rng((m, t))
                ch = realize_channel(params, g)
                data = [layout.data_block(g) for _ in range(4)]
                y = np.zeros((m, 400), dtype=complex)
                for i in range(4):
                    pw = params.signal_power if i == 0 else params.interference_power
                    y += np.sqrt(pw) * (ch.composite[:, 5 * i:5 * (i + 1)]
                                        @ layout.assemble(data[i]))
                y += crandn(g, m, 400)
                model = estimate_subspace_channel(y, layout)
                ref = model.basis.conj().T @ ch.composite[:, :5] * np.sqrt(params.signal_power)
                tot += float(np.linalg.norm(model.estimate - ref) / np.linalg.norm(ref))
            errs.append(tot / 30)
        assert errs[0] > errs[1] > errs[2]


class TestPilotFactors:
    """The pilot block and the factors of its fit are built once."""

    def test_pilot_block_built_once_and_read_only(self):
        layout = PilotLayout(num_users=4, block_length=8)
        assert layout.pilot is layout.pilot
        assert not layout.pilot.flags.writeable
        np.testing.assert_array_equal(layout.assemble(np.zeros((4, 4)))[:, :4],
                                      layout.pilot)

    def test_least_squares_keeps_product_order(self, rng):
        layout = PilotLayout(num_users=5, block_length=9)
        xp = layout.pilot
        y = crandn(rng, 7, 9)
        want = y[:, :5] @ xp.conj().T @ np.linalg.inv(xp @ xp.conj().T)
        for _ in range(2):  # the second call reads the cached factors
            np.testing.assert_array_equal(layout.fit(y[:, :5]), want)
            np.testing.assert_array_equal(layout.fit(y), want)


class TestMfDetect:
    def test_noiseless_single_user_exact(self, rng):
        y, h, layout, data = _single_cell_block(rng, k=1)
        model = estimate_subspace_channel(y, layout)
        dec = mf_detect(model.projected[:, 1:], model.estimate)
        assert count_bit_errors(dec, data) == 0

    def test_orthogonal_columns_limit_zero_errors(self, rng):
        # engineered orthonormal channel columns: no cross-user interference
        k, n = 5, 205
        q, _ = np.linalg.qr(crandn(rng, 64, k))
        layout = PilotLayout(num_users=k, block_length=n)
        data = layout.data_block(rng)
        y = q @ layout.assemble(data)
        model = estimate_subspace_channel(y, layout)
        dec = mf_detect(model.projected[:, k:], model.estimate)
        assert data.size == k * 200
        assert count_bit_errors(dec, data) == 0

    def test_zero_estimate_is_coin_flip(self, rng):
        layout = PilotLayout(num_users=2, block_length=1002)
        data = layout.data_block(rng)
        dec = mf_detect(data, np.zeros((2, 2), dtype=complex))
        assert np.all(dec == dec[0, 0])
        ber = count_bit_errors(dec, data) / (2 * data.size)
        assert abs(ber - 0.5) < 0.05


class TestPilotBased:
    def test_contamination_identity(self, rng):
        # full pilot reuse, noiseless: the LS estimate collapses onto the
        # power-weighted sum of all cells' channels
        params = SystemParams(num_antennas=32, users_per_cell=4, num_cells=3,
                              block_length=64, aoa_counts=(20,), signal_power=0.2,
                              interference_power=0.05, noise_enabled=False,
                              scenario="identical_aoas")
        ch = realize_channel(params, rng)
        layout = PilotLayout(num_users=4, block_length=64)
        data = [layout.data_block(rng) for _ in range(3)]
        y = np.zeros((32, 64), dtype=complex)
        cell = [ch.composite[:, 4 * i:4 * (i + 1)] for i in range(3)]
        for i in range(3):
            pw = params.signal_power if i == 0 else params.interference_power
            y += np.sqrt(pw) * (cell[i] @ layout.assemble(data[i]))
        h_hat = layout.fit(y)
        expected = np.sqrt(0.2) * cell[0] + np.sqrt(0.05) * (cell[1] + cell[2])
        assert np.abs(h_hat - expected).max() < 1e-10

    def test_single_cell_noiseless_detection(self, rng):
        y, h, layout, data = _single_cell_block(rng, m=256, p=128, k=4, n=64)
        dec = pilot_based_detect(y, layout)
        ber = count_bit_errors(dec, data) / (2 * data.size)
        assert ber < 0.01


class TestQpsk:
    def test_four_distinct_unit_symbols(self):
        sym = qpsk_map(np.array([0, 0, 0, 1, 1, 1, 1, 0]))
        assert len(set(np.round(sym, 12))) == 4
        np.testing.assert_allclose(np.abs(sym), 1.0, atol=1e-12)

    def test_round_trip(self, rng):
        # Gray map: bit 0 of a pair sets the real sign, bit 1 the imaginary
        # sign, 0 -> +; the bits read back from the signs
        bits = rng.integers(0, 2, 10_000)
        sym = qpsk_map(bits)
        back = np.stack([sym.real < 0, sym.imag < 0], axis=1).ravel()
        np.testing.assert_array_equal(back, bits)

    def test_small_noise_correct_demap(self, rng):
        sym = qpsk_map(rng.integers(0, 2, 2000))
        # half the minimum distance is 1/sqrt(2); stay safely inside
        noisy = sym + 0.3 * np.exp(2j * np.pi * rng.uniform(size=sym.size))
        np.testing.assert_array_equal(qpsk_quantize(noisy), sym)

    def test_data_block_matches_row_by_row_map(self):
        # reference: one qpsk_map call per user row of the same bits
        layout = PilotLayout(num_users=5, block_length=45)
        got = layout.data_block(np.random.default_rng(3))
        bits = np.random.default_rng(3).integers(0, 2, size=(5, 80))
        np.testing.assert_array_equal(got, np.vstack([qpsk_map(row) for row in bits]))

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ConfigError):
            qpsk_map(np.array([0, 1, 0]))

    def test_quantizer_zero_default(self):
        out = qpsk_quantize(np.zeros((2, 2), dtype=complex))
        np.testing.assert_allclose(out, (1 + 1j) / np.sqrt(2))


class TestProjectionProperties:
    def test_non_expansive(self, rng):
        y = crandn(rng, 16, 40)
        u = signal_subspace(y, 3)
        assert np.linalg.norm(u.conj().T @ y) <= np.linalg.norm(y) + 1e-12

    def test_tight_when_contained(self, rng):
        u0, _ = np.linalg.qr(crandn(rng, 16, 3))
        y = u0 @ crandn(rng, 3, 40)
        u = signal_subspace(y, 3)
        assert np.linalg.norm(u.conj().T @ y) == pytest.approx(np.linalg.norm(y), rel=1e-10)

    def test_blind_recovery_up_to_ambiguity(self, rng):
        # without pilots the basis spans the channel but does not equal it
        y, h, layout, _ = _single_cell_block(rng)
        u = signal_subspace(y, 4)
        assert np.degrees(subspace_angles(u, h).max()) < 1e-6
        assert np.linalg.norm(u - h / np.linalg.norm(h, axis=0)) > 1e-3
        # the pilot block pins the projected channel exactly
        model = estimate_subspace_channel(y, layout)
        expected = u.conj().T @ h * np.sqrt(0.25)
        # basis sign/phase conventions agree because both come from the svd
        assert np.abs(model.estimate - expected).max() < 1e-10
