"""Properties of the per-law coefficient tables and what is derived from them.

Each law is one table T[i, j] (coefficient of s^i G^j in F(s, G) = 0); the
forward evaluators, the residuals and the support scan's inverse-function
polynomials are derived from it.  The property tests draw random system
dimensions and powers with a bounded example count and a per-example time
budget.
"""

from datetime import timedelta

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from mimospectra import rmt
from mimospectra.rmt import laws
from mimospectra.rmt import support as support_mod

PROPERTY = settings(max_examples=40, deadline=timedelta(seconds=5),
                    derandomize=True, database=None)
RESIDUAL_MAX = 1e-9

dims = st.fixed_dictionaries({
    "k": st.integers(1, 10), "l": st.integers(2, 5), "m": st.integers(20, 2000),
    "n": st.integers(20, 2000), "p": st.integers(2, 400),
    "p_s": st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e),
    "ratio": st.floats(-2.0, 0.0).map(lambda e: 10.0 ** e),
})
LAWS = ("onesided", "iid", "double_sided", "distinct")


def _law(name: str, d: dict):
    """(forward table, inverse table, zero-atom gamma or None) of one law."""
    k, l, m, n, p, p_s = d["k"], d["l"], d["m"], d["n"], d["p"], d["p_s"]
    if name == "onesided":
        params = rmt.OneSidedParams(scale=p_s, inner_dim=k, m=m, n=n, p=p)
        return (laws.onesided_table(params), support_mod.onesided_inverse_coeffs(params),
                params.gamma)
    if name == "iid":
        return (laws.iid_table(p_s, k / m, k / n),
                support_mod.iid_inverse_coeffs(p_s, k / m, k / n), None)
    if name == "double_sided":
        params = rmt.DoubleSidedParams(num_users=k, num_cells=l, num_antennas=m,
                                       block_length=n, num_aoas=p, p_signal=p_s,
                                       p_interference=p_s * d["ratio"])
        # the scan's inverse is derived from the truncated table
        return (laws.double_sided_table(params, truncated=True),
                support_mod.double_inverse_coeffs(params), None)
    args = (k, l, m, n, p, p_s * d["ratio"])
    return laws.distinct_table(*args), support_mod.distinct_inverse_coeffs(*args), None


@pytest.mark.parametrize("name", LAWS)
@PROPERTY
@given(d=dims, log_x=st.floats(-3.0, 3.0), negative=st.booleans())
def test_inverse_roots_satisfy_forward_table(name, d, log_x, negative):
    table, inverse, gamma = _law(name, d)
    x = -(10.0 ** log_x) if negative else 10.0 ** log_x
    coeffs = inverse @ x ** np.arange(inverse.shape[1])
    roots = np.roots(coeffs[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))].real
    for s in real:
        g = x if gamma is None else gamma * x - (1.0 - gamma) / s
        residual = laws._normalized_residual(table, s, g)
        assert residual <= RESIDUAL_MAX, (s, g, residual)


@PROPERTY
@given(d=dims)
def test_onesided_atom_map_leaves_a_cubic(d):
    # the zero atom's rows vanish, leaving the cubic of the law without it
    _, inverse, _ = _law("onesided", d)
    assert inverse.shape[0] == 4
    assert np.all(inverse[-1, :4] == 0.0) and inverse[-1, 4] > 0.0


def _evaluator(name: str, d: dict):
    k, l, m, n, p, p_s = d["k"], d["l"], d["m"], d["n"], d["p"], d["p_s"]
    if name == "onesided":
        params = rmt.OneSidedParams(scale=p_s, inner_dim=k, m=m, n=n, p=p)
        return lambda s: rmt.stieltjes_onesided(s, params)
    if name == "iid":
        return lambda s: rmt.stieltjes_iid_limit(s, p_s, k / m, k / n)
    params = rmt.DoubleSidedParams(num_users=k, num_cells=l, num_antennas=m,
                                   block_length=n, num_aoas=p, p_signal=p_s,
                                   p_interference=p_s * d["ratio"])
    return lambda s: rmt.stieltjes_double_sided(s, params)


@pytest.mark.parametrize("name", ("onesided", "iid", "double_sided"))
@PROPERTY
@given(d=dims, re=st.floats(-1.0, 3.0), log_im=st.floats(-2.0, 1.0))
def test_evaluators_are_herglotz_and_decay(name, d, re, log_im):
    g_at = _evaluator(name, d)
    # scaled by the power, so the point sits at a fixed place relative to the bulk
    s = d["p_s"] * (re + 1j * 10.0 ** log_im)
    assert g_at(s).imag > 0.0
    far = d["p_s"] * (re + 1e6j)
    assert abs(far * g_at(far) + 1.0) < 1e-4


def _polynomial_tables(k, l, m, n, p, p_s, p_i):
    """The onesided, iid and distinct tables built with numpy.polynomial,
    which trims trailing zero coefficients of every operand and result."""
    a1, a2, a3 = k / m, p / m, k / n
    onesided = laws._table(a2 * a3 ** 2 * np.ones(2), p_s * npp.polymul(
        npp.polymul([1.0 - a3, 1.0], [a1 - a3, a1]), [a1 - a2 * a3, a1]))
    iid = laws._table(a3 * np.ones(2), -p_s * npp.polymul([1.0 - a3, 1.0], [a1 - a3, a1]))
    c, one = l - 1, np.ones(2)
    first = -n * p_i * npp.polymul(npp.polymul(one, [n - k * c, n]), [n - p * c, n])
    second = npp.polyadd(npp.polyadd([k * p * p_i * c ** 2], -n * c * p_i * (k + p) * one),
                         p_i * n * n * npp.polymul(one, one))
    distinct = laws._table(-m * n * c * p * one, npp.polyadd(first, m * second)) / (m * m * n ** 3)
    return onesided, iid, distinct


def test_tables_bitwise_equal_polynomial_construction():
    # the tables take np.convolve and plain sums instead of numpy.polynomial;
    # its trailing-zero trim changes nothing here, one cell (no interfering
    # cell, c = 0) and N = K (L - 1) included, because every leading
    # coefficient is a positive product of dimensions and a power
    rng = np.random.default_rng(7)
    for case in range(300):
        k, l = int(rng.integers(1, 12)), int(rng.integers(1, 7))
        m, n, p = (int(x) for x in rng.integers(1, 3000, 3))
        if case % 5 == 0 and l > 1:
            n = k * (l - 1)
        p_s, p_i = 10.0 ** rng.uniform(-3.0, 1.0, 2)
        got = (laws.onesided_table(rmt.OneSidedParams(p_s, k, m, n, p)),
               laws.iid_table(p_s, k / m, k / n), laws.distinct_table(k, l, m, n, p, p_i))
        for g, w in zip(got, _polynomial_tables(k, l, m, n, p, p_s, p_i)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    for coeffs in rng.uniform(-2.0, 2.0, (50, 4)):
        for size in range(1, 5):
            want = sum(np.pad(c * npp.polypow([1.0, 1.0], j), (0, size - j - 1))
                       for j, c in enumerate(coeffs[:size]))
            assert laws._of_upsilon(*coeffs[:size]).tobytes() == want.tobytes()


def test_distinct_two_cells_is_scaled_onesided_table():
    # with one interfering cell the block-diagonal law is the one-power law
    k, m, n, p = sp.symbols("K M N P", positive=True, integer=True)
    pi = sp.Symbol("p_I", positive=True)
    distinct = laws.distinct_table(k, 2, m, n, p, pi)
    onesided = laws.onesided_table(rmt.OneSidedParams(scale=pi, inner_dim=k, m=m, n=n, p=p))
    assert distinct.shape == onesided.shape
    for got, want in zip(distinct.ravel(), onesided.ravel()):
        assert sp.simplify(got + want / k ** 2) == 0
