"""Asymptotic spectral laws in the Stieltjes domain.

Convention: G(s) = integral f(x)/(x - s) dx with Im s != 0, so Im s > 0
implies Im G > 0 and s*G(s) -> -1 as |s| -> infinity.  Each implicit law is
written once, as a table T[i, j] of the coefficients of s^i G^j in its
defining relation F(s, G) = 0; the evaluator, the residual and (in
``support``) the inverse-function polynomial are derived from that table,
and one helper, ``coeffs_at``, evaluates a table at a stack of points for
all of them.  Evaluation is polynomial root finding plus continuation, one
walk over the requested points with the roots along all of it from one
stacked solve: a point is a step from the previous one when the two are
nearer each other than half of either's |s|, so no step comes near the zero
atom's pole at s = 0, else a vertical descent from Im s = 1e6, where the
physical branch is G = -1/s.  A step takes the nearest root when it is over 3
times nearer than the next, and is halved otherwise; a step or descent that
ends with Im G < 0 raises BranchTrackingError naming its point.  A scalar s
is a one-point array, and every point is checked before any solve.

Laws implemented:

* ``mp_stieltjes``            -- sample-covariance (Wishart) quadratic.
* ``stieltjes_onesided``      -- quartic for the single-power product law of
                                 scale * (A B C)^H (A B C) / (m p n); the
                                 n x n spectrum including its zero atom.
* ``stieltjes_iid_limit``     -- its rich-scattering (p -> infinity) cubic.
* ``stieltjes_double_sided``  -- joint signal+interference law of the scaled
                                 two-power product, via the radical-free
                                 degree-8 polynomial.
* ``distinct_table``          -- interference law for equal per-cell AoA
                                 counts (table only; used by the support scan).
"""

from __future__ import annotations

import functools
import inspect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import BranchTrackingError, ConfigError

ANCHOR_IM = 1.0e6
_STEPS_PER_DECADE = 32


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneSidedParams:
    """Dimensions of the one-power product law.

    ``scale`` is the power multiplier, ``inner_dim`` the rank of the product
    (users contributing), and m, n, p the outer/sample/path dimensions.
    Derived ratios: alpha = inner_dim/m, beta = p/m, gamma = inner_dim/n.
    """

    scale: float
    inner_dim: int
    m: int
    n: int
    p: int

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        for name in ("inner_dim", "m", "n", "p"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def alpha(self) -> float:
        return self.inner_dim / self.m

    @property
    def beta(self) -> float:
        return self.p / self.m

    @property
    def gamma(self) -> float:
        return self.inner_dim / self.n

    @classmethod
    def signal(cls, sys_params) -> "OneSidedParams":
        return cls(scale=sys_params.signal_power, inner_dim=sys_params.users_per_cell,
                   m=sys_params.num_antennas, n=sys_params.block_length,
                   p=sys_params.aoa_counts[0])

    @classmethod
    def interference(cls, sys_params) -> "OneSidedParams":
        l = sys_params.num_cells
        return cls(scale=sys_params.interference_power,
                   inner_dim=sys_params.users_per_cell * (l - 1),
                   m=sys_params.num_antennas, n=sys_params.block_length,
                   p=sys_params.aoa_counts[0])


@dataclass(frozen=True)
class DoubleSidedParams:
    """Dimensions and powers of the joint two-power law."""

    num_users: int
    num_cells: int
    num_antennas: int
    block_length: int
    num_aoas: int
    p_signal: float
    p_interference: float

    def __post_init__(self):
        for name in ("num_users", "num_cells", "num_antennas", "block_length", "num_aoas"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.p_signal <= 0 or self.p_interference <= 0:
            raise ConfigError("powers must be positive")
        if self.p_signal < self.p_interference:
            warnings.warn("p_signal < p_interference: outside the intended "
                          "separation regime", stacklevel=2)

    @property
    def alpha(self) -> float:
        return self.num_users * self.num_cells / self.num_antennas

    @property
    def eta(self) -> float:
        return self.num_users * self.num_cells / self.num_aoas

    @property
    def gamma(self) -> float:
        return self.num_users * self.num_cells / self.block_length

    @classmethod
    def from_system(cls, sys_params) -> "DoubleSidedParams":
        return cls(num_users=sys_params.users_per_cell, num_cells=sys_params.num_cells,
                   num_antennas=sys_params.num_antennas, block_length=sys_params.block_length,
                   num_aoas=sys_params.aoa_counts[0], p_signal=sys_params.signal_power,
                   p_interference=sys_params.interference_power)


# ---------------------------------------------------------------------------
# Marchenko-Pastur quadratic
# ---------------------------------------------------------------------------

def mp_stieltjes(s, ratio: float):
    """Stieltjes transform of the sample-covariance law with aspect ``ratio``.

    Solves ratio*s*G^2 - (1 - ratio - s)*G + 1 = 0 on the branch with
    Im G * sign(Im s) > 0.  For ratio > 1 the zero atom of mass 1 - 1/ratio
    is part of the law.
    """
    if ratio <= 0:
        raise ConfigError("ratio must be positive")
    s_arr = _finite(s)
    if np.any(s_arr.imag == 0):
        raise ConfigError("mp_stieltjes requires Im s != 0")
    with np.errstate(all="ignore"):
        b = 1.0 - ratio - s_arr
        disc = np.sqrt(b * b - 4.0 * ratio * s_arr)
        r1 = (b + disc) / (2.0 * ratio * s_arr)
        r2 = (b - disc) / (2.0 * ratio * s_arr)
    pick1 = r1.imag * np.sign(s_arr.imag) > 0
    out = np.where(pick1, r1, r2)
    if not np.isfinite(out).all():
        raise ConfigError(f"mp_stieltjes: ratio={ratio!r} overflows a float")
    return out if s_arr.ndim else complex(out)


# ---------------------------------------------------------------------------
# root continuation shared by the implicit laws
# ---------------------------------------------------------------------------

def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each column of descending coefficients, shape (degree + 1, n),
    as an (n, degree) array, from one stacked companion-matrix eigen solve per
    column degree.  Leading |c| <= 1e-300 are trimmed per column; the roots
    they drop are NaN.  The matrices are those of ``np.roots``, so with a
    nonzero constant term the roots and their order are the same.  A ratio
    to the leading coefficient that overflows a float is a ConfigError."""
    coeffs = np.asarray(coeffs)
    deg = coeffs.shape[0] - 1
    big = np.abs(coeffs) > 1e-300
    order = np.where(big.any(axis=0), deg - np.argmax(big, axis=0), 0)
    out = np.full((coeffs.shape[1], deg), np.nan, dtype=complex)
    for d in sorted(set(order[order > 0].tolist())):
        cols = order == d
        c = coeffs[deg - d:, cols]
        with np.errstate(over="ignore"):
            top = -c[1:] / c[0]
        if not np.isfinite(top).all():
            raise ConfigError(f"law coefficients overflow a float when divided by the "
                              f"leading one, down to {np.min(np.abs(c[0])):.3g}")
        comp = np.zeros((c.shape[1], d, d), dtype=c.dtype)
        comp[:, 0, :] = top.T
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        out[cols, :d] = np.linalg.eigvals(comp)
    return out


def coeffs_at(table: np.ndarray, points) -> np.ndarray:
    """Column k holds the coefficients of table's relation at points[k],
    ascending in its second variable: table.T @ points ** arange, one stacked
    product.  Evaluators, residuals and scans all evaluate a table here; a
    coefficient that overflows a float is a ConfigError."""
    points = np.asarray(points)
    with np.errstate(over="ignore", invalid="ignore"):
        out = table.T @ points ** np.arange(len(table))[:, None]
    if not np.isfinite(out).all():
        raise ConfigError(f"law coefficients overflow a float at |point| up to "
                          f"{np.max(np.abs(points)):.3g}")
    return out


def _roots_at(table: np.ndarray, points) -> np.ndarray:
    """Roots in G of F(s, G) = 0 at each point s, one row per point."""
    return companion_roots(coeffs_at(table, points)[::-1])


def _track_to(table: np.ndarray, s_from: complex, g_from: complex, s_to: complex,
              depth: int = 0, roots: np.ndarray | None = None) -> complex:
    """Continue the tracked root from (s_from, g_from) to s_to: take the
    nearest root if it is over 3 times nearer than the next, else halve the
    step.  ``roots`` are the roots at s_to when the caller has them."""
    if roots is None:
        roots = _roots_at(table, [s_to])[0]
    roots = roots[~np.isnan(roots)]
    if not roots.size:
        raise BranchTrackingError(f"no root in G left at s={s_to:.6g}: the law's "
                                  "coefficients of G^1 and above are all below 1e-300")
    d = np.abs(roots - g_from)
    order = np.argsort(d)
    margin = d[order[1]] / max(d[order[0]], 1e-300) if len(order) > 1 else np.inf
    if margin > 3.0:
        return roots[order[0]]
    if depth >= 24:
        raise BranchTrackingError(
            f"ambiguous branch near s={s_to:.6g} (margin {margin:.3f}); "
            f"candidate roots: {', '.join(f'{r:.6g}' for r in roots)}")
    mid = 0.5 * (s_from + s_to)
    g_mid = _track_to(table, s_from, g_from, mid, depth + 1)
    return _track_to(table, mid, g_mid, s_to, depth + 1, roots)


def _finite(s) -> np.ndarray:
    """s as a complex array, refused unless every point is finite."""
    s_arr = np.asarray(s, dtype=complex)
    bad = ~np.isfinite(s_arr)
    if bad.any():
        raise ConfigError(f"law evaluation requires a finite s, got s={complex(s_arr[bad][0])}")
    return s_arr


def _descent(s: complex) -> np.ndarray:
    """The vertical path down to s from Im = max(ANCHOR_IM, 2 Im s)."""
    top = max(ANCHOR_IM, 2.0 * s.imag)
    n_steps = max(48, int(_STEPS_PER_DECADE * max(1.0, math.log10(top / s.imag))))
    return s.real + 1j * np.geomspace(top, s.imag, n_steps)


def _eval_implicit(table: np.ndarray, s):
    """Evaluate a polynomial-implicit law at scalar or array s.

    A scalar is a one-point array, and an empty array gives an empty one.
    Every point must be finite with Im s > 0; that is checked before any
    solve.  The points are one walk, its roots from one stacked solve: a
    point is a step from the previous one when |ds| <= min(|s_prev|, |s|) / 2,
    so no step comes near the zero atom's pole at s = 0, and any other point
    is a vertical descent from G = -1/s at its top.  A step or descent that
    ends with Im G < 0 fails, naming its point.
    """
    s_arr = _finite(s)
    if np.any(s_arr.imag <= 0):
        raise ConfigError("law evaluation requires Im s > 0")
    flat = s_arr.ravel()
    near = np.zeros(flat.shape, dtype=bool)
    near[1:] = np.abs(np.diff(flat)) <= 0.5 * np.minimum(np.abs(flat[1:]), np.abs(flat[:-1]))
    legs = [flat[i:i + 1] if near[i] else _descent(complex(sc)) for i, sc in enumerate(flat)]
    roots = iter(_roots_at(table, np.concatenate([flat[:0], *legs])))
    out = np.empty(flat.shape, dtype=complex)
    g = s_prev = None
    for i, leg in enumerate(legs):
        if not near[i]:
            g, s_prev = -1.0 / leg[0], leg[0]
        for sk in leg:
            g = _track_to(table, s_prev, g, complex(sk), roots=next(roots))
            s_prev = complex(sk)
        if g.imag < -1e-10:
            raise BranchTrackingError(
                f"tracked root lost Herglotz property at s={flat[i]:.6g}: G={g:.6g}")
        out[i] = g
    return out.reshape(s_arr.shape) if s_arr.ndim else out[0]


def _normalized_residual(table: np.ndarray, s: complex, g: complex) -> float:
    terms = coeffs_at(table, [complex(s)])[:, 0] * complex(g) ** np.arange(table.shape[1])
    return abs(np.sum(terms)) / max(np.sum(np.abs(terms)), 1e-300)


# ---------------------------------------------------------------------------
# coefficient tables: T[i, j] is the coefficient of s^i G^j in F(s, G) = 0
# ---------------------------------------------------------------------------

def _law_table(build):
    """A table builder whose float tables that overflow are refused with a
    ConfigError naming its arguments (a symbolic, object table is kept)."""
    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = build(*args, **kwargs)
        except OverflowError:  # a Python float power
            out = np.array(np.inf)
        if not all(t.dtype.kind != "f" or np.isfinite(t).all()
                   for t in (out if isinstance(out, tuple) else [out])):
            named = inspect.signature(build).bind(*args, **kwargs).arguments
            listed = ", ".join(f"{k}={v!r}" for k, v in named.items())
            raise ConfigError(f"{build.__name__}({listed}) overflows a float")
        return out
    return checked


def _table(*parts) -> np.ndarray:
    """Table of sum_g G^g parts[g](v), each part ascending in v = sG."""
    deg = max(len(p) for p in parts)
    out = np.zeros((deg, deg + len(parts) - 1), dtype=np.result_type(*parts))
    for g, p in enumerate(parts):
        k = np.arange(len(p))
        out[k, k + g] += p
    return out


def _of_upsilon(*coeffs) -> np.ndarray:
    """Ascending coefficients in v = sG of sum_k coeffs[k] (1 + v)^k."""
    out = np.zeros(len(coeffs))
    for k, c in enumerate(coeffs):
        out[:k + 1] += [c * math.comb(k, i) for i in range(k + 1)]
    return out


@_law_table
def onesided_table(p: OneSidedParams) -> np.ndarray:
    """n x n one-power law (zero atom included), with v = sG:
    a G (1 - gamma + v)(alpha - gamma + alpha v)(alpha - beta gamma + alpha v)
    + beta gamma^2 (1 + v)."""
    a, a1, a2, a3 = p.scale, p.alpha, p.beta, p.gamma
    prod = np.convolve(np.convolve([1.0 - a3, 1.0], [a1 - a3, a1]), [a1 - a2 * a3, a1])
    return _table(a2 * a3 ** 2 * np.ones(2), a * prod)


@_law_table
def iid_table(p_s: float, alpha: float, gamma: float) -> np.ndarray:
    """Rich-scattering limit of the one-power law, with v = sG:
    gamma (1 + v) - p_s G (1 - gamma + v)(alpha - gamma + alpha v)."""
    if p_s <= 0 or alpha <= 0 or gamma <= 0:
        raise ConfigError("p_s, alpha, gamma must be positive")
    return _table(gamma * np.ones(2),
                  -p_s * np.convolve([1.0 - gamma, 1.0], [alpha - gamma, alpha]))


@_law_table
def double_sided_parts(p: DoubleSidedParams, truncated: bool = False
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Tables of T and Q in the double-sided relation T + R = 0, R^2 = Q.

    With u = 1 + sG, T = G (c1 u + c2 u^2 + c3 u^3 - 2 L p_I p_S)
    + L (p_I + p_S) u + p_I - p_S - L p_I and Q = q2 u^2 + q1 u + q0 is the
    two-mass discriminant.  ``truncated`` keeps only c1, as the support scan
    does.
    """
    k, l = p.num_users, p.num_cells
    m, n, pa = p.num_antennas, p.block_length, p.num_aoas
    ps, pi = p.p_signal, p.p_interference
    cs = [2.0 * k * l ** 2 * pi * ps * (1 / m + 1 / n + 1 / pa)]
    if not truncated:
        cs += [-2.0 * k ** 2 * l ** 3 * pi * ps * (1 / (m * n) + 1 / (m * pa) + 1 / (n * pa)),
               2.0 * k ** 3 * l ** 4 * pi * ps / (m * n * pa)]
    t = _table(_of_upsilon(pi - ps - l * pi, l * (pi + ps)),
               _of_upsilon(-2.0 * l * pi * ps, *cs))
    q = _table(_of_upsilon((ps + (l - 1) * pi) ** 2,
                           2.0 * l * (pi ** 2 * (1 - l) - ps ** 2 + l * pi * ps),
                           l ** 2 * (ps - pi) ** 2))
    return t, q


@_law_table
def double_sided_table(p: DoubleSidedParams, truncated: bool = False) -> np.ndarray:
    """The radical-free double-sided polynomial F = T^2 - Q (degree 8 in G)."""
    t, q = double_sided_parts(p, truncated)
    f = np.zeros((2 * len(t) - 1, 2 * t.shape[1] - 1))
    for (i, j), c in np.ndenumerate(t):
        f[i:i + len(t), j:j + t.shape[1]] += c * t
    f[:len(q), :q.shape[1]] -= q
    return f


@_law_table
def distinct_table(num_users: int, num_cells: int, num_antennas: int,
                   block_length: int, num_aoas: int, p_interference: float
                   ) -> np.ndarray:
    """Interference law with equal per-cell AoA counts (n x n, zero atom
    included), divided by m^2 n^3; with v = sG and c = L - 1 interfering
    cells:  -n p_I G (1 + v)(n - K c + n v)(n - P c + n v)
    + m (K P p_I c^2 G - n c (P + p_I G (K + P))(1 + v) + p_I G n^2 (1 + v)^2).

    This is the block-diagonal-fading analogue of the one-power law: at
    L = 2 it is -1/K^2 times ``onesided_table`` with K users.
    """
    k, c, m, n = num_users, num_cells - 1, num_antennas, block_length
    pa, pi = num_aoas, p_interference
    one = np.ones(2)
    g1 = -n * pi * np.convolve(np.convolve(one, [n - k * c, n]), [n - pa * c, n])
    lin = -n * c * pi * (k + pa)
    g1[:3] += m * (pi * n * n * np.convolve(one, one) + [k * pa * pi * c ** 2 + lin, lin, 0.0])
    return _table(-m * n * c * pa * one, g1) / (m * m * n ** 3)


# ---------------------------------------------------------------------------
# evaluators and residuals derived from the tables
# ---------------------------------------------------------------------------

def stieltjes_onesided(s, params: OneSidedParams):
    """Law of the n x n single-power product matrix (zero atom included)."""
    return _eval_implicit(onesided_table(params), s)


def onesided_residual(s: complex, g: complex, params: OneSidedParams) -> float:
    return _normalized_residual(onesided_table(params), s, g)


def stieltjes_iid_limit(s, p_s: float, alpha: float, gamma: float):
    """Rich-scattering limit of the one-sided law (cubic in G)."""
    return _eval_implicit(iid_table(p_s, alpha, gamma), s)


def iid_limit_residual(s: complex, g: complex, p_s: float, alpha: float,
                       gamma: float) -> float:
    return _normalized_residual(iid_table(p_s, alpha, gamma), s, g)


def stieltjes_double_sided(s, params: DoubleSidedParams):
    """Joint signal-plus-interference spectrum of the two-power product law;
    the K*L x K*L matrix has no zero atom.  The physical root of T^2 - Q is
    selected by continuation."""
    return _eval_implicit(double_sided_table(params), s)


def double_sided_residual(s: complex, g: complex, params: DoubleSidedParams) -> float:
    """Normalized residual of the unsquared defining relation T(G) = -R with
    the radical branch chosen to minimize it."""
    t, q = (coeffs_at(tab, [complex(s)])[:, 0] @ complex(g) ** np.arange(tab.shape[1])
            for tab in double_sided_parts(params))
    r = np.sqrt(complex(q))
    scale = abs(t) + abs(r) + 1e-300
    return min(abs(t + r), abs(t - r)) / scale


# ---------------------------------------------------------------------------
# density recovery
# ---------------------------------------------------------------------------

def density_from_stieltjes(evaluator, x_grid, eps: float = 1e-3) -> np.ndarray:
    """Sampled density f(x) ~ Im evaluator(x + i*eps) / pi, clipped at zero.

    ``evaluator`` maps a complex array (or scalar) to G values.  When the
    array call fails, each point is evaluated on its own, which also recovers
    an implicit law's walk that left the physical root and raised (each point
    then has its own descent); a point that fails on its own is re-raised with
    its grid location attached.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    x_grid = np.asarray(x_grid, dtype=float)
    s = x_grid + 1j * eps
    try:
        g = evaluator(s)
    except Exception:  # fall back to per-point evaluation to locate it
        g = np.empty(x_grid.shape, dtype=complex)
        for i, sc in enumerate(np.atleast_1d(s)):
            try:
                g_val = evaluator(complex(sc))
            except Exception as exc:
                raise type(exc)(
                    f"density evaluation failed at x={complex(sc).real:.6g}: {exc}"
                ) from exc
            g.flat[i] = g_val
    return np.clip(np.asarray(g).imag / np.pi, 0.0, None)

