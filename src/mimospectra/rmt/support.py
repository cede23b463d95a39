"""Support-boundary solvers for the spectral laws.

Each law's Stieltjes transform G(s) is increasing on real intervals outside
the spectrum support, so its inverse s(x) is increasing exactly on the images
of those intervals (Silverstein & Choi, J. Multivariate Anal. 1995).  The
inverse function is the law's own relation F(s, G) = 0 read in s: its
inverse-function table is the coefficient table of ``laws`` at G = x, or for
the one-sided law at G = gamma x - (1 - gamma)/s, which removes the zero
atom.  The scan solves that polynomial in s on one signed log grid of real
x, split at 0 and at the branch poles (the real roots in x of the leading
s-row), with the table evaluated by ``laws.coeffs_at`` and one stacked
companion-matrix eigen solve per segment.  Real
roots of a real polynomial can only meet at a double root, so while the
real-root count is constant the k-th sorted root is one branch; where the
count changes, roots are matched to the previous branches by nearest
distance.  Maximal increasing runs are marked via central finite differences
(extrema refined by a 3-point parabolic fit), and the support is the
complement of the union of run images on [0, inf).  Every scan returns a
frozen ``SpectralSupport``, built complete.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .laws import (DoubleSidedParams, OneSidedParams, coeffs_at, companion_roots,
                   distinct_table, double_sided_table, iid_table, onesided_table)


# every scan's signed log grid: POINTS // 2 points on each of +-[X_MIN, X_MAX]
X_MIN, X_MAX, POINTS = 1e-6, 1e3, 10_000


@dataclass(frozen=True)
class SpectralSupport:
    """Ordered disjoint intervals approximating the positive bulk support,
    and the truncation report of the law they came from (double-sided only):
    a dict of ``ratio_triple``, ``ratio_pairwise`` and ``flags``."""

    intervals: list[tuple[float, float]]
    truncation: dict | None = None

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ConfigError(f"degenerate interval ({lo}, {hi})")
        for (a0, a1), (b0, b1) in zip(self.intervals[:-1], self.intervals[1:]):
            if b0 <= a1:
                raise ConfigError("intervals must be disjoint and sorted")

    def scaled(self, factor: float) -> "SpectralSupport":
        return SpectralSupport([(lo * factor, hi * factor) for lo, hi in self.intervals],
                               self.truncation)


# ---------------------------------------------------------------------------
# scan internals
# ---------------------------------------------------------------------------

def _sorted_real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of each column of descending coefficients, shape (degree
    + 1, n), as a (degree, n) array: ascending, NaN-padded.  A root is real
    when |Im r| <= 1e-7 * max(1, max |r|) over its column's roots."""
    r = companion_roots(np.asarray(coeffs, dtype=float))
    scale = np.fmax.reduce(np.abs(r), axis=1, initial=1.0, keepdims=True)
    return np.sort(np.where(np.abs(r.imag) <= 1e-7 * scale, r.real, np.nan), axis=1).T


def _track_branches(table: np.ndarray, xs: np.ndarray) -> list[np.ndarray]:
    """One NaN-padded row per real branch in s of the inverse table over a
    pole-free segment of x."""
    roots = _sorted_real_roots(coeffs_at(table.T, xs)[::-1])
    count = np.sum(~np.isnan(roots), axis=0)
    cuts = np.flatnonzero(np.diff(count)) + 1
    rows, live = [], []
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(xs)]):
        # nearest-distance match to the previous point's branches (none at 0)
        dist = np.abs(roots[:count[a], a] - roots[:len(live), a - 1][:, None])
        new = [-1] * count[a]
        for _ in range(min(dist.shape)):
            i, k = np.unravel_index(np.argmin(dist), dist.shape)
            new[k] = live[i]
            dist[i, :] = dist[:, k] = np.inf
        for k in range(count[a]):
            if new[k] < 0:
                new[k] = len(rows)
                rows.append(np.full(len(xs), np.nan))
            rows[new[k]][a:b] = roots[k, a:b]
        live = new
    return rows


def _parabolic_value(x3, s3) -> float:
    c = np.polyfit(x3, s3, 2)
    if abs(c[0]) < 1e-300:
        return float(s3[1])
    xe = -c[1] / (2.0 * c[0])
    if not min(x3) <= xe <= max(x3):
        return float(s3[1])
    return float(np.polyval(c, xe))


def _increasing_runs(xs: np.ndarray, sv: np.ndarray):
    """Yield (lo, hi, outer) per maximal increasing run, two points or more,
    of a branch over each of its unbroken stretches.  ``outer`` holds the
    branch values where the run is cut at |x| = X_MAX rather than ended by
    an extremum, a pole or X_MIN."""
    valid = np.flatnonzero(~np.isnan(sv))
    for seg in np.split(valid, np.flatnonzero(np.diff(valid) > 1) + 1):
        if seg.size < 3:
            continue
        x, s = xs[seg], sv[seg]
        inc = np.gradient(s, x) > 0
        for j, k in np.flatnonzero(np.diff(np.r_[False, inc, False])).reshape(-1, 2):
            if k - j < 2:
                continue
            lo = _parabolic_value(x[j - 1:j + 2], s[j - 1:j + 2]) if j > 0 else float(s[j])
            hi = (_parabolic_value(x[k - 2:k + 1], s[k - 2:k + 1]) if k < len(s)
                  else float(s[k - 1]))
            yield (min(lo, float(np.min(s[j:k]))), max(hi, float(np.max(s[j:k]))),
                   [float(s[i]) for i in (j, k - 1) if abs(abs(x[i]) - X_MAX) <= 1e-9 * X_MAX])


def scan_support(table: np.ndarray, label: str) -> SpectralSupport:
    """Run the inverse-function scan and assemble support intervals.

    ``table[a, b]`` is the coefficient of s^a x^b in the inverse-function
    polynomial; the grid is split at 0 and at the real roots of its leading
    s-row.
    """
    poles = _sorted_real_roots(table[-1, ::-1, None])[:, 0]
    xs_pos = np.geomspace(X_MIN, X_MAX, POINTS // 2)
    xs = np.concatenate([-xs_pos[::-1], xs_pos])
    # segment ends: the grid's own and each point past 0 or a pole (a NaN
    # pad sorts past the grid)
    ends = sorted({0, len(xs), *np.searchsorted(xs, [*poles, 0.0]).tolist()})
    gaps: list[tuple[float, float]] = []
    outer: list[float] = []
    for a, b in zip(ends[:-1], ends[1:]):
        if b - a < 3:
            continue
        for branch in _track_branches(table, xs[a:b]):
            for lo, hi, cut in _increasing_runs(xs[a:b], branch):
                gaps.append((lo, hi))
                outer += cut
    if not gaps:
        raise ConfigError(f"{label}: no real increasing branch found on the grid; "
                          "support cannot be identified")
    # s-range the grid can resolve: beyond ~1/X_MIN the branches are pure
    # -1/x asymptotes (or parasite algebraic components), not bulk structure
    s_cap = 0.5 / X_MIN
    resolvable = [abs(v) for g in gaps for v in g if 0 < abs(v) < s_cap]
    scale = max(resolvable) if resolvable else max(abs(hi) for _, hi in gaps)
    merged: list[list[float]] = []
    for lo, hi in sorted(gaps):
        if merged and lo <= merged[-1][1] + 1e-6 * scale:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # gaps narrower than the scan's image-space resolution are tracking
    # noise at branch crossings, not spectral gaps
    merged = [g for g in merged if g[1] - g[0] >= 1e-5 * scale]
    support = [(a1, b0) for (_, a1), (b0, _) in zip(merged, merged[1:])
               if b0 - a1 > 1e-3 * scale and a1 < s_cap and b0 > 0.02 * scale]
    # the zero-atom asymptote legitimately reaches |x| = X_MAX at
    # |s| ~ mass/X_MAX << scale; only order-scale cut values are suspicious
    unresolved = [v for v in outer if abs(v) > 0.1 * scale]
    if unresolved:
        warnings.warn(
            f"{label}: x-grid too narrow, {len(unresolved)} increasing run(s) cut "
            f"at |x| = x_max (|s| up to {max(abs(v) for v in unresolved):.3g}); "
            "support may be incomplete", stacklevel=2)
    if not support:
        raise ConfigError(f"{label}: scan produced no positive support interval")
    # a Gram matrix has no negative eigenvalues
    if support[0][0] < 0:
        raise ConfigError(f"{label}: x-grid did not resolve the bulk (interval "
                          f"starts at {support[0][0]:.3g} < 0)")
    return SpectralSupport(intervals=support)


# ---------------------------------------------------------------------------
# per-law inverse-function tables and supports; support_* call the
# *_inverse_coeffs names through these module globals (perfbench counts them)
# ---------------------------------------------------------------------------

def _atom_mapped(table: np.ndarray, gamma: float) -> np.ndarray:
    """Inverse table of an n x n law whose nonzero part has mass gamma.

    G = gamma x - (1 - gamma)/s maps the n x n transform to that of the law
    without its zero atom; the relation is cleared of 1/s by s^deg, and the
    low s-rows that then vanish (to rounding) are removed.
    """
    deg = table.shape[1] - 1
    out = np.zeros((len(table) + deg, deg + 1))
    bound = np.zeros_like(out)
    for (i, j), c in np.ndenumerate(table):
        for a in range(j + 1):
            term = c * math.comb(j, a) * gamma ** a * (gamma - 1.0) ** (j - a)
            out[i + deg - j + a, a] += term
            bound[i + deg - j + a, a] += abs(term)
    vanish = np.all(np.abs(out) <= 1e-12 * bound, axis=1)
    return out[np.argmin(vanish):]


def onesided_inverse_coeffs(p: OneSidedParams) -> np.ndarray:
    return _atom_mapped(onesided_table(p), p.gamma)


def support_onesided(params: OneSidedParams) -> SpectralSupport:
    """Support of the nonzero one-power bulk (the law without its zero atom)."""
    return scan_support(onesided_inverse_coeffs(params), label="one-sided")


def double_inverse_coeffs(p: DoubleSidedParams) -> np.ndarray:
    return double_sided_table(p, truncated=True)


def support_double_sided(params: DoubleSidedParams) -> SpectralSupport:
    """Support of the joint two-power law, with its truncation report.

    The scan uses the law truncated to its linear upsilon term; the radical
    is removed by squaring, and both roots in s are genuine inverse branches
    (they match the two preimages of the exact two-mass transform in the
    small-ratio limit), so no sign filtering applies.  The cubic and
    quadratic terms in upsilon were dropped assuming both ratios of the
    report are >> 1; either below 10 is flagged as suspect.
    """
    al, et, ga = params.alpha, params.eta, params.gamma
    intervals = scan_support(double_inverse_coeffs(params), "double-sided").intervals
    triple = (al + et + ga) / (al * et * ga)
    pairwise = (al + et + ga) / (al * ga + al * et + et * ga)
    return SpectralSupport(intervals, {
        "ratio_triple": triple, "ratio_pairwise": pairwise,
        "flags": [f"{name} ratio {r:.3g} < 10.0" for name, r in
                  (("triple-product", triple), ("pairwise", pairwise)) if r < 10.0]})


def distinct_inverse_coeffs(*args) -> np.ndarray:
    return distinct_table(*args)


def support_distinct(num_users: int, num_cells: int, num_antennas: int,
                     block_length: int, num_aoas: int, p_interference: float
                     ) -> SpectralSupport:
    """Interference-bulk support for equal per-cell AoA counts."""
    for name, dim in (("num_users", num_users), ("num_antennas", num_antennas),
                      ("block_length", block_length), ("num_aoas", num_aoas)):
        if dim < 1:
            raise ConfigError(f"{name} must be >= 1")
    if p_interference <= 0:
        raise ConfigError("p_interference must be positive")
    if num_cells < 2:
        raise ConfigError("distinct interference law needs at least 2 cells")
    return scan_support(
        distinct_inverse_coeffs(num_users, num_cells, num_antennas, block_length,
                                num_aoas, p_interference),
        label="distinct-AoA")


def iid_inverse_coeffs(p_s: float, alpha: float, gamma: float) -> np.ndarray:
    return iid_table(p_s, alpha, gamma)


def support_iid(p_s: float, alpha: float, gamma: float) -> SpectralSupport:
    """Bulk support of the rich-scattering one-power law (zero atom kept)."""
    return scan_support(iid_inverse_coeffs(p_s, alpha, gamma), label="iid")
