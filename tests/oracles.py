"""Closed-form laws and transform identities that the tests check the
package's laws against; the package itself does not use them.

* ``mp_density``                  -- closed-form Marchenko-Pastur bulk density.
* ``mp_s_transform``              -- its multiplicative (S) transform.
* ``mixture_stieltjes``           -- weighted sum of Wishart-type block laws,
                                     with ``MixtureComponent`` and
                                     ``equal_aoa_mixture``.
* ``two_mass_stieltjes`` / ``s_transform_two_mass`` -- the two-point power
  mass distribution and its multiplicative transform.
* ``s_stieltjes_link_check``      -- residual of the S/G transform identity.
* ``contains`` / ``gap_widths``   -- membership and gaps of a
                                     ``rmt.SpectralSupport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mimospectra.errors import ConfigError
from mimospectra.rmt import mp_stieltjes


def mp_density(x, ratio: float):
    """Closed-form bulk density of the sample-covariance law (atom excluded)."""
    x = np.asarray(x, dtype=float)
    a = (1.0 - math.sqrt(ratio)) ** 2
    b = (1.0 + math.sqrt(ratio)) ** 2
    out = np.zeros_like(x)
    inside = (x > a) & (x < b)
    xi = x[inside]
    out[inside] = np.sqrt((b - xi) * (xi - a)) / (2.0 * np.pi * ratio * xi)
    return out if x.ndim else float(out)


def mp_s_transform(z, ratio: float):
    """Multiplicative transform of the sample-covariance law: 1/(1 + ratio*z)."""
    return 1.0 / (1.0 + ratio * np.asarray(z, dtype=complex))


# ---------------------------------------------------------------------------
# two-mass power distribution
# ---------------------------------------------------------------------------

def two_mass_stieltjes(s, p_s: float, p_i: float, num_cells: int):
    """Exact transform of the power mass function: one mass at p_s with
    weight 1/L and one at p_i with weight (L-1)/L."""
    l = num_cells
    s_arr = np.asarray(s, dtype=complex)
    out = (l * p_s - l * s_arr + p_i - p_s) / (l * (p_s - s_arr) * (p_i - s_arr))
    return out if s_arr.ndim else complex(out)


def s_transform_two_mass(z, p_s: float, p_i: float, num_cells: int):
    """Minus-branch root of the two-mass transform quadratic.

    L*p_i*p_s*z*S^2 - b(z)*S + L(1+z) = 0 with
    b(z) = p_s - p_i + L*p_i + L*(p_i + p_s)*z; the z -> 0 limit is the
    reciprocal mean L/(p_s + (L-1)*p_i).
    """
    if num_cells < 1:
        raise ConfigError("num_cells must be >= 1")
    if p_s <= 0 or p_i <= 0:
        raise ConfigError("powers must be positive")
    l = num_cells
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    b = p_s - p_i + l * p_i + l * (p_i + p_s) * z_arr
    disc = np.sqrt(b * b - 4.0 * l * l * p_i * p_s * (z_arr + 1.0) * z_arr)
    small = np.abs(z_arr) < 1e-12
    denom = np.where(small, 1.0, 2.0 * l * p_i * p_s * z_arr)
    out = (b - disc) / denom
    out[small] = l / (p_s + (l - 1) * p_i)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# mixtures (distinct AoA counts)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureComponent:
    """One Wishart-type block: weight = P_i/n, ratio = K/P_i."""

    weight: float
    ratio: float

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0:
            raise ConfigError("weight must be in (0, 1]")
        if self.ratio <= 0:
            raise ConfigError("ratio must be positive")


def mixture_stieltjes(s, components: list[MixtureComponent]):
    """Weighted sum of Wishart-type block laws.

    Each component is the spectrum of a P_i x K Gaussian block's outer Gram
    matrix normalized by P_i.  For ratio = K/P_i < 1 that is a zero atom of
    mass 1 - ratio plus ratio times the aspect-``ratio`` sample-covariance
    bulk; weights must sum to one.
    """
    if not components:
        raise ConfigError("mixture needs at least one component")
    total = sum(c.weight for c in components)
    if abs(total - 1.0) > 1e-12:
        raise ConfigError(f"component weights sum to {total}, expected 1")
    s_arr = np.asarray(s, dtype=complex)
    out = np.zeros(np.shape(s_arr), dtype=complex)
    for c in components:
        if c.ratio < 1.0:
            comp = (1.0 - c.ratio) * (-1.0 / s_arr) + c.ratio * mp_stieltjes(s_arr, c.ratio)
        else:
            comp = mp_stieltjes(s_arr, c.ratio)
        out = out + c.weight * comp
    return out if np.ndim(s) else complex(out)


def equal_aoa_mixture(num_users: int, aoa_counts: list[int]) -> list[MixtureComponent]:
    """Components for interfering cells with the given AoA counts."""
    n = sum(aoa_counts)
    return [MixtureComponent(weight=p / n, ratio=num_users / p) for p in aoa_counts]


# ---------------------------------------------------------------------------
# transform identity and support membership
# ---------------------------------------------------------------------------

def s_stieltjes_link_check(s_transform, stieltjes, s_grid) -> float:
    """Max residual of S(-sG - 1) = G / (sG + 1) over the grid.

    Both callables must describe the same law for the residual to vanish.
    """
    worst = 0.0
    for s in np.asarray(s_grid, dtype=complex).ravel():
        g = stieltjes(complex(s))
        z = -s * g - 1.0
        lhs = s_transform(z)
        rhs = g / (s * g + 1.0)
        worst = max(worst, abs(lhs - rhs))
    return worst


def contains(sup, x, slack: float = 0.0) -> np.ndarray:
    """Membership mask of ``sup``'s intervals with endpoint-relative
    dilation ``slack``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mask = np.zeros(x.shape, dtype=bool)
    for lo, hi in sup.intervals:
        mask |= (x >= lo * (1.0 - slack)) & (x <= hi * (1.0 + slack))
    return mask


def gap_widths(sup) -> list[float]:
    """Widths of the gaps between ``sup``'s consecutive intervals."""
    return [b0 - a1 for (a0, a1), (b0, b1) in zip(sup.intervals[:-1],
                                                  sup.intervals[1:])]
