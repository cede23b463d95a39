"""Physical finite-AoA uplink channel model.

Steering vectors follow a uniform linear array with element phase
2*pi*(d/lambda)*(m-1)*cos(phi); angles of arrival are drawn uniformly on
[0, pi].  Per-cell channels are H_i = S_i @ Hf_i with S_i the 1/sqrt(P)-scaled
steering matrix and Hf_i unit-variance circularly symmetric Gaussian fading.
The received block (``sim.draw_block``) uses the worst-case power split: the
served cell (index 0) transmits at p_signal, every other cell at p_interference.
Noiseless eigen trials need only H^H H, whose steering part S_i^H S_j
``steering_gram`` gives in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError

SCENARIOS = ("iid", "identical_aoas", "distinct_aoas")


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """CN(0,1) array: variance 1/2 per real component.

    Bit-identical to (a + 1j*b) / sqrt(2) for the draws a, then b (numpy
    divides a complex number by a real one as a product with its reciprocal),
    without the temporaries of that expression.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= 1.0 / np.sqrt(2.0)
    return out


@dataclass(frozen=True)
class SystemParams:
    """Scenario dimensions and powers for one uplink cell cluster.

    ``aoa_counts`` holds one entry per cell; the identical-AoAs scenario uses
    a single shared count (pass one value, it is broadcast to all cells).
    Powers are linear.
    """

    num_antennas: int
    users_per_cell: int
    num_cells: int
    block_length: int
    aoa_counts: tuple[int, ...] = ()
    signal_power: float = 1.0
    interference_power: float = 0.0
    noise_enabled: bool = True
    spacing_ratio: float = 2.0
    scenario: str = "identical_aoas"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        for name in ("num_antennas", "users_per_cell", "num_cells", "block_length"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.users_per_cell > self.block_length:
            raise ConfigError(
                f"users_per_cell={self.users_per_cell} exceeds block_length={self.block_length}"
            )
        if self.signal_power <= 0:
            raise ConfigError("signal_power must be positive")
        if self.interference_power < 0:
            raise ConfigError("interference_power must be nonnegative")
        if self.spacing_ratio <= 0:
            raise ConfigError("spacing_ratio must be positive")
        if self.scenario != "iid":
            counts = self.aoa_counts
            if not counts:
                raise ConfigError("aoa_counts required for AoA scenarios")
            if len(counts) == 1:
                counts = counts * self.num_cells
            if len(counts) != self.num_cells:
                raise ConfigError(
                    f"aoa_counts has {len(counts)} entries for {self.num_cells} cells"
                )
            if self.scenario == "identical_aoas" and len(set(counts)) != 1:
                raise ConfigError("identical_aoas scenario requires one shared AoA count")
            if any(p < 1 for p in counts):
                raise ConfigError("all AoA counts must be >= 1")
            if self.users_per_cell > min(counts):
                raise ConfigError(
                    f"users_per_cell={self.users_per_cell} exceeds min AoA count {min(counts)}"
                )
            if self.users_per_cell / min(counts) > 0.2:
                warnings.warn(
                    "users_per_cell / AoA count exceeds 0.2; the asymptotic "
                    "user-orthogonality regime assumes K << P",
                    stacklevel=2,
                )
            object.__setattr__(self, "aoa_counts", tuple(int(p) for p in counts))


@dataclass
class ChannelRealization:
    """AoA sets and per-cell fading factors of one realization.

    Each distinct AoA set is kept once: one shared set, or one per cell; cell
    c uses set ``c % len(aoas)``.  ``composite`` (M x K*L, columns grouped
    by cell, kept once built) is built from them on demand, each set's
    M x P_i steering matrix only for its product; for the iid scenario the
    factors are absent and ``iid_composite`` holds the composite.
    """

    params: SystemParams
    aoas: list[np.ndarray] = field(default_factory=list)
    fading: list[np.ndarray] = field(default_factory=list)
    iid_composite: np.ndarray | None = None

    @cached_property
    def composite(self) -> np.ndarray:
        if self.iid_composite is not None:
            return self.iid_composite
        m, d = self.params.num_antennas, self.params.spacing_ratio
        if len(self.aoas) == 1:
            shared = build_steering_matrix(self.aoas[0], m, d)
            return np.concatenate([shared @ h for h in self.fading], axis=1)
        # each cell's steering matrix is built for its product and dropped
        # before the next, so at most one M x P_i set is held at a time
        return np.concatenate([build_steering_matrix(self.aoas[cell % len(self.aoas)], m, d) @ h
                               for cell, h in enumerate(self.fading)], axis=1)

    def gram(self, cols: slice = slice(None)) -> np.ndarray:
        """H^H H for the kept columns of the composite.

        With at most M distinct AoAs it is Hf^H (S^H S) Hf from the
        closed-form ``steering_gram``, whose cost does not grow with M;
        otherwise the composite is built and multiplied out.
        """
        m = self.params.num_antennas
        if self.iid_composite is not None or sum(a.size for a in self.aoas) > m:
            h = self.composite[:, cols]
            return h.conj().T @ h
        k = self.params.users_per_cell
        offsets = np.cumsum([0] + [a.size for a in self.aoas])
        coeffs = np.zeros((offsets[-1], k * len(self.fading)), dtype=complex)
        for cell, f in enumerate(self.fading):
            row = offsets[cell % len(self.aoas)]  # the shared set, or the cell's own
            coeffs[row:row + f.shape[0], cell * k:(cell + 1) * k] = f
        coeffs = coeffs[:, cols]
        kernel = np.block([[steering_gram(a, b, m, self.params.spacing_ratio)
                            for b in self.aoas] for a in self.aoas])
        return coeffs.conj().T @ kernel @ coeffs


def draw_aoa_set(num_paths: int, seed) -> np.ndarray:
    """num_paths i.i.d. angles, uniform on [0, pi]; deterministic per seed."""
    if num_paths < 1:
        raise ConfigError("num_paths must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, np.pi, num_paths)


def _check_aoas(aoas) -> np.ndarray:
    aoas = np.asarray(aoas, dtype=float)
    if aoas.size == 0:
        raise ConfigError("empty AoA set")
    if aoas.min() < 0.0 or aoas.max() > np.pi:
        raise ConfigError("AoA outside [0, pi]")
    return aoas


def build_steering_matrix(aoas: np.ndarray, num_antennas: int,
                          spacing_ratio: float) -> np.ndarray:
    """Unit-modulus array responses scaled by 1/sqrt(P); Frobenius norm^2 = M.

    Entry (m, j) is exp(-j*2*pi*spacing_ratio*m*cos(aoas[j])) / sqrt(P) for
    m = 0..M-1.  With b = ceil(sqrt(M)) and m = b*q + r, each column is the
    product of a coarse table e^{j theta b q} and a fine one e^{j theta r}:
    about 2 sqrt(M) complex exponentials per angle instead of M, and no
    larger phase error than the direct exponential.  The 1/sqrt(P) scale is
    applied in place to the real and imaginary parts, which is what numpy's
    complex-by-real division does.
    """
    aoas = _check_aoas(aoas)
    b = math.isqrt(max(num_antennas - 1, 0)) + 1
    q = -(-num_antennas // b)
    theta = -2.0 * np.pi * spacing_ratio * np.cos(aoas)
    coarse = np.exp(1j * (b * np.arange(q))[:, None] * theta)
    fine = np.exp(1j * np.arange(b)[:, None] * theta)
    cols = (coarse[:, None, :] * fine[None, :, :]).reshape(q * b, aoas.size)[:num_antennas]
    cols.view(np.float64)[...] *= 1.0 / np.sqrt(aoas.size)
    return cols


def steering_gram(aoas_i: np.ndarray, aoas_j: np.ndarray, num_antennas: int,
                  spacing_ratio: float) -> np.ndarray:
    """S_i^H S_j of two steering matrices, without building either.

    Entry (a, b) is a Dirichlet kernel,
    e^{j*pi*(M-1)*delta} sin(pi*M*delta) / sin(pi*delta) / sqrt(P_i P_j) with
    delta = spacing_ratio * (cos(aoas_i[a]) - cos(aoas_j[b])); it is 1-periodic
    in delta.  The phase is the outer product of per-angle phases
    e^{+-j*pi*(M-1)*spacing_ratio*cos(phi)}, and sin(pi*t*delta) for t = M, 1
    the rank-2 product sin(t x_a) cos(t x_b) - cos(t x_a) sin(t x_b) with
    x = pi*spacing_ratio*cos(phi): O(P_i + P_j) trig calls, whatever M is.
    Where |sin(pi*delta)| < 1e-3 (repeated and near-coincident angles,
    grating lobes) that difference cancels, and the entry comes from delta
    reduced mod 1 to [-1/2, 1/2] instead, times (-1)^((M-1)*k) for the
    integer k removed; where sin(pi*delta) vanishes the ratio is its limit M.
    """
    a, b = _check_aoas(aoas_i), _check_aoas(aoas_j)
    m = num_antennas
    cos_a, cos_b = np.cos(a), np.cos(b)
    x_a, x_b = np.pi * spacing_ratio * cos_a, np.pi * spacing_ratio * cos_b

    def sin_diff(t):
        return (np.multiply.outer(np.sin(t * x_a), np.cos(t * x_b))
                - np.multiply.outer(np.cos(t * x_a), np.sin(t * x_b)))

    den, ratio = sin_diff(1.0), sin_diff(m)
    near = np.abs(den) < 1e-3
    np.divide(ratio, den, out=ratio, where=~near)
    i, j = np.nonzero(near)
    delta = spacing_ratio * (cos_a[i] - cos_b[j])
    k = np.rint(delta)
    delta -= k
    den = np.sin(np.pi * delta)
    ratio[i, j] = np.divide(np.sin(np.pi * m * delta), den, out=np.full(delta.shape, float(m)),
                            where=den != 0.0) * (1.0 - 2.0 * ((m - 1) * k.astype(np.int64) & 1))
    half = np.pi * (m - 1) * spacing_ratio
    scale = 1.0 / np.sqrt(a.size * b.size)
    kernel = np.multiply.outer(np.exp(1j * half * cos_a) * scale, np.exp(-1j * half * cos_b))
    kernel *= ratio
    return kernel


def realize_channel(params: SystemParams, seed) -> ChannelRealization:
    """Draw one block-fading realization for all cells: the AoAs, then the
    fading.

    identical_aoas shares one AoA set among all cells; distinct_aoas draws an
    independent set per cell; iid fills the composite with CN(0,1) entries
    directly.
    """
    rng = np.random.default_rng(seed)
    m, k, n_cells = params.num_antennas, params.users_per_cell, params.num_cells
    if params.scenario == "iid":
        return ChannelRealization(params=params, iid_composite=crandn(rng, m, k * n_cells))

    counts = params.aoa_counts
    if params.scenario == "identical_aoas":
        aoas = [draw_aoa_set(counts[0], rng)]
    else:
        aoas = [draw_aoa_set(p, rng) for p in counts]
    fading = [crandn(rng, p, k) for p in counts]
    return ChannelRealization(params=params, aoas=aoas, fading=fading)
