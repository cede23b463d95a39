"""Physical finite-AoA uplink channel model.

Steering vectors follow a uniform linear array with element phase
2*pi*(d/lambda)*(m-1)*cos(phi); angles of arrival are drawn uniformly on
[0, pi].  Per-cell channels are H_i = S_i @ Hf_i with S_i the 1/sqrt(P)-scaled
steering matrix and Hf_i unit-variance circularly symmetric Gaussian fading.
The received block (``sim.draw_block``) uses the worst-case power split: the
served cell (index 0) transmits at p_signal, every other cell at p_interference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SCENARIOS = ("iid", "identical_aoas", "distinct_aoas")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """CN(0,1) array: variance 1/2 per real component."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


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
    """Per-cell steering and fading factors plus the composite channel.

    ``composite`` is num_antennas x (users_per_cell * num_cells) with columns
    grouped by cell; for the iid scenario the factors are absent.
    """

    params: SystemParams
    steering: list[np.ndarray] = field(default_factory=list)
    fading: list[np.ndarray] = field(default_factory=list)
    composite: np.ndarray = None


def steering_vector(angle: float, num_antennas: int, spacing_ratio: float) -> np.ndarray:
    """Unit-modulus array response; Euclidean norm sqrt(num_antennas).

    Entry m is exp(-j*2*pi*spacing_ratio*(m-1)*cos(angle)).
    """
    if not 0.0 <= angle <= np.pi:
        raise ConfigError(f"angle {angle} outside [0, pi]")
    if num_antennas < 1:
        raise ConfigError("num_antennas must be >= 1")
    phase = 2.0 * np.pi * spacing_ratio * np.arange(num_antennas) * np.cos(angle)
    return np.exp(-1j * phase)


def draw_aoa_set(num_paths: int, seed) -> np.ndarray:
    """num_paths i.i.d. angles, uniform on [0, pi]; deterministic per seed."""
    if num_paths < 1:
        raise ConfigError("num_paths must be >= 1")
    rng = _as_rng(seed)
    return rng.uniform(0.0, np.pi, num_paths)


def build_steering_matrix(aoas: np.ndarray, num_antennas: int,
                          spacing_ratio: float) -> np.ndarray:
    """Column j is steering_vector(aoas[j]) / sqrt(P); Frobenius norm^2 = M."""
    aoas = np.asarray(aoas, dtype=float)
    if aoas.size == 0:
        raise ConfigError("empty AoA set")
    if aoas.min() < 0.0 or aoas.max() > np.pi:
        raise ConfigError("AoA outside [0, pi]")
    m = np.arange(num_antennas)[:, None]
    cols = np.exp(-2j * np.pi * spacing_ratio * m * np.cos(aoas)[None, :])
    return cols / np.sqrt(aoas.size)


def realize_channel(params: SystemParams, seed) -> ChannelRealization:
    """Draw one block-fading realization for all cells.

    identical_aoas reuses one steering matrix for every cell; distinct_aoas
    draws an independent AoA set per cell; iid fills the composite with
    CN(0,1) entries directly.
    """
    rng = _as_rng(seed)
    m, k, n_cells = params.num_antennas, params.users_per_cell, params.num_cells
    if params.scenario == "iid":
        composite = crandn(rng, m, k * n_cells)
        return ChannelRealization(params=params, composite=composite)

    counts = params.aoa_counts
    if params.scenario == "identical_aoas":
        shared = build_steering_matrix(draw_aoa_set(counts[0], rng), m, params.spacing_ratio)
        steering = [shared for _ in range(n_cells)]
    else:
        steering = [
            build_steering_matrix(draw_aoa_set(p, rng), m, params.spacing_ratio)
            for p in counts
        ]
    fading = [crandn(rng, p, k) for p in counts]
    composite = np.concatenate([s @ h for s, h in zip(steering, fading)], axis=1)
    return ChannelRealization(params=params, steering=steering, fading=fading,
                              composite=composite)

