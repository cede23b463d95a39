"""Monte Carlo experiment engine.

Eigenvalue experiments histogram the nonzero spectrum of Y Y^H / M per
coherence block (so cluster centers sit near N*p_signal and
N*p_interference), while the analytic laws describe the Y^H Y / (M N)
normalization; attached supports are therefore scaled by N before overlay.

Trials are independent work units seeded as (seed, trial_index) streams, so
any execution schedule produces identical results; the optional thread pool
size comes from the MIMOSPECTRA_WORKERS environment variable.  Trials run
with one BLAS thread: their matrices are small enough that BLAS threading
costs more than it saves, and a fixed thread count makes the floating-point
results independent of OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import rmt
from .channel import ChannelRealization, SystemParams, crandn, realize_channel
from .errors import ConfigError
from .estimation import (
    PilotLayout,
    bundled_openblas,
    count_bit_errors,
    estimate_subspace_channel,
    mf_detect,
    pilot_based_detect,
)

NONZERO_EIG_RTOL = 1e-8
SCHEMES = ("subspace", "pilot")


def trial_rng(seed, trial_index) -> np.random.Generator:
    """Independent, schedule-invariant stream for one trial."""
    key = trial_index if isinstance(trial_index, tuple) else (trial_index,)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _workers() -> int:
    """Thread-pool size from MIMOSPECTRA_WORKERS (default 1), capped at the
    CPU count; a non-integer or a value below 1 is a config error."""
    raw = os.environ.get("MIMOSPECTRA_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"MIMOSPECTRA_WORKERS={raw!r}; expected an integer >= 1")
    return min(workers, os.cpu_count() or 1)


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the bundled OpenBLAS builds
    (numpy's with the ``64_`` suffix, scipy's without); empty when none is
    found."""
    controls = []
    for lib in bundled_openblas():
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the body with one BLAS thread, then restore the previous counts."""
    controls = _blas_thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


def _map_trials(fn, n_trials: int):
    workers = _workers()
    with _one_blas_thread():
        if workers == 1:
            return [fn(t) for t in range(n_trials)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n_trials)))


def worst_case_power_diagonal(num_users: int, num_cells: int,
                              p_signal: float, p_interference: float) -> np.ndarray:
    """Served-cell users at p_signal, all others at p_interference."""
    if p_signal <= 0 or p_interference < 0:
        raise ConfigError("powers must be positive (interference may be zero)")
    return np.concatenate([
        np.full(num_users, float(p_signal)),
        np.full(num_users * (num_cells - 1), float(p_interference)),
    ])


# ---------------------------------------------------------------------------
# eigenvalue experiments
# ---------------------------------------------------------------------------

@dataclass
class EigenExperimentResult:
    """Each trial's nonzero eigenvalues of Y Y^H / M, and the N-scaled
    analytic supports attached to them."""

    samples_per_trial: list[np.ndarray]
    supports: dict[str, rmt.SpectralSupport]


def draw_block(params: SystemParams, rng: np.random.Generator, draw_symbols,
               cols: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Draw the channel, then the K*L x N symbols ``draw_symbols(rng)`` (rows
    grouped by cell like the composite's columns), then the noise; return
    the received Y = H[:, cols] @ (sqrt(powers) * X[cols]) + W and X[cols].

    Powers follow the worst-case split of ``worst_case_power_diagonal``;
    ``cols`` keeps a slice of the users (the eigen term selector).
    """
    k, l, n = params.users_per_cell, params.num_cells, params.block_length
    ch = realize_channel(params, rng)
    x = draw_symbols(rng)
    if x.shape != (k * l, n):
        raise ConfigError(f"symbols have shape {x.shape}, expected {(k * l, n)}")
    noise = crandn(rng, params.num_antennas, n) if params.noise_enabled else None
    powers = worst_case_power_diagonal(k, l, params.signal_power,
                                       params.interference_power)
    y = ch.composite[:, cols] @ (np.sqrt(powers[cols])[:, None] * x[cols])
    if noise is not None:
        y += noise
    return y, x[cols]


def bartlett_factor(rng: np.random.Generator, size: int, dof: int) -> np.ndarray:
    """Lower-triangular L with L L^H distributed as X X^H, a complex Wishart
    CW_size(dof, I), for size <= dof (complex Bartlett decomposition, Goodman
    1963): CN(0,1) entries below the diagonal, drawn first, then
    L_ii = sqrt(Gamma(dof - i)) for 0-based i; O(size^2) draws, not size*dof."""
    low = np.tril(crandn(rng, size, size), -1)
    low[np.diag_indices(size)] = np.sqrt(rng.standard_gamma(dof - np.arange(size)))
    return low


def _product_eigs(channel: ChannelRealization, cols: slice, factor: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian F^H (H^H H / M) F, similar to the C x C
    product (H^H H / M)(F F^H): for a noiseless block whose scaled symbol Gram
    is F F^H, its nonzero ones are those of Y Y^H / M.  ``ChannelRealization.gram``
    builds the M x C composite only when the AoAs outnumber the antennas."""
    gram_h = channel.gram(cols) / channel.params.num_antennas
    return np.linalg.eigvalsh(factor.conj().T @ gram_h @ factor)


def _term_columns(params: SystemParams, terms: str) -> tuple[int, int]:
    k, l = params.users_per_cell, params.num_cells
    if terms == "all":
        return 0, k * l
    if terms == "signal":
        return 0, k
    if terms == "interference":
        if l < 2:
            raise ConfigError("interference term requires at least 2 cells")
        return k, k * l
    raise ConfigError(f"unknown terms selector {terms!r}")


# scenario -> its (signal, interference, joint) law names for law_support
_OVERLAYS = {
    "iid": ("iid_signal", "iid_interference", None),
    "identical_aoas": ("one_sided_signal", "one_sided_interference", "double_sided"),
    "distinct_aoas": ("one_sided_signal", "distinct_interference", None),
}


def has_interference(params: SystemParams) -> bool:
    """True when some other cell interferes with nonzero power."""
    return params.num_cells > 1 and params.interference_power > 0


def law_support(params: SystemParams, name: str) -> rmt.SpectralSupport:
    """Support of one analytic law for a run, N-scaled to Y Y^H / M.

    The signal laws take the served cell's K users at p_signal, the
    interference laws the other cells' K (L - 1) users at p_interference.
    """
    k, l, m, n = (params.users_per_cell, params.num_cells, params.num_antennas,
                  params.block_length)
    if name in ("iid_signal", "iid_interference"):
        users, power = ((k, params.signal_power) if name == "iid_signal"
                        else (k * (l - 1), params.interference_power))
        sup = rmt.support_iid(power, users / m, users / n)
    elif name in ("one_sided_signal", "one_sided_interference"):
        role = name.removeprefix("one_sided_")
        sup = rmt.support_onesided(getattr(rmt.OneSidedParams, role)(params))
    elif name == "double_sided":
        sup = rmt.support_double_sided(rmt.DoubleSidedParams.from_system(params))
    elif name == "distinct_interference":
        counts = params.aoa_counts[1:]
        if len(set(counts)) > 1:
            raise ConfigError(f"interfering cells have unequal AoA counts {counts}")
        sup = rmt.support_distinct(k, l, m, n, counts[0], params.interference_power)
    else:
        raise ConfigError(f"unknown law {name!r}")
    return sup.scaled(n)


def _attach_supports(params: SystemParams, terms: str) -> dict[str, rmt.SpectralSupport]:
    """The scenario's analytic supports for the selected terms; a law that
    cannot be built is skipped with a warning."""
    supports: dict[str, rmt.SpectralSupport] = {}
    if params.noise_enabled:
        warnings.warn("could not attach supports: noise enabled, and the laws "
                      "describe noiseless blocks", stacklevel=3)
        return supports
    sig, intf, joint = _OVERLAYS[params.scenario]
    names = {"all": (sig, intf, joint), "signal": (sig,), "interference": (intf,)}[terms]
    for name in names:
        # the interference and joint laws need an interfering cell with power
        if name is None or name != sig and not has_interference(params):
            continue
        try:
            supports[name] = law_support(params, name)
        except ConfigError as exc:
            warnings.warn(f"could not attach {name} support: {exc}", stacklevel=3)
    return supports


def run_eigen_experiment(params: SystemParams, trials: int, seed: int,
                         terms: str = "all",
                         attach_supports: bool = True) -> EigenExperimentResult:
    """Pool nonzero eigenvalues of Y Y^H / M over independent coherence blocks.

    Blocks are noiseless by default (high-SNR regime) unless the params
    enable noise; inputs are unit-variance Gaussian symbols, drawn as the
    ``bartlett_factor`` of X X^H in a noiseless trial with C <= min(M, N).
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    lo, hi = _term_columns(params, terms)
    cols, c = slice(lo, hi), hi - lo
    k, l, m, n = (params.users_per_cell, params.num_cells, params.num_antennas,
                  params.block_length)
    amp = np.sqrt(worst_case_power_diagonal(k, l, params.signal_power,
                                            params.interference_power)[cols])

    def one_trial(t: int) -> np.ndarray:
        rng = trial_rng(seed, t)
        if params.noise_enabled or c > min(m, n):
            y, _ = draw_block(params, rng, lambda g: crandn(g, k * l, n), cols)
            lam = np.sort(np.linalg.svd(y, compute_uv=False) ** 2 / m)
        else:
            channel = realize_channel(params, rng)
            lam = _product_eigs(channel, cols, amp[:, None] * bartlett_factor(rng, c, n))
        return lam[lam > NONZERO_EIG_RTOL * lam.max(initial=0.0)]

    samples = _map_trials(one_trial, trials)
    supports = _attach_supports(params, terms) if attach_supports else {}
    return EigenExperimentResult(samples, supports)


def run_saturation_experiment(num_aoas: int, m_physical: int, params: SystemParams,
                              trials: int, seed: int
                              ) -> tuple[EigenExperimentResult, EigenExperimentResult]:
    """Paired spectra: physical channel at M = m_physical with P AoAs versus
    the i.d. channel with M = P antennas, same K, L, N, and powers."""
    if m_physical < num_aoas:
        raise ConfigError("m_physical must be >= num_aoas")
    phys = replace(params, scenario="identical_aoas", num_antennas=m_physical,
                   aoa_counts=(num_aoas,))
    iid = replace(params, scenario="iid", num_antennas=num_aoas, aoa_counts=())
    res_phys = run_eigen_experiment(phys, trials, seed, attach_supports=False)
    res_iid = run_eigen_experiment(iid, trials, seed + 1, attach_supports=False)
    return res_phys, res_iid


# ---------------------------------------------------------------------------
# BER experiments
# ---------------------------------------------------------------------------

@dataclass
class BerPoint:
    sweep_value: float
    ber: float
    ci_lo: float
    ci_hi: float
    bits: int


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _ber_point(params: SystemParams, bits_target: int, seed, point_key: tuple,
               sweep_value: float) -> dict[str, BerPoint]:
    """Simulate coherence blocks until bits_target served-cell data bits.

    Both schemes share the same blocks; the 95% CI is computed over
    per-block error rates (blocks are i.i.d.).
    """
    k, l, n = params.users_per_cell, params.num_cells, params.block_length
    layout = PilotLayout(num_users=k, block_length=n)
    bits_per_block = 2 * k * layout.num_data
    n_blocks = max(2, int(np.ceil(bits_target / bits_per_block)))
    pilot = layout.pilot_block()

    def draw_symbols(rng):
        return np.vstack([layout.assemble(layout.data_block(rng)) for _ in range(l)])

    def one_block(blk: int):
        y, x = draw_block(params, trial_rng(seed, point_key + (blk,)), draw_symbols)
        sent = x[:k, k:]
        model = estimate_subspace_channel(y, pilot, k)
        dec_sub = mf_detect(model.projected[:, k:], model.estimate)
        dec_pil = pilot_based_detect(y, pilot)
        return {name: count_bit_errors(dec, sent) / bits_per_block
                for name, dec in (("subspace", dec_sub), ("pilot", dec_pil))}

    per_block = _map_trials(one_block, n_blocks)
    out = {}
    for s in SCHEMES:
        r = np.array([res[s] for res in per_block])
        mean = float(r.mean())
        half = 1.96 * float(r.std(ddof=1)) / np.sqrt(n_blocks)
        out[s] = BerPoint(sweep_value, mean, max(mean - half, 0.0), mean + half,
                          n_blocks * bits_per_block)
    return out


def run_ber_experiment(params: SystemParams, ratios_db, bits_target: int,
                       seed: int) -> dict[str, list[BerPoint]]:
    """BER versus interference-to-signal ratio (dB) for both schemes, one
    point per ratio.

    ``params.interference_power`` is overridden per sweep point with
    ratio * p_signal.
    """
    if bits_target < 1:
        raise ConfigError("bits_target must be positive")
    points: dict[str, list[BerPoint]] = {s: [] for s in SCHEMES}
    for j, ratio_db in enumerate(ratios_db):
        p_i = db_to_linear(ratio_db) * params.signal_power
        point_params = replace(params, interference_power=p_i)
        res = _ber_point(point_params, bits_target, seed, (j,), float(ratio_db))
        for s in SCHEMES:
            points[s].append(res[s])
    return points


def run_ber_sweep(variants: dict, ratios_db, bits_target: int, seed: int) -> dict:
    """``run_ber_experiment`` on each SystemParams variant of a family, keyed
    as given; every variant sees the same seed."""
    ratios_db = list(ratios_db)
    return {key: run_ber_experiment(p, ratios_db, bits_target, seed)
            for key, p in variants.items()}


def distinct_aoa_variants(params: SystemParams, p4_values) -> dict[int, SystemParams]:
    """fig8-preset family: the last cell's AoA count set to each P4."""
    if params.scenario != "distinct_aoas":
        raise ConfigError("distinct-AoA sweep requires the distinct_aoas scenario")
    return {int(p4): replace(params, aoa_counts=params.aoa_counts[:-1] + (int(p4),))
            for p4 in p4_values}


def short_coherence_variants(params: SystemParams, n_values) -> dict[int, SystemParams]:
    """fig9-preset family: the block length set to each N."""
    return {int(n): replace(params, block_length=int(n)) for n in n_values}


def run_distinct_aoa_ber(params: SystemParams, p4_values, ratios_db,
                         bits_target: int, seed: int
                         ) -> dict[int, dict[str, list[BerPoint]]]:
    """fig8-preset family: sweep the last cell's AoA count."""
    return run_ber_sweep(distinct_aoa_variants(params, p4_values), ratios_db,
                         bits_target, seed)


def run_short_coherence_ber(params: SystemParams, n_values, ratios_db,
                            bits_target: int, seed: int
                            ) -> dict[int, dict[str, list[BerPoint]]]:
    """fig9-preset family: sweep the block length, comparable to K*L."""
    return run_ber_sweep(short_coherence_variants(params, n_values), ratios_db,
                         bits_target, seed)
