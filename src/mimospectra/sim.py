"""Monte Carlo experiment engine.

Eigenvalue experiments histogram the nonzero spectrum of Y Y^H / M per
coherence block (so cluster centers sit near N*p_signal and
N*p_interference), while the analytic laws describe the Y^H Y / (M N)
normalization; attached supports are therefore scaled by N before overlay.

Received blocks (``draw_block``) take their users' amplitudes from the
caller, so the ratio points of a BER sweep share one ``SystemParams`` and
differ only in the amplitude vector each builds.

Trials are independent work units seeded as (seed, trial_index) streams, so
trial order never changes a result.  One ``_map_trials`` call runs all the
blocks of a BER family's ratio points, one Python thread per usable CPU;
their BLAS calls and eigensolves release the interpreter lock.  Eigen trials
run in order on the calling thread: the noiseless Bartlett trials' C x C
products hold the interpreter lock between small numpy calls, so threads
make them slower, and no benchmark workload runs the noisy or wide ones.
All trials run with one BLAS thread (``estimation.one_blas_thread``): their
matrices are small enough that BLAS threading costs more than it saves, and
a fixed thread count makes the floating-point results independent of
OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import rmt
from .channel import ChannelRealization, SystemParams, crandn, realize_channel
from .errors import ConfigError
from .estimation import (
    PilotLayout,
    count_bit_errors,
    estimate_subspace_channel,
    mf_detect,
    one_blas_thread,
    pilot_based_detect,
    product,
)

NONZERO_EIG_RTOL = 1e-8
SCHEMES = ("subspace", "pilot")


def trial_rng(seed, trial_index) -> np.random.Generator:
    """Independent, schedule-invariant stream for one trial."""
    key = trial_index if isinstance(trial_index, tuple) else (trial_index,)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or every CPU on a
    platform without one.  CPU quotas are not read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_trials(fn, n_trials: int) -> list:
    """``[fn(t) for t in range(n_trials)]``, with one BLAS thread.

    The calling thread and one helper thread per further usable CPU (at most
    one thread per trial) take trial indices from one shared counter.  A
    failed trial stops the taking of new ones; every trial below it was taken
    already and finishes, so once all helpers are joined the error raised is
    that of the lowest-numbered failed trial, as in order.  If a helper
    cannot start, the ones started take no further trials and are joined
    before that error leaves.
    """
    workers = min(_usable_cpus(), n_trials)
    results = [None] * n_trials
    failed: dict[int, BaseException] = {}
    indices = itertools.count()

    def work():
        for t in indices:  # the C-level count hands out each index once
            if t >= n_trials or failed:
                return
            try:
                results[t] = fn(t)
            except BaseException as exc:  # re-raised below, after the join
                failed[t] = exc

    with one_blas_thread():
        helpers = []
        try:
            for _ in range(workers - 1):
                # each helper runs in a copy of the caller's context, so it keeps
                # the caller's context-local state, such as numpy's np.errstate
                helper = threading.Thread(target=contextvars.copy_context().run,
                                          args=(work,))
                helper.start()
                helpers.append(helper)
            work()
        except BaseException as exc:
            failed.setdefault(-1, exc)  # the running helpers take no more trials
            raise
        finally:
            for helper in helpers:
                helper.join()
    if failed:
        raise failed[min(failed)]
    return results


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

def draw_block(params: SystemParams, rng: np.random.Generator, draw_symbols,
               amp: np.ndarray, cols: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Draw the channel, then the K*L x N symbols ``draw_symbols(rng)`` (rows
    grouped by cell like the composite's columns), then the noise W; return
    the received Y = H[:, cols] @ (diag(amp) X[cols]) + W and X[cols].

    The product is added into the noise array (``estimation.product``), so Y
    is that array and no second M x N array is held; bitwise the same as
    forming the product and adding W.  Without noise Y is the product alone.  ``cols`` keeps a slice of the users
    (the eigen term selector) and ``amp`` holds the kept users' amplitudes,
    the square roots of their powers; the block reads no power from ``params``.
    """
    k, l, n = params.users_per_cell, params.num_cells, params.block_length
    ch = realize_channel(params, rng)
    x = draw_symbols(rng)
    if x.shape != (k * l, n):
        raise ConfigError(f"symbols have shape {x.shape}, expected {(k * l, n)}")
    noise = crandn(rng, params.num_antennas, n) if params.noise_enabled else None
    return product(ch.composite[:, cols], amp[:, None] * x[cols], out=noise), x[cols]


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
    elif name not in _OVERLAYS[params.scenario]:
        laws = ", ".join(law for law in _OVERLAYS[params.scenario] if law)
        raise ConfigError(f"law {name!r} does not describe scenario {params.scenario!r}, "
                          f"whose laws are {laws}")
    elif name in ("one_sided_signal", "one_sided_interference"):
        role = name.removeprefix("one_sided_")
        sup = rmt.support_onesided(getattr(rmt.OneSidedParams, role)(params))
    elif name == "double_sided":
        sup = rmt.support_double_sided(rmt.DoubleSidedParams.from_system(params))
    else:  # distinct_interference
        counts = params.aoa_counts[1:]
        if len(set(counts)) > 1:
            raise ConfigError(f"interfering cells have unequal AoA counts {counts}")
        sup = rmt.support_distinct(k, l, m, n, counts[0], params.interference_power)
    return sup.scaled(n)


def overlays(params: SystemParams, terms: str) -> dict[str, rmt.SpectralSupport]:
    """The scenario's analytic supports for the selected terms, to overlay on
    ``run_eigen_experiment``; a law that cannot be built is skipped with a warning."""
    _term_columns(params, terms)
    supports: dict[str, rmt.SpectralSupport] = {}
    if params.noise_enabled:
        warnings.warn("could not attach supports: noise enabled, and the laws "
                      "describe noiseless blocks", stacklevel=2)
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
            warnings.warn(f"could not attach {name} support: {exc}", stacklevel=2)
    return supports


def run_eigen_experiment(params: SystemParams, trials: int, seed: int,
                         terms: str = "all") -> list[np.ndarray]:
    """Each trial's nonzero eigenvalues of Y Y^H / M, one array per coherence block.

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
            y, _ = draw_block(params, rng, lambda g: crandn(g, k * l, n), amp, cols)
            lam = np.sort(np.linalg.svd(y, compute_uv=False) ** 2 / m)
        else:
            channel = realize_channel(params, rng)
            lam = _product_eigs(channel, cols, amp[:, None] * bartlett_factor(rng, c, n))
        return lam[lam > NONZERO_EIG_RTOL * lam.max(initial=0.0)]

    with one_blas_thread():
        return [one_trial(t) for t in range(trials)]


def run_saturation_experiment(num_aoas: int, m_physical: int, params: SystemParams,
                              trials: int, seed: int
                              ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Paired spectra: physical channel at M = m_physical with P AoAs versus
    the i.d. channel with M = P antennas, same K, L, N, and powers."""
    if m_physical < num_aoas:
        raise ConfigError("m_physical must be >= num_aoas")
    phys = replace(params, scenario="identical_aoas", num_antennas=m_physical,
                   aoa_counts=(num_aoas,))
    iid = replace(params, scenario="iid", num_antennas=num_aoas, aoa_counts=())
    return (run_eigen_experiment(phys, trials, seed),
            run_eigen_experiment(iid, trials, seed + 1))


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


def run_ber_experiment(params: SystemParams, ratios_db, bits_target: int,
                       seed: int) -> dict[str, list[BerPoint]]:
    """BER versus interference-to-signal ratio (dB) for both schemes, one
    point per ratio, whose blocks send the other cells' users at ratio *
    p_signal in place of ``params.interference_power``.

    Each point runs coherence blocks, shared by both schemes, until
    bits_target served-cell data bits.  One ``_map_trials`` call runs every
    block of every point: trial t is block t % n_blocks of point
    t // n_blocks, seeded as (point, block).  Each point's 95% CI is computed
    over its own per-block error rates (blocks are i.i.d.).
    """
    if bits_target < 1:
        raise ConfigError("bits_target must be positive")
    k, l, n = params.users_per_cell, params.num_cells, params.block_length
    layout = PilotLayout(num_users=k, block_length=n)
    bits_per_block = 2 * k * layout.num_data
    n_blocks = max(2, int(np.ceil(bits_target / bits_per_block)))
    ratios_db = list(ratios_db)
    p_s = params.signal_power
    point_amp = [np.sqrt(worst_case_power_diagonal(k, l, p_s, db_to_linear(r) * p_s))
                 for r in ratios_db]

    def draw_symbols(rng):
        return np.vstack([layout.assemble(layout.data_block(rng)) for _ in range(l)])

    def one_block(t: int):
        j, blk = divmod(t, n_blocks)
        y, x = draw_block(params, trial_rng(seed, (j, blk)), draw_symbols, point_amp[j])
        sent = x[:k, k:]
        model = estimate_subspace_channel(y, layout)
        dec_sub = mf_detect(model.projected[:, k:], model.estimate)
        dec_pil = pilot_based_detect(y, layout)
        return {name: count_bit_errors(dec, sent) / bits_per_block
                for name, dec in (("subspace", dec_sub), ("pilot", dec_pil))}

    per_block = _map_trials(one_block, len(ratios_db) * n_blocks)
    points: dict[str, list[BerPoint]] = {s: [] for s in SCHEMES}
    for j, ratio_db in enumerate(ratios_db):
        blocks = per_block[j * n_blocks:(j + 1) * n_blocks]
        for s in SCHEMES:
            r = np.array([res[s] for res in blocks])
            mean = float(r.mean())
            half = 1.96 * float(r.std(ddof=1)) / np.sqrt(n_blocks)
            points[s].append(BerPoint(float(ratio_db), mean, max(mean - half, 0.0),
                                      mean + half, n_blocks * bits_per_block))
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
