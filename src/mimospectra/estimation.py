"""Blind subspace channel estimation and the pilot-based baseline.

The subspace pipeline: the K dominant left singular vectors of the received
block (solved on its smaller Gram matrix), projection onto them, zero-forcing
on the shared pilot prefix to resolve the remaining K x K ambiguity, then
matched-filter QPSK detection on the projected data.  The baseline
estimates the full antenna-domain channel by least squares on the same
pilots and matched-filters in antenna space.

Nothing here loads ``scipy.linalg``: the pilot is the DFT matrix built with
scipy's own expression, and the top eigenpairs of the Gram come from
``LAPACKE_zheevr`` (MRRR; Dhillon, Parlett & Vomel, ACM TOMS 2006) of the
OpenBLAS bundled with scipy, called through ctypes with the arguments
``scipy.linalg.eigh(subset_by_index=...)`` passes to it, so the results
are the same to the bit.  Only where no bundled library exports that
routine does the solve import ``scipy.linalg.eigh``.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from pathlib import Path

import numpy as np
import scipy

from .errors import ConfigError, NumericalError

QPSK_SCALE = 1.0 / np.sqrt(2.0)
# The Gram matrix squares the condition number: the K-th vector it gives is
# off by about eps * (sigma_1 / sigma_K)^2, 2e-10 at this ratio.  Below it
# (rank-deficient or nearly so blocks) the subspace comes from the full SVD.
GRAM_RTOL = 1e-3
_LAPACK_COL_MAJOR = 102


@cache
def bundled_openblas() -> tuple:
    """The OpenBLAS builds bundled with numpy (``numpy.libs``, 64-bit
    interface) and scipy (``scipy.libs``, LP64), opened with ctypes; empty
    when neither is found, e.g. for a numpy linked against another BLAS."""
    libs = []
    for module in (np, scipy):
        site = Path(module.__file__).resolve().parents[1]
        for path in sorted(site.glob(f"{module.__name__}.libs/libscipy_openblas*.so")):
            try:
                libs.append(ctypes.CDLL(str(path)))
            except OSError:
                continue
    return tuple(libs)


@cache
def _lapacke_zheevr():
    """``LAPACKE_zheevr`` of the bundled LP64 OpenBLAS, or None."""
    for lib in bundled_openblas():
        fn = getattr(lib, "scipy_LAPACKE_zheevr", None)
        if fn is not None:
            c = ctypes
            fn.argtypes = [c.c_int, c.c_char, c.c_char, c.c_char, c.c_int, c.c_void_p,
                           c.c_int, c.c_double, c.c_double, c.c_int, c.c_int, c.c_double,
                           c.POINTER(c.c_int), c.c_void_p, c.c_void_p, c.c_int, c.c_void_p]
            fn.restype = c.c_int
            return fn
    return None


def _top_eigenpairs(gram: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs lo..r-1 (ascending) of the r x r Hermitian ``gram``, from
    its lower triangle: what ``scipy.linalg.eigh(gram,
    subset_by_index=[lo, r-1])`` returns, with its finite check."""
    if not np.isfinite(gram).all():
        raise NumericalError("the received block's Gram matrix is not finite")
    r = gram.shape[0]
    zheevr = _lapacke_zheevr()
    if zheevr is None:
        from scipy.linalg import eigh

        try:
            return eigh(gram, subset_by_index=[lo, r - 1])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc
    a = np.array(gram, dtype=np.complex128, order="F")
    w = np.empty(r)
    v = np.empty((r, r - lo), dtype=np.complex128, order="F")
    isuppz = np.empty(2 * (r - lo), dtype=np.int32)
    found = ctypes.c_int()
    info = zheevr(_LAPACK_COL_MAJOR, b"V", b"I", b"L", r, a.ctypes.data, r, 0.0, 0.0,
                  lo + 1, r, 0.0, ctypes.byref(found), w.ctypes.data, v.ctypes.data, r,
                  isuppz.ctypes.data)
    if info != 0:
        raise NumericalError(f"Hermitian eigensolver failed: LAPACKE_zheevr info={info}")
    return w[:found.value], v[:, :found.value]


@dataclass
class SubspaceModel:
    basis: np.ndarray       # M x K, orthonormal columns
    projected: np.ndarray   # K x N
    estimate: np.ndarray    # K x K resolved subspace channel


@dataclass(frozen=True)
class PilotLayout:
    """Shared pilot prefix plus per-cell data symbols.

    The pilot block has orthogonal rows with X_p X_p^H = K I and is reused by
    every cell (full pilot reuse); data symbols are unit-energy QPSK.  It is
    built once per layout and returned read-only.
    """

    num_users: int
    block_length: int

    def __post_init__(self):
        if self.block_length <= self.num_users:
            raise ConfigError("block_length must exceed num_users to carry data")

    @property
    def num_data(self) -> int:
        return self.block_length - self.num_users

    @cached_property
    def _pilot(self) -> np.ndarray:
        k = self.num_users  # scipy.linalg.dft(k), by scipy's own expression
        pilot = np.exp(-2j * np.pi * np.arange(k) / k).reshape(-1, 1) ** np.arange(k)
        pilot.flags.writeable = False
        return pilot

    def pilot_block(self) -> np.ndarray:
        return self._pilot

    def data_block(self, rng: np.random.Generator) -> np.ndarray:
        bits = rng.integers(0, 2, size=(self.num_users, 2 * self.num_data))
        return qpsk_map(bits).reshape(self.num_users, self.num_data)

    def assemble(self, data: np.ndarray) -> np.ndarray:
        return np.concatenate([self._pilot, data], axis=1)


def signal_subspace(y: np.ndarray, num_users: int) -> np.ndarray:
    """K dominant left singular vectors of the received block.

    Solved on the smaller Gram side: the top K+1 eigenpairs of Y Y^H when
    M <= N, else of Y^H Y with the vectors lifted as Y V Sigma^-1.  When
    sigma_K <= GRAM_RTOL * sigma_1 the full SVD is used instead.  A
    non-finite block or a failed solve is a NumericalError.
    """
    m, n = y.shape
    k, r = num_users, min(m, n)
    if k > r:
        raise ConfigError(f"num_users={k} exceeds min(M, N)={r}")
    left = m <= n
    gram = y @ y.conj().T if left else y.conj().T @ y
    w, v = _top_eigenpairs(gram, r - min(k + 1, r))
    sv = np.sqrt(np.maximum(w[::-1], 0.0))
    if sv[k - 1] <= GRAM_RTOL * sv[0]:
        u, sv, _ = np.linalg.svd(y, full_matrices=False)
        basis = u[:, :k]
    else:
        v = v[:, ::-1][:, :k]
        basis = v if left else (y @ v) / sv[:k]
    if k < len(sv) and sv[k - 1] - sv[k] < 1e-12 * max(sv[0], 1e-300):
        warnings.warn("degenerate singular values at the subspace boundary; "
                      "signal subspace is ill-defined", stacklevel=2)
    return basis


@lru_cache(maxsize=8)
def _pilot_factors(dtype: str, shape: tuple, data: bytes):
    """X_p^H and (X_p X_p^H)^{-1} of one pilot block, checked once."""
    pilot = np.frombuffer(data, dtype=dtype).reshape(shape)
    gram = pilot @ pilot.conj().T
    if np.linalg.cond(gram) > 1e12:
        raise ConfigError("pilot block is singular or near-singular")
    return pilot.conj().T, np.linalg.inv(gram)


def subspace_zf_resolve(projected_pilot: np.ndarray, pilot_block: np.ndarray) -> np.ndarray:
    """Least-squares ambiguity resolution on the projected pilot block.

    Ghat = Yp_tilde X_p^H (X_p X_p^H)^{-1}, multiplied in that order; raises
    on a singular pilot block.
    """
    xh, gram_inv = _pilot_factors(pilot_block.dtype.str, pilot_block.shape,
                                  pilot_block.tobytes())
    return projected_pilot @ xh @ gram_inv


def qpsk_quantize(z: np.ndarray) -> np.ndarray:
    """Nearest QPSK symbol per entry; zero components resolve to +."""
    re = np.where(z.real >= 0, 1.0, -1.0)
    im = np.where(z.imag >= 0, 1.0, -1.0)
    return (re + 1j * im) * QPSK_SCALE


def mf_detect(projected_data: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Matched-filter detection: quantize(Ghat^H Y_tilde_data)."""
    return qpsk_quantize(estimate.conj().T @ projected_data)


def estimate_subspace_channel(y: np.ndarray, pilot_block: np.ndarray,
                              num_users: int) -> SubspaceModel:
    """Full blind pipeline on one received block (pilot prefix first)."""
    basis = signal_subspace(y, num_users)
    projected = basis.conj().T @ y
    k = pilot_block.shape[1]
    estimate = subspace_zf_resolve(projected[:, :k], pilot_block)
    return SubspaceModel(basis=basis, projected=projected, estimate=estimate)


def pilot_based_estimate(y: np.ndarray, pilot_block: np.ndarray) -> np.ndarray:
    """Classical LS channel estimate from the pilot prefix (M x K): the same
    least-squares fit on the unprojected block."""
    return subspace_zf_resolve(y[:, :pilot_block.shape[1]], pilot_block)


def pilot_based_detect(y: np.ndarray, pilot_block: np.ndarray) -> np.ndarray:
    """LS estimate then antenna-domain matched filtering of the data part."""
    h_hat = pilot_based_estimate(y, pilot_block)
    k = pilot_block.shape[1]
    return qpsk_quantize(h_hat.conj().T @ y[:, k:])


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-energy QPSK; bit pairs (b0, b1) -> real/imag signs."""
    bits = np.asarray(bits).ravel()
    if bits.size % 2:
        raise ConfigError("bit count must be even")
    b = bits.reshape(-1, 2)
    return ((1.0 - 2.0 * b[:, 0]) + 1j * (1.0 - 2.0 * b[:, 1])) * QPSK_SCALE


def count_bit_errors(decisions: np.ndarray, reference: np.ndarray) -> int:
    """Bit errors between two QPSK symbol arrays of equal shape."""
    if decisions.shape != reference.shape:
        raise ConfigError("shape mismatch between decisions and reference")
    re_err = np.sign(decisions.real) != np.sign(reference.real)
    im_err = np.sign(decisions.imag) != np.sign(reference.imag)
    return int(re_err.sum() + im_err.sum())
