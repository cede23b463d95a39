"""Blind subspace channel estimation and the pilot-based baseline.

The subspace pipeline: the K dominant left singular vectors of the received
block (solved on its smaller Gram matrix), projection onto them, the
least-squares fit on the shared pilot prefix (``PilotLayout.fit``) to resolve
the remaining K x K ambiguity, then matched-filter QPSK detection on the
projected data.  The baseline applies the same fit to the raw block, which
estimates the full antenna-domain channel, and matched-filters in antenna space.

Nothing here loads scipy, and numpy is the one runtime dependency: the
pilot is the DFT matrix built with scipy's own expression, and the top
eigenpairs of the Gram come from ``LAPACKE_zheevr`` (MRRR; Dhillon, Parlett
& Vomel, ACM TOMS 2006) of the OpenBLAS that numpy already loads, called
through ctypes with the arguments ``scipy.linalg.eigh(subset_by_index=...)``
passes to the same routine, so the results are the same to the bit and
scipy's own OpenBLAS stays out of memory.  Only this module binds that
library: ``bundled_openblas`` types the four symbols of ``_SYMBOLS`` as one
unit, or gives None when numpy's build lacks the library or any of them.
Its three callers check that once each: the eigensolve (else the top pairs
of ``np.linalg.eigh``), ``one_blas_thread`` (else the body runs as it is)
and ``product`` (else numpy's matmul), whose ``cblas_zgemm`` forms the
block-sized products (each block's Gram and ``sim.draw_block``'s received
block) that numpy's matmul would form with a conjugated copy or a temporary
beside the noise.
"""

from __future__ import annotations

import ctypes
import warnings
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError

QPSK_SCALE = 1.0 / np.sqrt(2.0)
# The Gram matrix squares the condition number: the K-th vector it gives is
# off by about eps * (sigma_1 / sigma_K)^2, 2e-10 at this ratio.  Below it
# (rank-deficient or nearly so blocks) the subspace comes from the full SVD.
GRAM_RTOL = 1e-3
_LAPACK_COL_MAJOR = 102
_CBLAS_ROW_MAJOR, _CBLAS_NO_TRANS, _CBLAS_CONJ_TRANS = 101, 111, 113
_ONE, _ZERO = (ctypes.c_double * 2)(1.0, 0.0), (ctypes.c_double * 2)(0.0, 0.0)
# name: (restype, *argtypes) of each symbol this module calls in numpy's
# bundled OpenBLAS, whose interface takes 64-bit integers
_I64, _PTR, _F64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
_SYMBOLS = {
    "scipy_LAPACKE_zheevr64_": (_I64, ctypes.c_int, ctypes.c_char, ctypes.c_char,
                                ctypes.c_char, _I64, _PTR, _I64, _F64, _F64, _I64, _I64,
                                _F64, ctypes.POINTER(_I64), _PTR, _PTR, _I64, _PTR),
    "scipy_cblas_zgemm64_": (None, ctypes.c_int, ctypes.c_int, ctypes.c_int, _I64, _I64,
                             _I64, _PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64),
    "scipy_openblas_get_num_threads64_": (ctypes.c_int,),
    "scipy_openblas_set_num_threads64_": (None, ctypes.c_int),
}
_OpenBLAS = namedtuple("OpenBLAS", _SYMBOLS)


@cache
def bundled_openblas() -> _OpenBLAS | None:
    """The ``_SYMBOLS`` of the OpenBLAS build bundled with numpy
    (``numpy.libs``), opened with ctypes and typed; None when that library
    or any one of them is not found, e.g. for a numpy linked against
    another BLAS."""
    site = Path(np.__file__).resolve().parents[1]
    for path in sorted(site.glob("numpy.libs/libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            functions = _OpenBLAS(*(getattr(lib, name) for name in _SYMBOLS))
        except (OSError, AttributeError):
            continue
        for fn, (restype, *argtypes) in zip(functions, _SYMBOLS.values()):
            fn.restype, fn.argtypes = restype, argtypes
        return functions
    return None


def product(a: np.ndarray, b: np.ndarray, adjoint: int | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` with operand ``adjoint`` (0 for ``a``, 1 for ``b``) taken as
    its conjugate transpose; with ``out``, the product is added into it in
    place and ``out`` returned.

    One row-major ``cblas_zgemm`` call, the one numpy's matmul makes, so the
    result is bitwise numpy's ``a @ b.conj().T`` (or ``out + a @ b``), but
    BLAS reads the conjugate transpose in place of numpy's conjugated copy,
    and adds into ``out`` (beta = 1) in place of a product-sized temporary.
    Operands that are not C-contiguous complex128, an ``out`` that overlaps
    them, a product with a dimension of 1 (where numpy calls another
    routine) or a numpy without its bundled OpenBLAS take the numpy expression.
    """
    openblas = bundled_openblas()
    arrays = (a, b) if out is None else (a, b, out)
    blas = openblas is not None and all(x.dtype == np.complex128 and x.ndim == 2
                                        and x.flags.c_contiguous and x.flags.aligned
                                        for x in arrays)
    if blas:
        (m, k), (kb, n) = (x.shape[::-1] if adjoint == i else x.shape
                           for i, x in enumerate((a, b)))
        blas = kb == k and min(m, n, k) > 1 and (
            out is None or out.shape == (m, n) and not np.may_share_memory(out, a)
            and not np.may_share_memory(out, b))
    if not blas:
        lhs, rhs = (x.conj().T if adjoint == i else x for i, x in enumerate((a, b)))
        if out is None:
            return lhs @ rhs
        out += lhs @ rhs
        return out
    trans = [_CBLAS_CONJ_TRANS if adjoint == i else _CBLAS_NO_TRANS for i in (0, 1)]
    beta, out = (_ZERO, np.empty((m, n), dtype=np.complex128)) if out is None else (_ONE, out)
    openblas.scipy_cblas_zgemm64_(_CBLAS_ROW_MAJOR, trans[0], trans[1], m, n, k, _ONE,
                                  a.ctypes.data, a.shape[1], b.ctypes.data, b.shape[1],
                                  beta, out.ctypes.data, n)
    return out


@contextmanager
def one_blas_thread():
    """Run the body with one thread in numpy's bundled OpenBLAS, then restore
    the previous count; without that library, run it as it is.

    The count is global to the library, so it holds in every thread."""
    openblas = bundled_openblas()
    if openblas is None:
        yield
        return
    saved = openblas.scipy_openblas_get_num_threads64_()
    try:
        openblas.scipy_openblas_set_num_threads64_(1)
        yield
    finally:
        openblas.scipy_openblas_set_num_threads64_(saved)


def _top_eigenpairs(gram: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs lo..r-1 (ascending) of the r x r Hermitian ``gram``, from
    its lower triangle, as ``scipy.linalg.eigh(gram, subset_by_index=[lo,
    r-1])`` returns them, with its finite check; without the bundled OpenBLAS,
    the same pairs of ``np.linalg.eigh(gram)``: the same subspace, not bits."""
    if not np.isfinite(gram).all():
        raise NumericalError("the received block's Gram matrix is not finite")
    r = gram.shape[0]
    openblas = bundled_openblas()
    if openblas is None:
        try:
            w, v = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc
        return w[lo:], v[:, lo:]
    a = np.array(gram, dtype=np.complex128, order="F")
    w = np.empty(r)
    v = np.empty((r, r - lo), dtype=np.complex128, order="F")
    isuppz = np.empty(2 * (r - lo), dtype=np.int64)
    found = ctypes.c_int64()
    info = openblas.scipy_LAPACKE_zheevr64_(
        _LAPACK_COL_MAJOR, b"V", b"I", b"L", r, a.ctypes.data, r, 0.0, 0.0, lo + 1, r, 0.0,
        ctypes.byref(found), w.ctypes.data, v.ctypes.data, r, isuppz.ctypes.data)
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
    """Shared pilot prefix plus per-cell data symbols, and the least-squares
    fit on that prefix.

    The pilot block has orthogonal rows with X_p X_p^H = K I and is reused by
    every cell (full pilot reuse); data symbols are unit-energy QPSK.  The
    pilot and the factors of its fit are built once per layout; the pilot is
    read-only.
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
    def pilot(self) -> np.ndarray:
        k = self.num_users  # scipy.linalg.dft(k), by scipy's own expression
        pilot = np.exp(-2j * np.pi * np.arange(k) / k).reshape(-1, 1) ** np.arange(k)
        pilot.flags.writeable = False
        return pilot

    @cached_property
    def _fit_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """X_p^H and (X_p X_p^H)^{-1}."""
        return self.pilot.conj().T, np.linalg.inv(self.pilot @ self.pilot.conj().T)

    def fit(self, z: np.ndarray) -> np.ndarray:
        """Least-squares fit on the pilot prefix, Z_p X_p^H (X_p X_p^H)^{-1}
        with Z_p the first K columns of ``z``, multiplied in that order."""
        xh, gram_inv = self._fit_factors
        return z[:, :self.num_users] @ xh @ gram_inv

    def data_block(self, rng: np.random.Generator) -> np.ndarray:
        bits = rng.integers(0, 2, size=(self.num_users, 2 * self.num_data))
        return qpsk_map(bits).reshape(self.num_users, self.num_data)

    def assemble(self, data: np.ndarray) -> np.ndarray:
        return np.concatenate([self.pilot, data], axis=1)


def signal_subspace(y: np.ndarray, num_users: int) -> np.ndarray:
    """K dominant left singular vectors of the received block.

    Solved on the smaller Gram side: the top K+1 eigenpairs of Y Y^H when
    M <= N, else of Y^H Y with the vectors lifted as Y V Sigma^-1.  The Gram
    is one ``product`` that reads Y^H in place, without a conjugated copy
    of Y.  When
    sigma_K <= GRAM_RTOL * sigma_1 the full SVD is used instead.  A
    non-finite block or a failed solve is a NumericalError.
    """
    m, n = y.shape
    k, r = num_users, min(m, n)
    if k > r:
        raise ConfigError(f"num_users={k} exceeds min(M, N)={r}")
    left = m <= n
    gram = product(y, y, adjoint=1 if left else 0)
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


def qpsk_quantize(z: np.ndarray) -> np.ndarray:
    """Nearest QPSK symbol per entry; zero components resolve to +."""
    re = np.where(z.real >= 0, 1.0, -1.0)
    im = np.where(z.imag >= 0, 1.0, -1.0)
    return (re + 1j * im) * QPSK_SCALE


def mf_detect(projected_data: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Matched-filter detection: quantize(Ghat^H Y_tilde_data)."""
    return qpsk_quantize(estimate.conj().T @ projected_data)


def estimate_subspace_channel(y: np.ndarray, layout: PilotLayout) -> SubspaceModel:
    """Full blind pipeline on one received block (pilot prefix first): the
    pilot fit resolves the projected block."""
    basis = signal_subspace(y, layout.num_users)
    projected = basis.conj().T @ y
    return SubspaceModel(basis=basis, projected=projected, estimate=layout.fit(projected))


def pilot_based_detect(y: np.ndarray, layout: PilotLayout) -> np.ndarray:
    """Classical LS channel estimate, the pilot fit of the raw block (M x K),
    then antenna-domain matched filtering of the data part."""
    h_hat = layout.fit(y)
    return qpsk_quantize(h_hat.conj().T @ y[:, layout.num_users:])


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
