"""Shared Monte Carlo helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def steering(rng, num_antennas, num_paths, spacing=2.0):
    """Independent uniform-AoA steering matrix scaled by 1/sqrt(P)."""
    aoas = rng.uniform(0.0, np.pi, num_paths)
    m = np.arange(num_antennas)[:, None]
    return np.exp(-2j * np.pi * spacing * m * np.cos(aoas)[None, :]) / np.sqrt(num_paths)


def onesided_product_eigs(rng, scale, inner_dim, m, n, p, physical=False):
    """Nonzero eigenvalues of scale * (A B C)^H (A B C) / (m n p) via the
    rank-sized product; A is iid (or a steering matrix when physical)."""
    if physical:
        a = steering(rng, m, p) * np.sqrt(p)   # unit-variance entries
    else:
        a = crandn(rng, m, p)
    b = crandn(rng, p, inner_dim)
    c = crandn(rng, inner_dim, n)
    left = scale * (b.conj().T @ (a.conj().T @ a) @ b) / (m * p)
    right = c @ c.conj().T / n
    lam = np.linalg.eigvals(left @ right)
    assert np.abs(lam.imag).max() < 1e-8 * np.abs(lam).max()
    return np.sort(lam.real)


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


@pytest.fixture
def traced_peak():
    """Peak bytes Python and numpy hold during one ``fn()``, its result
    included, measured after a warm-up call so that caches are built."""
    def peak(fn) -> int:
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
