"""Piecewise-constant approximation of spatial white noise on the unit square.

A realization on an n x n cell grid takes the value (sigma / sqrt(V)) * zeta_k
on cell k, with V = 1/n^2 the cell volume and zeta_k a pair of independent
standard normal draws (one per velocity component). Sampling uses the Philox
counter-based generator so realizations are reproducible and independent of
evaluation order; Monte Carlo substreams are keyed by (base seed, sample index).
"""

from __future__ import annotations

import numpy as np


def substream_key(base_seed: int, sample_index: int) -> int:
    """Disjoint 128-bit Philox key for one Monte Carlo sample."""
    if not (0 <= base_seed < 2 ** 64 and 0 <= sample_index < 2 ** 64):
        raise ValueError("seed and sample index must lie in [0, 2**64)")
    return (int(base_seed) << 64) | int(sample_index)


def sample_noise(n_noise: int, key: int) -> np.ndarray:
    """The (n_noise^2, 2) standard normal draws zeta of one realization, cells
    row-major by (iy, ix); the same (n_noise, key) reproduces them bit-exactly."""
    if n_noise < 1:
        raise ValueError(f"noise grid needs at least one cell, got n_noise={n_noise}")
    rng = np.random.Generator(np.random.Philox(key=int(key)))
    return rng.standard_normal((n_noise ** 2, 2))


def noise_l2_norm(amplitude: float, zeta: np.ndarray) -> float:
    """Exact L2 norm of the realization of draws ``zeta`` at white-noise
    amplitude sigma: sigma * sqrt(sum_k |zeta_k|^2).

    Piecewise-constant fields integrate exactly: each cell contributes
    V * (sigma/sqrt(V))^2 |zeta_k|^2 = sigma^2 |zeta_k|^2.
    """
    return float(amplitude * np.sqrt(np.sum(zeta ** 2)))
