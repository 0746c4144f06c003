"""Piecewise-constant approximation of spatial white noise on the unit square.

A realization on an n x n cell grid takes the value (sigma / sqrt(V)) * zeta_k
on cell k, with V = 1/n^2 the cell volume and zeta_k a pair of independent
standard normal draws (one per velocity component). Sampling uses the Philox
counter-based generator so realizations are reproducible and independent of
evaluation order; Monte Carlo substreams are keyed by (base seed, sample index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseGrid:
    """Uniform cell partition of [0,1]^2; cells indexed row-major by (iy, ix)."""

    n_noise: int

    def __post_init__(self):
        if self.n_noise < 1:
            raise ValueError(f"noise grid needs at least one cell, got n_noise={self.n_noise}")

    @property
    def n_cells(self) -> int:
        return self.n_noise ** 2

    @property
    def cell_volume(self) -> float:
        return 1.0 / self.n_noise ** 2


@dataclass(frozen=True)
class NoiseField:
    """One realization: zeta has shape (n_cells, 2), finite, seed-reproducible."""

    grid: NoiseGrid
    sigma: float
    zeta: np.ndarray
    seed: int


def substream_key(base_seed: int, sample_index: int) -> int:
    """Disjoint 128-bit Philox key for one Monte Carlo sample."""
    if not (0 <= base_seed < 2 ** 64 and 0 <= sample_index < 2 ** 64):
        raise ValueError("seed and sample index must lie in [0, 2**64)")
    return (int(base_seed) << 64) | int(sample_index)


def sample_noise(grid: NoiseGrid, sigma: float, seed: int) -> NoiseField:
    """Draw one realization; the same (grid, sigma, seed) reproduces it bit-exactly."""
    if sigma < 0:
        raise ValueError(f"noise amplitude must be >= 0, got sigma={sigma}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    zeta = rng.standard_normal((grid.n_cells, 2))
    return NoiseField(grid=grid, sigma=float(sigma), zeta=zeta, seed=int(seed))


def noise_l2_norm(field: NoiseField) -> float:
    """Exact L2 norm of the realization: sigma * sqrt(sum_k |zeta_k|^2).

    Piecewise-constant fields integrate exactly: each cell contributes
    V * (sigma/sqrt(V))^2 |zeta_k|^2 = sigma^2 |zeta_k|^2.
    """
    return float(field.sigma * np.sqrt(np.sum(field.zeta ** 2)))
