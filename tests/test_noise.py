import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snsflow.noise import (
    NoiseGrid,
    noise_l2_norm,
    sample_noise,
    substream_key,
)


def test_grid_validation_and_volume():
    grid = NoiseGrid(4)
    assert grid.n_cells == 16
    assert grid.cell_volume * grid.n_noise ** 2 == 1.0
    with pytest.raises(ValueError):
        NoiseGrid(0)


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       n=st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_same_seed_reproduces_bit_exactly(seed, n):
    grid = NoiseGrid(n)
    a = sample_noise(grid, 1.5, seed)
    b = sample_noise(grid, 1.5, seed)
    assert np.array_equal(a.zeta, b.zeta)
    assert a.zeta.shape == (n * n, 2)
    assert np.all(np.isfinite(a.zeta))


@given(sigma=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_norm_exactly_linear_in_sigma(sigma, seed):
    grid = NoiseGrid(3)
    base = sample_noise(grid, 1.0, seed)
    scaled = sample_noise(grid, sigma, seed)
    assert np.array_equal(base.zeta, scaled.zeta)  # amplitude never touches draws
    assert noise_l2_norm(scaled) == pytest.approx(sigma * noise_l2_norm(base), rel=1e-15)


def test_sample_statistics_over_many_draws():
    grid = NoiseGrid(2)
    draws = np.array([sample_noise(grid, 1.0, substream_key(5, k)).zeta
                      for k in range(10_000)])
    flat = draws.reshape(len(draws), -1)
    assert np.abs(flat.mean(axis=0)).max() <= 0.03
    var = flat.var(axis=0, ddof=1)
    assert var.min() >= 0.95 and var.max() <= 1.05
    # discrete whiteness: distinct cells and components are uncorrelated
    cov = np.cov(flat.T)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 0.03


def test_adjacent_substreams_are_uncorrelated():
    vals = np.array([[sample_noise(NoiseGrid(1), 1.0, substream_key(33, k)).zeta[0, 0],
                      sample_noise(NoiseGrid(1), 1.0, substream_key(33, k + 1)).zeta[0, 0]]
                     for k in range(0, 20_000, 2)])
    corr = np.corrcoef(vals.T)[0, 1]
    assert abs(corr) <= 0.03


def test_substream_key_packing():
    assert substream_key(0, 0) == 0
    assert substream_key(1, 0) == 1 << 64
    assert substream_key(1, 5) == (1 << 64) | 5
    with pytest.raises(ValueError):
        substream_key(-1, 0)


KEY_RANGE = st.integers(min_value=0, max_value=2 ** 64 - 1)


@given(a=st.tuples(KEY_RANGE, KEY_RANGE), b=st.tuples(KEY_RANGE, KEY_RANGE),
       bad=st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 64)),
       slot=st.integers(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_substream_keys_are_injective_and_range_checked(a, b, bad, slot):
    if a != b:
        assert substream_key(*a) != substream_key(*b)
    assert 0 <= substream_key(*a) < 2 ** 128
    args = list(a)
    args[slot] = bad
    with pytest.raises(ValueError):
        substream_key(*args)


def test_l2_norm_examples():
    from snsflow.noise import NoiseField
    zeros = NoiseField(NoiseGrid(3), 2.0, np.zeros((9, 2)), seed=0)
    assert noise_l2_norm(zeros) == 0.0
    pyth = NoiseField(NoiseGrid(1), 1.0, np.array([[3.0, 4.0]]), seed=0)
    assert noise_l2_norm(pyth) == pytest.approx(5.0, abs=1e-15)


def test_l2_norm_second_moment():
    # E[norm^2] = sigma^2 * 2 * n_cells
    grid = NoiseGrid(2)
    sigma = 1.3
    vals = [noise_l2_norm(sample_noise(grid, sigma, substream_key(77, k))) ** 2
            for k in range(1000)]
    expected = sigma ** 2 * 2 * grid.n_cells
    assert np.mean(vals) == pytest.approx(expected, rel=0.10)


def test_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        sample_noise(NoiseGrid(1), -0.1, seed=0)
