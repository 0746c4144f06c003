import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snsflow.noise import noise_l2_norm, sample_noise, substream_key


def test_empty_noise_grid_rejected():
    with pytest.raises(ValueError):
        sample_noise(0, 0)


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       n=st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_same_seed_reproduces_bit_exactly(seed, n):
    a = sample_noise(n, seed)
    b = sample_noise(n, seed)
    assert np.array_equal(a, b)
    assert a.shape == (n * n, 2)
    assert np.all(np.isfinite(a))


@given(sigma=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_norm_exactly_linear_in_sigma(sigma, seed):
    zeta = sample_noise(3, seed)
    assert noise_l2_norm(sigma, zeta) == pytest.approx(sigma * noise_l2_norm(1.0, zeta),
                                                      rel=1e-15)


def test_sample_statistics_over_many_draws():
    draws = np.array([sample_noise(2, substream_key(5, k)) for k in range(10_000)])
    flat = draws.reshape(len(draws), -1)
    assert np.abs(flat.mean(axis=0)).max() <= 0.03
    var = flat.var(axis=0, ddof=1)
    assert var.min() >= 0.95 and var.max() <= 1.05
    # discrete whiteness: distinct cells and components are uncorrelated
    cov = np.cov(flat.T)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 0.03


def test_adjacent_substreams_are_uncorrelated():
    vals = np.array([[sample_noise(1, substream_key(33, k))[0, 0],
                      sample_noise(1, substream_key(33, k + 1))[0, 0]]
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
    assert noise_l2_norm(2.0, np.zeros((9, 2))) == 0.0
    assert noise_l2_norm(1.0, np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-15)


def test_l2_norm_second_moment():
    # E[norm^2] = sigma^2 * 2 * n_cells
    sigma = 1.3
    vals = [noise_l2_norm(sigma, sample_noise(2, substream_key(77, k))) ** 2
            for k in range(1000)]
    expected = sigma ** 2 * 2 * 4
    assert np.mean(vals) == pytest.approx(expected, rel=0.10)
