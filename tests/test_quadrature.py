import numpy as np
import pytest

from snsflow.assembly import (
    p1_shape,
    p2_shape,
    triangle_rule_collapsed,
    triangle_rule_degree5,
)
from snsflow.checks import quadrature_max_error, reference_monomial_integral


def test_default_rule_declared_degree_and_weights():
    rule = triangle_rule_degree5()
    assert rule.degree >= 5
    assert len(rule.weights) == 7
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(p1_shape(rule.points) >= 0)


def test_default_rule_monomial_exactness():
    assert quadrature_max_error(triangle_rule_degree5()) <= 1e-13


@pytest.mark.parametrize("degree", [10, 14, 20])
def test_collapsed_rules_monomial_exactness(degree):
    assert quadrature_max_error(triangle_rule_collapsed(degree)) <= 1e-13


def test_monomial_oracle_values():
    # brute-force cross-check of the factorial formula on a fine grid; the
    # staircase boundary leaves an O(1/m) relative error
    m = 2000
    xs = (np.arange(m) + 0.5) / m
    x, y = np.meshgrid(xs, xs)
    inside = x + y < 1.0
    cell = 1.0 / m ** 2
    for a, b in ((0, 0), (1, 0), (2, 3), (5, 0)):
        riemann = np.sum(x[inside] ** a * y[inside] ** b) * cell
        assert riemann == pytest.approx(reference_monomial_integral(a, b), rel=5e-3)


def test_p2_basis_is_nodal():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
    phi, _ = p2_shape(nodes)
    assert np.allclose(phi, np.eye(6), atol=1e-14)


def test_p2_partition_of_unity_and_gradient_sum():
    rng = np.random.default_rng(0)
    pts = rng.random((20, 2)) * 0.5
    phi, grad = p2_shape(pts)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-13)
    phi1 = p1_shape(pts)
    assert np.allclose(phi1.sum(axis=1), 1.0, atol=1e-14)
    # P2 is quadratic, so central differences are exact up to rounding
    h = 1e-6
    for d, step in enumerate(np.eye(2) * h):
        fd = (p2_shape(pts + step)[0] - p2_shape(pts - step)[0]) / (2 * h)
        assert np.allclose(grad[:, :, d], fd, rtol=0, atol=1e-8)
