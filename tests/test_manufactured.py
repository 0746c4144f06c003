import math

import numpy as np
import pytest

from snsflow import manufactured as mf
from snsflow.mesh import build_dof_map, build_structured_mesh
from snsflow.solvers import FEField

# ||u||_L2^2 = 2 * 256^2 * int(a^2) * int(b^2) with int a^2 = 1/630, int b^2 = 1/210
EXACT_VELOCITY_NORM = math.sqrt(2 * 256.0 ** 2 / (630.0 * 210.0))
FORCING_NORM_NU002 = 6.58929101065078  # frozen; cross-checked below at two rules


def test_velocity_vanishes_on_boundary_points():
    assert mf.exact_velocity(0.0, 0.3) == (0.0, 0.0)
    for t in np.linspace(0, 1, 17):
        for x, y in ((t, 0.0), (t, 1.0), (0.0, t), (1.0, t)):
            u1, u2 = mf.exact_velocity(x, y)
            assert abs(u1) <= 1e-14 and abs(u2) <= 1e-14


def test_center_values():
    u1, u2 = mf.exact_velocity(0.5, 0.5)
    assert u1 == 0.0 and u2 == 0.0  # the (4 - 8s) factor vanishes at 1/2
    assert mf.exact_pressure(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_divergence_vanishes_analytically():
    rng = np.random.default_rng(1)
    x, y = rng.random(100), rng.random(100)
    u1x, _, _, u2y = mf.exact_velocity_gradient(x, y)
    assert np.abs(u1x + u2y).max() <= 1e-12


def test_divergence_vanishes_by_finite_differences():
    rng = np.random.default_rng(2)
    x, y = 0.1 + 0.8 * rng.random(50), 0.1 + 0.8 * rng.random(50)
    h = 1e-6
    div = ((mf.exact_velocity(x + h, y)[0] - mf.exact_velocity(x - h, y)[0])
           + (mf.exact_velocity(x, y + h)[1] - mf.exact_velocity(x, y - h)[1])) / (2 * h)
    assert np.abs(div).max() <= 1e-7


@pytest.mark.parametrize("component", [0, 1])
def test_hand_derivatives_match_finite_differences(component):
    rng = np.random.default_rng(3)
    x, y = 0.05 + 0.9 * rng.random(30), 0.05 + 0.9 * rng.random(30)
    h = 1e-6
    grads = mf.exact_velocity_gradient(x, y)
    fd_x = (np.asarray(mf.exact_velocity(x + h, y)[component])
            - np.asarray(mf.exact_velocity(x - h, y)[component])) / (2 * h)
    fd_y = (np.asarray(mf.exact_velocity(x, y + h)[component])
            - np.asarray(mf.exact_velocity(x, y - h)[component])) / (2 * h)
    assert np.abs(grads[2 * component] - fd_x).max() <= 1e-7
    assert np.abs(grads[2 * component + 1] - fd_y).max() <= 1e-7
    lap = mf.exact_velocity_laplacian(x, y)[component]
    u = lambda a, b: np.asarray(mf.exact_velocity(a, b)[component])
    fd_lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4 * u(x, y)) / h ** 2
    assert np.abs(lap - fd_lap).max() <= 1e-3 * max(1.0, np.abs(lap).max())


def test_pressure_gradient_matches_finite_differences():
    x, y = 0.31, 0.62
    h = 1e-7
    px, py = mf.exact_pressure_gradient(x, y)
    assert px == pytest.approx((mf.exact_pressure(x + h, y) - mf.exact_pressure(x - h, y)) / (2 * h), abs=1e-6)
    assert py == pytest.approx((mf.exact_pressure(x, y + h) - mf.exact_pressure(x, y - h)) / (2 * h), abs=1e-6)


def test_forcing_affine_in_viscosity():
    rng = np.random.default_rng(4)
    x, y = rng.random(40), rng.random(40)
    f2 = np.asarray(mf.exact_forcing(x, y, 0.02))
    f4 = np.asarray(mf.exact_forcing(x, y, 0.04))
    f6 = np.asarray(mf.exact_forcing(x, y, 0.06))
    assert np.abs((f4 - f2) - (f6 - f4)).max() <= 1e-12


def test_forcing_norm_frozen_and_rule_independent():
    assert mf.forcing_l2_norm(0.02) == pytest.approx(FORCING_NORM_NU002, rel=1e-10)
    assert mf.forcing_l2_norm(0.02, degree=30) == pytest.approx(FORCING_NORM_NU002, rel=1e-10)


@pytest.mark.parametrize("nu", [1e-3, 0.02, 0.5, 7.0])
def test_forcing_norm_equals_the_element_geometry_integral(nu):
    # the reference integrates on the n=4 mesh's affine maps and the rule of
    # twice the elevated degree, the default of forcing_l2_norm
    from snsflow.assembly import (ELEVATED_QUADRATURE_DEGREE, affine_maps,
                                  triangle_rule_collapsed)
    rule = triangle_rule_collapsed(2 * ELEVATED_QUADRATURE_DEGREE)
    area, qpoints, _ = affine_maps(build_structured_mesh(4), rule.points)
    f1, f2 = mf.exact_forcing(qpoints[:, :, 0], qpoints[:, :, 1], nu)
    reference = float(np.sqrt(np.einsum("q,t,tq->", rule.weights, area,
                                        f1 ** 2 + f2 ** 2)))
    assert mf.forcing_l2_norm(nu) == reference


def test_l2_error_field_vs_itself_is_zero():
    dofs = build_dof_map(build_structured_mesh(3))
    rng = np.random.default_rng(5)
    fld = FEField(rng.standard_normal(dofs.n_velocity_dofs + dofs.n_pressure_dofs), dofs)
    assert mf.l2_error(fld, fld) == 0.0
    assert mf.l2_error(fld, fld, part="pressure") == 0.0


def test_l2_error_zero_field_vs_exact_velocity():
    dofs = build_dof_map(build_structured_mesh(4))
    zero = FEField.zeros(dofs)
    err = mf.l2_error(zero, mf.exact_velocity)
    assert err == pytest.approx(EXACT_VELOCITY_NORM, abs=1e-9)
    # independent accumulation of the same elevated rule agrees much tighter
    from snsflow.assembly import affine_maps, triangle_rule_collapsed
    rule = triangle_rule_collapsed(10)
    area, qpoints, _ = affine_maps(dofs.mesh, rule.points)
    total = 0.0
    for t in range(dofs.mesh.n_triangles):
        for q, w in enumerate(rule.weights):
            x, y = qpoints[t, q]
            u1, u2 = mf.exact_velocity(x, y)
            total += w * area[t] * (u1 ** 2 + u2 ** 2)
    assert err == pytest.approx(math.sqrt(total), abs=1e-12)


def test_l2_error_zero_field_vs_exact_pressure():
    dofs = build_dof_map(build_structured_mesh(4))
    zero = FEField.zeros(dofs)
    # ||sin(pi x) sin(pi y)|| = 1/2 exactly
    assert mf.l2_error(zero, mf.exact_pressure, part="pressure") == pytest.approx(0.5, abs=1e-12)


def test_l2_error_rejects_mismatched_dof_maps():
    dofs_a = build_dof_map(build_structured_mesh(2))
    dofs_b = build_dof_map(build_structured_mesh(2))
    with pytest.raises(ValueError):
        mf.l2_error(FEField.zeros(dofs_a), FEField.zeros(dofs_b))


def test_interpolation_converges_at_third_order():
    errors = []
    for n in (4, 8, 16):
        dofs = build_dof_map(build_structured_mesh(n))
        interp = FEField.zeros(dofs)
        interp.velocity[:] = mf.interpolate_velocity(dofs, mf.exact_velocity)
        errors.append(mf.l2_error(interp, mf.exact_velocity))
    pairwise = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(pairwise) >= 2.5
    # observed order across the whole family (n=4 is still slightly preasymptotic)
    assert math.log2(errors[0] / errors[-1]) / 2 >= 2.9


def test_boundary_quadrature_points_see_zero_velocity():
    # every P2 node on the boundary carries an exactly-zero interpolant value
    dofs = build_dof_map(build_structured_mesh(8))
    vals = mf.interpolate_velocity(dofs, mf.exact_velocity)
    assert np.abs(vals[dofs.dirichlet_mask]).max() <= 1e-14


def test_velocity_l2_norm_of_interpolant():
    dofs = build_dof_map(build_structured_mesh(12))
    vals = mf.interpolate_velocity(dofs, mf.exact_velocity)
    assert mf.velocity_l2_norm(dofs, vals) == pytest.approx(EXACT_VELOCITY_NORM, rel=1e-3)
