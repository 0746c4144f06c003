import numpy as np
import pytest
import scipy.sparse.linalg as spla

from snsflow.assembly import (
    ProblemParams,
    assemble_convection_linearized,
    assemble_divergence,
    assemble_load,
    assemble_noise_load,
    assemble_viscous,
)
from snsflow.checks import (
    dense_oracle_max_mismatch,
    divergence_free_velocity_fields,
    trilinear_identity_defects,
    trilinear_value_defect,
    velocity_block,
)
from snsflow.manufactured import exact_forcing, interpolate_velocity
from snsflow.mesh import build_dof_map, build_structured_mesh
from snsflow.noise import NoiseField, NoiseGrid, sample_noise


@pytest.fixture(scope="module")
def mesh2():
    return build_structured_mesh(2)


@pytest.fixture(scope="module")
def dofs2(mesh2):
    return build_dof_map(mesh2)


@pytest.fixture(scope="module")
def mesh4():
    return build_structured_mesh(4)


@pytest.fixture(scope="module")
def dofs4(mesh4):
    return build_dof_map(mesh4)


def _divergence_block(dofs, data):
    n_u = dofs.n_velocity_dofs
    return dofs.pattern.matrix(data)[n_u:, :n_u]


def test_problem_params_validation():
    ProblemParams(nu=0.02)
    with pytest.raises(ValueError):
        ProblemParams(nu=0.0)


def test_viscous_is_symmetric_and_duplicate_free(mesh4, dofs4):
    a = velocity_block(dofs4, assemble_viscous(mesh4, dofs4, 0.02))
    assert a.has_canonical_format  # finalized: duplicates summed
    defect = abs(a - a.T).max()
    assert defect <= 1e-12 * abs(a).max()


def test_viscous_annihilates_constants_on_interior(mesh4, dofs4):
    a = velocity_block(dofs4, assemble_viscous(mesh4, dofs4, 0.3))
    const = interpolate_velocity(dofs4, lambda x, y: (np.ones_like(x), np.ones_like(y)))
    resid = a @ const
    assert np.abs(resid[~dofs4.dirichlet_mask]).max() <= 1e-13


def test_viscous_linear_in_viscosity(mesh2, dofs2):
    a1 = velocity_block(dofs2, assemble_viscous(mesh2, dofs2, 0.02))
    a2 = velocity_block(dofs2, assemble_viscous(mesh2, dofs2, 0.04))
    assert abs(a2 - 2 * a1).max() <= 1e-15


def test_viscous_energy_of_linear_field_is_nu():
    # grad(x,0) has unit Frobenius norm, so the energy is nu * |domain|
    mesh = build_structured_mesh(1)
    dofs = build_dof_map(mesh)
    nu = 0.37
    a = velocity_block(dofs, assemble_viscous(mesh, dofs, nu))
    u = interpolate_velocity(dofs, lambda x, y: (x, 0.0 * y))
    assert u @ (a @ u) == pytest.approx(nu, rel=1e-13)


def test_viscous_positive_definite_on_free_subspace(mesh2, dofs2):
    a = velocity_block(dofs2, assemble_viscous(mesh2, dofs2, 1.0)).toarray()
    free = ~dofs2.dirichlet_mask
    eigvals = np.linalg.eigvalsh(a[np.ix_(free, free)])
    assert eigvals.min() > 1e-10
    full = np.linalg.eigvalsh(a)
    assert full.min() > -1e-12  # semidefinite overall


def test_divergence_annihilates_divergence_free_polynomial(mesh4, dofs4):
    b = _divergence_block(dofs4, assemble_divergence(mesh4, dofs4))
    u = interpolate_velocity(dofs4, lambda x, y: (y, 0.0 * x))
    assert np.abs(b @ u).max() <= 1e-13


def test_divergence_of_linear_field_against_constant_pressure(mesh4, dofs4):
    b = _divergence_block(dofs4, assemble_divergence(mesh4, dofs4))
    u = interpolate_velocity(dofs4, lambda x, y: (x, 0.0 * y))
    q = np.ones(dofs4.n_pressure_dofs)
    assert q @ (b @ u) == pytest.approx(-1.0, rel=1e-13)


def test_divergence_theorem_for_tangential_field(mesh4, dofs4):
    # u.n = 0 on the boundary and q = 1: the form must vanish
    b = _divergence_block(dofs4, assemble_divergence(mesh4, dofs4))
    u = interpolate_velocity(dofs4, lambda x, y: (x * (1 - x), y * (1 - y)))
    q = np.ones(dofs4.n_pressure_dofs)
    assert abs(q @ (b @ u)) <= 1e-13


def test_convection_vanishes_for_zero_wind(mesh2, dofs2):
    n1, n2 = (velocity_block(dofs2, op) for op in
              assemble_convection_linearized(mesh2, dofs2, np.zeros(dofs2.n_velocity_dofs)))
    assert n1.nnz == 0 or abs(n1).max() == 0
    assert n2.nnz == 0 or abs(n2).max() == 0


@pytest.mark.parametrize("n", [3, 4, 8])
def test_trilinear_identities_on_projected_fields(n):
    mesh = build_structured_mesh(n)
    dofs = build_dof_map(mesh)
    fields, dim = divergence_free_velocity_fields(mesh, dofs, 5, seed=n)
    assert dim > 0
    rng = np.random.default_rng(123)
    for w in fields:
        skew, annih = trilinear_identity_defects(mesh, dofs, w, rng)
        assert skew <= 1e-11
        assert annih <= 1e-11


def test_trilinear_value_pins_sign(mesh4, dofs4):
    assert trilinear_value_defect(mesh4, dofs4) <= 1e-12


def test_all_operators_match_dense_oracle():
    assert dense_oracle_max_mismatch(n=2, nu=0.02) <= 1e-10


def test_load_of_zero_forcing(mesh2, dofs2):
    load = assemble_load(mesh2, dofs2, lambda x, y: (0.0 * x, 0.0 * y))
    assert np.all(load == 0)


def test_load_partition_of_unity(mesh4, dofs4):
    # pairing the unit force with the interpolant of (1, 0) integrates to |domain|
    load = assemble_load(mesh4, dofs4, lambda x, y: (np.ones_like(x), 0.0 * y))
    v = interpolate_velocity(dofs4, lambda x, y: (np.ones_like(x), 0.0 * y))
    assert load @ v == pytest.approx(1.0, rel=1e-13)


def test_manufactured_load_matches_oracle_rule(mesh2, dofs2):
    # same elevated rule, independent accumulation path
    from snsflow.checks import DenseOracle
    load = assemble_load(mesh2, dofs2, lambda x, y: exact_forcing(x, y, 0.02))
    oracle = DenseOracle(mesh2, dofs2).load(lambda x, y: exact_forcing(x, y, 0.02))
    assert np.abs(load - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())


def test_noise_load_zero_draws(mesh4, dofs4):
    field = NoiseField(NoiseGrid(2), 1.0, np.zeros((4, 2)), seed=0)
    assert np.all(assemble_noise_load(mesh4, dofs4, field) == 0)


def test_noise_load_linear_in_sigma(mesh4, dofs4):
    draw = sample_noise(NoiseGrid(2), 0.7, seed=42)
    doubled = NoiseField(draw.grid, 1.4, draw.zeta, draw.seed)
    l1 = assemble_noise_load(mesh4, dofs4, draw)
    l2 = assemble_noise_load(mesh4, dofs4, doubled)
    assert np.allclose(l2, 2 * l1, rtol=0, atol=1e-15)


def test_single_cell_noise_equals_constant_forcing(mesh4, dofs4):
    sigma = 1.3
    field = NoiseField(NoiseGrid(1), sigma, np.array([[1.0, 0.0]]), seed=0)
    noise_load = assemble_noise_load(mesh4, dofs4, field)
    const_load = assemble_load(mesh4, dofs4,
                               lambda x, y: (sigma * np.ones_like(x), 0.0 * y))
    assert np.abs(noise_load - const_load).max() <= 1e-14


def test_noise_load_rejects_non_nested_grids(mesh4, dofs4):
    field = sample_noise(NoiseGrid(3), 1.0, seed=1)
    with pytest.raises(ValueError, match="nested"):
        assemble_noise_load(mesh4, dofs4, field)


def test_noise_load_cell_lookup(mesh4, dofs4):
    # a draw active in a single cell only loads nodes touching that cell
    zeta = np.zeros((4, 2))
    zeta[3] = (1.0, 0.0)  # upper-right cell of a 2x2 grid
    field = NoiseField(NoiseGrid(2), 1.0, zeta, seed=0)
    load = assemble_noise_load(mesh4, dofs4, field)
    nn = dofs4.n_scalar_nodes
    active = np.abs(load[:nn]) > 0
    coords = dofs4.node_coords[active]
    assert np.all(coords >= 0.5 - 1e-12)
    assert np.all(load[nn:] == 0)


def test_spd_system_solvable_after_masking(mesh2, dofs2):
    # the masked viscous block factorizes; a smoke test for downstream solvers
    a = velocity_block(dofs2, assemble_viscous(mesh2, dofs2, 0.5)).tolil()
    mask = dofs2.dirichlet_mask
    for i in np.where(mask)[0]:
        a[i, :] = 0.0
        a[:, i] = 0.0
        a[i, i] = 1.0
    x = spla.spsolve(a.tocsc(), np.ones(dofs2.n_velocity_dofs))
    assert np.all(np.isfinite(x))
