import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from snsflow import assembly
from snsflow.assembly import (
    ElementGeometry,
    ProblemParams,
    assemble_convection_linearized,
    assemble_convection_load,
    assemble_divergence,
    assemble_load,
    assemble_noise_load,
    assemble_viscous,
    p2_shape,
    triangle_rule_collapsed,
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


# ---------------------------------------------------------------------------
# table contractions against the multi-operand einsum kernels they replaced

def _einsum_kernels(mesh, dofs, w, nu, forcing, noise):
    """Gradients and assembled operators and loads by the einsum formulas."""
    tri = mesh.triangles
    x0 = mesh.vertices[tri[:, 0]]
    e1 = mesh.vertices[tri[:, 1]] - x0
    e2 = mesh.vertices[tri[:, 2]] - x0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    inv_jt = np.stack([np.stack([e2[:, 1], -e1[:, 1]], axis=1),
                       np.stack([-e2[:, 0], e1[:, 0]], axis=1)], axis=1) / det[:, None, None]
    geom = ElementGeometry(mesh)
    wq, phi2, phi1 = geom.wq, geom.phi2, geom.phi1
    grad2 = np.einsum("tde,qie->tqid", inv_jt, p2_shape(geom.rule.points)[1])
    T = mesh.n_triangles
    out = {"grad": grad2}

    ke = np.einsum("q,t,tqid,tqjd->tij", wq, area, grad2, grad2)
    out["viscous"] = nu * assembly._velocity_data(dofs, assembly._both_components(ke))
    be = -np.einsum("q,t,qa,tqjd->tadj", wq, area, phi1, grad2).reshape(T, 3, 12)
    out["divergence"] = np.bincount(dofs.pattern.div_slots.ravel(),
                                    weights=np.tile(be.ravel(), 2),
                                    minlength=dofs.pattern.nnz)

    tn, nn = dofs.element_dofs[:, :6], dofs.n_scalar_nodes
    vals = np.stack([w[tn] @ phi2.T, w[nn + tn] @ phi2.T], axis=2)
    wgrad = np.stack([np.einsum("tb,tqbj->tqj", w[tn], grad2),
                      np.einsum("tb,tqbj->tqj", w[nn + tn], grad2)], axis=2)
    adv = np.einsum("tqd,tqbd->tqb", vals, grad2)
    c1 = np.einsum("q,t,tqb,qa->tab", wq, area, adv, phi2)
    ne = np.einsum("q,t,tqij,qb,qa->tiajb", wq, area, wgrad, phi2, phi2).reshape(T, 12, 12)
    out["n1"] = assembly._velocity_data(dofs, assembly._both_components(c1))
    out["n2"] = assembly._velocity_data(dofs, ne)

    fine = ElementGeometry(mesh, triangle_rule_collapsed(assembly.ELEVATED_QUADRATURE_DEGREE))
    qpoints = (x0[:, None, :] + np.einsum("td,q->tqd", e1, fine.rule.points[:, 0])
               + np.einsum("td,q->tqd", e2, fine.rule.points[:, 1]))
    f = np.stack(forcing(qpoints[:, :, 0], qpoints[:, :, 1]))
    le = np.einsum("q,t,dtq,qi->tdi", fine.wq, area, f, fine.phi2)
    out["body_load"] = assembly._velocity_load(dofs, le)

    n_noise = noise.grid.n_noise
    centroids = mesh.vertices[tri].mean(axis=1)
    cell = (np.minimum((centroids[:, 1] * n_noise).astype(int), n_noise - 1) * n_noise
            + np.minimum((centroids[:, 0] * n_noise).astype(int), n_noise - 1))
    fvals = noise.sigma / np.sqrt(noise.grid.cell_volume) * noise.zeta[cell]
    phi_int = np.einsum("q,t,qi->ti", wq, area, phi2)
    out["noise_load"] = assembly._velocity_load(dofs, fvals[:, :, None] * phi_int[:, None, :])
    return out


@pytest.mark.parametrize("n", [1, 3, 5])
def test_element_tables_match_multi_operand_einsum(n):
    mesh = build_structured_mesh(n)
    dofs = build_dof_map(mesh)
    w = np.random.default_rng(n).standard_normal(dofs.n_velocity_dofs)
    noise = sample_noise(NoiseGrid(n), 1.3, seed=n)
    forcing = lambda x, y: exact_forcing(x, y, 0.02)  # noqa: E731
    want = _einsum_kernels(mesh, dofs, w, 0.02, forcing, noise)

    geom = ElementGeometry(mesh)
    n1, n2 = assemble_convection_linearized(mesh, dofs, w, geom=geom)
    got = {
        "grad": geom.grad.reshape(mesh.n_triangles, 6, -1, 2).transpose(0, 2, 1, 3),
        "viscous": assemble_viscous(mesh, dofs, 0.02, geom=geom),
        "divergence": assemble_divergence(mesh, dofs, geom=geom),
        "n1": n1,
        "n2": n2,
        "body_load": assemble_load(mesh, dofs, forcing),
        "noise_load": assemble_noise_load(mesh, dofs, noise, geom=geom),
    }
    for name, ref in want.items():
        defect = np.abs(got[name] - ref).max() / np.abs(ref).max()
        assert defect <= 1e-13, (name, defect)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25, deadline=None)
def test_convection_load_is_n1_times_u(mesh4, dofs4, seed, scale):
    u = scale * np.random.default_rng(seed).standard_normal(dofs4.n_velocity_dofs)
    want = velocity_block(dofs4, assemble_convection_linearized(mesh4, dofs4, u)[0]) @ u
    got = assemble_convection_load(mesh4, dofs4, u)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
