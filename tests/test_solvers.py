import copy
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from snsflow import assembly, manufactured as mf, solvers, uq
from snsflow.checks import DenseOracle, splitting_equivalence_max_defect, velocity_block
from snsflow.mesh import build_dof_map, build_structured_mesh
from snsflow.noise import sample_noise, substream_key
from snsflow.solvers import (
    FEField,
    SingularSystemError,
    SolveReport,
    assemble_operators,
    linear_saddle_solve,
    solve_deterministic_ns,
    solve_monolithic,
    solve_stochastic_full,
    solve_stochastic_modified,
)

NU = 0.02


def _setup(n, nu=NU):
    dofs = build_dof_map(build_structured_mesh(n))
    return dofs, assemble_operators(dofs, nu)


def _full_block(dofs, velocity_block):
    """The full-system block of a velocity block (n_u, k), pressure rows zero."""
    rhs = np.zeros((len(dofs.pattern.free), velocity_block.shape[1]))
    rhs[:dofs.n_velocity_dofs] = velocity_block
    return rhs


def _forcing_load(dofs, nu=NU):
    return assembly.assemble_load(dofs, lambda x, y: mf.exact_forcing(x, y, nu))


def _noise_load(ops, sigma, n_noise, seed=0, sample=0):
    amplitude = sigma * math.sqrt(1.0 / n_noise ** 2)
    zeta = sample_noise(n_noise, substream_key(seed, sample))
    return assembly.assemble_noise_load(ops.dofs, n_noise, amplitude, zeta[None])[:, 0]


# ---------------------------------------------------------------------------
# linear saddle solve

def test_zero_rhs_gives_zero_solution():
    dofs, ops = _setup(2)
    x = linear_saddle_solve(dofs, ops.stokes, np.zeros(dofs.n_velocity_dofs))
    assert np.all(x == 0)


def test_matches_dense_factorization_oracle():
    dofs, ops = _setup(2)  # 50 velocity dofs
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(dofs.n_velocity_dofs)
    x = linear_saddle_solve(dofs, ops.stokes, rhs)

    n_u, n_p = dofs.n_velocity_dofs, dofs.n_pressure_dofs
    gauge = dofs.pressure_gauge
    dense = np.zeros((n_u + n_p + 1, n_u + n_p + 1))
    dense[:n_u + n_p, :n_u + n_p] = dofs.pattern.matrix(ops.stokes).toarray()
    dense[n_u:n_u + n_p, -1] = gauge
    dense[-1, n_u:n_u + n_p] = gauge
    free = np.ones(len(dense), dtype=bool)
    free[:n_u][dofs.dirichlet_mask] = False
    proj = np.diag(free.astype(float))
    dense = proj @ dense @ proj + np.diag(~free)
    full_rhs = np.concatenate([np.where(dofs.dirichlet_mask, 0.0, rhs), np.zeros(n_p + 1)])
    expected = np.linalg.solve(dense, full_rhs)
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(x - expected[:-1]).max() <= 1e-10 * scale
    assert abs(expected[-1]) <= 1e-10 * scale  # the gauge multiplier vanishes


def test_dimension_mismatch_is_a_value_error():
    dofs, ops = _setup(2)
    with pytest.raises(ValueError):
        linear_saddle_solve(dofs, ops.stokes, np.zeros(dofs.n_velocity_dofs - 1))


def test_singular_system_is_distinguished():
    dofs, ops = _setup(2)
    divergence_only = assembly.assemble_divergence(dofs)  # vanishing viscosity
    with pytest.raises(SingularSystemError):
        linear_saddle_solve(dofs, divergence_only, np.ones(dofs.n_velocity_dofs))


def test_stokes_factorization_at_n1_is_singular():
    # two free velocity dofs (the diagonal's midpoint) against three free
    # pressure dofs: B^T has a null vector, so the free system is singular
    dofs, ops = _setup(1)
    factor = solvers.SaddleFactor(dofs, ops.stokes)
    assert factor.lu is None and factor.failure.startswith("sparse factorization failed: ")
    # the kept failure fails every column of every solve, with zeros
    rhs = _full_block(dofs, np.ones((dofs.n_velocity_dofs, 3)))
    for load, k in ((rhs[:, :1], 1), (rhs, 3)):
        x, failures = factor.solve(load)
        assert failures == [factor.failure] * k
        assert x.shape == (len(dofs.pattern.free),) + load.shape[1:] and np.all(x == 0)
    with pytest.raises(SingularSystemError) as raised:
        linear_saddle_solve(dofs, ops.stokes, np.ones(dofs.n_velocity_dofs))
    assert str(raised.value) == factor.failure


def test_nested_dissection_order_fills_less_than_colamd():
    dofs, ops = _setup(24)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    k_xi = solvers.linearized_operator(ops, xi)
    matrix = dofs.pattern.free_matrix(k_xi.data)
    assert k_xi.lu.nnz < spla.splu(matrix, permc_spec="COLAMD").nnz


def test_free_dof_jacobian_matches_dense_oracle():
    dofs, ops = _setup(2)
    w = np.random.default_rng(5).standard_normal(dofs.n_velocity_dofs)
    conv = assembly.assemble_convection_linearized(dofs, w)
    got = solvers.SaddleFactor(dofs, ops.stokes + conv).matrix.toarray()

    oracle = DenseOracle(dofs)
    o1, o2 = oracle.convection(w)
    b = oracle.divergence()
    order = dofs.pattern.free_order
    want = sp.bmat([[oracle.viscous(NU) + o1 + o2, b.T], [b, None]]).toarray()[order][:, order]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stokes_convergence_under_refinement():
    # viscous + pressure forcing only; velocity converges at third order
    def stokes_forcing(x, y):
        lap1, lap2 = mf.exact_velocity_laplacian(x, y)
        px, py = mf.exact_pressure_gradient(x, y)
        return -NU * lap1 + px, -NU * lap2 + py

    errors = []
    for n in (4, 8, 16):
        dofs, ops = _setup(n)
        load = assembly.assemble_load(dofs, stokes_forcing)
        fld = FEField(linear_saddle_solve(dofs, ops.stokes, load), dofs)
        errors.append(mf.l2_error(fld, mf.exact_velocity))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 2.5


# ---------------------------------------------------------------------------
# deterministic solve

def test_zero_forcing_solves_in_one_iteration():
    dofs, ops = _setup(4)
    fld, report = solve_deterministic_ns(ops, np.zeros(dofs.n_velocity_dofs))
    assert report.converged and report.iterations == 1
    assert np.all(fld.velocity == 0) and np.all(fld.pressure == 0)


def test_manufactured_solution_recovered_at_n16():
    dofs, ops = _setup(16)
    fld, report = solve_deterministic_ns(ops, _forcing_load(dofs))
    assert report.converged
    assert mf.l2_error(fld, mf.exact_velocity) <= 1e-3


def test_newton_quadratic_tail():
    dofs, ops = _setup(8)
    _, report = solve_deterministic_ns(ops, _forcing_load(dofs))
    hist = report.residual_history
    pairs = [(a, b) for a, b in zip(hist, hist[1:]) if a < 1e-3 and b > 1e-15]
    assert pairs, "no residual pairs in the superlinear regime"
    for r_k, r_next in pairs:
        assert r_next <= 100.0 * r_k ** 1.5


def test_a_converged_initial_guess_takes_no_step_and_no_stokes_solve(monkeypatch):
    dofs, ops = _setup(6)
    load = _forcing_load(dofs)
    xi, _ = solve_deterministic_ns(ops, load)
    monkeypatch.setattr(solvers, "linear_saddle_solve", lambda *a: pytest.fail("Stokes solve"))
    fld, report = solve_deterministic_ns(ops, load, initial_guess=xi)
    assert report.converged and report.iterations == 0 and report.method == "deterministic"
    assert np.array_equal(fld.velocity, xi.velocity)
    assert np.array_equal(fld.pressure, xi.pressure)


def test_deterministic_replay_is_bit_identical():
    dofs, ops = _setup(6)
    load = _forcing_load(dofs)
    fld_a, _ = solve_deterministic_ns(ops, load)
    fld_b, _ = solve_deterministic_ns(ops, load)
    assert np.array_equal(fld_a.velocity, fld_b.velocity)
    assert np.array_equal(fld_a.pressure, fld_b.pressure)


def test_returned_fields_satisfy_constraints():
    dofs, ops = _setup(8)
    fld, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    assert np.all(fld.velocity[dofs.dirichlet_mask] == 0.0)
    n_u = dofs.n_velocity_dofs
    div_norm = np.linalg.norm(dofs.pattern.matrix(ops.stokes)[n_u:, :n_u] @ fld.velocity)
    assert div_norm <= 1e-9 * max(np.linalg.norm(fld.velocity), 1e-30)
    gauge_defect = abs(dofs.pressure_gauge @ fld.pressure)
    assert gauge_defect <= 1e-10 * max(np.linalg.norm(fld.pressure), 1e-30)


def _counting_splu(monkeypatch):
    """Count factorizations; each factor made counts its own solves."""
    real = spla.splu
    factors = []

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.solves = lu, 0

        def solve(self, rhs):
            self.solves += 1
            return self.lu.solve(rhs)

    def splu(matrix, *args, **kwargs):
        factors.append(CountingLU(real(matrix, *args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", splu)
    return factors


def _gmres_missing(monkeypatch, misses=None):
    """Make every GMRES step miss, or the first ``misses`` of them."""
    real = solvers._krylov_step
    calls = []

    def krylov_step(*args):
        calls.append(1)
        if misses is None or len(calls) <= misses:
            return None, 0
        return real(*args)

    monkeypatch.setattr(solvers, "_krylov_step", krylov_step)
    return calls


def _assert_same_correction(got, want, rel=1e-10):
    scale = np.abs(want.velocity).max()
    assert np.abs(got.velocity - want.velocity).max() <= rel * scale


def _deterministic_setup(n=12):
    dofs, ops = _setup(n)
    return ops, _forcing_load(dofs)


def test_newton_krylov_deterministic_matches_direct_newton(monkeypatch):
    ops, load = _deterministic_setup()
    xi, rep = solve_deterministic_ns(ops, load)
    assert rep.converged and rep.inner_iterations > 0 and rep.fallbacks == 1

    _gmres_missing(monkeypatch)
    xi_d, rep_d = solve_deterministic_ns(ops, load)
    assert rep_d.converged and rep_d.inner_iterations == 0
    assert rep_d.fallbacks == rep_d.iterations - 1   # every Newton step direct
    _assert_same_correction(xi, xi_d)


def test_deterministic_solve_factorizes_twice(monkeypatch):
    ops, load = _deterministic_setup()
    factors = _counting_splu(monkeypatch)
    _, rep = solve_deterministic_ns(ops, load)
    assert rep.converged and len(factors) == 2   # the Stokes start, then J(u_Stokes)
    # the Stokes LU solves only its own system; J(u_Stokes)'s preconditions the rest
    assert factors[0].solves == 1 and factors[1].solves > 1


def test_deterministic_gmres_miss_factorizes_once_more(monkeypatch):
    ops, load = _deterministic_setup()
    calls = _gmres_missing(monkeypatch, misses=1)
    factors = _counting_splu(monkeypatch)
    _, rep = solve_deterministic_ns(ops, load)
    assert rep.converged and len(factors) == 3 and rep.fallbacks == 2
    # the missed call reports no iterations, so these come from the later steps,
    # preconditioned by the factor of the missed step
    assert len(calls) >= 2 and rep.inner_iterations > 0
    assert factors[2].solves > 1


# ---------------------------------------------------------------------------
# stochastic correction solves

def test_zero_noise_gives_zero_corrections():
    dofs, ops = _setup(4)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    zero = np.zeros(dofs.n_velocity_dofs)
    k_xi = solvers.linearized_operator(ops, xi)
    eta, rep = solve_stochastic_full(ops, k_xi, zero)
    assert rep.converged and np.all(eta.velocity == 0)
    [(eta_l, rep_l)] = solve_stochastic_modified(ops, k_xi, zero[:, None])
    assert rep_l.converged and rep_l.iterations == 1
    assert np.abs(eta_l.velocity).max() <= 1e-12


def test_per_sample_equivalence_oracle():
    assert splitting_equivalence_max_defect(n=8, sigma=1.5, samples=3) <= 1e-10


def test_full_correction_converges_at_large_amplitude_from_zero():
    dofs, ops = _setup(8)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    noise_load = _noise_load(ops, 8.0, 8, seed=3)
    eta, rep = solve_stochastic_full(ops, solvers.linearized_operator(ops, xi), noise_load)
    assert rep.converged


def test_modified_error_scales_quadratically_in_amplitude():
    dofs, ops = _setup(8)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    base = _noise_load(ops, 1.0, 8, seed=21)
    k_xi = solvers.linearized_operator(ops, xi)
    ratios = []
    for sigma in (0.8, 1.6, 3.2):
        load = sigma * base  # identical draw at three amplitudes
        eta, rep_f = solve_stochastic_full(ops, k_xi, load)
        [(eta_l, rep_m)] = solve_stochastic_modified(ops, k_xi, load[:, None])
        assert rep_f.converged and rep_m.converged
        gap = mf.l2_error(eta_l, eta)
        ratios.append(gap / sigma ** 2)
    lo, hi = min(ratios), max(ratios)
    assert hi <= 2.0 * lo  # bounded within a factor ~2 across the sweep


def test_modified_is_faster_than_full():
    dofs, ops = _setup(8)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    load = _noise_load(ops, 1.5, 8, seed=5)

    def best_of(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            _, rep = fn()
            times.append(time.perf_counter() - t0)
            assert rep.converged
        return min(times)

    # each timed call builds its own K(xi): modified is then one factorization
    # and one solve, split one factorization and a Newton-Krylov solve
    def k_xi():
        return solvers.linearized_operator(ops, xi)

    t_full = best_of(lambda: solve_stochastic_full(ops, k_xi(), load))
    t_mod = best_of(lambda: solve_stochastic_modified(ops, k_xi(), load[:, None])[0])
    assert t_mod < t_full


def test_modified_reports_one_iteration():
    dofs, ops = _setup(4)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    load = _noise_load(ops, 1.0, 4)
    [(_, rep)] = solve_stochastic_modified(ops, solvers.linearized_operator(ops, xi),
                                           load[:, None])
    assert rep.iterations == 1


def _modified_setup(n=6, samples=5):
    dofs, ops = _setup(n)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    loads = np.column_stack([_noise_load(ops, 1.5, n, seed=4, sample=k)
                             for k in range(samples)])
    return dofs, ops, xi, loads


def test_batched_modified_equals_per_column_solves():
    dofs, ops, xi, loads = _modified_setup()
    k_xi = solvers.linearized_operator(ops, xi)
    block = solve_stochastic_modified(ops, k_xi, loads)
    assert len(block) == loads.shape[1]
    for j, (eta, rep) in enumerate(block):
        [(eta_1, rep_1)] = solve_stochastic_modified(ops, k_xi, loads[:, j:j + 1].copy())
        for part in ("velocity", "pressure"):
            got, want = getattr(eta, part), getattr(eta_1, part)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert rep.converged and rep_1.converged
        assert rep.iterations == rep_1.iterations == 1
        assert abs(rep.final_residual - rep_1.final_residual) <= 1e-15


def test_failed_factorization_fails_every_modified_column(monkeypatch):
    dofs, ops, xi, loads = _modified_setup(n=4, samples=3)

    def singular(matrix, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    block = solve_stochastic_modified(ops, solvers.linearized_operator(ops, xi), loads)
    assert len(block) == 3
    for eta, rep in block:
        assert not rep.converged and "exactly singular" in rep.failure
        assert np.all(eta.velocity == 0) and np.all(eta.pressure == 0)


def test_saddle_factor_solves_a_block_like_its_columns():
    dofs, ops = _setup(3)
    rhs = np.random.default_rng(2).standard_normal((dofs.n_velocity_dofs, 4))
    factor = solvers.SaddleFactor(dofs, ops.stokes)
    block, failures = factor.solve(_full_block(dofs, rhs))
    assert failures == [""] * 4
    for j in range(4):
        x = linear_saddle_solve(dofs, ops.stokes, rhs[:, j].copy())
        assert np.abs(block[:, j] - x).max() <= 1e-13 * np.abs(x).max()
    with pytest.raises(ValueError):
        factor.solve(np.zeros((dofs.n_velocity_dofs, 2, 2)))


def test_saddle_factor_takes_only_a_full_system_block():
    dofs, ops = _setup(3)
    factor = solvers.SaddleFactor(dofs, ops.stokes)
    for rhs in (np.zeros((dofs.n_velocity_dofs, 3)), np.zeros(len(dofs.pattern.free))):
        with pytest.raises(ValueError):
            factor.solve(rhs)


def test_residual_check_fails_a_corrupt_solve_near_the_overflow_range():
    # at load scale 1e200 the squares of a 2-norm overflow; the max-norm
    # residual still tells a correct solve from one off by a factor 1.001
    dofs, ops = _setup(4)
    load = _full_block(
        dofs, 1e200 * np.random.default_rng(4).standard_normal((dofs.n_velocity_dofs, 1)))
    factor = solvers.SaddleFactor(dofs, ops.stokes)
    assert factor.solve(load)[1] == [""]

    class Corrupt:
        def solve(self, rhs):
            return factor.lu.solve(rhs) * 1.001

    corrupt = copy.copy(factor)
    corrupt.lu = Corrupt()
    _, (failure,) = corrupt.solve(load)
    assert "residual" in failure


# ---------------------------------------------------------------------------
# split correction by Newton-Krylov on the factor of K(xi)

def _split_setup(sigma, n=8):
    dofs, ops = _setup(n)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    return ops, xi, _noise_load(ops, sigma, n, seed=3)


@pytest.mark.parametrize("sigma", [1.6, 8.0])
def test_newton_krylov_split_matches_direct_split(monkeypatch, sigma):
    ops, xi, load = _split_setup(sigma)
    k_xi = solvers.linearized_operator(ops, xi)
    eta, rep = solve_stochastic_full(ops, k_xi, load)
    assert rep.converged and rep.inner_iterations > 0
    if sigma <= 4.0:
        assert rep.fallbacks == 0

    _gmres_missing(monkeypatch)
    eta_d, rep_d = solve_stochastic_full(ops, k_xi, load)
    assert rep_d.converged and rep_d.fallbacks == rep_d.iterations
    _assert_same_correction(eta, eta_d)


def test_gmres_miss_falls_back_to_a_direct_step(monkeypatch):
    ops, xi, load = _split_setup(1.6)
    eta, rep = solve_stochastic_full(ops, solvers.linearized_operator(ops, xi), load)
    calls = _gmres_missing(monkeypatch, misses=1)
    factors = _counting_splu(monkeypatch)
    eta_f, rep_f = solve_stochastic_full(ops, solvers.linearized_operator(ops, xi), load)
    assert rep_f.converged and rep_f.fallbacks == 1 and len(calls) >= 2
    assert len(factors) == 2   # K(xi), then the one fallback step
    # the steps after the fallback run GMRES on its factor, not on K(xi)'s
    assert rep_f.inner_iterations > 0
    assert factors[0].solves == 0 and factors[1].solves > 1
    _assert_same_correction(eta_f, eta)


class _CountingMatrix:
    """A free matrix that counts its products with vectors."""

    def __init__(self, matrix, products):
        self.matrix, self.products = matrix, products

    def __matmul__(self, v):
        self.products.append(1)
        return self.matrix @ v


def _stokes_preconditioned_step(monkeypatch):
    """J(u_Stokes), its Newton rhs and the Stokes LU at n=6, with ``splu`` and
    the products of the free matrices counted. This LU needs a restart to
    bring the step to forcing 1e-4."""
    dofs, ops = _setup(6)
    load = _forcing_load(dofs)
    u = linear_saddle_solve(dofs, ops.stokes, load)[:dofs.n_velocity_dofs]
    conv = assembly.assemble_convection_linearized(dofs, u)
    rhs = np.concatenate([np.where(dofs.dirichlet_mask, 0.0, load),
                          np.zeros(dofs.n_pressure_dofs)])
    factors = _counting_splu(monkeypatch)
    precond = solvers.SaddleFactor(dofs, ops.stokes)
    matvecs = []
    real = type(dofs.pattern).free_matrix
    monkeypatch.setattr(type(dofs.pattern), "free_matrix",
                        lambda pattern, data: _CountingMatrix(real(pattern, data), matvecs))
    return dofs, ops.stokes + conv, rhs, precond, factors, matvecs


def _scipy_gmres(dofs, jacobian, rhs, precond, forcing):
    """The reference: scipy's GMRES on the same free system, budget and LU."""
    matrix = dofs.pattern.free_matrix(jacobian).matrix   # products not counted
    iterations = []
    d, info = spla.gmres(matrix, rhs[dofs.pattern.free_order], rtol=forcing,
                         restart=solvers.KRYLOV_BASIS, maxiter=solvers.KRYLOV_CYCLES,
                         # the SuperLU inside the counting wrapper: solves not counted
                         M=spla.LinearOperator(matrix.shape, matvec=precond.lu.lu.solve,
                                               dtype=float),
                         callback=iterations.append, callback_type="pr_norm")
    return d, info, len(iterations)


def test_krylov_step_matches_scipy_gmres(monkeypatch):
    dofs, jacobian, rhs, precond, _, _ = _stokes_preconditioned_step(monkeypatch)
    d, info, scipy_its = _scipy_gmres(dofs, jacobian, rhs, precond, 1e-4)
    x, its = solvers._krylov_step(dofs, dofs.pattern.free_matrix(jacobian), rhs, precond, 1e-4)
    assert info == 0 and x is not None
    assert scipy_its > solvers.KRYLOV_BASIS and its == scipy_its   # both restarted once
    want = solvers._full_rows(dofs, d)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_krylov_step_applies_the_preconditioner_once_per_iteration_and_cycle(monkeypatch):
    dofs, jacobian, rhs, precond, factors, matvecs = _stokes_preconditioned_step(monkeypatch)
    x, its = solvers._krylov_step(dofs, dofs.pattern.free_matrix(jacobian), rhs, precond, 1e-4)
    # one product per iteration, and one for the true residual closing each cycle
    cycles = len(matvecs) - its
    assert x is not None and cycles == solvers.KRYLOV_CYCLES
    assert factors[0].solves == its + cycles


def test_krylov_step_abandons_a_step_its_first_cycle_shows_will_miss(monkeypatch):
    dofs, jacobian, rhs, precond, _, matvecs = _stokes_preconditioned_step(monkeypatch)
    # forcing 1e-10 is out of reach of the whole budget of two cycles
    _, info, _ = _scipy_gmres(dofs, jacobian, rhs, precond, 1e-10)
    assert info != 0
    matvecs.clear()
    x, its = solvers._krylov_step(dofs, dofs.pattern.free_matrix(jacobian), rhs, precond, 1e-10)
    # one cycle: its products plus the one for the true residual closing it
    assert x is None and 0 < its <= solvers.KRYLOV_BASIS and len(matvecs) == its + 1


def test_split_at_sigma_8_falls_back_at_most_once_per_sample():
    dofs, ops = _setup(12)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    k_xi = solvers.linearized_operator(ops, xi)
    for sample in range(8):
        load = _noise_load(ops, 8.0, 12, seed=0, sample=sample)
        _, rep = solve_stochastic_full(ops, k_xi, load)
        assert rep.converged and rep.fallbacks <= 1


def test_split_at_sigma_8_falls_back_at_most_three_times_in_samples_8_to_39():
    # sample 15 of seed 0 falls back three times; the others at most once
    dofs, ops = _setup(12)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    k_xi = solvers.linearized_operator(ops, xi)
    for sample in range(8, 40):
        load = _noise_load(ops, 8.0, 12, seed=0, sample=sample)
        _, rep = solve_stochastic_full(ops, k_xi, load)
        assert rep.converged and rep.fallbacks <= 3


def test_split_at_sigma_8_misses_within_one_restart_cycle(monkeypatch):
    dofs, ops = _setup(12)
    xi, _ = solve_deterministic_ns(ops, _forcing_load(dofs))
    k_xi = solvers.linearized_operator(ops, xi)
    real, steps = solvers._krylov_step, []

    def recorded(*args):
        steps.append(real(*args))
        return steps[-1]

    monkeypatch.setattr(solvers, "_krylov_step", recorded)
    for sample in (3, 11):   # two samples of seed 0 that fall back at n=12
        load = _noise_load(ops, 8.0, 12, seed=0, sample=sample)
        _, rep = solve_stochastic_full(ops, k_xi, load)
        assert rep.converged and rep.fallbacks == 1
    misses = [its for x, its in steps if x is None]
    assert len(misses) == 2 and max(misses) <= solvers.KRYLOV_BASIS


def test_split_converges_when_k_xi_factorization_fails(monkeypatch):
    ops, xi, load = _split_setup(1.6)
    eta, _ = solve_stochastic_full(ops, solvers.linearized_operator(ops, xi), load)
    real_splu = spla.splu

    def singular(matrix, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    k_xi = solvers.linearized_operator(ops, xi)
    assert k_xi.lu is None and "exactly singular" in k_xi.failure
    monkeypatch.setattr(spla, "splu", real_splu)
    assert k_xi.lu is None   # the failure is kept, not retried
    eta_s, rep_s = solve_stochastic_full(ops, k_xi, load)
    # the first step factorizes J(0) itself; that factor preconditions the rest
    assert rep_s.converged and rep_s.inner_iterations > 0 and rep_s.fallbacks == 1
    _assert_same_correction(eta_s, eta)


def test_direct_solves_report_no_inner_iterations():
    ops, xi, load = _split_setup(1.6, n=4)
    _, rep_m = solve_monolithic(ops, _forcing_load(ops.dofs), load,
                                   initial_guess=xi)
    [(_, rep_l)] = solve_stochastic_modified(ops, solvers.linearized_operator(ops, xi),
                                             load[:, None])
    for rep in (rep_m, rep_l):
        assert rep.converged and rep.inner_iterations == rep.fallbacks == 0


def test_concurrent_solves_on_one_factor_match_serial():
    ops, xi, _ = _split_setup(1.6, n=6)
    factor = solvers.linearized_operator(ops, xi)
    rhs = _full_block(ops.dofs,
                      np.random.default_rng(5).standard_normal((ops.dofs.n_velocity_dofs, 32)))
    serial = [factor.solve(rhs[:, j:j + 1].copy())[0] for j in range(32)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(5):
            threaded = list(pool.map(lambda j: factor.solve(rhs[:, j:j + 1].copy())[0],
                                     range(32)))
            assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


# ---------------------------------------------------------------------------
# monolithic solve

def test_zero_amplitude_reproduces_deterministic_solution():
    dofs, ops = _setup(6)
    load = _forcing_load(dofs)
    xi, _ = solve_deterministic_ns(ops, load)
    mono, rep = solve_monolithic(ops, load, np.zeros(dofs.n_velocity_dofs),
                                 initial_guess=xi)
    assert rep.converged
    assert np.abs(mono.velocity - xi.velocity).max() <= 1e-13


def test_monolithic_minus_deterministic_equals_correction():
    dofs, ops = _setup(8)
    load = _forcing_load(dofs)
    xi, _ = solve_deterministic_ns(ops, load)
    noise_load = _noise_load(ops, 1.5, 8, seed=9)
    eta, rep_s = solve_stochastic_full(ops, solvers.linearized_operator(ops, xi), noise_load)
    mono, rep_m = solve_monolithic(ops, load, noise_load, initial_guess=xi)
    assert rep_s.converged and rep_m.converged
    diff = FEField(mono.values - xi.values, dofs)
    gap = mf.l2_error(diff, eta)
    assert gap <= 1e-10 * max(mf.velocity_l2_norm(dofs, mono.velocity), 1e-30)


@pytest.mark.parametrize("sigma", [1.6, 8.0])
def test_newton_krylov_monolithic_matches_direct_monolithic(monkeypatch, sigma):
    ops, xi, load = _split_setup(sigma)
    f_load = _forcing_load(ops.dofs)
    k_xi = solvers.linearized_operator(ops, xi)
    mono, rep = solve_monolithic(ops, f_load, load, initial_guess=xi, k_xi=k_xi)
    assert rep.converged and rep.inner_iterations > 0
    if sigma <= 4.0:
        assert rep.fallbacks == 0

    _gmres_missing(monkeypatch)
    mono_d, rep_d = solve_monolithic(ops, f_load, load, initial_guess=xi, k_xi=k_xi)
    assert rep_d.converged and rep_d.fallbacks == rep_d.iterations
    _assert_same_correction(mono, mono_d)


def test_newton_krylov_monolithic_minus_deterministic_equals_correction():
    dofs, ops = _setup(8)
    load = _forcing_load(dofs)
    xi, _ = solve_deterministic_ns(ops, load)
    k_xi = solvers.linearized_operator(ops, xi)
    for sample in range(3):
        noise_load = _noise_load(ops, 1.5, 8, seed=9, sample=sample)
        eta, rep_s = solve_stochastic_full(ops, k_xi, noise_load)
        mono, rep_m = solve_monolithic(ops, load, noise_load, initial_guess=xi, k_xi=k_xi)
        assert rep_s.converged and rep_m.converged and rep_m.inner_iterations > 0
        gap = mf.l2_error(mono, xi + eta)
        assert gap <= 1e-10 * mf.velocity_l2_norm(dofs, mono.velocity)


def test_non_convergence_is_reported_not_raised(monkeypatch):
    dofs, ops = _setup(4)
    load = _forcing_load(dofs)
    noise_load = _noise_load(ops, 60.0, 4, seed=13)
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 4)
    mono, rep = solve_monolithic(ops, load, noise_load,
                                 initial_guess=FEField.zeros(dofs))
    assert not rep.converged
    assert rep.failure
    assert len(rep.residual_history) >= 1


# ---------------------------------------------------------------------------
# Jacobian consistency and plumbing

def test_jacobian_matches_directional_finite_differences():
    dofs, ops = _setup(4)
    rng = np.random.default_rng(17)
    u = mf.interpolate_velocity(dofs, mf.exact_velocity)
    u[dofs.dirichlet_mask] = 0.0
    free = ~dofs.dirichlet_mask

    def residual(vec):
        n1, _ = assembly.convection_terms(dofs, vec)
        r = velocity_block(dofs, ops.stokes + n1) @ vec
        return r[free]

    jac = velocity_block(dofs, ops.stokes + assembly.assemble_convection_linearized(dofs, u))
    eps = 1e-6
    for _ in range(10):
        d = rng.standard_normal(dofs.n_velocity_dofs)
        d[dofs.dirichlet_mask] = 0.0
        fd = (residual(u + eps * d) - residual(u - eps * d)) / (2 * eps)
        jd = (jac @ d)[free]
        assert np.linalg.norm(fd - jd) <= 1e-5 * max(np.linalg.norm(jd), 1e-12)


def test_newton_assembles_jacobian_only_for_steps(monkeypatch):
    # each iterate is evaluated once, as N1 + N2, for both its residual and
    # its Jacobian; a step builds one free matrix, which a GMRES miss reuses
    dofs, ops = _setup(6)
    counts = {"assemble_convection_linearized": 0, "free_matrix": 0}
    for owner, name in ((assembly, "assemble_convection_linearized"),
                        (type(dofs.pattern), "free_matrix")):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    xi, rep = solve_deterministic_ns(ops, _forcing_load(dofs))
    assert rep.converged and rep.iterations >= 3
    steps = rep.iterations - 1  # the Stokes start counts as one solve
    # one more free matrix: the Stokes start's
    assert counts == {"assemble_convection_linearized": len(rep.residual_history),
                      "free_matrix": steps + 1}

    k_xi = solvers.linearized_operator(ops, xi)
    calls = _gmres_missing(monkeypatch, misses=1)
    counts.update(dict.fromkeys(counts, 0))
    _, rep = solve_stochastic_full(ops, k_xi, _noise_load(ops, 1.6, 6))
    assert rep.converged and rep.iterations >= 2 and rep.fallbacks == 1 and len(calls) >= 2
    # the missed step factorizes the free matrix its GMRES had
    assert counts == {"assemble_convection_linearized": len(rep.residual_history),
                      "free_matrix": rep.iterations}


def test_velocity_and_pressure_are_views_of_the_values():
    dofs = build_dof_map(build_structured_mesh(2))
    fld = FEField.zeros(dofs)
    fld.velocity[0] = 1.0
    fld.pressure[-1] = 2.0
    assert fld.values[0] == 1.0 and fld.values[-1] == 2.0
    assert len(fld.values) == dofs.n_velocity_dofs + dofs.n_pressure_dofs
    assert (len(fld.velocity), len(fld.pressure)) == (dofs.n_velocity_dofs,
                                                      dofs.n_pressure_dofs)


def test_field_addition_requires_shared_dof_map():
    dofs_a = build_dof_map(build_structured_mesh(2))
    dofs_b = build_dof_map(build_structured_mesh(2))
    with pytest.raises(ValueError):
        FEField.zeros(dofs_a) + FEField.zeros(dofs_b)


def test_solve_report_csv_row(tmp_path):
    rep = SolveReport(True, 3, 1.25e-13, [1.0, 1e-6, 1.25e-13],
                      method="split", sample_id=7)
    path = tmp_path / "samples.csv"
    uq.write_samples_csv(str(path), [rep])
    header, row = path.read_text().splitlines()
    assert row == "split,7,1,3,1.250000e-13"
    assert header.count(",") == row.count(",")
