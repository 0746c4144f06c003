import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from snsflow import assembly, manufactured as mf, solvers, uq
from snsflow.mesh import build_dof_map, build_structured_mesh
from snsflow.solvers import FEField, NewtonConfig
from snsflow.uq import (
    Diagnostics,
    McConfig,
    diagnostics,
    error_statistics,
    mean_closeness_check,
    run_experiment,
)


def small_config(**kw):
    base = dict(M=3, base_seed=11, sigma=1.0, nu=0.02, mesh_n=4, noise_n=4)
    base.update(kw)
    return McConfig(**base)


@pytest.mark.parametrize("nu, sigma", [(float("inf"), 1.0), (0.02, float("inf")),
                                       (0.02, float("nan"))])
def test_non_finite_physics_rejected(nu, sigma):
    from snsflow.assembly import ProblemParams
    if not np.isfinite(nu):
        with pytest.raises(ValueError):
            ProblemParams(nu=nu)
    with pytest.raises(ValueError):
        small_config(nu=nu, sigma=sigma)


def test_infinite_newton_tolerance_rejected():
    with pytest.raises(ValueError):
        NewtonConfig(abs_tol=float("inf"))
    with pytest.raises(ValueError):
        NewtonConfig(rel_tol=float("inf"))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(M=0)
    with pytest.raises(ValueError):
        small_config(methods=())
    with pytest.raises(ValueError):
        small_config(methods=("bogus",))
    with pytest.raises(ValueError):
        small_config(mesh_n=4, noise_n=3)
    with pytest.raises(ValueError):
        small_config(mono_init="stokes")
    with pytest.raises(ValueError):
        small_config(sigma=-1.0)


def test_zero_amplitude_collapses_to_deterministic():
    stats = run_experiment(small_config(M=1, sigma=0.0))
    xi = stats.deterministic_field
    assert stats.eps_sh == 0.0 and stats.eps_mh == 0.0
    for method in uq.METHODS:
        mean = stats.mean_fields[method]
        assert np.abs(mean.velocity - xi.velocity).max() <= 1e-12
    assert mean_closeness_check(xi, stats) <= 1e-12


def test_error_statistics_identical_means():
    dofs = build_dof_map(build_structured_mesh(3))
    fld = FEField(np.ones(dofs.n_velocity_dofs), np.zeros(dofs.n_pressure_dofs), dofs)
    eps, rel = error_statistics(fld, FEField(fld.velocity.copy(), fld.pressure.copy(), dofs))
    assert eps == 0.0 and rel == 0.0


def test_error_statistics_zero_method_mean_against_interpolant():
    dofs = build_dof_map(build_structured_mesh(6))
    ref = FEField(mf.interpolate_velocity(dofs, mf.exact_velocity),
                  np.zeros(dofs.n_pressure_dofs), dofs)
    eps, rel = error_statistics(FEField.zeros(dofs), ref)
    assert eps == pytest.approx(mf.velocity_l2_norm(dofs, ref.velocity), rel=1e-12)
    assert rel == pytest.approx(1.0, rel=1e-12)


def test_error_statistics_zero_reference_is_nan_sentinel():
    dofs = build_dof_map(build_structured_mesh(2))
    some = FEField(np.ones(dofs.n_velocity_dofs), np.zeros(dofs.n_pressure_dofs), dofs)
    eps, rel = error_statistics(some, FEField.zeros(dofs))
    assert eps > 0 and np.isnan(rel)


def test_two_sample_mean_against_direct_average():
    cfg = small_config(M=2, methods=("monolithic",))
    stats = run_experiment(cfg)
    # recompute by running the two samples by hand through the same solvers
    from snsflow import assembly, noise as noise_mod, solvers
    from snsflow.assembly import ProblemParams
    mesh = build_structured_mesh(cfg.mesh_n)
    dofs = build_dof_map(mesh)
    ops = solvers.assemble_operators(mesh, dofs, ProblemParams(cfg.nu))
    load = assembly.assemble_load(mesh, dofs,
                                  lambda x, y: mf.exact_forcing(x, y, cfg.nu))
    xi, _ = solvers.solve_deterministic_ns(ops, load)
    k_xi = solvers.LinearizedOperator(ops, xi)   # shared by the samples, as in the run
    grid = noise_mod.NoiseGrid(cfg.noise_n)
    amp = cfg.sigma * np.sqrt(grid.cell_volume)
    acc = np.zeros(dofs.n_velocity_dofs)
    for k in range(2):
        draw = noise_mod.sample_noise(grid, amp, noise_mod.substream_key(cfg.base_seed, k))
        nl = assembly.assemble_noise_load(mesh, dofs, draw, geom=ops.geom)
        fld, rep = solvers.solve_monolithic(ops, load, nl, initial_guess=xi, k_xi=k_xi)
        assert rep.converged
        acc += fld.velocity
    assert np.abs(stats.mean_fields["monolithic"].velocity - acc / 2).max() <= 1e-14


def test_exclusion_accounting_under_forced_failures():
    cfg = small_config(M=4, sigma=40.0, mono_init="zero",
                       methods=("monolithic", "split"),
                       newton=NewtonConfig(max_iter=2))
    stats = run_experiment(cfg)
    for method in cfg.methods:
        assert stats.converged_counts[method] + stats.failed_counts[method] == cfg.M
    assert stats.failed_counts["monolithic"] == cfg.M  # 2 iterations cannot reach 1e-12
    assert "monolithic" not in stats.mean_fields  # nothing converged to average


def _assert_same_results(a, b):
    for method in a.config.methods:
        assert np.array_equal(a.mean_fields[method].velocity,
                              b.mean_fields[method].velocity)
        assert np.array_equal(a.mean_fields[method].pressure,
                              b.mean_fields[method].pressure)
    assert (a.eps_sh, a.eps_mh) == (b.eps_sh, b.eps_mh)
    assert np.array_equal(a.kappa_samples, b.kappa_samples)
    assert [r.to_csv_row() for r in a.reports] == [r.to_csv_row() for r in b.reports]


# three chunks, the last one short
CHUNKED_M = 2 * uq.CHUNK + 3


def test_reproducibility_and_jobs_independence():
    cfg = small_config(M=CHUNKED_M)
    _assert_same_results(run_experiment(cfg, jobs=1), run_experiment(cfg, jobs=4))


def test_noise_loads_are_drawn_one_chunk_at_a_time(monkeypatch):
    cfg = small_config(M=CHUNKED_M, methods=("modified",))
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops, _, _, _ = uq.prepare(dofs, cfg.nu, cfg.newton)
    _, norms = uq.noise_loads(cfg, ops, range(cfg.M))
    real = uq.noise_loads
    asked = []

    def spy(cfg, ops, samples):
        asked.append(list(samples))
        return real(cfg, ops, samples)

    monkeypatch.setattr(uq, "noise_loads", spy)
    stats = run_experiment(cfg)
    assert max(len(ks) for ks in asked) <= uq.CHUNK
    assert [k for ks in asked for k in ks] == list(range(cfg.M))
    assert np.array_equal(stats.kappa_samples, norms / stats.forcing_norm)


def test_a_third_chunk_sample_matches_its_own_solve(monkeypatch):
    cfg = small_config(M=CHUNKED_M)
    k = 2 * uq.CHUNK + 1
    real = uq.solve_sample
    seen = {}

    def spy(method, ops, xi, f_load, loads, first, *args):
        out = real(method, ops, xi, f_load, loads, first, *args)
        if first <= k < first + loads.shape[1]:
            seen[method] = out[k - first], (ops, xi, f_load, args)
        return out

    monkeypatch.setattr(uq, "solve_sample", spy)
    run_experiment(cfg)
    assert set(seen) == set(uq.METHODS)
    for method, ((fld, rep), (ops, xi, f_load, args)) in seen.items():
        column, _ = uq.noise_loads(cfg, ops, [k])
        [(own, own_rep)] = real(method, ops, xi, f_load, column, k, *args)
        assert rep.converged and own_rep.sample_id == rep.sample_id == k
        got, want = (np.concatenate([f.velocity, f.pressure]) for f in (fld, own))
        if method == "modified":   # the block solve may round differently per column
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        else:
            assert np.array_equal(got, want)
            assert rep.to_csv_row() == own_rep.to_csv_row()


def test_modified_peak_memory_is_flat_in_the_sample_count():
    peaks = {}
    for samples in (uq.CHUNK, 6 * uq.CHUNK):
        tracemalloc.start()
        try:
            run_experiment(small_config(M=samples, mesh_n=8, methods=("modified",)))
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one (n_u, M) load block alone would add 5 * CHUNK * 578 * 8 bytes = 370 kB
    assert peaks[6 * uq.CHUNK] - peaks[uq.CHUNK] <= 192 * 1024


def test_pool_threads_are_bounded_by_the_chunk(monkeypatch):
    cfg = small_config(M=uq.CHUNK + 3)
    serial = run_experiment(cfg, jobs=1)
    sizes = []

    class InlineExecutor:   # records the pool size and runs each task in place
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(uq, "ThreadPoolExecutor", InlineExecutor)
    _assert_same_results(serial, run_experiment(cfg, jobs=10 ** 6))
    assert sizes == [uq.CHUNK]


def test_noise_loads_match_per_draw_assembly():
    from snsflow import noise as noise_mod
    cfg = small_config(noise_n=2)
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops = solvers.assemble_operators(dofs.mesh, dofs, assembly.ProblemParams(cfg.nu))
    samples = [0, 3, 7]
    loads, norms = uq.noise_loads(cfg, ops, samples)
    assert loads.shape == (dofs.n_velocity_dofs, 3) and norms.shape == (3,)
    grid = noise_mod.NoiseGrid(cfg.noise_n)
    amp = cfg.sigma * np.sqrt(grid.cell_volume)
    for j, k in enumerate(samples):
        draw = noise_mod.sample_noise(grid, amp, noise_mod.substream_key(cfg.base_seed, k))
        expected = assembly.assemble_noise_load(dofs.mesh, dofs, draw, geom=ops.geom)
        assert np.array_equal(loads[:, j], expected)
        assert norms[j] == noise_mod.noise_l2_norm(draw)


def test_reduction_follows_sample_order_not_arrival_order(monkeypatch):
    cfg = small_config(M=4)
    serial = run_experiment(cfg, jobs=1)
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops, _, _, _ = uq.prepare(dofs, cfg.nu, cfg.newton)
    loads, _ = uq.noise_loads(cfg, ops, range(cfg.M))
    real_solve = uq.solve_sample
    done = [threading.Event() for _ in range(cfg.M)]
    arrival = []

    def reversed_finish(method, ops, xi, f_load, noise_load, *args):
        result = real_solve(method, ops, xi, f_load, noise_load, *args)
        if method == "split":  # a sample's last Newton solve
            k = next(j for j in range(cfg.M) if np.array_equal(loads[:, j:j + 1], noise_load))
            if k + 1 < cfg.M:
                assert done[k + 1].wait(timeout=60)
            arrival.append(k)
            done[k].set()
        return result

    monkeypatch.setattr(uq, "solve_sample", reversed_finish)
    threaded = run_experiment(cfg, jobs=4)
    assert arrival == [3, 2, 1, 0]
    assert [(r.method, r.sample_id) for r in threaded.reports] == \
        [(r.method, r.sample_id) for r in serial.reports]
    assert [r.sample_id for r in threaded.reports[1:]] == \
        [k for k in range(cfg.M) for _ in cfg.methods]
    for method in uq.METHODS:
        assert np.array_equal(threaded.mean_fields[method].velocity,
                              serial.mean_fields[method].velocity)
        assert np.array_equal(threaded.mean_fields[method].pressure,
                              serial.mean_fields[method].pressure)
    assert (threaded.eps_sh, threaded.eps_mh) == (serial.eps_sh, serial.eps_mh)


def test_kappa_definition_per_sample():
    cfg = small_config(M=3, methods=("modified",))
    stats = run_experiment(cfg)
    from snsflow import noise as noise_mod
    grid = noise_mod.NoiseGrid(cfg.noise_n)
    amp = cfg.sigma * np.sqrt(grid.cell_volume)
    expected = [noise_mod.noise_l2_norm(
        noise_mod.sample_noise(grid, amp, noise_mod.substream_key(cfg.base_seed, k)))
        / stats.forcing_norm for k in range(3)]
    assert np.allclose(stats.kappa_samples, expected, rtol=1e-12)
    assert stats.kappa_mean == pytest.approx(np.mean(expected), rel=1e-12)
    assert np.all(stats.kappa_samples >= 0)


def test_reports_cover_every_sample_and_method():
    cfg = small_config(M=3)
    stats = run_experiment(cfg)
    rows = [r for r in stats.reports if r.sample_id >= 0]
    assert len(rows) == 3 * len(cfg.methods)
    assert {r.method for r in rows} == set(cfg.methods)


def test_diagnostics_thresholds_and_expected_kappa():
    cfg = small_config(sigma=1.5, mesh_n=12, noise_n=12)
    diag = diagnostics(cfg)
    assert isinstance(diag, Diagnostics)
    # the reference experiment deliberately violates the small-data conditions
    assert diag.indicator == pytest.approx(mf.forcing_l2_norm(0.02) / 0.02 ** 2, rel=1e-12)
    assert not diag.splitting_ok and not diag.modified_ok
    # expected kappa ~ 0.2146 * sigma on the 12x12 grid
    assert diag.expected_kappa == pytest.approx(0.2146 * 1.5, rel=2e-3)


def test_diagnostics_quarters_under_viscosity_doubling():
    d1 = diagnostics(small_config(nu=0.02))
    d2 = diagnostics(small_config(nu=0.04))
    ratio = d2.indicator / d1.indicator
    assert ratio <= 0.5  # affine-in-nu numerator over nu^2
    assert ratio >= 1.0 / 8.0


def test_diagnostics_zero_forcing_passes_both():
    from snsflow.uq import MODIFIED_SMALLNESS_THRESHOLD, SPLITTING_SMALLNESS_THRESHOLD
    # indicator 0 sits below both thresholds
    assert 0.0 <= MODIFIED_SMALLNESS_THRESHOLD <= SPLITTING_SMALLNESS_THRESHOLD
    diag = Diagnostics(indicator=0.0,
                       splitting_threshold=SPLITTING_SMALLNESS_THRESHOLD,
                       modified_threshold=MODIFIED_SMALLNESS_THRESHOLD,
                       splitting_ok=True, modified_ok=True, expected_kappa=0.0)
    assert diag.splitting_ok and diag.modified_ok


def test_csv_writers(tmp_path):
    cfg = small_config(M=2)
    stats = run_experiment(cfg)
    stats_path = tmp_path / "stats.csv"
    uq.write_stats_csv(str(stats_path), [stats])
    lines = stats_path.read_text().strip().splitlines()
    assert lines[0] == "method,sigma,M,epsilon,epsilon_rel,kappa_mean,failures"
    assert len(lines) == 1 + len(cfg.methods)

    samples_path = tmp_path / "samples.csv"
    uq.write_samples_csv(str(samples_path), stats.reports)
    sample_lines = samples_path.read_text().strip().splitlines()
    assert sample_lines[0] == "method,sample_id,converged,iterations,final_residual"
    assert len(sample_lines) == 1 + len(stats.reports)

    field_path = tmp_path / "field_split.csv"
    uq.write_field_csv(str(field_path), stats.mean_fields["split"])
    field_lines = field_path.read_text().strip().splitlines()
    assert field_lines[0] == "x,y,u1,u2,umag"
    dofs = stats.mean_fields["split"].dofs
    assert len(field_lines) == 1 + dofs.n_scalar_nodes
    assert not list(tmp_path.glob(".tmp_*"))  # atomic writes leave no droppings


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_modified_factorizes_once_per_experiment(monkeypatch):
    counts: dict[str, int] = {}
    _counting(monkeypatch, spla, "splu", counts)
    _counting(monkeypatch, assembly, "assemble_convection_linearized", counts)
    per_m = {}
    for samples in (1, 8):
        counts.clear()
        stats = run_experiment(small_config(M=samples, methods=("modified",)))
        assert stats.converged_counts["modified"] == samples
        per_m[samples] = dict(counts)
    assert per_m[1] == per_m[8]
    assert set(per_m[1]) == {"splu", "assemble_convection_linearized"}


def test_residual_failure_in_one_column_fails_only_that_sample(monkeypatch):
    real_splu = spla.splu

    class CorruptThirdColumn:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            if x.ndim == 2 and x.shape[1] > 1:
                x[:, 2] *= 1.001
            return x

    monkeypatch.setattr(spla, "splu", lambda m, *a, **kw: CorruptThirdColumn(real_splu(m)))
    stats = run_experiment(small_config(M=4, methods=("modified",)))
    by_sample = {r.sample_id: r for r in stats.reports if r.method == "modified"}
    assert stats.failed_counts["modified"] == 1
    assert not by_sample[2].converged and "residual" in by_sample[2].failure
    assert all(by_sample[k].converged for k in (0, 1, 3))


def test_exception_in_one_sample_is_a_failed_report(monkeypatch):
    real_full = solvers.solve_stochastic_full
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("boom")
        return real_full(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_stochastic_full", flaky)
    stats = run_experiment(small_config(M=3, methods=("monolithic", "split")))
    split = {r.sample_id: r for r in stats.reports if r.method == "split"}
    assert not split[1].converged and "boom" in split[1].failure
    assert split[0].converged and split[2].converged
    assert stats.failed_counts == {"monolithic": 0, "split": 1}
    assert stats.converged_counts["split"] == 2


def test_split_adds_no_factorization_per_sample(monkeypatch):
    counts: dict[str, int] = {}
    _counting(monkeypatch, spla, "splu", counts)
    per_m = {}
    for samples in (1, 8):
        counts.clear()
        stats = run_experiment(small_config(M=samples, sigma=1.6))
        assert stats.converged_counts == {m: samples for m in uq.METHODS}
        newton = [r for r in stats.reports if r.method in ("monolithic", "split")]
        assert len(newton) == 2 * samples
        assert all(r.inner_iterations > 0 and r.fallbacks == 0 for r in newton)
        per_m[samples] = counts["splu"]
    assert per_m[1] == per_m[8]


def test_monolithic_is_newton_krylov_only_from_the_deterministic_start():
    for start, krylov in (("deterministic", True), ("zero", False)):
        cfg = small_config(M=2, sigma=1.6, mono_init=start, methods=("monolithic",))
        mono = [r for r in run_experiment(cfg).reports if r.method == "monolithic"]
        assert len(mono) == cfg.M and all(r.converged for r in mono)
        # a zero start is far from K(xi), so it stays direct Newton
        assert all((r.inner_iterations > 0) == krylov and r.fallbacks == 0 for r in mono)


@pytest.mark.parametrize("methods, mono_init, max_iter, builds", [
    (("monolithic",), "zero", 25, 0),
    (("monolithic",), "deterministic", 25, 1),
    (("split", "modified"), "deterministic", 25, 1),
    (("split", "modified"), "deterministic", 2, 0),   # xi fails: nothing uses K(xi)
    (uq.METHODS, "deterministic", 2, 1),   # monolithic still starts from xi
])
def test_k_xi_is_built_only_for_methods_that_use_it(monkeypatch, methods, mono_init,
                                                    max_iter, builds):
    made = []
    real = solvers.LinearizedOperator

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(solvers, "LinearizedOperator", recorded)
    run_experiment(small_config(M=2, methods=methods, mono_init=mono_init,
                                newton=NewtonConfig(max_iter=max_iter)))
    assert len(made) == builds


def test_failed_deterministic_solve_fails_every_splitting_sample_unsolved(monkeypatch):
    counts: dict[str, int] = {}
    _counting(monkeypatch, spla, "splu", counts)
    cfg = small_config(M=3, newton=NewtonConfig(max_iter=2))
    stats = run_experiment(cfg)
    xi_report = stats.reports[0]
    assert xi_report.method == "deterministic" and not xi_report.converged
    assert stats.failed_counts["split"] == stats.failed_counts["modified"] == cfg.M
    reason = f"deterministic solve failed: {xi_report.failure}"
    for rep in stats.reports[1:]:
        if rep.method == "monolithic":   # started from xi, judged on its own residual
            assert rep.iterations > 0 and not rep.failure.startswith("deterministic")
        else:
            assert rep.failure == reason and rep.iterations == 0
    # the Stokes start, the deterministic steps, K(xi) and the monolithic fallbacks
    mono_fallbacks = sum(r.fallbacks for r in stats.reports if r.method == "monolithic")
    assert counts["splu"] == 1 + xi_report.fallbacks + 1 + mono_fallbacks


@pytest.mark.parametrize("nu, sigma", [(1e300, 1.0), (1e-300, 1.0), (0.02, 1e300)])
def test_extreme_physics_fails_the_samples_with_a_reason(nu, sigma):
    with np.errstate(all="ignore"):
        stats = run_experiment(small_config(M=2, nu=nu, sigma=sigma))
    samples = [r for r in stats.reports if r.method != "deterministic"]
    assert len(samples) == 2 * len(uq.METHODS)
    assert all(not r.converged and r.failure for r in samples)
    assert stats.failed_counts == {m: 2 for m in uq.METHODS}


def _row_by_row_field_text(fld: FEField) -> str:
    coords, nn = fld.dofs.node_coords, fld.dofs.n_scalar_nodes
    u1, u2 = fld.velocity[:nn], fld.velocity[nn:]
    lines = ["x,y,u1,u2,umag"]
    lines += [f"{c[0]:.17g},{c[1]:.17g},{a:.17g},{b:.17g},{m:.17g}"
              for c, a, b, m in zip(coords, u1, u2, np.hypot(u1, u2))]
    return "\n".join(lines) + "\n"


def test_field_csv_bytes_equal_the_row_by_row_text(tmp_path):
    dofs = build_dof_map(build_structured_mesh(3))
    awkward = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -2.5, 1 / 3,
               np.pi, float("inf"), float("nan")]
    velocity = np.random.default_rng(3).standard_normal(dofs.n_velocity_dofs)
    velocity[:len(awkward)] = awkward
    velocity[dofs.n_scalar_nodes:dofs.n_scalar_nodes + len(awkward)] = awkward[::-1]
    fld = FEField(velocity, np.zeros(dofs.n_pressure_dofs), dofs)
    path = tmp_path / "field.csv"
    uq.write_field_csv(str(path), fld)
    assert path.read_bytes() == _row_by_row_field_text(fld).encode()
