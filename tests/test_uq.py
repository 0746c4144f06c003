import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from snsflow import assembly, checks, manufactured as mf, solvers, uq
from snsflow.mesh import build_dof_map, build_structured_mesh
from snsflow.solvers import FEField
from snsflow.uq import McConfig, diagnostics, error_statistics, run_experiment


def _converged(stats, method):
    """The number of samples ``method`` converged on, read from the reports."""
    return sum(r.converged for r in stats.reports if r.method == method)


def _csv_row(rep):
    """The samples.csv row of ``rep``, as ``uq.write_samples_csv`` formats it."""
    return (f"{rep.method},{rep.sample_id},{int(rep.converged)},"
            f"{rep.iterations},{rep.final_residual:.6e}")


def small_config(**kw):
    base = dict(M=3, base_seed=11, sigma=1.0, nu=0.02, mesh_n=4, noise_n=4)
    base.update(kw)
    return McConfig(**base)


def _setup(cfg, mono_init="deterministic"):
    """The set-up that ``snsflow mc`` builds for ``cfg``."""
    return uq.prepare(build_dof_map(build_structured_mesh(cfg.mesh_n)), cfg.nu, cfg.methods,
                      mono_init)


def _run(cfg, jobs=1, mono_init="deterministic"):
    return run_experiment(_setup(cfg, mono_init), cfg, jobs)


@pytest.mark.parametrize("nu, sigma", [(float("inf"), 1.0), (0.02, float("inf")),
                                       (0.02, float("nan"))])
def test_non_finite_physics_rejected(nu, sigma):
    if not np.isfinite(nu):
        with pytest.raises(ValueError):
            assembly.assemble_viscous(build_dof_map(build_structured_mesh(2)), nu)
    with pytest.raises(ValueError):
        small_config(nu=nu, sigma=sigma)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(M=0)
    with pytest.raises(ValueError):
        small_config(methods=())
    with pytest.raises(ValueError):
        small_config(methods=("bogus",))
    with pytest.raises(ValueError):
        small_config(methods=("split", "split"))
    with pytest.raises(ValueError):
        small_config(mesh_n=4, noise_n=3)
    with pytest.raises(ValueError):
        uq.prepare(build_dof_map(build_structured_mesh(2)), 0.02, mono_init="stokes")
    with pytest.raises(ValueError):
        small_config(sigma=-1.0)


def test_zero_amplitude_collapses_to_deterministic():
    cfg = small_config(M=1, sigma=0.0)
    setup = _setup(cfg)
    stats, xi = run_experiment(setup, cfg), setup.xi
    assert stats.errors["split"][0] == 0.0 and stats.errors["modified"][0] == 0.0
    for method in uq.METHODS:
        mean = stats.mean_fields[method]
        assert np.abs(mean.velocity - xi.velocity).max() <= 1e-12
    assert mf.l2_error(xi, stats.mean_fields["monolithic"]) <= 1e-12


def test_error_statistics_identical_means():
    dofs = build_dof_map(build_structured_mesh(3))
    fld = FEField.zeros(dofs)
    fld.velocity[:] = 1.0
    eps, rel = error_statistics(fld, FEField(fld.values.copy(), dofs))
    assert eps == 0.0 and rel == 0.0


def test_error_statistics_zero_method_mean_against_interpolant():
    dofs = build_dof_map(build_structured_mesh(6))
    ref = FEField.zeros(dofs)
    ref.velocity[:] = mf.interpolate_velocity(dofs, mf.exact_velocity)
    eps, rel = error_statistics(FEField.zeros(dofs), ref)
    assert eps == pytest.approx(mf.velocity_l2_norm(dofs, ref.velocity), rel=1e-12)
    assert rel == pytest.approx(1.0, rel=1e-12)


def test_error_statistics_zero_reference_is_nan_sentinel():
    dofs = build_dof_map(build_structured_mesh(2))
    some = FEField.zeros(dofs)
    some.velocity[:] = 1.0
    eps, rel = error_statistics(some, FEField.zeros(dofs))
    assert eps > 0 and np.isnan(rel)


def test_two_sample_mean_against_direct_average():
    cfg = small_config(M=2, methods=("monolithic",))
    stats = _run(cfg)
    # recompute by running the two samples by hand through the same solvers
    from snsflow import assembly, noise as noise_mod, solvers
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops = solvers.assemble_operators(dofs, cfg.nu)
    load = assembly.assemble_load(dofs, lambda x, y: mf.exact_forcing(x, y, cfg.nu))
    xi, _ = solvers.solve_deterministic_ns(ops, load)
    k_xi = solvers.linearized_operator(ops, xi)   # shared by the samples, as in the run
    amp = cfg.sigma * np.sqrt(1.0 / cfg.noise_n ** 2)
    acc = np.zeros(dofs.n_velocity_dofs)
    for k in range(2):
        zeta = noise_mod.sample_noise(cfg.noise_n, noise_mod.substream_key(cfg.base_seed, k))
        [nl] = assembly.assemble_noise_load(dofs, cfg.noise_n, amp, zeta[None]).T
        # started at xi + eta_mod, as in the run
        [(eta, mod)] = solvers.solve_stochastic_modified(ops, k_xi, nl[:, None])
        fld, rep = solvers.solve_monolithic(ops, load, nl, initial_guess=xi + eta, k_xi=k_xi)
        assert mod.converged and rep.converged
        acc += fld.velocity
    assert np.abs(stats.mean_fields["monolithic"].velocity - acc / 2).max() <= 1e-14


def test_exclusion_accounting_under_forced_failures(monkeypatch):
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 2)
    cfg = small_config(M=4, sigma=40.0, methods=("monolithic", "split"))
    stats = _run(cfg, mono_init="zero")
    for method in cfg.methods:
        assert _converged(stats, method) + stats.failed_counts[method] == cfg.M
    assert stats.failed_counts["monolithic"] == cfg.M  # 2 iterations cannot reach 1e-12
    assert "monolithic" not in stats.mean_fields  # nothing converged to average


def _assert_same_results(a, b):
    for method in a.config.methods:
        assert np.array_equal(a.mean_fields[method].velocity,
                              b.mean_fields[method].velocity)
        assert np.array_equal(a.mean_fields[method].pressure,
                              b.mean_fields[method].pressure)
    assert a.errors == b.errors
    assert a.kappa_mean == b.kappa_mean
    assert [_csv_row(r) for r in a.reports] == [_csv_row(r) for r in b.reports]


# three chunks, the last one short
CHUNKED_M = 2 * uq.CHUNK + 3


def test_reproducibility_and_jobs_independence():
    cfg = small_config(M=CHUNKED_M)
    _assert_same_results(_run(cfg, jobs=1), _run(cfg, jobs=4))


def test_noise_loads_are_drawn_one_chunk_at_a_time(monkeypatch):
    cfg = small_config(M=CHUNKED_M, methods=("modified",))
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops = uq.prepare(dofs, cfg.nu).ops
    _, norms = uq.noise_loads(cfg, ops, range(cfg.M))
    real = uq.noise_loads
    asked = []

    def spy(cfg, ops, samples):
        asked.append(list(samples))
        return real(cfg, ops, samples)

    monkeypatch.setattr(uq, "noise_loads", spy)
    stats = _run(cfg)
    assert max(len(ks) for ks in asked) <= uq.CHUNK
    assert [k for ks in asked for k in ks] == list(range(cfg.M))
    assert stats.kappa_mean == float(np.mean(norms / mf.forcing_l2_norm(cfg.nu)))


# n=4: a sample of the third of three chunks; n=12: the last sample of a
# short last chunk, whose Newton starts come from a padded modified block
@pytest.mark.parametrize("mesh_n, samples, k", [(4, CHUNKED_M, 2 * uq.CHUNK + 1),
                                                (12, uq.CHUNK + 3, uq.CHUNK + 2)])
def test_a_third_chunk_sample_matches_its_own_solve(monkeypatch, mesh_n, samples, k):
    cfg = small_config(M=samples, mesh_n=mesh_n)
    real = uq.solve_sample
    seen = {}

    def spy(setup, methods, loads, first, map=map):
        out = real(setup, methods, loads, first, map=map)
        if first <= k < first + loads.shape[1]:
            seen.update({m: (results[k - first], setup) for m, results in out.items()})
        return out

    monkeypatch.setattr(uq, "solve_sample", spy)
    _run(cfg)
    assert set(seen) == set(uq.METHODS)
    for method, ((fld, rep), setup) in seen.items():
        column, _ = uq.noise_loads(cfg, setup.ops, [k])
        [(own, own_rep)] = real(setup, [method], column, k)[method]
        assert rep.converged and own_rep.sample_id == rep.sample_id == k
        got, want = (np.concatenate([f.velocity, f.pressure]) for f in (fld, own))
        assert np.array_equal(got, want)
        assert _csv_row(rep) == _csv_row(own_rep)


def test_a_modified_sample_does_not_depend_on_the_width_of_its_chunk(monkeypatch):
    # sample 49 sits in the short last chunk (48, 49) at M=50 and in a full
    # chunk at M=64; unpadded, the two block widths round it differently
    k, real, seen = 49, uq.solve_sample, {}
    for samples in (50, 64):
        def spy(setup, methods, loads, first, map=map):
            out = real(setup, methods, loads, first, map=map)
            if "modified" in out and first <= k < first + loads.shape[1]:
                seen[samples] = out["modified"][k - first]
            return out

        with monkeypatch.context() as patch:
            patch.setattr(uq, "solve_sample", spy)
            _run(small_config(M=samples, base_seed=1, sigma=1.6, mesh_n=12,
                              noise_n=12, methods=("modified",)))
    (fld_50, rep_50), (fld_64, rep_64) = seen[50], seen[64]
    assert rep_50.converged and _csv_row(rep_50) == _csv_row(rep_64)
    assert np.array_equal(fld_50.velocity, fld_64.velocity)
    assert np.array_equal(fld_50.pressure, fld_64.pressure)


def test_modified_peak_memory_is_flat_in_the_sample_count():
    peaks = {}
    for samples in (uq.CHUNK, 6 * uq.CHUNK):
        tracemalloc.start()
        try:
            _run(small_config(M=samples, mesh_n=8, methods=("modified",)))
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one (n_u, M) load block alone would add 5 * CHUNK * 578 * 8 bytes = 370 kB
    assert peaks[6 * uq.CHUNK] - peaks[uq.CHUNK] <= 192 * 1024


def test_pool_threads_are_bounded_by_the_chunk(monkeypatch):
    cfg = small_config(M=uq.CHUNK + 3)
    serial = _run(cfg, jobs=1)
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
    _assert_same_results(serial, _run(cfg, jobs=10 ** 6))
    assert sizes == [uq.CHUNK]


def test_a_run_builds_one_element_geometry_per_dof_map(monkeypatch):
    # every kernel reads DofMap.geometry; n=24 is grid-sequenced through
    # n=12, so the set-up builds two dof maps and two degree-5 geometries,
    # and the run on it builds none
    built, init = [], assembly.ElementGeometry.__init__

    def counted(self, mesh, *args):
        built.append(mesh.n)
        init(self, mesh, *args)

    monkeypatch.setattr(assembly.ElementGeometry, "__init__", counted)
    cfg = McConfig(M=2, mesh_n=24, noise_n=12, sigma=1.6)
    setup = _setup(cfg)
    assert sorted(built) == [12, 24]
    stats = run_experiment(setup, cfg)
    assert sorted(built) == [12, 24]
    dofs = stats.mean_fields["monolithic"].dofs
    assert dofs is setup.ops.dofs
    assert dofs.geometry.rule.degree == 5 and dofs.mesh.n == 24


def test_noise_loads_match_per_draw_assembly():
    from snsflow import noise as noise_mod
    cfg = small_config(noise_n=2)
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops = solvers.assemble_operators(dofs, cfg.nu)
    samples = [0, 3, 7]
    loads, norms = uq.noise_loads(cfg, ops, samples)
    assert loads.shape == (dofs.n_velocity_dofs, 3) and norms.shape == (3,)
    amp = cfg.sigma * np.sqrt(1.0 / cfg.noise_n ** 2)
    for j, k in enumerate(samples):
        zeta = noise_mod.sample_noise(cfg.noise_n, noise_mod.substream_key(cfg.base_seed, k))
        expected = assembly.assemble_noise_load(dofs, cfg.noise_n, amp, zeta[None])
        assert np.array_equal(loads[:, j:j + 1], expected)
        assert norms[j] == noise_mod.noise_l2_norm(amp, zeta)


def test_reduction_follows_sample_order_not_arrival_order(monkeypatch):
    cfg = small_config(M=4)
    serial = _run(cfg, jobs=1)
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops = uq.prepare(dofs, cfg.nu).ops
    loads, _ = uq.noise_loads(cfg, ops, range(cfg.M))
    real_solve = solvers.solve_stochastic_full
    done = [threading.Event() for _ in range(cfg.M)]
    arrival = []

    def reversed_finish(ops, k_xi, noise_load, start=None):
        # the last Newton solve of a sample's task, which solve_sample runs
        # one column per task on the pool
        result = real_solve(ops, k_xi, noise_load, start)
        k = next(j for j in range(cfg.M) if np.array_equal(loads[:, j], noise_load))
        if k + 1 < cfg.M:
            assert done[k + 1].wait(timeout=60)
        arrival.append(k)
        done[k].set()
        return result

    monkeypatch.setattr(solvers, "solve_stochastic_full", reversed_finish)
    threaded = _run(cfg, jobs=4)
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
    assert threaded.errors == serial.errors


def test_kappa_definition_per_sample():
    cfg = small_config(M=3, methods=("modified",))
    stats = _run(cfg)
    from snsflow import noise as noise_mod
    amp = cfg.sigma * np.sqrt(1.0 / cfg.noise_n ** 2)
    expected = [noise_mod.noise_l2_norm(
        amp, noise_mod.sample_noise(cfg.noise_n, noise_mod.substream_key(cfg.base_seed, k)))
        / mf.forcing_l2_norm(cfg.nu) for k in range(3)]
    assert stats.kappa_mean == pytest.approx(np.mean(expected), rel=1e-12)


def test_reports_cover_every_sample_and_method():
    cfg = small_config(M=3)
    stats = _run(cfg)
    rows = [r for r in stats.reports if r.sample_id >= 0]
    assert len(rows) == 3 * len(cfg.methods)
    assert {r.method for r in rows} == set(cfg.methods)


def test_diagnostics_thresholds_and_expected_kappa():
    cfg = small_config(sigma=1.5, mesh_n=12, noise_n=12)
    indicator, expected_kappa = diagnostics(cfg)
    # the reference experiment deliberately violates the small-data conditions
    assert indicator == pytest.approx(mf.forcing_l2_norm(0.02) / 0.02 ** 2, rel=1e-12)
    assert not indicator <= uq.SPLITTING_SMALLNESS_THRESHOLD
    assert not indicator <= uq.MODIFIED_SMALLNESS_THRESHOLD
    # expected kappa ~ 0.2146 * sigma on the 12x12 grid
    assert expected_kappa == pytest.approx(0.2146 * 1.5, rel=2e-3)
    # the printed line, byte for byte, with both truth values of each flag
    lines = {
        McConfig(M=1):
            "indicator=16473.2 splitting_threshold=0.875 splitting_ok=False "
            "modified_threshold=0.625 modified_ok=False expected_kappa=0.3217",
        McConfig(M=1, nu=100.0, sigma=1.6):
            "indicator=0.632027 splitting_threshold=0.875 splitting_ok=True "
            "modified_threshold=0.625 modified_ok=False expected_kappa=0.0004",
        McConfig(M=1, nu=1000.0, sigma=1.6):
            "indicator=0.0632027 splitting_threshold=0.875 splitting_ok=True "
            "modified_threshold=0.625 modified_ok=True expected_kappa=0.0000",
    }
    for line_cfg, line in lines.items():
        assert checks.diagnostics_line(line_cfg) == line


def test_diagnostics_quarters_under_viscosity_doubling():
    i1, _ = diagnostics(small_config(nu=0.02))
    i2, _ = diagnostics(small_config(nu=0.04))
    ratio = i2 / i1
    assert ratio <= 0.5  # affine-in-nu numerator over nu^2
    assert ratio >= 1.0 / 8.0


def test_diagnostics_zero_forcing_passes_both():
    from snsflow.uq import MODIFIED_SMALLNESS_THRESHOLD, SPLITTING_SMALLNESS_THRESHOLD
    # indicator 0 sits below both thresholds
    assert 0.0 <= MODIFIED_SMALLNESS_THRESHOLD <= SPLITTING_SMALLNESS_THRESHOLD


def test_csv_writers(tmp_path):
    cfg = small_config(M=2)
    stats = _run(cfg)
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
        stats = _run(small_config(M=samples, methods=("modified",)))
        assert _converged(stats, "modified") == samples
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
    stats = _run(small_config(M=4, methods=("modified",)))
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
    stats = _run(small_config(M=3, methods=("monolithic", "split")))
    split = {r.sample_id: r for r in stats.reports if r.method == "split"}
    assert not split[1].converged and "boom" in split[1].failure
    assert split[0].converged and split[2].converged
    assert stats.failed_counts == {"monolithic": 0, "split": 1}
    assert _converged(stats, "split") == 2


def test_split_adds_no_factorization_per_sample(monkeypatch):
    counts: dict[str, int] = {}
    _counting(monkeypatch, spla, "splu", counts)
    per_m = {}
    for samples in (1, 8):
        counts.clear()
        stats = _run(small_config(M=samples, sigma=1.6))
        assert {m: _converged(stats, m) for m in uq.METHODS} == \
            {m: samples for m in uq.METHODS}
        newton = [r for r in stats.reports if r.method in ("monolithic", "split")]
        assert len(newton) == 2 * samples
        assert all(r.inner_iterations > 0 and r.fallbacks == 0 for r in newton)
        per_m[samples] = counts["splu"]
    assert per_m[1] == per_m[8]


def test_monolithic_is_newton_krylov_only_from_the_deterministic_start():
    for start, krylov in (("deterministic", True), ("zero", False)):
        cfg = small_config(M=2, sigma=1.6, methods=("monolithic",))
        mono = [r for r in _run(cfg, mono_init=start).reports if r.method == "monolithic"]
        assert len(mono) == cfg.M and all(r.converged for r in mono)
        # a zero start is far from K(xi), so it stays direct Newton
        assert all((r.inner_iterations > 0) == krylov and r.fallbacks == 0 for r in mono)


def test_the_modified_start_saves_newton_steps(monkeypatch):
    # from zero (split) and from xi (monolithic) every sample of this run
    # took 4 Newton steps, and none fell back to a factorization
    cfg = McConfig(M=16, base_seed=1, sigma=1.6, mesh_n=12, noise_n=12)
    counts: dict[str, int] = {}
    _counting(monkeypatch, solvers, "solve_stochastic_modified", counts)
    stats = _run(cfg)
    split, mono = ([r for r in stats.reports if r.method == m] for m in ("split", "monolithic"))
    assert all(r.converged and r.fallbacks == 0 for r in split + mono)
    assert [r.iterations for r in split] == [r.iterations for r in mono]
    assert sum(r.iterations for r in split) / cfg.M <= 3.2
    # one modified block per chunk serves the modified samples and both
    # Newton starts of each sample
    assert counts["solve_stochastic_modified"] == len(range(0, cfg.M, uq.CHUNK))


def test_a_failed_modified_start_falls_back_to_the_zero_and_xi_starts(monkeypatch):
    cfg = small_config(M=1, sigma=1.6)
    setup = _setup(cfg)
    ops, f_load, xi, k_xi = setup.ops, setup.f_load, setup.xi, setup.k_xi
    loads, _ = uq.noise_loads(cfg, ops, [0])
    real = k_xi.solve

    def failing(rhs):
        x, failures = real(rhs)
        return x, ["solve residual 1.0e+00 exceeds 1.0e-10; system is numerically singular"
                   ] * len(failures)

    monkeypatch.setattr(k_xi, "solve", failing)   # only the shared factor's solves fail
    [(_, rep_mod)] = uq.solve_sample(setup, ["modified"], loads, 0)["modified"]
    assert not rep_mod.converged
    [(split, rep_s)] = uq.solve_sample(setup, ["split"], loads, 0)["split"]
    [(mono, rep_m)] = uq.solve_sample(setup, ["monolithic"], loads, 0)["monolithic"]
    eta, want_s = solvers.solve_stochastic_full(ops, k_xi, loads[:, 0])
    want, want_m = solvers.solve_monolithic(ops, f_load, loads[:, 0], initial_guess=xi,
                                            k_xi=k_xi)
    assert rep_s.converged and rep_m.converged
    assert np.array_equal(split.values, (xi + eta).values)
    assert np.array_equal(mono.values, want.values)
    assert (rep_s.iterations, rep_m.iterations) == (want_s.iterations, want_m.iterations)


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
    real = solvers.linearized_operator

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(solvers, "linearized_operator", recorded)
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", max_iter)
    _run(small_config(M=2, methods=methods), mono_init=mono_init)
    assert len(made) == builds


def test_failed_deterministic_solve_fails_every_splitting_sample_unsolved(monkeypatch):
    counts: dict[str, int] = {}
    _counting(monkeypatch, spla, "splu", counts)
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 2)
    cfg = small_config(M=3)
    stats = _run(cfg)
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
        stats = _run(small_config(M=2, nu=nu, sigma=sigma))
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
    fld = FEField.zeros(dofs)
    fld.velocity[:] = velocity
    path = tmp_path / "field.csv"
    uq.write_field_csv(str(path), fld)
    assert path.read_bytes() == _row_by_row_field_text(fld).encode()


# ---------------------------------------------------------------------------
# grid sequencing of the deterministic solve

def _node_index(dofs, points):
    """Indices of the P2 nodes of ``dofs`` at ``points``."""
    lattice = np.rint(dofs.node_coords * 2 * dofs.mesh.n).astype(np.int64)
    key = {tuple(p): k for k, p in enumerate(lattice)}
    return np.array([key[tuple(p)] for p in np.rint(points * 2 * dofs.mesh.n).astype(np.int64)])


def test_prolongation_keeps_the_coarse_coefficients_bitwise():
    coarse_dofs = build_dof_map(build_structured_mesh(4))
    rng = np.random.default_rng(5)
    coarse = FEField(rng.standard_normal(coarse_dofs.n_velocity_dofs
                                         + coarse_dofs.n_pressure_dofs), coarse_dofs)
    fine_dofs = build_dof_map(build_structured_mesh(8))
    fine = uq.prolongate(coarse, fine_dofs)
    nodes = _node_index(fine_dofs, coarse_dofs.node_coords)
    nn, fine_nn = coarse_dofs.n_scalar_nodes, fine_dofs.n_scalar_nodes
    assert np.array_equal(fine.velocity[nodes], coarse.velocity[:nn])
    assert np.array_equal(fine.velocity[fine_nn + nodes], coarse.velocity[nn:])
    assert np.array_equal(fine.pressure[nodes[:coarse_dofs.n_pressure_dofs]], coarse.pressure)


def test_prolongation_is_exact_on_quadratics():
    def velocity(x, y):
        return 1 + 2 * x - 3 * y + x * x + 0.5 * x * y - y * y, -0.5 + x * y + 2 * y * y

    def pressure(dofs):
        x, y = dofs.mesh.vertices.T
        return 0.25 - x + 3 * y

    coarse_dofs = build_dof_map(build_structured_mesh(6))
    fine_dofs = build_dof_map(build_structured_mesh(12))
    coarse = FEField(np.concatenate([mf.interpolate_velocity(coarse_dofs, velocity),
                                     pressure(coarse_dofs)]), coarse_dofs)
    fine = uq.prolongate(coarse, fine_dofs)
    assert fine.dofs is fine_dofs
    assert np.abs(fine.velocity - mf.interpolate_velocity(fine_dofs, velocity)).max() <= 1e-13
    assert np.abs(fine.pressure - pressure(fine_dofs)).max() <= 1e-13


def test_prolongation_needs_the_halved_mesh():
    with pytest.raises(ValueError):
        uq.prolongate(FEField.zeros(build_dof_map(build_structured_mesh(4))),
                      build_dof_map(build_structured_mesh(6)))


def _stokes_start(n, nu=0.02):
    """Operators, load and the deterministic solve from the Stokes start."""
    dofs = build_dof_map(build_structured_mesh(n))
    ops = solvers.assemble_operators(dofs, nu)
    load = assembly.assemble_load(dofs, lambda x, y: mf.exact_forcing(x, y, nu))
    return dofs, solvers.solve_deterministic_ns(ops, load)


def _unknowns(fld):
    return np.concatenate([fld.velocity, fld.pressure])


@pytest.mark.parametrize("n", [16, 24])
def test_sequenced_solve_matches_the_stokes_start(n):
    dofs, (want, want_report) = _stokes_start(n)
    prepared = uq.prepare(dofs, 0.02)
    xi, report = prepared.xi, prepared.xi_report
    assert report.converged and want_report.converged
    # the coarse start leaves out the Stokes solve and two Newton steps
    assert report.iterations == want_report.iterations - 2
    gap = np.linalg.norm(_unknowns(xi) - _unknowns(want)) / np.linalg.norm(_unknowns(want))
    assert gap <= 1e-10


def _fail_deterministic_solve(monkeypatch, when):
    """Make solvers.solve_deterministic_ns fail whenever ``when(n, started)``,
    ``started`` telling whether an initial guess was given; returns the list
    of (n, started) of its calls."""
    solve, calls = solvers.solve_deterministic_ns, []

    def failing(ops, f_load, initial_guess=None):
        fld, report = solve(ops, f_load, initial_guess)
        calls.append((ops.dofs.mesh.n, initial_guess is not None))
        if when(*calls[-1]):
            report.converged, report.failure = False, "max iterations reached"
        return fld, report

    monkeypatch.setattr(solvers, "solve_deterministic_ns", failing)
    return calls


def _assert_stokes_start(dofs, prepared):
    xi, report = prepared.xi, prepared.xi_report
    _, (want, want_report) = _stokes_start(dofs.mesh.n)
    assert report.converged and report.iterations == want_report.iterations
    assert np.array_equal(_unknowns(xi), _unknowns(want))


def test_a_failed_coarse_solve_falls_back_to_the_stokes_start(monkeypatch):
    calls = _fail_deterministic_solve(monkeypatch, lambda n, started: n == 8)
    dofs = build_dof_map(build_structured_mesh(16))
    prepared = uq.prepare(dofs, 0.02)
    monkeypatch.undo()
    assert calls == [(8, False), (16, False)]
    _assert_stokes_start(dofs, prepared)


def test_a_singular_coarse_solve_falls_back_to_the_stokes_start(monkeypatch):
    solve = solvers.solve_deterministic_ns

    def singular_coarse(ops, f_load, initial_guess=None):
        if ops.dofs.mesh.n == 8:
            raise solvers.SingularSystemError("sparse factorization failed")
        return solve(ops, f_load, initial_guess)

    monkeypatch.setattr(solvers, "solve_deterministic_ns", singular_coarse)
    dofs = build_dof_map(build_structured_mesh(16))
    prepared = uq.prepare(dofs, 0.02)
    monkeypatch.undo()
    _assert_stokes_start(dofs, prepared)


def test_a_failed_solve_from_the_coarse_start_falls_back_to_the_stokes_start(monkeypatch):
    calls = _fail_deterministic_solve(monkeypatch, lambda n, started: n == 16 and started)
    dofs = build_dof_map(build_structured_mesh(16))
    prepared = uq.prepare(dofs, 0.02)
    monkeypatch.undo()
    assert calls == [(8, False), (16, True), (16, False)]
    _assert_stokes_start(dofs, prepared)


@pytest.mark.parametrize("n", [1, 7, 12])
def test_unsequenced_meshes_build_no_coarse_mesh(monkeypatch, n):
    built = []
    monkeypatch.setattr(uq, "build_structured_mesh",
                        lambda m: built.append(m) or build_structured_mesh(m))
    dofs = build_dof_map(build_structured_mesh(n))
    if n == 1:   # exactly singular: the Stokes start raises, as without sequencing
        with pytest.raises(solvers.SingularSystemError):
            uq.prepare(dofs, 0.02)
    else:
        prepared = uq.prepare(dofs, 0.02)
        monkeypatch.undo()
        _assert_stokes_start(dofs, prepared)
    assert built == []
