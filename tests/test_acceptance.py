"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Machine-precision statistics (the splitting-equivalence error) are asserted as
floors (<= 1e-10), not exact digits. Expensive Monte Carlo runs are shared
through module-scoped fixtures; every tolerance is pinned here, none deferred.
"""

import time

import numpy as np
import pytest

from snsflow import manufactured as mf, noise as noise_mod, uq
from snsflow.checks import (
    convergence_study,
    divergence_free_velocity_fields,
    splitting_equivalence_max_defect,
    trilinear_identity_defects,
)
from snsflow.mesh import build_dof_map, build_structured_mesh
from snsflow.uq import McConfig, run_experiment

BASE_SEED = 20240901
SWEEP_SIGMAS = (0.8, 1.6, 2.4, 3.2, 4.0)

_lines = []


def _setup(cfg, mono_init="deterministic"):
    """The set-up that ``snsflow mc`` builds for ``cfg``."""
    return uq.prepare(build_dof_map(build_structured_mesh(cfg.mesh_n)), cfg.nu, cfg.methods,
                      mono_init)


def _run(cfg, jobs=1, mono_init="deterministic"):
    return run_experiment(_setup(cfg, mono_init), cfg, jobs)


def record(name: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    _lines.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def sweep():
    """sigma -> (stats, wall seconds) at M=200 on the n=12 reference setup."""
    out = {}
    for sigma in SWEEP_SIGMAS:
        cfg = McConfig(M=200, base_seed=BASE_SEED, sigma=sigma, nu=0.02,
                       mesh_n=12, noise_n=12,
                       methods=("monolithic", "split", "modified"))
        t0 = time.perf_counter()
        out[sigma] = (_run(cfg), time.perf_counter() - t0)
    return out


def test_criterion_1_splitting_equivalence():
    t0 = time.perf_counter()
    defect = splitting_equivalence_max_defect(n=12, sigma=1.5, samples=10,
                                              seed=BASE_SEED)
    elapsed = time.perf_counter() - t0
    record("1 splitting-equivalence",
           defect <= 1e-10 and elapsed < 120.0,
           f"max per-sample rel diff {defect:.3e} <= 1e-10, {elapsed:.0f}s < 120s")


def test_criterion_2_modified_error_magnitude(sweep):
    stats16, elapsed = sweep[1.6]
    eps_mh16, eps_mh16_rel = stats16.errors["modified"]
    in_window = 2e-4 <= eps_mh16 <= 5e-3
    rel_window = 2e-4 <= eps_mh16_rel <= 5e-3  # within factor 5 of 1e-3
    stats24, _ = sweep[2.4]  # the kappa ~= 0.51 operating point
    eps_mh24 = stats24.errors["modified"][0]
    kappa_pt = 2e-4 <= eps_mh24 <= 5e-3
    record("2 modified-error-magnitude",
           in_window and rel_window and kappa_pt and elapsed < 600.0,
           f"eps_mh(sigma=1.6)={eps_mh16:.3e} rel={eps_mh16_rel:.3e} "
           f"kappa={stats16.kappa_mean:.3f}; eps_mh(kappa~0.51)={eps_mh24:.3e} "
           f"kappa={stats24.kappa_mean:.3f}; {elapsed:.0f}s < 600s")


def test_criterion_3_sigma_scaling_trend(sweep):
    eps = {s: sweep[s][0].errors["modified"][0] for s in SWEEP_SIGMAS}
    monotone = all(eps[a] < eps[b] for a, b in zip(SWEEP_SIGMAS, SWEEP_SIGMAS[1:]))
    ratios = {(a, 2 * a): eps[2 * a] / eps[a]
              for a in SWEEP_SIGMAS if 2 * a in eps}
    ratios_ok = all(2.5 <= r <= 7.0 for r in ratios.values())
    record("3 sigma-scaling-trend", monotone and ratios_ok,
           "eps_mh=" + ",".join(f"{eps[s]:.3e}" for s in SWEEP_SIGMAS)
           + " doubling-ratios=" + ",".join(f"{k}:{v:.2f}" for k, v in ratios.items()))


def test_criterion_4_robustness_at_sigma_8():
    cfg = McConfig(M=50, base_seed=BASE_SEED + 1, sigma=8.0, nu=0.02,
                   mesh_n=12, noise_n=12, methods=("monolithic", "split"))
    stats = _run(cfg, mono_init="zero")  # must survive non-convergences
    converged = {m: sum(r.converged for r in stats.reports if r.method == m)
                 for m in cfg.methods}
    split_rate = converged["split"] / cfg.M
    accounted = all(converged[m] + stats.failed_counts[m] == cfg.M for m in cfg.methods)
    eps_sh = stats.errors.get("split", (None, None))[0]
    floor_ok = eps_sh is not None and eps_sh <= 1e-10
    record("4 robustness-sigma-8",
           split_rate >= 0.95 and floor_ok and accounted,
           f"split converged {converged['split']}/{cfg.M}, "
           f"eps_sh={eps_sh:.3e} <= 1e-10, "
           f"monolithic-from-zero failures={stats.failed_counts['monolithic']} recorded")


def test_criterion_5_manufactured_convergence():
    t0 = time.perf_counter()
    study = convergence_study(ns=(4, 8, 16), nu=0.02)
    elapsed = time.perf_counter() - t0
    v_ok = min(study["velocity_orders"]) >= 2.5
    p_ok = min(study["pressure_orders"]) >= 1.5
    record("5 manufactured-convergence",
           v_ok and p_ok and elapsed < 120.0,
           f"velocity orders {['%.2f' % o for o in study['velocity_orders']]} >= 2.5, "
           f"pressure orders {['%.2f' % o for o in study['pressure_orders']]} >= 1.5, "
           f"{elapsed:.0f}s < 120s")


def test_criterion_6_trilinear_identity_suite():
    rng = np.random.default_rng(606)
    worst_skew = worst_annih = 0.0
    dims = {}
    for n in (2, 4, 8):
        mesh = build_structured_mesh(n)
        dofs = build_dof_map(mesh)
        fields, dim = divergence_free_velocity_fields(dofs, 20, seed=n)
        dims[n] = dim
        for w in fields:
            if not np.any(w):
                continue  # n=2: the constrained space is empty, w = 0
            skew, annih = trilinear_identity_defects(dofs, w, rng)
            worst_skew = max(worst_skew, skew)
            worst_annih = max(worst_annih, annih)
    record("6 trilinear-identities",
           worst_skew <= 1e-11 and worst_annih <= 1e-11,
           f"skew defect {worst_skew:.2e} <= 1e-11, "
           f"self-annihilation {worst_annih:.2e} <= 1e-11, space dims {dims}")


def test_criterion_7_noise_statistics():
    draws = np.array([noise_mod.sample_noise(2, noise_mod.substream_key(5, k))
                      for k in range(10_000)])
    flat = draws.reshape(len(draws), -1)
    mean_max = float(np.abs(flat.mean(axis=0)).max())
    var = flat.var(axis=0, ddof=1)
    cov = np.cov(flat.T)
    off_max = float(np.abs(cov - np.diag(np.diag(cov))).max())
    record("7 noise-statistics",
           mean_max <= 0.03 and var.min() >= 0.95 and var.max() <= 1.05
           and off_max <= 0.03,
           f"mean {mean_max:.3f} within 0.03, variance "
           f"[{var.min():.3f},{var.max():.3f}] in [0.95,1.05], "
           f"cross-cell covariance {off_max:.3f} within 0.03")


def test_criterion_8_deterministic_mean_closeness():
    closeness = []
    for sigma in (0.4, 0.8, 1.6):
        cfg = McConfig(M=1000, base_seed=BASE_SEED, sigma=sigma, nu=0.02,
                       mesh_n=8, noise_n=8, methods=("monolithic",))
        setup = _setup(cfg)
        stats = run_experiment(setup, cfg)
        closeness.append(mf.l2_error(setup.xi, stats.mean_fields["monolithic"]))
    monotone = closeness[0] < closeness[1] < closeness[2]

    cfg = McConfig(M=100, base_seed=BASE_SEED, sigma=1.5, nu=0.02,
                   mesh_n=12, noise_n=12, methods=("monolithic",))
    setup = _setup(cfg)
    stats, xi = run_experiment(setup, cfg), setup.xi
    ratio = (mf.l2_error(xi, stats.mean_fields["monolithic"])
             / mf.velocity_l2_norm(xi.dofs, xi.velocity))
    record("8 mean-closeness",
           monotone and ratio < 0.1,
           "closeness=" + ",".join(f"{c:.3e}" for c in closeness)
           + f" monotone; ratio at sigma=1.5 M=100 {ratio:.3f} < 0.1")


def test_criterion_9_determinism_across_jobs():
    cfg = McConfig(M=16, base_seed=BASE_SEED, sigma=1.5, nu=0.02,
                   mesh_n=8, noise_n=8,
                   methods=("monolithic", "split", "modified"))
    a = _run(cfg, jobs=1)
    b = _run(cfg, jobs=8)
    worst = 0.0
    for method in cfg.methods:
        worst = max(worst, float(np.abs(a.mean_fields[method].velocity
                                        - b.mean_fields[method].velocity).max()))
    record("9 determinism-across-jobs", worst <= 1e-13,
           f"max mean-field difference jobs=1 vs jobs=8 is {worst:.1e} <= 1e-13")
