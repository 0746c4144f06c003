"""Monte Carlo orchestration, error statistics, and smallness diagnostics.

An experiment is one data flow: ``prepare`` assembles the operators and the
body load and solves the deterministic problem once; ``noise_loads`` turns
(seed, sample index) into noise loads, sample k drawn from its own substream
of a counter-based generator; ``solve_sample`` solves a block of those loads
with one method, the one route to the solvers; ``run_experiment`` streams the
samples in fixed chunks of ``CHUNK``, whatever M and the worker count: it
draws a chunk's loads, calls ``solve_sample`` on them for every requested
method, reduces each sample in sample order with compensated summation and
drops the chunk, so peak memory stays flat in M and accumulated means are
bit-identical across worker counts. ``snsflow solve`` takes the same steps
for one sample.

The amplitude convention: ``sigma`` is the per-cell standard deviation of the
piecewise-constant noise forcing, i.e. realizations are sampled with the
white-noise amplitude sigma * sqrt(cell volume). On the default 12x12 grid
this reproduces the reference perturbation ratios kappa ~= 0.215 * sigma.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import exp, isfinite

import numpy as np
from scipy.special import gammaln

from . import assembly, manufactured, noise as noise_mod, solvers
from .ioutil import atomic_write_text
from .mesh import DofMap, build_dof_map, build_structured_mesh
from .solvers import FEField, NewtonConfig, SolveReport

METHODS = ("monolithic", "split", "modified")
SPLITTING_SMALLNESS_THRESHOLD = 7.0 / 8.0
MODIFIED_SMALLNESS_THRESHOLD = 5.0 / 8.0
# samples per chunk of run_experiment: a chunk's loads, modified fields and
# pool tasks are all that is held of its samples at once
CHUNK = 16


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo experiment: physics, discretization, sampling, methods."""

    M: int = 100
    base_seed: int = 20240901
    sigma: float = 1.5
    nu: float = 0.02
    mesh_n: int = 12
    noise_n: int = 12
    methods: tuple[str, ...] = METHODS
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    mono_init: str = "deterministic"   # or "zero" for the stress regime

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"sample count must be >= 1, got M={self.M}")
        if not self.methods:
            raise ValueError("at least one method must be requested")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.mesh_n < 1 or self.noise_n < 1:
            raise ValueError("mesh and noise resolutions must be >= 1")
        if self.mesh_n % self.noise_n != 0:
            raise ValueError(
                f"noise grid must be nested in the FE grid: {self.noise_n} "
                f"does not divide {self.mesh_n}")
        if not (isfinite(self.sigma) and isfinite(self.nu)
                and self.sigma >= 0 and self.nu > 0):
            raise ValueError("need finite sigma >= 0 and nu > 0")
        if self.mono_init not in ("deterministic", "zero"):
            raise ValueError(f"unknown monolithic initial guess {self.mono_init!r}")


@dataclass
class McStats:
    """Accumulated means and the error statistics of one experiment."""

    config: McConfig
    mean_fields: dict[str, FEField]
    eps_sh: float | None
    eps_mh: float | None
    eps_sh_rel: float | None
    eps_mh_rel: float | None
    kappa_samples: np.ndarray
    kappa_mean: float
    converged_counts: dict[str, int]
    failed_counts: dict[str, int]
    reports: list[SolveReport]
    deterministic_field: FEField
    forcing_norm: float


@dataclass(frozen=True)
class Diagnostics:
    """Computable proxy for the small-data conditions, plus the expected kappa.

    ``indicator`` is ||F||_L2 / nu^2 (an L2 stand-in for the dual norm the
    theory uses, so the flags are indicative rather than certifying).
    """

    indicator: float
    splitting_threshold: float
    modified_threshold: float
    splitting_ok: bool
    modified_ok: bool
    expected_kappa: float


class _MeanAccumulator:
    """Compensated (Kahan) sum of fields over [u; p]; deterministic for a fixed
    add order."""

    def __init__(self, dofs: DofMap):
        self.dofs = dofs
        self.count = 0
        self._sum = np.zeros(dofs.n_velocity_dofs + dofs.n_pressure_dofs)
        self._comp = np.zeros_like(self._sum)

    def add(self, fld: FEField) -> None:
        y = np.concatenate([fld.velocity, fld.pressure]) - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t
        self.count += 1

    def mean(self) -> FEField | None:
        if self.count == 0:
            return None
        n_u = self.dofs.n_velocity_dofs
        return FEField(self._sum[:n_u] / self.count, self._sum[n_u:] / self.count,
                       self.dofs)


def _noise_amplitude(cfg: McConfig) -> float:
    return cfg.sigma * np.sqrt(noise_mod.NoiseGrid(cfg.noise_n).cell_volume)


def prepare(dofs: DofMap, nu: float, newton: NewtonConfig | None = None
            ) -> tuple[solvers.AssembledOperators, np.ndarray, FEField, SolveReport]:
    """Operators, body load and deterministic solution xi with its report."""
    ops = solvers.assemble_operators(dofs.mesh, dofs, assembly.ProblemParams(nu=nu))
    f_load = assembly.assemble_load(dofs.mesh, dofs,
                                    lambda x, y: manufactured.exact_forcing(x, y, nu))
    xi, xi_report = solvers.solve_deterministic_ns(ops, f_load, newton)
    return ops, f_load, xi, xi_report


def noise_loads(cfg: McConfig, ops: solvers.AssembledOperators,
                samples) -> tuple[np.ndarray, np.ndarray]:
    """Noise loads (n_u, k) and noise L2 norms (k,) of the given k >= 1 sample
    indices.

    Sample k is the draw of substream (base_seed, k) at the white-noise
    amplitude sigma * sqrt(cell volume). One ``assemble_noise_load`` call
    assembles the block; each column is contiguous, so a sample's solve
    reads its load in place.
    """
    grid = noise_mod.NoiseGrid(cfg.noise_n)
    amplitude = _noise_amplitude(cfg)
    draws = [noise_mod.sample_noise(grid, amplitude,
                                    noise_mod.substream_key(cfg.base_seed, k))
             for k in samples]
    loads = assembly.assemble_noise_load(ops.mesh, ops.dofs, draws, geom=ops.geom)
    return loads, np.array([noise_mod.noise_l2_norm(d) for d in draws])


def _uses_k_xi(method: str, mono_init: str, xi_report: SolveReport) -> bool:
    """Whether ``method`` solves on K(xi): the splittings do around a converged
    xi, and a monolithic solve does when it starts from xi, converged or not
    (from zero its first Jacobian is far from K(xi), so it stays direct
    Newton)."""
    if method == "monolithic":
        return mono_init == "deterministic"
    return xi_report.converged


def _failed(method: str, failure: str) -> SolveReport:
    return SolveReport(False, 0, float("inf"), method=method, failure=failure)


def solve_sample(method: str, ops: solvers.AssembledOperators, xi: FEField,
                 f_load: np.ndarray, noise_loads: np.ndarray, first: int,
                 newton: NewtonConfig, xi_report: SolveReport,
                 mono_init: str = "deterministic",
                 k_xi: solvers.LinearizedOperator | None = None,
                 ) -> list[tuple[FEField, SolveReport]]:
    """Solve a block of noise samples with one method: the only route from a
    method and its loads to the solvers.

    ``noise_loads`` (n_u, k) holds the loads of samples first, ..., first+k-1.
    Returns one (full field, report) pair per column, the report stamped with
    its sample id. Modified solves the whole block at once; split and
    monolithic solve its columns one by one. The splitting methods return xi
    plus their correction. The methods that solve on K(xi) (``_uses_k_xi``)
    take ``k_xi``, built here when none is given; the others ignore it.
    ``mono_init`` picks the monolithic start, xi or zero, and a monolithic
    sample is accepted only on its own full residual. Every column fails,
    with its reason and xi as its field, when the splitting correction has no
    converged xi to be defined around (unsolved), or when the solve raises.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    columns = noise_loads.T
    if method != "monolithic" and not xi_report.converged:
        failure = f"deterministic solve failed: {xi_report.failure}"
        out = [(xi, _failed(method, failure)) for _ in columns]
    else:
        try:
            if not _uses_k_xi(method, mono_init, xi_report):
                k_xi = None
            elif k_xi is None:
                k_xi = solvers.LinearizedOperator(ops, xi)
            if method == "modified":
                out = [(xi + eta, rep) for eta, rep in
                       solvers.solve_stochastic_modified(ops, k_xi, noise_loads)]
            elif method == "split":
                out = []
                for load in columns:
                    eta, rep = solvers.solve_stochastic_full(ops, k_xi, load, newton)
                    out.append((xi + eta, rep))
            else:
                start = xi if mono_init == "deterministic" else FEField.zeros(ops.dofs)
                out = [solvers.solve_monolithic(ops, f_load, load, newton,
                                                initial_guess=start, k_xi=k_xi)
                       for load in columns]
        except Exception as exc:  # one bad sample must not abort the others
            out = [(xi, _failed(method, f"{type(exc).__name__}: {exc}")) for _ in columns]
    for k, (_, rep) in enumerate(out, first):
        rep.sample_id = k
    return out


def run_experiment(cfg: McConfig, jobs: int = 1) -> McStats:
    """Run all requested methods over M shared noise draws and reduce.

    Samples stream through in chunks of ``CHUNK``, whatever M and ``jobs``:
    each chunk's loads are drawn and assembled in one ``noise_loads`` call,
    solved, reduced in sample order and dropped, so peak memory does not
    grow with M. Every method reaches the solvers through ``solve_sample``:
    modified with the chunk's block of loads, monolithic and split with one
    column per task, concurrently on at most min(jobs, CHUNK) threads when
    ``jobs > 1``. They share one K(xi) and its factorization, built first
    when a requested method uses it (``_uses_k_xi``); modified solves each
    chunk on it, and each split sample, and each monolithic one that starts
    from xi, runs Newton-Krylov from that factor. The factor is held to the
    end, so no factorization runs after it is freed (freed factor pages then
    stayed resident and raised the peak memory). The reduction adds samples
    in index order with compensated summation, so the means are bit-identical
    across worker counts.
    """
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops, f_load, xi, xi_report = prepare(dofs, cfg.nu, cfg.newton)
    forcing_norm = manufactured.forcing_l2_norm(cfg.nu)
    k_xi = (solvers.LinearizedOperator(ops, xi)
            if any(_uses_k_xi(m, cfg.mono_init, xi_report) for m in cfg.methods) else None)

    def solve(method: str, block: np.ndarray, first: int) -> list[tuple[FEField, SolveReport]]:
        return solve_sample(method, ops, xi, f_load, block, first, cfg.newton, xi_report,
                            cfg.mono_init, k_xi)

    newton_methods = [m for m in ("monolithic", "split") if m in cfg.methods]
    errors = np.geterr()   # pool threads start from numpy's default error state

    def solve_newton(column: np.ndarray, k: int) -> dict[str, tuple[FEField, SolveReport]]:
        with np.errstate(**errors):
            return {m: solve(m, column, k)[0] for m in newton_methods}

    # per-method means plus pairwise-converged means, added in sample order
    per_method = {m: _MeanAccumulator(dofs) for m in cfg.methods}
    failed = {m: 0 for m in cfg.methods}
    pairs = [m for m in ("split", "modified")
             if m in cfg.methods and "monolithic" in cfg.methods]
    pair_acc = {m: (_MeanAccumulator(dofs), _MeanAccumulator(dofs)) for m in pairs}
    reports: list[SolveReport] = [xi_report]
    kappas = np.empty(cfg.M)
    # the pool never holds more tasks than one chunk, so more threads would idle
    with (ThreadPoolExecutor(max_workers=min(jobs, CHUNK)) if jobs > 1
          else nullcontext()) as pool:
        for first in range(0, cfg.M, CHUNK):
            chunk = range(first, min(first + CHUNK, cfg.M))
            loads, norms = noise_loads(cfg, ops, chunk)
            kappas[first:chunk.stop] = norms / forcing_norm
            modified = solve("modified", loads, first) if "modified" in cfg.methods else None
            columns = [loads[:, j:j + 1] for j in range(len(chunk))]
            results = (pool.map if pool else map)(solve_newton, columns, chunk)
            for j, res in enumerate(results):
                if modified is not None:
                    res["modified"] = modified[j]
                for method in cfg.methods:
                    fld, rep = res[method]
                    reports.append(rep)
                    if rep.converged:
                        per_method[method].add(fld)
                    else:
                        failed[method] += 1
                for m in pairs:
                    fld_m, rep_m = res[m]
                    fld_r, rep_r = res["monolithic"]
                    if rep_m.converged and rep_r.converged:
                        acc_m, acc_r = pair_acc[m]
                        acc_m.add(fld_m)
                        acc_r.add(fld_r)

    mean_fields = {m: acc.mean() for m, acc in per_method.items() if acc.mean() is not None}
    eps = {"split": (None, None), "modified": (None, None)}
    for m in pairs:
        acc_m, acc_r = pair_acc[m]
        mean_m, mean_r = acc_m.mean(), acc_r.mean()
        if mean_m is not None and mean_r is not None:
            eps[m] = error_statistics(mean_m, mean_r)

    return McStats(
        config=cfg,
        mean_fields=mean_fields,
        eps_sh=eps["split"][0],
        eps_mh=eps["modified"][0],
        eps_sh_rel=eps["split"][1],
        eps_mh_rel=eps["modified"][1],
        kappa_samples=kappas,
        kappa_mean=float(kappas.mean()),
        converged_counts={m: per_method[m].count for m in cfg.methods},
        failed_counts=failed,
        reports=reports,
        deterministic_field=xi,
        forcing_norm=forcing_norm,
    )


def error_statistics(mean_field: FEField, reference_mean: FEField) -> tuple[float, float]:
    """Absolute and relative L2 distance between two mean velocity fields.

    A zero reference norm yields a NaN relative error rather than a division
    blow-up.
    """
    eps = manufactured.l2_error(mean_field, reference_mean, part="velocity")
    ref_norm = manufactured.velocity_l2_norm(reference_mean.dofs,
                                             reference_mean.velocity)
    rel = eps / ref_norm if ref_norm > 0 else float("nan")
    return eps, rel


def mean_closeness_check(xi: FEField, stats: McStats) -> float:
    """L2 distance between the deterministic field and the monolithic mean."""
    reference = stats.mean_fields.get("monolithic")
    if reference is None:
        raise ValueError("stats carry no monolithic mean field")
    return manufactured.l2_error(xi, reference, part="velocity")


def diagnostics(cfg: McConfig) -> Diagnostics:
    """Evaluate the smallness indicator and the expected perturbation ratio."""
    forcing_norm = manufactured.forcing_l2_norm(cfg.nu)
    indicator = float(forcing_norm / np.square(cfg.nu))   # inf, not OverflowError
    n_cells = noise_mod.NoiseGrid(cfg.noise_n).n_cells
    # mean of the chi distribution with 2*n_cells degrees of freedom
    chi_mean = np.sqrt(2.0) * exp(gammaln(n_cells + 0.5) - gammaln(n_cells))
    expected_kappa = _noise_amplitude(cfg) * chi_mean / forcing_norm
    return Diagnostics(
        indicator=indicator,
        splitting_threshold=SPLITTING_SMALLNESS_THRESHOLD,
        modified_threshold=MODIFIED_SMALLNESS_THRESHOLD,
        splitting_ok=indicator <= SPLITTING_SMALLNESS_THRESHOLD,
        modified_ok=indicator <= MODIFIED_SMALLNESS_THRESHOLD,
        expected_kappa=float(expected_kappa),
    )


def write_stats_csv(path: str, stats_rows: list[McStats]) -> None:
    """One row per (method, sigma, M); monolithic rows carry failure counts only."""
    lines = ["method,sigma,M,epsilon,epsilon_rel,kappa_mean,failures"]
    for st in stats_rows:
        cfg = st.config
        for method in cfg.methods:
            if method == "split":
                e, r = st.eps_sh, st.eps_sh_rel
            elif method == "modified":
                e, r = st.eps_mh, st.eps_mh_rel
            else:
                e, r = None, None
            etxt = "" if e is None else f"{e:.6e}"
            rtxt = "" if r is None else f"{r:.6e}"
            lines.append(f"{method},{cfg.sigma:g},{cfg.M},{etxt},{rtxt},"
                         f"{st.kappa_mean:.6e},{st.failed_counts[method]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_samples_csv(path: str, reports: list[SolveReport]) -> None:
    """One row per solve, in the order given."""
    lines = [SolveReport.csv_header()] + [rep.to_csv_row() for rep in reports]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_field_csv(path: str, fld: FEField) -> None:
    """Mean-field sample points: x, y, u1, u2, |u| at every P2 node."""
    coords = fld.dofs.node_coords
    nn = fld.dofs.n_scalar_nodes
    u1, u2 = fld.velocity[:nn], fld.velocity[nn:]
    rows = np.column_stack([coords, u1, u2, np.hypot(u1, u2)])
    # one % format of a repeated row template: about 2x faster than row by row
    body = ("%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
    atomic_write_text(path, "x,y,u1,u2,umag\n" + body)
