"""Monte Carlo orchestration, error statistics, and smallness diagnostics.

An experiment is one data flow: ``prepare`` builds a command's one ``Setup``
(operators, body load, the deterministic solution xi, and K(xi) when a
requested method solves on it); ``noise_loads`` turns (seed, sample index)
into noise loads, sample k drawn from its own substream of a counter-based
generator; ``solve_sample`` solves a block of those loads with the given
methods on the set-up, the one route to the solvers, and one modified solve
of the block serves the modified method and the Newton starts;
``run_experiment`` streams the samples in fixed chunks of ``CHUNK``,
whatever M and the worker count: it draws a chunk's loads, calls
``solve_sample`` on them once, reduces each sample in sample order with
compensated summation and drops the chunk, so peak memory stays flat in M
and accumulated means are bit-identical across worker counts. ``snsflow solve`` takes the same steps for one sample, and
every count and amplitude of one ``snsflow mc`` shares its set-up.

The amplitude convention: ``sigma`` is the per-cell standard deviation of the
piecewise-constant noise forcing, i.e. realizations are sampled with the
white-noise amplitude sigma * sqrt(cell volume). On the default 12x12 grid
this reproduces the reference perturbation ratios kappa ~= 0.215 * sigma.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from math import exp, isfinite

import numpy as np
from scipy.special import gammaln

from . import assembly, manufactured, noise as noise_mod, solvers
from .ioutil import atomic_write_text
from .mesh import DofMap, build_dof_map, build_structured_mesh
from .solvers import FEField, SolveReport

METHODS = ("monolithic", "split", "modified")
INITS = ("deterministic", "zero")   # monolithic initial guesses
SPLITTING_SMALLNESS_THRESHOLD = 7.0 / 8.0
MODIFIED_SMALLNESS_THRESHOLD = 5.0 / 8.0
# samples per chunk of run_experiment: a chunk's loads, modified fields and
# pool tasks are all that is held of its samples at once
CHUNK = 16
# the coarsest mesh a deterministic solve is sequenced from (``prepare``)
COARSEST_SEQUENCED_N = 8
# reference coordinates of the P2 nodes of the four triangles that halving
# the mesh makes of one: the quarter points
_QUARTER_POINTS = np.array([(i / 4, j / 4) for j in range(5) for i in range(5 - j)])


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

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"sample count must be >= 1, got M={self.M}")
        if not self.methods:
            raise ValueError("at least one method must be requested")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"repeated methods: {list(self.methods)}")
        if self.mesh_n < 1 or self.noise_n < 1:
            raise ValueError("mesh and noise resolutions must be >= 1")
        if self.mesh_n % self.noise_n != 0:
            raise ValueError(
                f"noise grid must be nested in the FE grid: {self.noise_n} "
                f"does not divide {self.mesh_n}")
        if not (isfinite(self.sigma) and isfinite(self.nu)
                and self.sigma >= 0 and self.nu > 0):
            raise ValueError("need finite sigma >= 0 and nu > 0")


@dataclass
class McStats:
    """Accumulated means and the error statistics of one experiment."""

    config: McConfig
    mean_fields: dict[str, FEField]
    # (absolute, relative) error of a splitting method's pairwise mean against
    # the monolithic pairwise mean; a method without both means has no entry
    errors: dict[str, tuple[float, float]]
    kappa_mean: float
    failed_counts: dict[str, int]   # a method converged on M minus these samples
    reports: list[SolveReport]


@dataclass(frozen=True)
class Setup:
    """All that a command's runs and samples share, built once by ``prepare`` and
    read-only after; ``k_xi`` is None when no method it was prepared for uses it."""

    ops: solvers.AssembledOperators
    f_load: np.ndarray
    xi: FEField
    xi_report: SolveReport
    mono_init: str
    k_xi: solvers.SaddleFactor | None


class _MeanAccumulator:
    """Compensated (Kahan) sum of field values; deterministic for a fixed add
    order."""

    def __init__(self, dofs: DofMap):
        self.dofs = dofs
        self.count = 0
        self._sum = np.zeros(dofs.n_velocity_dofs + dofs.n_pressure_dofs)
        self._comp = np.zeros_like(self._sum)

    def add(self, fld: FEField) -> None:
        y = fld.values - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t
        self.count += 1

    def mean(self) -> FEField | None:
        if self.count == 0:
            return None
        return FEField(self._sum / self.count, self.dofs)


def _noise_amplitude(cfg: McConfig) -> float:
    """The white-noise amplitude sigma * sqrt(cell volume)."""
    return cfg.sigma * np.sqrt(1.0 / cfg.noise_n ** 2)


def prepare(dofs: DofMap, nu: float, methods: tuple[str, ...] = (),
            mono_init: str = "deterministic") -> Setup:
    """Operators, body load, deterministic solution xi with its report, and
    K(xi) when one of ``methods`` solves on it, from monolithic start ``mono_init``.

    The solve is grid-sequenced. When the resolution n is even and n/2 is at
    least COARSEST_SEQUENCED_N, the n/2 problem is prepared first, by this
    same rule, and the Newton solve starts from its solution prolongated to
    this mesh (``prolongate``). That start saves the Stokes factorization
    and solve and about half of the Newton steps; the report then counts
    only the steps on this mesh. Otherwise, or when the coarse solve or the
    solve from its start fails, the solve starts from the Stokes solution,
    so a failure is reported as it would be without sequencing. Below
    n/2 = 8 the coarse solve costs more than the fine work it saves:
    sequencing n=12 from n=6 took 1.09x the time of the Stokes start. A
    coarse level is prepared for no method, so it factorizes no K(xi).
    """
    if mono_init not in INITS:
        raise ValueError(f"unknown monolithic initial guess {mono_init!r}")
    start = _coarse_start(dofs, nu)
    ops = solvers.assemble_operators(dofs, nu)
    f_load = assembly.assemble_load(dofs, lambda x, y: manufactured.exact_forcing(x, y, nu))
    if start is not None:
        xi, xi_report = solvers.solve_deterministic_ns(ops, f_load, initial_guess=start)
    if start is None or not xi_report.converged:
        xi, xi_report = solvers.solve_deterministic_ns(ops, f_load)
    k_xi = (solvers.linearized_operator(ops, xi)
            if any(_uses_k_xi(m, mono_init, xi_report) for m in methods) else None)
    return Setup(ops, f_load, xi, xi_report, mono_init, k_xi)


def _coarse_start(dofs: DofMap, nu: float) -> FEField | None:
    """The deterministic solution of the n/2 problem prolongated to ``dofs``,
    or None when n is not sequenced or the coarse solve fails."""
    n = dofs.mesh.n
    if n % 2 or n // 2 < COARSEST_SEQUENCED_N:
        return None
    try:
        coarse = prepare(build_dof_map(build_structured_mesh(n // 2)), nu)
    except solvers.SingularSystemError:
        return None
    return prolongate(coarse.xi, dofs) if coarse.xi_report.converged else None


def prolongate(coarse: FEField, dofs: DofMap) -> FEField:
    """The P2/P1 field ``coarse`` of the n/2 mesh as a field on ``dofs``, the n mesh.

    Each coarse triangle is the union of four triangles of the n mesh, so
    the coarse field is a P2/P1 field there too, and its coefficients are
    its values at the fine nodes: the 15 nodes of P2 on the four, which
    the coarse element's shape functions give. A fine node on a coarse node
    keeps its value bit for bit.
    """
    coarse_mesh, n = coarse.dofs.mesh, dofs.mesh.n
    if n != 2 * coarse_mesh.n:
        raise ValueError(f"cannot prolongate from n={coarse_mesh.n} to n={n}")
    # fine P2 nodes on the integer lattice of spacing 1/(2n)
    lattice = np.rint(dofs.node_coords * (2 * n)).astype(np.intp)
    node_at = np.empty((2 * n + 1, 2 * n + 1), dtype=np.intp)
    node_at[lattice[:, 0], lattice[:, 1]] = np.arange(len(lattice))
    _, points, _ = assembly.affine_maps(coarse_mesh, _QUARTER_POINTS)
    at = np.rint(points * (2 * n)).astype(np.intp)
    nodes = node_at[at[..., 0], at[..., 1]]                      # (T, 15)
    velocity = assembly.values_at(coarse.dofs, coarse.velocity, "velocity",
                                  assembly.p2_shape(_QUARTER_POINTS)[0])    # (T, 2, 15)
    nn, fine = dofs.n_scalar_nodes, FEField.zeros(dofs)
    fine.velocity[nodes], fine.velocity[nn + nodes] = velocity[:, 0], velocity[:, 1]
    # P1 at the fine vertices, which are the first P2 nodes
    pressure = assembly.values_at(coarse.dofs, coarse.pressure, "pressure",
                                  assembly.p1_shape(_QUARTER_POINTS))[:, 0]
    vertex = nodes < dofs.n_pressure_dofs
    fine.pressure[nodes[vertex]] = pressure[vertex]
    return fine


def noise_loads(cfg: McConfig, ops: solvers.AssembledOperators,
                samples) -> tuple[np.ndarray, np.ndarray]:
    """Noise loads (n_u, k) and noise L2 norms (k,) of the given k >= 1 sample
    indices.

    Sample k is the draw of substream (base_seed, k) at the white-noise
    amplitude sigma * sqrt(cell volume). One ``assemble_noise_load`` call
    assembles the block; each column is contiguous, so a sample's solve
    reads its load in place.
    """
    amplitude = _noise_amplitude(cfg)
    zetas = np.stack([noise_mod.sample_noise(cfg.noise_n,
                                             noise_mod.substream_key(cfg.base_seed, k))
                      for k in samples])
    loads = assembly.assemble_noise_load(ops.dofs, cfg.noise_n, amplitude, zetas)
    return loads, np.array([noise_mod.noise_l2_norm(amplitude, zeta) for zeta in zetas])


def _uses_k_xi(method: str, mono_init: str, xi_report: SolveReport) -> bool:
    """Whether ``method`` solves on K(xi): the splittings do around a converged
    xi, and a monolithic solve does when it starts from xi, converged or not
    (from zero its first Jacobian is far from K(xi), so it stays direct
    Newton). The deterministic solve is xi itself and needs none."""
    if method == "monolithic":
        return mono_init == "deterministic"
    return method != "deterministic" and xi_report.converged


def _failed(method: str, failure: str) -> SolveReport:
    return SolveReport(False, 0, float("inf"), method=method, failure=failure)


def solve_sample(setup: Setup, methods, noise_loads: np.ndarray, first: int, map=map
                 ) -> dict[str, list[tuple[FEField, SolveReport]]]:
    """Solve a block of noise samples with each of ``methods`` on ``setup``:
    the only route from a method and its loads to the solvers.

    ``noise_loads`` (n_u, k) holds the loads of samples first, ..., first+k-1.
    Returns, per method, one (full field, report) pair per column, the report
    stamped with its sample id; the splitting methods return xi plus their
    correction. When a method solves on K(xi) (``_uses_k_xi``), the block's
    modified correction eta_mod is solved once on ``setup.k_xi``, padded with
    zero loads to a full chunk's width, because the multi-column solve may
    round a column differently at another width, so a sample's bits would
    depend on M. That solve is the modified result, and it starts split at
    eta_mod and monolithic at xi + eta_mod (at zero and at xi where eta_mod
    failed its checks); with ``setup.mono_init`` "zero", monolithic is direct
    Newton from zero. Split and monolithic then solve one column per task
    through ``map``, under the caller's numpy error state. A monolithic
    sample is accepted only on its own full residual.

    Every column of a method fails, with its reason and xi as its field, when
    the splitting correction has no converged xi to be defined around
    (unsolved), or when the block solve the method needs raises; a Newton
    solve that raises fails only its own sample.
    """
    if not set(methods) <= set(METHODS):
        raise ValueError(f"unknown methods in {list(methods)}")
    ops, f_load, xi, k_xi = setup.ops, setup.f_load, setup.xi, setup.k_xi
    columns = noise_loads.T
    uses = {m: _uses_k_xi(m, setup.mono_init, setup.xi_report) for m in methods}
    out, failures, starts = {}, {}, [None] * len(columns)
    if not setup.xi_report.converged:
        failures.update((m, f"deterministic solve failed: {setup.xi_report.failure}")
                        for m in methods if m != "monolithic")
    if any(uses.values()):
        try:
            padded = np.pad(noise_loads, ((0, 0), (0, max(CHUNK - len(columns), 0))))
            block = solvers.solve_stochastic_modified(ops, k_xi, padded)[:len(columns)]
        except Exception as exc:  # fails each method that needs the block, not the others
            failures.update((m, f"{type(exc).__name__}: {exc}") for m in methods if uses[m])
        else:
            if "modified" in methods:
                out["modified"] = [(xi + eta, rep) for eta, rep in block]
            # copied out, so the padded block is not held through the Newton solves
            starts = [FEField(eta.values.copy(), ops.dofs) if rep.converged else None
                      for eta, rep in block]
            del padded, block
    for method, failure in failures.items():
        out[method] = [(xi, _failed(method, failure)) for _ in columns]
    newton = [m for m in methods if m != "modified" and m not in failures]
    errors = np.geterr()   # pool threads start from numpy's default error state

    def solve_column(load: np.ndarray, eta: FEField | None) -> list[tuple[FEField, SolveReport]]:
        results = []
        with np.errstate(**errors):
            for method in newton:
                try:
                    if method == "split":
                        eta_s, rep = solvers.solve_stochastic_full(ops, k_xi, load, eta)
                        results.append((xi + eta_s, rep))
                    elif uses[method]:
                        results.append(solvers.solve_monolithic(
                            ops, f_load, load, k_xi=k_xi,
                            initial_guess=xi if eta is None else xi + eta))
                    else:   # monolithic from zero
                        results.append(solvers.solve_monolithic(
                            ops, f_load, load, initial_guess=FEField.zeros(ops.dofs)))
                except Exception as exc:  # one bad sample must not abort the others
                    results.append((xi, _failed(method, f"{type(exc).__name__}: {exc}")))
        return results

    if newton:
        solved = list(map(solve_column, columns, starts))
        out.update((m, [column[i] for column in solved]) for i, m in enumerate(newton))
    for results in out.values():
        for k, (_, rep) in enumerate(results, first):
            rep.sample_id = k
    return out


def run_experiment(setup: Setup, cfg: McConfig, jobs: int = 1) -> McStats:
    """Run all requested methods over M shared noise draws and reduce, on the
    ``setup`` that ``prepare`` built for cfg's mesh, nu and methods.

    Samples stream through in chunks of ``CHUNK``, whatever M and ``jobs``:
    each chunk's loads are drawn and assembled in one ``noise_loads`` call,
    solved in one ``solve_sample`` call, reduced in sample order and dropped,
    so peak memory does not grow with M. The methods share the set-up's one
    K(xi) and its factorization: ``solve_sample`` solves the chunk's modified
    block on it once, and each split sample, and each monolithic one that
    starts from xi, runs Newton-Krylov from that factor, started at its
    column of the block, one column per task, concurrently on at most
    min(jobs, CHUNK) threads when ``jobs > 1``. The reduction adds samples in
    index order with compensated summation, so the means are bit-identical
    across worker counts.
    """
    dofs = setup.ops.dofs
    forcing_norm = manufactured.forcing_l2_norm(cfg.nu)
    # per-method means plus pairwise-converged means, added in sample order
    per_method = {m: _MeanAccumulator(dofs) for m in cfg.methods}
    failed = {m: 0 for m in cfg.methods}
    pairs = [m for m in ("split", "modified")
             if m in cfg.methods and "monolithic" in cfg.methods]
    pair_acc = {m: (_MeanAccumulator(dofs), _MeanAccumulator(dofs)) for m in pairs}
    reports: list[SolveReport] = [setup.xi_report]
    kappas = np.empty(cfg.M)
    # the pool never holds more tasks than one chunk, so more threads would idle
    with (ThreadPoolExecutor(max_workers=min(jobs, CHUNK)) if jobs > 1
          else nullcontext()) as pool:
        for first in range(0, cfg.M, CHUNK):
            chunk = range(first, min(first + CHUNK, cfg.M))
            loads, norms = noise_loads(cfg, setup.ops, chunk)
            kappas[first:chunk.stop] = norms / forcing_norm
            out = solve_sample(setup, cfg.methods, loads, first,
                               map=pool.map if pool else map)
            for j in range(len(chunk)):
                for method in cfg.methods:
                    fld, rep = out[method][j]
                    reports.append(rep)
                    if rep.converged:
                        per_method[method].add(fld)
                    else:
                        failed[method] += 1
                for m in pairs:
                    fld_m, rep_m = out[m][j]
                    fld_r, rep_r = out["monolithic"][j]
                    if rep_m.converged and rep_r.converged:
                        acc_m, acc_r = pair_acc[m]
                        acc_m.add(fld_m)
                        acc_r.add(fld_r)

    mean_fields = {m: mean for m, acc in per_method.items() if (mean := acc.mean()) is not None}
    eps = {}
    for m in pairs:
        acc_m, acc_r = pair_acc[m]
        mean_m, mean_r = acc_m.mean(), acc_r.mean()
        if mean_m is not None and mean_r is not None:
            eps[m] = error_statistics(mean_m, mean_r)

    return McStats(
        config=cfg,
        mean_fields=mean_fields,
        errors=eps,
        kappa_mean=float(kappas.mean()),
        failed_counts=failed,
        reports=reports,
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


def diagnostics(cfg: McConfig) -> tuple[float, float]:
    """The smallness indicator and the expected perturbation ratio kappa.

    The indicator is ||F||_L2 / nu^2, a computable proxy for the small-data
    conditions: an L2 stand-in for the dual norm the theory uses, so the
    flags drawn from it against the smallness thresholds are indicative
    rather than certifying.
    """
    forcing_norm = manufactured.forcing_l2_norm(cfg.nu)
    indicator = float(forcing_norm / np.square(cfg.nu))   # inf, not OverflowError
    n_cells = cfg.noise_n ** 2
    # mean of the chi distribution with 2*n_cells degrees of freedom
    chi_mean = np.sqrt(2.0) * exp(gammaln(n_cells + 0.5) - gammaln(n_cells))
    return indicator, float(_noise_amplitude(cfg) * chi_mean / forcing_norm)


def write_stats_csv(path: str, stats_rows: list[McStats]) -> None:
    """One row per (method, sigma, M); monolithic rows carry failure counts only."""
    lines = ["method,sigma,M,epsilon,epsilon_rel,kappa_mean,failures"]
    for st in stats_rows:
        cfg = st.config
        for method in cfg.methods:
            e, r = st.errors.get(method, (None, None))
            etxt = "" if e is None else f"{e:.6e}"
            rtxt = "" if r is None else f"{r:.6e}"
            lines.append(f"{method},{cfg.sigma:g},{cfg.M},{etxt},{rtxt},"
                         f"{st.kappa_mean:.6e},{st.failed_counts[method]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_samples_csv(path: str, reports: list[SolveReport]) -> None:
    """One row per solve, in the order given."""
    lines = ["method,sample_id,converged,iterations,final_residual"] + [
        f"{rep.method},{rep.sample_id},{int(rep.converged)},{rep.iterations},"
        f"{rep.final_residual:.6e}" for rep in reports]
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
