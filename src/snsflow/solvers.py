"""Sparse saddle-point solves and Newton iterations for the steady problems.

Four solution paths share one sparse saddle-point solver:

  * deterministic: Newton on a(u,v) + c(u,u,v) + b(v,p) = (F,v), Stokes start
  * stochastic correction: Newton on the correction equation with coupling
    terms around a frozen deterministic field, zero start
  * modified correction: the same equation with the quadratic self-term
    dropped, so linear with one operator K(xi) for every sample: one
    factorization per experiment, one multi-RHS solve
  * monolithic: Newton on the full equation per noise sample

Every operator is a data vector on the dof map's fixed saddle pattern, so a
Jacobian is an array sum such as ``stokes + n1 + n2``, a residual is one
product of the linear saddle matrix with [u; p] (Newton subtracts the
convection vector c(u,u,.) from the load), and a factorization takes the
free rows and columns of that matrix.

Only the free unknowns (``pattern.free``, set once per dof map) are
factorized: the Dirichlet velocity dofs are dropped, and so is pressure dof 0
together with its continuity row. That row is redundant: the pressure basis
sums to one, so the continuity rows of B u sum to -int div u = 0 for any u
vanishing on the boundary. Pinning p_0 = 0 fixes the constant pressure mode,
and the solution is then shifted to zero gauge-weighted mean,
p -= (g . p) / sum(g).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import ElementGeometry, ProblemParams
from .mesh import DofMap, TriMesh

RESIDUAL_CHECK_FACTOR = 1e-10


class SingularSystemError(RuntimeError):
    """Factorization failed or produced an unreliable solution."""


@dataclass
class FEField:
    """Velocity/pressure coefficient pair on one dof map."""

    velocity: np.ndarray
    pressure: np.ndarray
    dofs: DofMap

    def __add__(self, other: "FEField") -> "FEField":
        if other.dofs is not self.dofs:
            raise ValueError("fields live on different dof maps")
        return FEField(self.velocity + other.velocity,
                       self.pressure + other.pressure, self.dofs)

    @classmethod
    def zeros(cls, dofs: DofMap) -> "FEField":
        return cls(np.zeros(dofs.n_velocity_dofs), np.zeros(dofs.n_pressure_dofs), dofs)


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iter: int = 25
    damping: float = 1.0

    def __post_init__(self):
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise ValueError("Newton tolerances must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping factor must lie in (0, 1]")


@dataclass
class SolveReport:
    """Outcome of one solve; iterations counts linear solves performed."""

    converged: bool
    iterations: int
    final_residual: float
    residual_history: list[float] = field(default_factory=list)
    method: str = ""
    sample_id: int = -1
    failure: str = ""

    def to_csv_row(self) -> str:
        return (f"{self.method},{self.sample_id},{int(self.converged)},"
                f"{self.iterations},{self.final_residual:.6e}")

    @staticmethod
    def csv_header() -> str:
        return "method,sample_id,converged,iterations,final_residual"


@dataclass
class AssembledOperators:
    """Constant operators shared by every solve on one (mesh, dofs, params).

    ``stokes`` is the pattern data of [[A, B^T], [B, 0]].
    """

    mesh: TriMesh
    dofs: DofMap
    geom: ElementGeometry
    stokes: np.ndarray

    @property
    def mask(self) -> np.ndarray:
        return self.dofs.dirichlet_mask


def assemble_operators(mesh: TriMesh, dofs: DofMap, params: ProblemParams) -> AssembledOperators:
    geom = ElementGeometry(mesh)
    stokes = (assembly.assemble_viscous(mesh, dofs, params.nu, geom=geom)
              + assembly.assemble_divergence(mesh, dofs, geom=geom))
    return AssembledOperators(mesh=mesh, dofs=dofs, geom=geom, stokes=stokes)


def _saddle_residual(dofs: DofMap, data: np.ndarray, u: np.ndarray, p: np.ndarray,
                     load: np.ndarray) -> np.ndarray:
    """[A u + B^T p - load; B u] for the operator ``data``, Dirichlet rows zeroed.

    ``u``, ``p`` and ``load`` may carry one column per load.
    """
    residual = dofs.pattern.matrix(data) @ np.concatenate([u, p])
    residual[:dofs.n_velocity_dofs] -= load
    residual[:dofs.n_velocity_dofs][dofs.dirichlet_mask] = 0.0
    return residual


@dataclass
class SaddleFactor:
    """LU factors of the saddle system on its free unknowns, for any number of loads."""

    matrix: sp.csc_matrix
    lu: spla.SuperLU
    free: np.ndarray
    gauge: np.ndarray
    n_u: int
    norm: float

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Solve for a 1-D rhs, or for every column of a 2-D block at once.

        ``rhs`` rows cover the velocity block only (padded with zeros) or the
        full system. Returns the solution, with full-system rows and the shape
        of ``rhs`` otherwise, and one failure reason per column, "" for a
        column that passed: non-finite values, or a residual
        ||K x - b|| > RESIDUAL_CHECK_FACTOR (||K|| ||x|| + ||b||).
        """
        n_total = len(self.free)
        if rhs.ndim not in (1, 2):
            raise ValueError(f"rhs must be a vector or a block of columns, got {rhs.shape}")
        columns = rhs.reshape(len(rhs), -1)
        if len(columns) == self.n_u:
            columns = np.vstack([columns, np.zeros((n_total - self.n_u, columns.shape[1]))])
        elif len(columns) != n_total:
            raise ValueError(f"rhs length {len(rhs)} matches neither the velocity "
                             f"block ({self.n_u}) nor the full system ({n_total})")
        b = columns[self.free]
        solved = self.lu.solve(b)
        finite = np.isfinite(solved).all(axis=0)
        solved[:, ~finite] = 0.0
        residual = np.linalg.norm(self.matrix @ solved - b, axis=0)
        bound = RESIDUAL_CHECK_FACTOR * (self.norm * np.linalg.norm(solved, axis=0)
                                         + np.linalg.norm(b, axis=0))
        failures = ["" if ok and r <= tol else
                    "factorization produced non-finite values" if not ok else
                    f"solve residual {r:.3e} exceeds {tol:.3e}; "
                    "system is numerically singular"
                    for ok, r, tol in zip(finite, residual, bound)]
        solution = np.zeros((n_total, b.shape[1]))
        solution[self.free] = solved
        pressure = solution[self.n_u:]
        pressure -= (self.gauge @ pressure) / self.gauge.sum()
        return solution.reshape((n_total,) + rhs.shape[1:]), failures


def factor_saddle(dofs: DofMap, data: np.ndarray) -> SaddleFactor:
    """Factorize the saddle matrix with pattern data ``data`` on its free unknowns.

    The unknown layout is [velocity, pressure]. The Dirichlet velocity dofs
    and pressure dof 0 are dropped before factorization; solves return them
    as zero and shift the pressure to zero gauge-weighted mean. A failed
    factorization raises SingularSystemError.
    """
    free = dofs.pattern.free
    matrix = dofs.pattern.matrix(data)[free][:, free]
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
    return SaddleFactor(matrix, lu, free, dofs.pressure_gauge, dofs.n_velocity_dofs,
                        spla.norm(matrix))


def linear_saddle_solve(dofs: DofMap, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One factorization and one solve; see ``factor_saddle`` and ``SaddleFactor.solve``.

    A column that fails its checks raises SingularSystemError.
    """
    solution, failures = factor_saddle(dofs, data).solve(rhs)
    failed = [f for f in failures if f]
    if failed:
        raise SingularSystemError(failed[0])
    return solution


def solve_stokes(ops: AssembledOperators, load: np.ndarray) -> FEField:
    """Linear solve without convection; the deterministic initial guess."""
    x = linear_saddle_solve(ops.dofs, ops.stokes, load)
    n_u = ops.dofs.n_velocity_dofs
    return FEField(x[:n_u], x[n_u:], ops.dofs)


def _newton(ops: AssembledOperators, load: np.ndarray,
            frozen_convection: np.ndarray | None,
            u0: np.ndarray, p0: np.ndarray, cfg: NewtonConfig,
            presolves: int = 0) -> tuple[FEField, SolveReport]:
    """Newton iteration on A u + c(u,u,.) [+ frozen terms] + B^T p = load.

    ``frozen_convection`` adds the linear coupling terms of the correction
    equation. The residual takes the convection term c(u,u,.) as a vector,
    without a matrix; the Jacobian ``linear + N1(u) + N2(u)`` is assembled
    from the current iterate only when a step is taken (full Newton).
    """
    mesh, dofs = ops.mesh, ops.dofs
    n_u = dofs.n_velocity_dofs
    linear = ops.stokes if frozen_convection is None else ops.stokes + frozen_convection
    u, p = u0.copy(), p0.copy()
    u[ops.mask] = 0.0
    history: list[float] = []
    solves = presolves
    for _ in range(cfg.max_iter + 1):
        conv = assembly.assemble_convection_load(mesh, dofs, u, geom=ops.geom)
        residual = _saddle_residual(dofs, linear, u, p, load - conv)
        r_norm = float(np.linalg.norm(residual))
        history.append(r_norm)
        if not np.isfinite(r_norm):
            return (FEField(u, p, dofs),
                    SolveReport(False, solves, r_norm, history,
                                failure="residual diverged"))
        if r_norm <= max(cfg.abs_tol, cfg.rel_tol * history[0]):
            return FEField(u, p, dofs), SolveReport(True, solves, r_norm, history)
        if solves - presolves >= cfg.max_iter:
            break
        n1, n2 = assembly.assemble_convection_linearized(mesh, dofs, u, geom=ops.geom)
        try:
            x = linear_saddle_solve(dofs, linear + n1 + n2, -residual)
        except SingularSystemError as exc:
            return (FEField(u, p, dofs),
                    SolveReport(False, solves, r_norm, history, failure=str(exc)))
        u = u + cfg.damping * x[:n_u]
        p = p + cfg.damping * x[n_u:]
        solves += 1
    return (FEField(u, p, dofs),
            SolveReport(False, solves, history[-1], history,
                        failure="max iterations reached"))


def solve_deterministic_ns(ops: AssembledOperators, f_load: np.ndarray,
                           cfg: NewtonConfig | None = None) -> tuple[FEField, SolveReport]:
    """Steady Navier-Stokes solve with body force load; Stokes initial guess."""
    cfg = cfg or NewtonConfig()
    init = solve_stokes(ops, f_load)
    fld, report = _newton(ops, f_load, None, init.velocity, init.pressure, cfg,
                          presolves=1)
    report.method = "deterministic"
    return fld, report


def solve_stochastic_full(ops: AssembledOperators, xi: FEField,
                          noise_load: np.ndarray,
                          cfg: NewtonConfig | None = None) -> tuple[FEField, SolveReport]:
    """Nonlinear stochastic correction around the deterministic field xi."""
    cfg = cfg or NewtonConfig()
    n1, n2 = assembly.assemble_convection_linearized(ops.mesh, ops.dofs,
                                                     xi.velocity, geom=ops.geom)
    fld, report = _newton(ops, noise_load, n1 + n2,
                          np.zeros(ops.dofs.n_velocity_dofs),
                          np.zeros(ops.dofs.n_pressure_dofs), cfg)
    report.method = "split"
    return fld, report


def solve_stochastic_modified(
        ops: AssembledOperators, xi: FEField, noise_load: np.ndarray,
) -> tuple[FEField, SolveReport] | list[tuple[FEField, SolveReport]]:
    """Linearized stochastic correction: one factorization for every load.

    ``noise_load`` is one velocity load (n_u,) or a block of M loads
    (n_u, M). K(xi) = A + N1(xi) + N2(xi) is assembled and factorized once,
    and all columns are solved together. Returns one (correction, report)
    per column, or the single pair for a 1-D load. A failed factorization
    fails every report; a column that fails its checks fails only its own.
    """
    loads = noise_load.reshape(len(noise_load), -1)
    n_u = ops.dofs.n_velocity_dofs
    n1, n2 = assembly.assemble_convection_linearized(ops.mesh, ops.dofs,
                                                     xi.velocity, geom=ops.geom)
    k_xi = ops.stokes + n1 + n2
    try:
        x, failures = factor_saddle(ops.dofs, k_xi).solve(loads)
    except SingularSystemError as exc:
        x = np.zeros((n_u + ops.dofs.n_pressure_dofs, loads.shape[1]))
        failures = [str(exc)] * loads.shape[1]
    velocity, pressure = x[:n_u], x[n_u:]
    r_norms = np.linalg.norm(_saddle_residual(ops.dofs, k_xi, velocity, pressure, loads),
                             axis=0)
    out = []
    for j, failure in enumerate(failures):
        if failure:
            out.append((FEField.zeros(ops.dofs),
                        SolveReport(False, 1, float("inf"), [], method="modified",
                                    failure=failure)))
        else:
            r_norm = float(r_norms[j])
            out.append((FEField(velocity[:, j], pressure[:, j], ops.dofs),
                        SolveReport(True, 1, r_norm, [r_norm], method="modified")))
    return out[0] if noise_load.ndim == 1 else out


def solve_monolithic(ops: AssembledOperators, f_load: np.ndarray,
                     noise_load: np.ndarray, cfg: NewtonConfig | None = None,
                     initial_guess: FEField | None = None) -> tuple[FEField, SolveReport]:
    """Full per-sample solve; defaults to the deterministic solution as start."""
    cfg = cfg or NewtonConfig()
    if initial_guess is None:
        initial_guess, _ = solve_deterministic_ns(ops, f_load, cfg)
    fld, report = _newton(ops, f_load + noise_load, None,
                          initial_guess.velocity, initial_guess.pressure, cfg)
    report.method = "monolithic"
    return fld, report
