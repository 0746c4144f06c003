"""Sparse saddle-point solves and Newton iterations for the steady problems.

Four solution paths share one sparse saddle-point solver:

  * deterministic: Newton on a(u,v) + c(u,u,v) + b(v,p) = (F,v), Stokes start
  * stochastic correction (split): Newton on the correction equation with
    coupling terms around a frozen deterministic field xi, zero start
  * modified correction: the same equation with the quadratic self-term
    dropped, so linear with the one operator K(xi) = A + N1(xi) + N2(xi) for
    every sample: one factorization per experiment, one multi-RHS solve
  * monolithic: Newton on the full equation per noise sample; it is the
    reference for both splittings, accepted on its own full residual

The Newton iterations are Newton-Krylov on the newest factor (Knoll & Keyes,
J. Comput. Phys. 193, 2004): each step first runs a restarted GMRES of its
own (``_krylov_step``), left-preconditioned with the newest LU the solve
holds, and a step with no factor yet, or one GMRES misses within a fixed
budget, factorizes its own Jacobian, which then preconditions the following
steps. Successive Jacobians differ by terms of
the size of the Newton step, so one factor serves the rest of the solve. The
deterministic solve has no factor at its first step: started on the Stokes
LU, a later step still misses and factorizes, after about six times the
GMRES iterations. The split solve starts from the shared factor of K(xi),
from which its Jacobian J(eta) = K(xi) + N1(eta) + N2(eta) differs by terms
of the size of eta; a sample's own fallback factor stays with that sample.
A monolithic solve given K(xi) starts from xi, where its Jacobian is exactly
K(xi), and at u = xi + eta its Jacobian is that same J(eta), so it takes the
split rule; without K(xi) (a zero start, or a direct reference) every step
is a direct factorization.

``LinearizedOperator`` holds K(xi) and its factor, made once when it is built
and read-only after, so the modified, split and monolithic solves of one
experiment share one assembly and one factorization. The solvers here take
it as given; ``uq.solve_sample`` decides when one is built.

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

The free unknowns are numbered in the dof map's nested-dissection order
(``pattern.free_order``), so the free matrix arrives permuted and SuperLU
factorizes it in that order (``permc_spec="NATURAL"``): at n=24 it fills
about 4.8x nnz(K), against 6.4x under SuperLU's own COLAMD order. Free-row
vectors (``_free_rows``, ``_full_rows``, the GMRES right-hand side) follow
the same order, so the velocity rows are no longer a leading block. SuperLU
keeps its partial pivoting, which the zero pressure block needs, and which
turns an exactly singular system (``--mesh-n 1``) into an exact zero pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import hypot

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import ElementGeometry, ProblemParams
from .mesh import DofMap, TriMesh

RESIDUAL_CHECK_FACTOR = 1e-10
# A Newton-Krylov step k is accepted from GMRES when ||J d + r|| <= eta_k ||r|| with
# the forcing term eta_k = min(INNER_RTOL, max(||r_k|| / ||r_0||, tol / (2 ||r_k||))),
# tol the outer tolerance, within KRYLOV_CYCLES restart cycles of KRYLOV_BASIS
# vectors; otherwise that step factorizes J directly. The first bound keeps
# Newton's quadratic convergence (Eisenstat & Walker, SIAM J. Sci. Comput. 17,
# 1996); the second (Kelley, Iterative Methods for Linear and Nonlinear
# Equations, SIAM 1995) stops a late step from solving below what the outer
# tolerance needs. The fixed budget also caps the basis memory.
INNER_RTOL = 1e-4
KRYLOV_BASIS = 20
KRYLOV_CYCLES = 2


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
    """Outcome of one solve; iterations counts linear solves performed.

    ``inner_iterations`` counts the GMRES iterations of a Newton-Krylov solve
    (deterministic, split, and monolithic given K(xi)) and ``fallbacks`` the
    direct factorizations made inside it (a deterministic solve without a
    GMRES miss reports 1); both stay 0 on the direct paths (modified, and
    monolithic without K(xi)).
    """

    converged: bool
    iterations: int
    final_residual: float
    residual_history: list[float] = field(default_factory=list)
    method: str = ""
    sample_id: int = -1
    failure: str = ""
    inner_iterations: int = 0
    fallbacks: int = 0

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


def _free_rows(dofs: DofMap, rhs: np.ndarray) -> np.ndarray:
    """Free rows (n_free, k) of a velocity-block or full-system rhs, one column per
    load, in the elimination order ``pattern.free_order``.

    The pressure rows of a velocity-block rhs are zero.
    """
    n, order, n_u = len(dofs.pattern.free), dofs.pattern.free_order, dofs.n_velocity_dofs
    if rhs.ndim not in (1, 2):
        raise ValueError(f"rhs must be a vector or a block of columns, got {rhs.shape}")
    columns = rhs.reshape(len(rhs), -1)
    if len(columns) == n:
        return columns[order]
    if len(columns) != n_u:
        raise ValueError(f"rhs length {len(rhs)} matches neither the velocity "
                         f"block ({n_u}) nor the full system ({n})")
    velocity = order < n_u
    b = np.zeros((len(order), columns.shape[1]))
    b[velocity] = columns[order[velocity]]
    return b


def _full_rows(dofs: DofMap, solved: np.ndarray) -> np.ndarray:
    """Scatter a free-row solution in ``pattern.free_order`` to all unknowns,
    pressure at zero gauge mean."""
    pattern, n_u, gauge = dofs.pattern, dofs.n_velocity_dofs, dofs.pressure_gauge
    solution = np.zeros((len(pattern.free),) + solved.shape[1:])
    solution[pattern.free_order] = solved
    pressure = solution[n_u:]
    pressure -= (gauge @ pressure) / gauge.sum()
    return solution


@dataclass
class SaddleFactor:
    """LU factors of the saddle system on its free unknowns, for any number of loads."""

    matrix: sp.csc_matrix
    lu: spla.SuperLU
    dofs: DofMap
    norm: float

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Solve for a 1-D rhs, or for every column of a 2-D block at once.

        ``rhs`` rows cover the velocity block only (pressure rows zero) or the
        full system. Returns the solution, with full-system rows and the shape
        of ``rhs`` otherwise, and one failure reason per column, "" for a
        column that passed: non-finite values, or a residual that is not
        finite or exceeds RESIDUAL_CHECK_FACTOR (||K|| ||x|| + ||b||). The
        norms are max-norms (``norm`` is ||K||_inf), which square nothing, so
        the check still certifies a load near the overflow range.
        """
        b = _free_rows(self.dofs, rhs)
        solved = self.lu.solve(b)
        finite = np.isfinite(solved).all(axis=0)
        solved[:, ~finite] = 0.0
        residual = np.abs(self.matrix @ solved - b).max(axis=0)
        bound = RESIDUAL_CHECK_FACTOR * (self.norm * np.abs(solved).max(axis=0)
                                         + np.abs(b).max(axis=0))
        failures = ["" if ok and r <= tol and np.isfinite(r) else
                    "factorization produced non-finite values" if not ok else
                    f"solve residual {r:.3e} exceeds {tol:.3e}; "
                    "system is numerically singular"
                    for ok, r, tol in zip(finite, residual, bound)]
        solution = _full_rows(self.dofs, solved)
        return solution.reshape((len(solution),) + rhs.shape[1:]), failures


def factor_saddle(dofs: DofMap, data: np.ndarray) -> SaddleFactor:
    """Factorize the saddle matrix with pattern data ``data`` on its free unknowns.

    The unknown layout is [velocity, pressure]. The Dirichlet velocity dofs
    and pressure dof 0 are dropped before factorization, and the rest are
    eliminated in the dof map's nested-dissection order; solves return them
    as zero and shift the pressure to zero gauge-weighted mean. A failed
    factorization raises SingularSystemError.
    """
    matrix = dofs.pattern.free_matrix(data)   # rows and columns in free_order
    try:
        lu = spla.splu(matrix, permc_spec="NATURAL")
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
    # ||K||_inf, the largest absolute row sum; spla.norm(matrix, np.inf) copies
    # the matrix, which raised the peak memory of an n=12 mc run by 0.5 MB
    norm = np.bincount(matrix.indices, weights=np.abs(matrix.data),
                       minlength=matrix.shape[0]).max()
    return SaddleFactor(matrix, lu, dofs, float(norm))


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


class LinearizedOperator:
    """K(xi) = A + N1(xi) + N2(xi) around the frozen field xi, factorized once.

    ``data`` is its pattern data: the linear part of the split correction
    equation and the operator of the modified one. The constructor factorizes
    it: ``factor`` is its LU, shared read-only by every sample, or None when
    the factorization failed, and ``failure`` then says why ("" otherwise).
    """

    def __init__(self, ops: AssembledOperators, xi: FEField):
        n1, n2 = assembly.assemble_convection_linearized(ops.mesh, ops.dofs,
                                                         xi.velocity, geom=ops.geom)
        self.dofs = ops.dofs
        self.data = ops.stokes + n1 + n2
        try:
            self.factor, self.failure = factor_saddle(self.dofs, self.data), ""
        except SingularSystemError as exc:
            self.factor, self.failure = None, str(exc)


def _krylov_step(dofs: DofMap, jacobian: np.ndarray, rhs: np.ndarray,
                 precond: SaddleFactor, forcing: float) -> tuple[np.ndarray | None, int]:
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) on
    J d = rhs to relative residual ``forcing``, left-preconditioned by ``precond``.

    Returns the full-system step, or None on a miss, and the GMRES iteration
    count. A cycle runs on z = LU^-1 r: classical Gram-Schmidt, run twice,
    builds its basis, and Givens rotations reduce each Hessenberg column. It
    stops when the rotated residual is at most ||z|| min(q, forcing ||b|| / ||r||),
    after KRYLOV_BASIS vectors, or at a breakdown. The true residual decides:
    accept at ||r|| <= forcing ||b||, and miss when cycle c ends above
    forcing^(c / KRYLOV_CYCLES) ||b||, a rate that would not reach ``forcing``
    within the budget (restarted GMRES seldom speeds up in a later cycle). q is
    1, or 1/4 after a cycle that met its rotated target but not the true one,
    as in SciPy's gmres.
    """
    matrix = dofs.pattern.free_matrix(jacobian)
    b = rhs[dofs.pattern.free_order]
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(rhs), 0
    basis = np.empty((KRYLOV_BASIS + 1, len(b)))
    x, r, r_norm, its, safety = np.zeros_like(b), b, b_norm, 0, 1.0
    for cycle in range(1, KRYLOV_CYCLES + 1):
        z = precond.lu.solve(r)
        z_norm = float(np.linalg.norm(z))
        target = z_norm * min(safety, forcing * b_norm / r_norm)
        basis[0] = z / z_norm
        g, columns, rotations = [z_norm], [], []
        for j in range(KRYLOV_BASIS):
            w = precond.lu.solve(matrix @ basis[j])
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            again = basis[:j + 1] @ w
            w -= again @ basis[:j + 1]
            h_next = float(np.linalg.norm(w))
            column = (h + again).tolist()
            for i, (c, s) in enumerate(rotations):
                column[i], column[i + 1] = (c * column[i] + s * column[i + 1],
                                            c * column[i + 1] - s * column[i])
            rho = hypot(column[j], h_next)
            if rho == 0.0:   # J is singular on the Krylov space
                return None, its
            c, s = column[j] / rho, h_next / rho
            column[j] = rho
            columns.append(column)
            rotations.append((c, s))
            g[j:] = [c * g[j], -s * g[j]]
            its += 1
            if abs(g[-1]) <= target or h_next == 0.0:
                break
            basis[j + 1] = w / h_next
        y = g[:-1]
        for i in reversed(range(len(y))):
            y[i] = (y[i] - sum(columns[k][i] * y[k] for k in range(i + 1, len(y)))
                    ) / columns[i][i]
        x = x + np.array(y) @ basis[:len(y)]
        r = b - matrix @ x
        r_norm = float(np.linalg.norm(r))
        if r_norm <= forcing * b_norm:
            return _full_rows(dofs, x), its
        if h_next == 0.0 or not r_norm <= forcing ** (cycle / KRYLOV_CYCLES) * b_norm:
            break
        safety = 0.25 if abs(g[-1]) <= target else 1.0
    return None, its


def _newton(ops: AssembledOperators, load: np.ndarray,
            u0: np.ndarray, p0: np.ndarray, cfg: NewtonConfig,
            krylov: bool = False, linear: np.ndarray | None = None,
            precond: SaddleFactor | None = None) -> tuple[FEField, SolveReport]:
    """Newton iteration on linear [u; p] + c(u,u,.) = load.

    ``linear`` is the pattern data of the linear part, ``ops.stokes`` unless
    given; the correction equation passes K(xi), which adds the coupling
    terms N1(xi) u + N2(xi) u. ``krylov`` makes it Newton-Krylov on the
    newest factor: a step first runs GMRES preconditioned by the newest LU
    (see ``_krylov_step``), starting from ``precond`` when one is given; a
    step with no factor, or one GMRES misses, factorizes its Jacobian,
    counts a fallback and keeps that factor for the following steps. Without
    ``krylov`` every step is direct. ``precond`` only preconditions: the
    residual and the Jacobian are those of ``linear``. The residual takes the
    convection term c(u,u,.) as a vector, without a matrix; the Jacobian
    ``linear + N1(u) + N2(u)`` is assembled from the current iterate only
    when a step is taken. ``iterations`` counts the steps.
    """
    mesh, dofs = ops.mesh, ops.dofs
    n_u = dofs.n_velocity_dofs
    if linear is None:
        linear = ops.stokes
    u, p = u0.copy(), p0.copy()
    u[ops.mask] = 0.0
    history: list[float] = []
    solves, inner, fallbacks = 0, 0, 0

    def report(converged: bool, r_norm: float, failure: str = "") -> tuple[FEField, SolveReport]:
        return (FEField(u, p, dofs),
                SolveReport(converged, solves, r_norm, history, failure=failure,
                            inner_iterations=inner, fallbacks=fallbacks))

    for _ in range(cfg.max_iter + 1):
        conv = assembly.assemble_convection_load(mesh, dofs, u, geom=ops.geom)
        residual = _saddle_residual(dofs, linear, u, p, load - conv)
        r_norm = float(np.linalg.norm(residual))
        history.append(r_norm)
        if not np.isfinite(r_norm):
            return report(False, r_norm, "residual diverged")
        tol = max(cfg.abs_tol, cfg.rel_tol * history[0])
        if r_norm <= tol:
            return report(True, r_norm)
        if solves >= cfg.max_iter:
            break
        n1, n2 = assembly.assemble_convection_linearized(mesh, dofs, u, geom=ops.geom)
        jacobian = linear + n1 + n2
        del n1, n2  # not held through the solve, where the peak memory is
        x = None
        if precond is not None:
            forcing = min(INNER_RTOL, max(r_norm / history[0], 0.5 * tol / r_norm))
            x, its = _krylov_step(dofs, jacobian, -residual, precond, forcing)
            inner += its
        if x is None:
            precond = None  # freed before the new factorization: one LU at a time
            try:
                factor = factor_saddle(dofs, jacobian)
            except SingularSystemError as exc:
                return report(False, r_norm, str(exc))
            x, (failure,) = factor.solve(-residual)
            if failure:
                return report(False, r_norm, failure)
            if krylov:
                precond, fallbacks = factor, fallbacks + 1
            del factor  # else held through the next step's factorization
        u = u + cfg.damping * x[:n_u]
        p = p + cfg.damping * x[n_u:]
        solves += 1
    return report(False, history[-1], "max iterations reached")


def solve_deterministic_ns(ops: AssembledOperators, f_load: np.ndarray,
                           cfg: NewtonConfig | None = None) -> tuple[FEField, SolveReport]:
    """Steady Navier-Stokes solve with body force load; Stokes initial guess.

    Newton-Krylov on the newest factor: the first step factorizes
    J(u_Stokes), and that LU preconditions GMRES in the later steps. The
    Stokes solve counts as one of the report's iterations.
    """
    cfg = cfg or NewtonConfig()
    init = solve_stokes(ops, f_load)
    fld, report = _newton(ops, f_load, init.velocity, init.pressure, cfg, krylov=True)
    report.iterations += 1
    report.method = "deterministic"
    return fld, report


def solve_stochastic_full(ops: AssembledOperators, k_xi: LinearizedOperator,
                          noise_load: np.ndarray, cfg: NewtonConfig | None = None,
                          ) -> tuple[FEField, SolveReport]:
    """Nonlinear stochastic correction around the deterministic field xi.

    ``k_xi`` is the K(xi) of that xi: the linear part of the correction
    equation, and its factor starts the Newton-Krylov solve from a zero
    correction. A fallback's own factor preconditions this sample's later
    steps and leaves ``k_xi`` untouched.
    """
    fld, report = _newton(ops, noise_load, np.zeros(ops.dofs.n_velocity_dofs),
                          np.zeros(ops.dofs.n_pressure_dofs), cfg or NewtonConfig(),
                          krylov=True, linear=k_xi.data, precond=k_xi.factor)
    report.method = "split"
    return fld, report


def solve_stochastic_modified(ops: AssembledOperators, k_xi: LinearizedOperator,
                              noise_loads: np.ndarray) -> list[tuple[FEField, SolveReport]]:
    """Linearized stochastic correction: one factorization for every load.

    ``noise_loads`` is a block of k velocity loads (n_u, k), all solved at
    once on the factor of K(xi) (``k_xi``). Returns one (correction, report)
    per column. A failed factorization fails every report; a column that
    fails its checks fails only its own.
    """
    n_u = ops.dofs.n_velocity_dofs
    if k_xi.factor is not None:
        x, failures = k_xi.factor.solve(noise_loads)
    else:
        x = np.zeros((n_u + ops.dofs.n_pressure_dofs, noise_loads.shape[1]))
        failures = [k_xi.failure] * noise_loads.shape[1]
    velocity, pressure = x[:n_u], x[n_u:]
    r_norms = np.linalg.norm(_saddle_residual(ops.dofs, k_xi.data, velocity, pressure,
                                              noise_loads), axis=0)
    out = []
    for j, failure in enumerate(failures):
        r_norm = float(r_norms[j])
        if not (failure or np.isfinite(r_norm)):
            failure = "residual diverged"
        if failure:
            out.append((FEField.zeros(ops.dofs),
                        SolveReport(False, 1, float("inf"), [], method="modified",
                                    failure=failure)))
        else:
            out.append((FEField(velocity[:, j], pressure[:, j], ops.dofs),
                        SolveReport(True, 1, r_norm, [r_norm], method="modified")))
    return out


def solve_monolithic(ops: AssembledOperators, f_load: np.ndarray,
                     noise_load: np.ndarray, cfg: NewtonConfig | None = None, *,
                     initial_guess: FEField,
                     k_xi: LinearizedOperator | None = None) -> tuple[FEField, SolveReport]:
    """Full per-sample solve from ``initial_guess``.

    Direct Newton, unless ``k_xi`` gives the shared K(xi) of the deterministic
    field xi the solve starts from: its Jacobian at xi is exactly K(xi), and
    at u = xi + eta it is J(eta) of the split correction, so the solve is then
    Newton-Krylov starting from that factor, like the split one. Either way a
    sample converges only on the residual of its own full equation.
    """
    fld, report = _newton(ops, f_load + noise_load, initial_guess.velocity,
                          initial_guess.pressure, cfg or NewtonConfig(),
                          krylov=k_xi is not None,
                          precond=None if k_xi is None else k_xi.factor)
    report.method = "monolithic"
    return fld, report
