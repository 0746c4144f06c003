"""Sparse saddle-point solves and Newton iterations for the steady problems.

Four solution paths share one sparse saddle-point solver:

  * deterministic: Newton on a(u,v) + c(u,u,v) + b(v,p) = (F,v), from a given
    start or the Stokes solution
  * stochastic correction (split): Newton on the correction equation with
    coupling terms around a frozen deterministic field xi, started at the
    modified correction
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
A monolithic solve given K(xi) starts near xi, and at u = xi + eta its
Jacobian is that same J(eta), so it takes the split rule; without K(xi) (a
zero start, or a direct reference) every step is a direct factorization.

Newton's first split step from a zero correction is the modified
correction eta_mod = K(xi)^-1 noise load, solved inexactly, so
``uq.solve_sample`` starts split at eta_mod and monolithic at xi + eta_mod
(a predictor start: Deuflhard, Newton Methods for Nonlinear Problems,
Springer 2004), never at the split answer monolithic is checked against.
One modified solve of a block of loads gives both the modified answers and
these starts.

``SaddleFactor`` is the one factored operator, read-only once built. K(xi)
is one (``linearized_operator``), so the modified, split and monolithic
solves of one experiment share one assembly and one factorization. A failed
factorization is a value that fails every solve on it; only
``linear_saddle_solve``, the Stokes start, raises SingularSystemError. The
solvers here take K(xi) as given; ``uq.prepare`` builds it once per command
when a requested method solves on it.

Every operator is a data vector on the dof map's fixed saddle pattern, so a
Jacobian is an array sum such as ``stokes + conv``, with conv = N1(u) +
N2(u) from ``assembly.assemble_convection_linearized``, a residual is one
product of a saddle matrix with [u; p] (Newton's is ``stokes + conv / 2``,
since N1(u) u = N2(u) u = c(u,u,.)), and a factorization takes the free rows
and columns of that matrix.

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
vectors (``SaddleFactor.solve``, ``_full_rows``, GMRES) follow the same
order, so the velocity rows are no longer a leading block. SuperLU keeps its
partial pivoting, which the zero pressure block needs, and which turns an
exactly singular system (``--mesh-n 1``) into an exact zero pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import hypot, sqrt

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .mesh import DofMap

RESIDUAL_CHECK_FACTOR = 1e-10
# Newton stops at ||r|| <= max(NEWTON_TOL, NEWTON_TOL ||r_0||), or fails after
# NEWTON_MAX_ITER steps. The tolerance is fixed because the splitting
# identity (monolithic = xi + eta, to <= 1e-10 relative) shows only at this
# floor: at n=12, sigma=1.6 a tolerance of 1e-8 left eps_sh_rel at 5e-11 and
# 1e-3 at 8e-7, against 6e-16 here.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 25
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
    """A field on one dof map: ``values`` is the saddle vector [velocity; pressure]
    in the dof map's unknown order, and ``velocity`` and ``pressure`` are views of it."""

    values: np.ndarray
    dofs: DofMap

    @property
    def velocity(self) -> np.ndarray:
        return self.values[:self.dofs.n_velocity_dofs]

    @property
    def pressure(self) -> np.ndarray:
        return self.values[self.dofs.n_velocity_dofs:]

    def __add__(self, other: "FEField") -> "FEField":
        if other.dofs is not self.dofs:
            raise ValueError("fields live on different dof maps")
        return FEField(self.values + other.values, self.dofs)

    @classmethod
    def zeros(cls, dofs: DofMap) -> "FEField":
        return cls(np.zeros(dofs.n_velocity_dofs + dofs.n_pressure_dofs), dofs)


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


@dataclass
class AssembledOperators:
    """Constant operators shared by every solve on one dof map and viscosity.

    ``stokes`` is the pattern data of [[A, B^T], [B, 0]].
    """

    dofs: DofMap
    stokes: np.ndarray


def assemble_operators(dofs: DofMap, nu: float) -> AssembledOperators:
    stokes = assembly.assemble_viscous(dofs, nu) + assembly.assemble_divergence(dofs)
    return AssembledOperators(dofs=dofs, stokes=stokes)


def _saddle_residual(dofs: DofMap, data: np.ndarray, x: np.ndarray,
                     load: np.ndarray) -> np.ndarray:
    """[A u + B^T p - load; B u] at x = [u; p] for the operator ``data``, Dirichlet
    rows zeroed; ``x`` and ``load`` may carry one column per load."""
    residual = dofs.pattern.matrix(data) @ x
    residual[:dofs.n_velocity_dofs] -= load
    residual[:dofs.n_velocity_dofs][dofs.dirichlet_mask] = 0.0
    return residual


def _full_rows(dofs: DofMap, solved: np.ndarray) -> np.ndarray:
    """Scatter a free-row solution in ``pattern.free_order`` to all unknowns,
    pressure at zero gauge mean."""
    pattern, n_u, gauge = dofs.pattern, dofs.n_velocity_dofs, dofs.pressure_gauge
    solution = np.zeros((len(pattern.free),) + solved.shape[1:])
    solution[pattern.free_order] = solved
    pressure = solution[n_u:]
    pressure -= (gauge @ pressure) / gauge.sum()
    return solution


class SaddleFactor:
    """The saddle matrix with pattern data ``data``, factorized on its free
    unknowns, for any number of loads.

    The unknown layout is [velocity, pressure]. The Dirichlet velocity dofs
    and pressure dof 0 are dropped before factorization, and the rest are
    eliminated in the dof map's nested-dissection order; solves return them
    as zero and shift the pressure to zero gauge-weighted mean. A failed
    factorization is kept, not raised: ``lu`` is then None and ``failure``
    says why ("" otherwise), and every column of every solve fails with it.
    A caller that already built the free matrix of ``data`` passes it as
    ``matrix``.
    """

    def __init__(self, dofs: DofMap, data: np.ndarray, matrix: sp.csc_matrix | None = None):
        self.dofs, self.data = dofs, data
        if matrix is None:
            matrix = dofs.pattern.free_matrix(data)
        self.matrix = matrix   # rows and columns in free_order
        try:
            self.lu, self.failure = spla.splu(matrix, permc_spec="NATURAL"), ""
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            self.lu, self.failure = None, f"sparse factorization failed: {exc}"
        # ||K||_inf, the largest absolute row sum; spla.norm(matrix, np.inf) copies
        # the matrix, which raised the peak memory of an n=12 mc run by 0.5 MB
        self.norm = float(np.bincount(matrix.indices, weights=np.abs(matrix.data),
                                      minlength=matrix.shape[0]).max())

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Solve for every column of a full-system block (n, k) at once.

        Returns the full-system solution block and one failure reason per
        column, "" for a column that passed: non-finite values, or a residual
        that is not finite or exceeds RESIDUAL_CHECK_FACTOR (||K|| ||x|| + ||b||).
        The norms are max-norms (``norm`` is ||K||_inf), which square nothing,
        so the check still certifies a load near the overflow range. Without
        an LU every column is zero and fails with ``failure``.
        """
        n = len(self.dofs.pattern.free)
        if rhs.ndim != 2 or len(rhs) != n:
            raise ValueError(f"rhs must be a full-system block ({n}, k), got {rhs.shape}")
        if self.lu is None:
            return np.zeros_like(rhs, dtype=float), [self.failure] * rhs.shape[1]
        b = rhs[self.dofs.pattern.free_order]
        solved = self.lu.solve(b)
        finite = np.isfinite(solved).all(axis=0)
        solved[:, ~finite] = 0.0
        residual = np.abs(self.matrix @ solved - b).max(axis=0)
        # at a subnormal load the scaled bound underflows to 0, below any
        # nonzero residual; tiny leaves every bound above ~1e-292 unchanged
        bound = RESIDUAL_CHECK_FACTOR * (self.norm * np.abs(solved).max(axis=0)
                                         + np.abs(b).max(axis=0)) + np.finfo(float).tiny
        failures = ["" if ok and r <= tol and np.isfinite(r) else
                    "factorization produced non-finite values" if not ok else
                    f"solve residual {r:.3e} exceeds {tol:.3e}; "
                    "system is numerically singular"
                    for ok, r, tol in zip(finite, residual, bound)]
        return _full_rows(self.dofs, solved), failures


def linear_saddle_solve(dofs: DofMap, data: np.ndarray, load: np.ndarray) -> np.ndarray:
    """One factorization and one solve for a velocity load (n_u,), pressure
    rows zero; see ``SaddleFactor``.

    A failed factorization, or a solve that fails its checks, raises
    SingularSystemError.
    """
    rhs = np.zeros((len(dofs.pattern.free), 1))
    rhs[:dofs.n_velocity_dofs, 0] = load   # a load of another length raises ValueError
    solution, (failure,) = SaddleFactor(dofs, data).solve(rhs)
    if failure:
        raise SingularSystemError(failure)
    return solution[:, 0]


def linearized_operator(ops: AssembledOperators, xi: FEField) -> SaddleFactor:
    """K(xi) = A + N1(xi) + N2(xi) around the frozen field xi, factorized once.

    Its ``data`` is the linear part of the split correction equation and the
    operator of the modified one, and its LU is shared read-only by every
    sample.
    """
    return SaddleFactor(ops.dofs, ops.stokes
                        + assembly.assemble_convection_linearized(ops.dofs, xi.velocity))


def _krylov_step(dofs: DofMap, matrix: sp.csc_matrix, rhs: np.ndarray,
                 precond: SaddleFactor, forcing: float) -> tuple[np.ndarray | None, int]:
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) on
    J d = rhs to relative residual ``forcing``, left-preconditioned by
    ``precond``; ``matrix`` is the free matrix of J (``pattern.free_matrix``).

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
    b = rhs[dofs.pattern.free_order]
    b_norm = sqrt(b @ b)   # the bits of np.linalg.norm for a real vector
    if b_norm == 0.0:
        return np.zeros_like(rhs), 0
    basis = np.empty((KRYLOV_BASIS + 1, len(b)))
    x, r, r_norm, its, safety = np.zeros_like(b), b, b_norm, 0, 1.0
    for cycle in range(1, KRYLOV_CYCLES + 1):
        z = precond.lu.solve(r)
        z_norm = sqrt(z @ z)
        target = z_norm * min(safety, forcing * b_norm / r_norm)
        basis[0] = z / z_norm
        g, columns, rotations = [z_norm], [], []
        for j in range(KRYLOV_BASIS):
            w = precond.lu.solve(matrix @ basis[j])
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            again = v @ w
            w -= again @ v
            h_next = sqrt(w @ w)
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
            np.divide(w, h_next, out=basis[j + 1])
        y = g[:-1]
        for i in reversed(range(len(y))):
            y[i] = (y[i] - sum(columns[k][i] * y[k] for k in range(i + 1, len(y)))
                    ) / columns[i][i]
        x = x + np.array(y) @ basis[:len(y)]
        r = b - matrix @ x
        r_norm = sqrt(r @ r)
        if r_norm <= forcing * b_norm:
            return _full_rows(dofs, x), its
        if h_next == 0.0 or not r_norm <= forcing ** (cycle / KRYLOV_CYCLES) * b_norm:
            break
        safety = 0.25 if abs(g[-1]) <= target else 1.0
    return None, its


def _newton(ops: AssembledOperators, load: np.ndarray, x0: np.ndarray,
            krylov: bool = False, linear: np.ndarray | None = None,
            precond: SaddleFactor | None = None) -> tuple[FEField, SolveReport]:
    """Newton iteration on linear [u; p] + c(u,u,.) = load from the start x0.

    ``linear`` is the pattern data of the linear part, ``ops.stokes`` unless
    given; the correction equation passes K(xi), which adds the coupling
    terms N1(xi) u + N2(xi) u. ``krylov`` makes it Newton-Krylov on the
    newest factor: a step first runs GMRES preconditioned by the newest LU
    (see ``_krylov_step``), starting from ``precond`` when it has an LU; a
    step with no LU, or one GMRES misses, factorizes its Jacobian,
    counts a fallback and keeps that factor for the following steps. Without
    ``krylov`` every step is direct. ``precond`` only preconditions: the
    residual and the Jacobian are those of ``linear``. Each iterate u is
    evaluated once, as C = N1(u) + N2(u): since N1(u) u = N2(u) u = c(u,u,.),
    the residual is one product with ``linear + C / 2``, and a step, when one
    is taken, solves with the Jacobian ``linear + C``, whose free matrix GMRES
    and a fallback factorization share. ``iterations`` counts the steps.
    """
    dofs = ops.dofs
    n_u = dofs.n_velocity_dofs
    if linear is None:
        linear = ops.stokes
    x = x0.copy()
    x[:n_u][dofs.dirichlet_mask] = 0.0
    history: list[float] = []
    solves, inner, fallbacks = 0, 0, 0

    def report(converged: bool, r_norm: float, failure: str = "") -> tuple[FEField, SolveReport]:
        return (FEField(x, dofs),
                SolveReport(converged, solves, r_norm, history, failure=failure,
                            inner_iterations=inner, fallbacks=fallbacks))

    for _ in range(NEWTON_MAX_ITER + 1):
        conv = assembly.assemble_convection_linearized(dofs, x[:n_u])
        residual = _saddle_residual(dofs, linear + 0.5 * conv, x, load)
        r_norm = sqrt(residual @ residual)
        history.append(r_norm)
        if not np.isfinite(r_norm):
            return report(False, r_norm, "residual diverged")
        tol = max(NEWTON_TOL, NEWTON_TOL * history[0])
        if r_norm <= tol:
            return report(True, r_norm)
        if solves >= NEWTON_MAX_ITER:
            break
        jacobian = linear + conv
        del conv  # not held through the solve, where the peak memory is
        matrix = dofs.pattern.free_matrix(jacobian)
        step = None
        if precond is not None and precond.lu is not None:
            forcing = min(INNER_RTOL, max(r_norm / history[0], 0.5 * tol / r_norm))
            step, its = _krylov_step(dofs, matrix, -residual, precond, forcing)
            inner += its
        if step is None:
            precond = None  # freed before the new factorization: one LU at a time
            factor = SaddleFactor(dofs, jacobian, matrix)
            step, (failure,) = factor.solve(-residual[:, None])
            if failure:
                return report(False, r_norm, failure)
            step = step[:, 0]
            if krylov:
                precond, fallbacks = factor, fallbacks + 1
            del factor  # else held through the next step's factorization
        x = x + step
        solves += 1
    return report(False, history[-1], "max iterations reached")


def solve_deterministic_ns(ops: AssembledOperators, f_load: np.ndarray,
                           initial_guess: FEField | None = None) -> tuple[FEField, SolveReport]:
    """Steady Navier-Stokes solve with body force load, from ``initial_guess``
    or, without one, from the Stokes solution.

    Newton-Krylov on the newest factor: the first step factorizes the
    Jacobian at the start, and that LU preconditions GMRES in the later
    steps. A Stokes start counts as one of the report's iterations.
    ``uq.prepare`` passes the prolongated solution of the half-resolution
    problem, which is already close: it leaves out the Stokes factorization
    and solve and about half of the Newton steps.
    """
    init = (linear_saddle_solve(ops.dofs, ops.stokes, f_load) if initial_guess is None
            else initial_guess.values)
    fld, report = _newton(ops, f_load, init, krylov=True)
    if initial_guess is None:
        report.iterations += 1
    report.method = "deterministic"
    return fld, report


def solve_stochastic_full(ops: AssembledOperators, k_xi: SaddleFactor,
                          noise_load: np.ndarray,
                          start: FEField | None = None) -> tuple[FEField, SolveReport]:
    """Nonlinear stochastic correction around the deterministic field xi.

    ``k_xi`` is the K(xi) of that xi: the linear part of the correction
    equation, and its factor starts the Newton-Krylov solve. The solve starts
    from the correction ``start`` (``uq.solve_sample`` passes the sample's
    column of its modified block, eta_mod, which the split correction differs
    from at second order in the noise), or from a zero correction without
    one. A fallback's own factor preconditions this sample's later steps and
    leaves ``k_xi`` untouched.
    """
    start = FEField.zeros(ops.dofs) if start is None else start
    fld, report = _newton(ops, noise_load, start.values, krylov=True, linear=k_xi.data,
                          precond=k_xi)
    report.method = "split"
    return fld, report


def solve_stochastic_modified(ops: AssembledOperators, k_xi: SaddleFactor,
                              noise_loads: np.ndarray) -> list[tuple[FEField, SolveReport]]:
    """Linearized stochastic correction: one factorization for every load.

    ``noise_loads`` is a block of k velocity loads (n_u, k), all solved at
    once on the factor of K(xi) (``k_xi``). Returns one (correction, report)
    per column. A failed factorization fails every report; a column that
    fails its checks fails only its own.
    """
    rhs = np.zeros((len(ops.dofs.pattern.free), noise_loads.shape[1]))
    rhs[:ops.dofs.n_velocity_dofs] = noise_loads
    x, failures = k_xi.solve(rhs)
    r_norms = np.linalg.norm(_saddle_residual(ops.dofs, k_xi.data, x, noise_loads), axis=0)
    out = []
    for j, failure in enumerate(failures):
        r_norm = float(r_norms[j])
        if not (failure or np.isfinite(r_norm)):
            failure = "residual diverged"
        if failure:
            out.append((FEField.zeros(ops.dofs), SolveReport(
                False, 1, float("inf"), [], method="modified", failure=failure)))
        else:
            out.append((FEField(x[:, j], ops.dofs),
                        SolveReport(True, 1, r_norm, [r_norm], method="modified")))
    return out


def solve_monolithic(ops: AssembledOperators, f_load: np.ndarray,
                     noise_load: np.ndarray, *, initial_guess: FEField,
                     k_xi: SaddleFactor | None = None) -> tuple[FEField, SolveReport]:
    """Full per-sample solve from ``initial_guess``.

    Direct Newton, unless ``k_xi`` gives the shared K(xi) of the deterministic
    field xi the solve starts near: at u = xi + eta its Jacobian is J(eta) of
    the split correction, exactly K(xi) at xi itself, so the solve is then
    Newton-Krylov starting from that factor, like the split one.
    ``uq.solve_sample`` starts it at xi + eta_mod, the modified correction
    added to xi, and never at the split answer it is checked against. Either
    way a sample converges only on the residual of its own full equation.
    """
    fld, report = _newton(ops, f_load + noise_load, initial_guess.values,
                          krylov=k_xi is not None, precond=k_xi)
    report.method = "monolithic"
    return fld, report
