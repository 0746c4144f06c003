"""Closed-form reference solution on the unit square and L2 error norms.

The velocity derives from the stream function 128 * x^2(1-x)^2 * y^2(1-y)^2,
so it is divergence-free and vanishes on the boundary:

    u1 =  64 x^2 (1-x)^2 (4-8y) y (1-y)
    u2 = -64 (4-8x) x (1-x) y^2 (1-y)^2
    p  =  sin(pi x) sin(pi y)

The body force is the steady momentum residual of (u, p) at viscosity nu, with
all derivatives hand-differentiated so forcing errors stay below discretization
errors in convergence studies.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import assembly
from .mesh import DofMap


# quartic a(s) = s^2(1-s)^2 and cubic b(s) = s(1-s)(1-2s); a' = 2b
def _a(s):
    return s * s * (1.0 - s) ** 2


def _da(s):
    return 2.0 * s - 6.0 * s ** 2 + 4.0 * s ** 3


def _dda(s):
    return 2.0 - 12.0 * s + 12.0 * s ** 2


def _b(s):
    return s - 3.0 * s ** 2 + 2.0 * s ** 3


def _db(s):
    return 1.0 - 6.0 * s + 6.0 * s ** 2


def _ddb(s):
    return -6.0 + 12.0 * s


class _Factors(dict):
    """The per-axis factors at points (x, y), each evaluated once, when first
    read: ``f[_a, 0]`` is _a(x) and ``f[_db, 1]`` is _db(y)."""

    def __init__(self, x, y):
        super().__init__()
        self.points = (x, y)

    def __missing__(self, key):
        factor, axis = key
        value = self[key] = factor(self.points[axis])
        return value


def exact_velocity(x, y, f=None):
    """Velocity components (u1, u2); accepts scalars or arrays. ``f``, a
    ``_Factors`` table of these (x, y), lets several calls share factors."""
    f = _Factors(x, y) if f is None else f
    return 256.0 * f[_a, 0] * f[_b, 1], -256.0 * f[_b, 0] * f[_a, 1]


def exact_velocity_gradient(x, y, f=None):
    """Entries (u1_x, u1_y, u2_x, u2_y)."""
    f = _Factors(x, y) if f is None else f
    return (
        256.0 * f[_da, 0] * f[_b, 1],
        256.0 * f[_a, 0] * f[_db, 1],
        -256.0 * f[_db, 0] * f[_a, 1],
        -256.0 * f[_b, 0] * f[_da, 1],
    )


def exact_velocity_laplacian(x, y, f=None):
    f = _Factors(x, y) if f is None else f
    return (
        256.0 * (f[_dda, 0] * f[_b, 1] + f[_a, 0] * f[_ddb, 1]),
        -256.0 * (f[_ddb, 0] * f[_a, 1] + f[_b, 0] * f[_dda, 1]),
    )


def exact_pressure(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


# mean of the pressure over the unit square; the discrete pressure is gauged
# to zero mean, so error measurements compare against the shifted representative
PRESSURE_MEAN = (2.0 / np.pi) ** 2


def exact_pressure_zero_mean(x, y):
    return exact_pressure(x, y) - PRESSURE_MEAN


def exact_pressure_gradient(x, y):
    return (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )


# points per block of the body force: the factors and terms of one block stay in
# cache, where those of a whole mesh's quadrature points would not
FORCING_BLOCK = 4096


def exact_forcing(x, y, nu: float):
    """Body force F = -nu lap(u) + (u . grad) u + grad(p).

    Runs over blocks of FORCING_BLOCK points, and evaluates each per-axis
    factor of a block once.
    """
    x, y = np.broadcast_arrays(x, y)
    points = np.stack([x.ravel(), y.ravel()])
    force = np.empty(points.shape)
    for s in range(0, points.shape[1], FORCING_BLOCK):
        bx, by = points[:, s:s + FORCING_BLOCK]
        f = _Factors(bx, by)
        u1, u2 = exact_velocity(bx, by, f)
        u1x, u1y, u2x, u2y = exact_velocity_gradient(bx, by, f)
        lap1, lap2 = exact_velocity_laplacian(bx, by, f)
        px, py = exact_pressure_gradient(bx, by)
        force[0, s:s + FORCING_BLOCK] = -nu * lap1 + u1 * u1x + u2 * u1y + px
        force[1, s:s + FORCING_BLOCK] = -nu * lap2 + u1 * u2x + u2 * u2y + py
    return force[0].reshape(x.shape), force[1].reshape(x.shape)


@cache
def forcing_l2_norm(nu: float, degree: int = 2 * assembly.ELEVATED_QUADRATURE_DEGREE) -> float:
    """L2(Omega) norm of the body force, by high-order quadrature.

    Independent of any mesh: integrates on a fixed fine reference grid. The
    integrand is closed-form, so it takes the rule and the affine maps alone.
    Memoized: the command line's ``--nu`` check and the run then evaluate it
    once between them.
    """
    from .mesh import build_structured_mesh

    rule = assembly.triangle_rule_collapsed(degree)
    area, qpoints, _ = assembly.affine_maps(build_structured_mesh(4), rule.points)
    f1, f2 = exact_forcing(qpoints[:, :, 0], qpoints[:, :, 1], nu)
    return float(np.sqrt(np.einsum("q,t,tq->", rule.weights, area, f1 ** 2 + f2 ** 2)))


def interpolate_velocity(dofs: DofMap, fn) -> np.ndarray:
    """Nodal P2 interpolant of a velocity-valued callable (x, y) -> (u1, u2)."""
    x, y = dofs.node_coords[:, 0], dofs.node_coords[:, 1]
    u1, u2 = fn(x, y)
    return np.concatenate([np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)])


def velocity_l2_norm(dofs: DofMap, u: np.ndarray) -> float:
    geom = dofs.geometry
    squares = assembly.values_at(dofs, u, "velocity", geom.phi2) ** 2
    return float(np.sqrt(np.einsum("q,t,tq->", geom.wq, geom.area, squares.sum(axis=1))))


def l2_error(field, reference, part: str = "velocity") -> float:
    """L2(Omega) distance between a solution field and a reference.

    ``field`` is an FE field (anything with .velocity, .pressure, .dofs);
    ``reference`` is either another FE field on the same dof map or a callable
    (x, y) -> (u1, u2) for part="velocity" / (x, y) -> p for part="pressure".
    FE-vs-FE differences are integrated on the dof map's degree-5 geometry
    (exact for the piecewise-polynomial integrand); closed-form references use
    the elevated degree-10 rule.
    """
    if part not in ("velocity", "pressure"):
        raise ValueError(f"unknown part {part!r}")
    dofs = field.dofs
    velocity = part == "velocity"
    if callable(reference):
        area, qpoints, _ = assembly.affine_maps(dofs.mesh, assembly.ELEVATED_RULE.points)
        weights = assembly.ELEVATED_RULE.weights
        table = assembly.ELEVATED_PHI2 if velocity else assembly.ELEVATED_PHI1
        ref = reference(qpoints[:, :, 0], qpoints[:, :, 1])
        ref = np.stack(ref, axis=1) if velocity else ref[:, None]
    else:
        if reference.dofs is not dofs:
            raise ValueError("fields live on different dof maps")
        geom = dofs.geometry
        area, weights, table = geom.area, geom.wq, geom.phi2 if velocity else geom.phi1
        ref = assembly.values_at(dofs, getattr(reference, part), part, table)
    diff = (assembly.values_at(dofs, getattr(field, part), part, table) - ref) ** 2
    return float(np.sqrt(np.einsum("q,t,tq->", weights, area, diff.sum(axis=1))))
