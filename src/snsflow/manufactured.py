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


def exact_velocity(x, y):
    """Velocity components (u1, u2); accepts scalars or arrays."""
    return 256.0 * _a(x) * _b(y), -256.0 * _b(x) * _a(y)


def exact_velocity_gradient(x, y):
    """Entries (u1_x, u1_y, u2_x, u2_y)."""
    return (
        256.0 * _da(x) * _b(y),
        256.0 * _a(x) * _db(y),
        -256.0 * _db(x) * _a(y),
        -256.0 * _b(x) * _da(y),
    )


def exact_velocity_laplacian(x, y):
    return (
        256.0 * (_dda(x) * _b(y) + _a(x) * _ddb(y)),
        -256.0 * (_ddb(x) * _a(y) + _b(x) * _dda(y)),
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


def exact_forcing(x, y, nu: float):
    """Body force F = -nu lap(u) + (u . grad) u + grad(p)."""
    u1, u2 = exact_velocity(x, y)
    u1x, u1y, u2x, u2y = exact_velocity_gradient(x, y)
    lap1, lap2 = exact_velocity_laplacian(x, y)
    px, py = exact_pressure_gradient(x, y)
    return (-nu * lap1 + u1 * u1x + u2 * u1y + px,
            -nu * lap2 + u1 * u2x + u2 * u2y + py)


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
