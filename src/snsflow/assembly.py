"""Quadrature and global assembly of the viscous, divergence, convection and
load forms on the Taylor-Hood pair.

Element blocks are table contractions: :class:`ElementGeometry` builds the
physical basis gradients and the quadrature-weighted basis tables once, and
each kernel is one stacked matrix product against them, scaled by the element
area. Assembled operators are data vectors on the dof map's fixed saddle
pattern (:class:`snsflow.mesh.SaddlePattern`): element blocks are summed into
their pattern slots by ``np.bincount``, so operators add as plain arrays and
``pattern.matrix(data)`` is the sparse matrix. Loads, among them the Newton
convection vector c(u, u, .), are summed over the same element-dof table.
Velocity unknowns follow the component-blocked numbering of
:mod:`snsflow.mesh`. A single assembly call is sequential, distinct calls may
run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import DofMap, TriMesh
from .noise import NoiseField

DEFAULT_QUADRATURE_DEGREE = 5
ELEVATED_QUADRATURE_DEGREE = 10


@dataclass(frozen=True)
class ProblemParams:
    """Kinematic viscosity."""

    nu: float

    def __post_init__(self):
        if not (isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"viscosity must be positive and finite, got nu={self.nu}")


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle {x>=0, y>=0, x+y<=1}.

    ``points`` are reference coordinates (xi, eta); ``weights`` sum to 1 and are
    scaled by the element area at use. ``degree`` is the declared polynomial
    exactness.
    """

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)
    degree: int


def triangle_rule_degree5() -> QuadratureRule:
    """The symmetric 7-point rule, exact for total degree 5."""
    a1, w1 = 0.101286507323456, 0.125939180544827
    a2, w2 = 0.470142064105115, 0.132394152788506
    pts = [(1.0 / 3.0, 1.0 / 3.0)]
    ws = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        pts += [(a, a), (1 - 2 * a, a), (a, 1 - 2 * a)]
        ws += [w, w, w]
    return QuadratureRule(np.array(pts), np.array(ws), degree=5)


def triangle_rule_collapsed(degree: int) -> QuadratureRule:
    """Gauss-Jacobi x Gauss-Legendre product rule via the collapsed-square map.

    Used as the elevated rule for closed-form integrands; any requested
    exactness degree is available.
    """
    m = (degree + 2) // 2
    xj, wj = roots_jacobi(m, 1.0, 0.0)      # weight (1-x) on [-1,1]
    xl, wl = roots_legendre(m)
    xj = 0.5 * (xj + 1.0)
    wj = 0.25 * wj                          # maps the (1-x) Jacobi weight to [0,1]
    xl = 0.5 * (xl + 1.0)
    wl = 0.5 * wl
    pts = np.empty((m * m, 2))
    ws = np.empty(m * m)
    k = 0
    for i in range(m):
        for j in range(m):
            pts[k] = (xj[i], xl[j] * (1.0 - xj[i]))
            ws[k] = wj[i] * wl[j]
            k += 1
    return QuadratureRule(pts, ws / ws.sum(), degree=degree)


def p2_shape(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P2 basis values (nq, 6) and reference gradients (nq, 6, 2).

    Local nodes: 0..2 vertices, 3..5 midpoints of the edges opposite them.
    """
    nq = len(points)
    phi = np.empty((nq, 6))
    grad = np.empty((nq, 6, 2))
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    pairs = ((1, 2), (2, 0), (0, 1))
    for q, (xi, eta) in enumerate(points):
        lam = (1.0 - xi - eta, xi, eta)
        for i in range(3):
            phi[q, i] = lam[i] * (2.0 * lam[i] - 1.0)
            grad[q, i] = (4.0 * lam[i] - 1.0) * dlam[i]
        for k, (i, j) in enumerate(pairs):
            phi[q, 3 + k] = 4.0 * lam[i] * lam[j]
            grad[q, 3 + k] = 4.0 * (lam[i] * dlam[j] + lam[j] * dlam[i])
    return phi, grad


def p1_shape(points: np.ndarray) -> np.ndarray:
    lam0 = 1.0 - points.sum(axis=1)
    return np.column_stack([lam0, points])


def affine_maps(mesh: TriMesh, points: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element areas (T,), images (T, nq, 2) of the reference ``points`` and
    inverse transposed Jacobians (T, 2, 2) of the maps x = x0 + xi*e1 + eta*e2."""
    tri = mesh.triangles
    x0 = mesh.vertices[tri[:, 0]]
    e1 = mesh.vertices[tri[:, 1]] - x0
    e2 = mesh.vertices[tri[:, 2]] - x0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    inv_jt = np.empty((len(tri), 2, 2))
    inv_jt[:, 0, 0] = e2[:, 1] / det
    inv_jt[:, 0, 1] = -e1[:, 1] / det
    inv_jt[:, 1, 0] = -e2[:, 0] / det
    inv_jt[:, 1, 1] = e1[:, 0] / det
    return 0.5 * det, x0[:, None, :] + points @ np.stack([e1, e2], axis=1), inv_jt


class ElementGeometry:
    """Per-element affine maps and quadrature tables for one quadrature rule.

    ``grad[t, i, 2*q + d]`` is d phi_i / dx_d of element t at point q; the
    weighted tables ``wphi[q, a] = w_q phi_a`` and ``wphiphi[2*q + d, 12*a +
    6*e + b] = w_q phi_a phi_b delta_de`` turn every element integral into one
    stacked matmul, scaled by the element area.
    """

    def __init__(self, mesh: TriMesh, rule: QuadratureRule | None = None):
        self.mesh = mesh
        self.rule = rule or triangle_rule_degree5()
        self.area, self.qpoints, inv_jt = affine_maps(mesh, self.rule.points)
        self.phi2, grad_ref = p2_shape(self.rule.points)
        self.phi1 = p1_shape(self.rule.points)
        nq = len(self.rule.points)
        self.grad = (grad_ref.transpose(1, 0, 2).reshape(-1, 2)
                     @ inv_jt.transpose(0, 2, 1)).reshape(len(self.area), 6, 2 * nq)
        self.wq = self.rule.weights
        self.wphi = self.wq[:, None] * self.phi2
        self.wphiphi = (self.wphi[:, None, :, None, None] * np.eye(2)[:, None, :, None]
                        * self.phi2[:, None, None, None, :]).reshape(2 * nq, 72)

    def _coefficients(self, dofs: DofMap, u: np.ndarray) -> np.ndarray:
        """(T, 2, 6) element coefficients of a velocity vector, by component."""
        return u[dofs.element_dofs[:, :12]].reshape(len(self.area), 2, 6)

    def _values_and_gradients(self, dofs: DofMap,
                              u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(T, 2, nq) values u_i and (T, 2, nq, 2) gradients du_i/dx_j at the points."""
        coef = self._coefficients(dofs, u)
        return coef @ self.phi2.T, (coef @ self.grad).reshape(len(coef), 2, -1, 2)

    def velocity_at_quadrature(self, dofs: DofMap, u: np.ndarray) -> np.ndarray:
        """(T, nq, 2) values of a velocity coefficient vector."""
        return (self._coefficients(dofs, u) @ self.phi2.T).transpose(0, 2, 1)


def _velocity_data(dofs: DofMap, blocks: np.ndarray) -> np.ndarray:
    """Sum (T, 12, 12) velocity element blocks into data on the saddle pattern."""
    pattern = dofs.pattern
    return np.bincount(pattern.v_slots.ravel(), weights=blocks.ravel(),
                       minlength=pattern.nnz)


def _both_components(block: np.ndarray) -> np.ndarray:
    """(T, 12, 12) blocks applying a (T, 6, 6) scalar block to each component."""
    out = np.zeros((len(block), 12, 12))
    out[:, :6, :6] = out[:, 6:, 6:] = block
    return out


def _transport(wind: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """(wind . grad) f at the points: wind (T, 2, nq), grad (T, k, nq, 2) -> (T, k, nq)."""
    return grad[..., 0] * wind[:, None, 0] + grad[..., 1] * wind[:, None, 1]


def _velocity_load(dofs: DofMap, blocks: np.ndarray) -> np.ndarray:
    """Sum (T, 12) element load blocks into a velocity vector."""
    return np.bincount(dofs.element_dofs[:, :12].ravel(), weights=blocks.ravel(),
                       minlength=dofs.n_velocity_dofs)


def assemble_viscous(mesh: TriMesh, dofs: DofMap, nu: float,
                     geom: ElementGeometry | None = None) -> np.ndarray:
    """Vector-valued viscous operator A with v^T A u = nu * int grad(u):grad(v)."""
    if not nu > 0:
        raise ValueError(f"viscosity must be positive, got nu={nu}")
    geom = geom or ElementGeometry(mesh)
    ke = (geom.grad * np.repeat(geom.wq, 2)) @ geom.grad.transpose(0, 2, 1)
    return nu * _velocity_data(dofs, _both_components(geom.area[:, None, None] * ke))


def assemble_divergence(mesh: TriMesh, dofs: DofMap,
                        geom: ElementGeometry | None = None) -> np.ndarray:
    """Divergence operator B with q^T B u = -int q div(u), together with B^T."""
    geom = geom or ElementGeometry(mesh)
    # table[(q, d'), (a, d)] = w_q psi_a delta_dd' for the P1 pressure basis psi
    table = np.kron(geom.wq[:, None] * geom.phi1, np.eye(2))
    be = (geom.grad @ table).reshape(mesh.n_triangles, 6, 3, 2)     # [t, j, a, d]
    be = -(geom.area[:, None, None, None] * be).transpose(0, 2, 3, 1)
    pattern = dofs.pattern
    return np.bincount(pattern.div_slots.ravel(), weights=np.tile(be.ravel(), 2),
                       minlength=pattern.nnz)


def assemble_convection_linearized(
    mesh: TriMesh, dofs: DofMap, w: np.ndarray,
    geom: ElementGeometry | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Linearizations of the convective trilinear form around the velocity w.

    Returns (N1, N2) with v^T N1 u = c(w, u, v) (w transports u) and
    v^T N2 u = c(u, w, v) (u transports w), where
    c(a, b, v) = int (a . grad) b . v.
    """
    geom = geom or ElementGeometry(mesh)
    T, nq = mesh.n_triangles, len(geom.wq)
    area = geom.area[:, None, None]
    vals, grads = geom._values_and_gradients(dofs, w)
    adv = _transport(vals, geom.grad.reshape(T, 6, nq, 2))          # (w . grad) phi_b
    c1 = geom.wphi.T @ adv.transpose(0, 2, 1)
    ne = (area * grads.reshape(T, 2, 2 * nq)) @ geom.wphiphi        # [t, i, (a, j, b)]
    return (_velocity_data(dofs, _both_components(area * c1)),
            _velocity_data(dofs, ne.reshape(T, 12, 12)))


def assemble_convection_load(mesh: TriMesh, dofs: DofMap, u: np.ndarray,
                             geom: ElementGeometry | None = None) -> np.ndarray:
    """Convection vector c(u, u, .) = N1(u) u, assembled without the matrix."""
    geom = geom or ElementGeometry(mesh)
    vals, grads = geom._values_and_gradients(dofs, u)
    conv = _transport(vals, grads)                                   # (u . grad) u_i
    return _velocity_load(dofs, geom.area[:, None, None] * (conv @ geom.wphi))


def assemble_load(mesh: TriMesh, dofs: DofMap,
                  f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                  degree: int = ELEVATED_QUADRATURE_DEGREE) -> np.ndarray:
    """Load vector L with L . v = int f . v, using an elevated rule by default.

    ``f`` maps coordinate arrays (x, y) to the two force components.
    """
    geom = ElementGeometry(mesh, triangle_rule_collapsed(degree))
    f1, f2 = f(geom.qpoints[:, :, 0], geom.qpoints[:, :, 1])
    f1 = np.broadcast_to(np.asarray(f1, dtype=float), geom.qpoints.shape[:2])
    f2 = np.broadcast_to(np.asarray(f2, dtype=float), geom.qpoints.shape[:2])
    le = np.stack([f1, f2], axis=1) @ geom.wphi
    return _velocity_load(dofs, geom.area[:, None, None] * le)


def assemble_noise_load(mesh: TriMesh, dofs: DofMap,
                        noise: NoiseField | Sequence[NoiseField],
                        geom: ElementGeometry | None = None) -> np.ndarray:
    """Load vector of a piecewise-constant noise realization, or the (n_u, k)
    block of loads of a sequence of k >= 1 realizations, one column per draw.

    Requires the noise grid to be nested in the FE grid (cells per axis divide
    the mesh resolution), so every triangle lies in exactly one noise cell and
    the cell value is constant over it; the cell is found by centroid lookup.
    The lookup and the element integrals are computed once per call, and one
    ``np.bincount`` over column-offset dofs sums every draw, adding each
    column's terms in the order a single draw adds them: column j holds the
    bits of the call on draw j alone.
    """
    draws = [noise] if isinstance(noise, NoiseField) else list(noise)
    grid = draws[0].grid
    n_noise = grid.n_noise
    if n_noise < 1:
        raise ValueError("noise grid must have at least one cell")
    if mesh.n % n_noise != 0:
        raise ValueError(
            f"noise grid ({n_noise} cells per axis) is not nested in the "
            f"FE grid (n={mesh.n}); resolution must divide the mesh resolution")
    geom = geom or ElementGeometry(mesh)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    ix = np.minimum((centroids[:, 0] * n_noise).astype(int), n_noise - 1)
    iy = np.minimum((centroids[:, 1] * n_noise).astype(int), n_noise - 1)
    cell = iy * n_noise + ix
    scale = np.array([d.sigma for d in draws]) / np.sqrt(grid.cell_volume)
    fvals = scale[:, None, None] * np.stack([d.zeta for d in draws])[:, cell]   # (k, T, 2)

    phi_int = np.outer(geom.area, geom.wphi.sum(axis=0))           # int_T phi_i
    blocks = fvals[..., None] * phi_int[:, None, :]                 # (k, T, 2, 6)
    k, n_u = len(draws), dofs.n_velocity_dofs
    index = dofs.element_dofs[:, :12].ravel() + n_u * np.arange(k)[:, None]
    loads = np.bincount(index.ravel(), weights=blocks.ravel(),
                        minlength=k * n_u).reshape(k, n_u).T
    return loads[:, 0] if isinstance(noise, NoiseField) else loads
