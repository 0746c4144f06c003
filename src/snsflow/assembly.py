"""Quadrature and global assembly of the viscous, divergence, convection and
load forms on the Taylor-Hood pair.

Element blocks are table contractions: :class:`ElementGeometry` holds the
physical basis gradients and the quadrature-weighted basis tables, built once
per dof map (``DofMap.geometry``), and each kernel takes the dof map alone and
is one stacked matrix product against them, scaled by the element area.
Assembled operators are data vectors on the dof map's fixed saddle
pattern (:class:`snsflow.mesh.SaddlePattern`): element blocks are summed into
their pattern slots by ``np.bincount``, so operators add as plain arrays and
``pattern.matrix(data)`` is the sparse matrix. Loads are summed over the
same element-dof table; the convection vector c(u, u, .) is no load of its
own, but half the Jacobian N1(u) + N2(u) applied to u.
Velocity unknowns follow the component-blocked numbering of
:mod:`snsflow.mesh`. A single assembly call is sequential, distinct calls may
run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

if TYPE_CHECKING:   # mesh imports ElementGeometry from here
    from .mesh import DofMap, TriMesh

ELEVATED_QUADRATURE_DEGREE = 10


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
    pts = np.column_stack([np.repeat(xj, m), np.outer(1.0 - xj, xl).ravel()])
    ws = np.outer(wj, wl).ravel()
    return QuadratureRule(pts, ws / ws.sum(), degree=degree)


def p2_shape(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P2 basis values (nq, 6) and reference gradients (nq, 6, 2).

    Local nodes: 0..2 vertices, 3..5 midpoints of the edges opposite them.
    """
    xi, eta = points[:, 0], points[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)                   # (nq, 3)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    i, j = [1, 2, 0], [2, 0, 1]                # midpoint 3 + k joins vertices i[k], j[k]
    phi = np.hstack([lam * (2.0 * lam - 1.0), 4.0 * lam[:, i] * lam[:, j]])
    grad = np.hstack([(4.0 * lam - 1.0)[:, :, None] * dlam,
                      4.0 * (lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i])])
    return phi, grad


def p1_shape(points: np.ndarray) -> np.ndarray:
    lam0 = 1.0 - points.sum(axis=1)
    return np.column_stack([lam0, points])


# the elevated rule and its P2/P1 value tables depend on no input: built once, read-only
ELEVATED_RULE = triangle_rule_collapsed(ELEVATED_QUADRATURE_DEGREE)
ELEVATED_PHI2 = p2_shape(ELEVATED_RULE.points)[0]
ELEVATED_PHI1 = p1_shape(ELEVATED_RULE.points)
for _table in (ELEVATED_RULE.points, ELEVATED_RULE.weights, ELEVATED_PHI2, ELEVATED_PHI1):
    _table.setflags(write=False)


def values_at(dofs: DofMap, vector: np.ndarray, part: str, table: np.ndarray) -> np.ndarray:
    """(T, c, nq) values of a velocity (c = 2) or pressure (c = 1) vector at the
    points of its P2 or P1 basis ``table`` (nq, 6) or (nq, 3)."""
    if part == "velocity":
        return vector[dofs.element_dofs[:, :12]].reshape(-1, 2, 6) @ table.T
    return (vector[dofs.mesh.triangles] @ table.T)[:, None]


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
    """Per-element affine maps and tables of the degree-5 rule; every dof map
    builds its own once (``DofMap.geometry``).

    ``grad[t, i, 2*q + d]`` is d phi_i / dx_d of element t at point q; the
    weighted tables ``wphi[q, a] = w_q phi_a`` and ``wphiphi[2*q + d, 12*a +
    6*e + b] = w_q phi_a phi_b delta_de`` turn every element integral into one
    stacked matmul, scaled by the element area.
    """

    def __init__(self, mesh: TriMesh):
        self.rule = triangle_rule_degree5()
        self.area, _, inv_jt = affine_maps(mesh, self.rule.points)
        self.phi2, grad_ref = p2_shape(self.rule.points)
        self.phi1 = p1_shape(self.rule.points)
        nq = len(self.rule.points)
        self.grad = (grad_ref.transpose(1, 0, 2).reshape(-1, 2)
                     @ inv_jt.transpose(0, 2, 1)).reshape(len(self.area), 6, 2 * nq)
        self.wq = self.rule.weights
        self.wphi = self.wq[:, None] * self.phi2
        self.wphiphi = (self.wphi[:, None, :, None, None] * np.eye(2)[:, None, :, None]
                        * self.phi2[:, None, None, None, :]).reshape(2 * nq, 72)


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


def _velocity_load(dofs: DofMap, blocks: np.ndarray) -> np.ndarray:
    """Sum (T, 2, 6) element load blocks into a velocity vector, or a (k, T, 2, 6)
    stack of them into the (n_u, k) block of k loads.

    One ``np.bincount`` over column-offset dofs adds each column's terms in the
    order a lone (T, 2, 6) block adds them: column j holds the bits of block j
    alone.
    """
    k = len(blocks) if blocks.ndim == 4 else 1
    n_u = dofs.n_velocity_dofs
    index = dofs.element_dofs[:, :12].ravel() + n_u * np.arange(k)[:, None]
    load = np.bincount(index.ravel(), weights=blocks.ravel(), minlength=k * n_u)
    return load.reshape(k, n_u).T if blocks.ndim == 4 else load


def assemble_viscous(dofs: DofMap, nu: float) -> np.ndarray:
    """Vector-valued viscous operator A with v^T A u = nu * int grad(u):grad(v)."""
    if not (isfinite(nu) and nu > 0):
        raise ValueError(f"viscosity must be positive and finite, got nu={nu}")
    geom = dofs.geometry
    ke = (geom.grad * np.repeat(geom.wq, 2)) @ geom.grad.transpose(0, 2, 1)
    return nu * _velocity_data(dofs, _both_components(geom.area[:, None, None] * ke))


def assemble_divergence(dofs: DofMap) -> np.ndarray:
    """Divergence operator B with q^T B u = -int q div(u), together with B^T."""
    geom = dofs.geometry
    # table[(q, d'), (a, d)] = w_q psi_a delta_dd' for the P1 pressure basis psi
    table = np.kron(geom.wq[:, None] * geom.phi1, np.eye(2))
    be = (geom.grad @ table).reshape(len(geom.area), 6, 3, 2)     # [t, j, a, d]
    be = -(geom.area[:, None, None, None] * be).transpose(0, 2, 3, 1)
    pattern = dofs.pattern
    return np.bincount(pattern.div_slots.ravel(), weights=np.tile(be.ravel(), 2),
                       minlength=pattern.nnz)


def _convection_blocks(dofs: DofMap, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element blocks of both convection linearizations around w: the (T, 6, 6)
    scalar block of N1, which acts on each component alike, and the
    (T, 12, 12) block of N2."""
    geom = dofs.geometry
    T, nq = len(geom.area), len(geom.wq)
    area = geom.area[:, None, None]
    coef = w[dofs.element_dofs[:, :12]].reshape(T, 2, 6)           # one gather of w
    vals = coef @ geom.phi2.T                                       # w_i at the points
    grad = geom.grad.reshape(T, 6, nq, 2)
    adv = grad[..., 0] * vals[:, None, 0] + grad[..., 1] * vals[:, None, 1]  # (w . grad) phi_b
    # stacked small products: one 2-D product of the same sizes crosses
    # OpenBLAS's threading threshold, and the woken worker thread slowed the
    # LU solves after it (n=24 one-column solves 1.2x slower on a 2-vCPU
    # machine with OpenBLAS's default two threads)
    c1 = area * (geom.wphi.T @ adv.transpose(0, 2, 1))
    ne = (area * (coef @ geom.grad)) @ geom.wphiphi                 # [t, i, (a, j, b)]
    return c1, ne.reshape(T, 12, 12)


def assemble_convection_linearized(dofs: DofMap, w: np.ndarray) -> np.ndarray:
    """The Jacobian of the convection term at the velocity w, N1(w) + N2(w),
    summed by one scatter (see ``convection_terms``).

    N1(w) w = N2(w) w = c(w, w, .), so the convection vector at w is half of
    this operator applied to w: the Newton solves take both the residual and
    the Jacobian of an iterate from one call.
    """
    c1, blocks = _convection_blocks(dofs, w)
    both = blocks.reshape(-1, 2, 6, 2, 6)
    both[:, 0, :, 0] += c1
    both[:, 1, :, 1] += c1
    return _velocity_data(dofs, blocks)


def convection_terms(dofs: DofMap, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linearizations of the convective trilinear form around the velocity w.

    Returns (N1, N2) with v^T N1 u = c(w, u, v) (w transports u) and
    v^T N2 u = c(u, w, v) (u transports w), where
    c(a, b, v) = int (a . grad) b . v.
    """
    c1, blocks = _convection_blocks(dofs, w)
    return _velocity_data(dofs, _both_components(c1)), _velocity_data(dofs, blocks)


def assemble_load(dofs: DofMap,
                  f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
                  ) -> np.ndarray:
    """Load vector L with L . v = int f . v, on ELEVATED_RULE.

    ``f`` maps coordinate arrays (x, y) to the two force components.
    """
    area, qpoints, _ = affine_maps(dofs.mesh, ELEVATED_RULE.points)
    f1, f2 = f(qpoints[:, :, 0], qpoints[:, :, 1])
    f1 = np.broadcast_to(np.asarray(f1, dtype=float), qpoints.shape[:2])
    f2 = np.broadcast_to(np.asarray(f2, dtype=float), qpoints.shape[:2])
    le = np.stack([f1, f2], axis=1) @ (ELEVATED_RULE.weights[:, None] * ELEVATED_PHI2)
    return _velocity_load(dofs, area[:, None, None] * le)


def assemble_noise_load(dofs: DofMap, n_noise: int, amplitude: float,
                        zetas: np.ndarray) -> np.ndarray:
    """The (n_u, k) block of loads of k >= 1 piecewise-constant noise
    realizations at white-noise amplitude ``amplitude``, one column per draw.

    ``zetas`` (k, n_noise^2, 2) holds the draws of each realization on the
    n_noise x n_noise grid (``noise.sample_noise``). Requires the noise grid to
    be nested in the FE grid (cells per axis divide the mesh resolution), so
    every triangle lies in exactly one noise cell and the cell value is
    constant over it; the cell is found by centroid lookup. The lookup and
    the element integrals are computed once per call, and column j holds the
    bits of the call on draw j alone.
    """
    mesh = dofs.mesh
    if n_noise < 1:
        raise ValueError("noise grid must have at least one cell")
    if amplitude < 0:
        raise ValueError(f"noise amplitude must be >= 0, got {amplitude}")
    if zetas.ndim != 3 or zetas.shape[1:] != (n_noise ** 2, 2):
        raise ValueError(f"draws of shape {zetas.shape} are not (k, {n_noise ** 2}, 2)")
    if mesh.n % n_noise != 0:
        raise ValueError(
            f"noise grid ({n_noise} cells per axis) is not nested in the "
            f"FE grid (n={mesh.n}); resolution must divide the mesh resolution")
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    ix = np.minimum((centroids[:, 0] * n_noise).astype(int), n_noise - 1)
    iy = np.minimum((centroids[:, 1] * n_noise).astype(int), n_noise - 1)
    cell = iy * n_noise + ix
    scale = amplitude / np.sqrt(1.0 / n_noise ** 2)
    fvals = scale * zetas[:, cell]                                  # (k, T, 2)

    geom = dofs.geometry
    phi_int = np.outer(geom.area, geom.wphi.sum(axis=0))           # int_T phi_i
    return _velocity_load(dofs, fvals[..., None] * phi_int[:, None, :])
