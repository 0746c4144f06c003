"""Structured triangulations of the unit square and Taylor-Hood dof maps.

The mesh family is the uniform n x n grid of squares, each split along the
bottom-left -> top-right diagonal. Velocity uses quadratic (P2) nodes at the
vertices and edge midpoints, pressure uses linear (P1) nodes at the vertices.
Each dof map also fixes the sparsity pattern of the saddle matrix that every
assembled operator is a data vector on, and the nested-dissection order in
which its free unknowns are eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

BOUNDARY_TOL = 1e-14
# Nested dissection stops at regions of at most this many unknowns.
DISSECTION_LEAF = 8


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of [0,1]^2 with edge bookkeeping.

    Immutable after construction; safe to share across workers.
    """

    n: int                           # grid resolution (n x n squares)
    vertices: np.ndarray             # (V, 2) coordinates
    triangles: np.ndarray            # (T, 3) vertex indices, counter-clockwise
    edges: np.ndarray                # (E, 2) vertex index pairs, sorted
    edge_midpoints: np.ndarray       # (E, 2) stored explicitly for bit-stable P2 nodes
    triangle_edges: np.ndarray       # (T, 3) edge index opposite each local vertex
    boundary_vertex_flags: np.ndarray
    boundary_edge_flags: np.ndarray
    h: float                         # longest edge length

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def signed_areas(self) -> np.ndarray:
        p = self.vertices
        a, b, c = (p[self.triangles[:, k]] for k in range(3))
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


@dataclass(frozen=True)
class SaddlePattern:
    """CSC sparsity of the saddle matrix [[V, B^T], [B, 0]] over [velocity, pressure].

    V couples both velocity components of each triangle. ``v_slots[t, i, j]``
    is the data index of entry (element_dofs[t, i], element_dofs[t, j]);
    ``div_slots[0, t, a, j]`` that of B's entry (element_dofs[t, 12 + a],
    element_dofs[t, j]) and ``div_slots[1, t, a, j]`` that of its transpose.
    ``free`` drops the Dirichlet velocity dofs and pins pressure dof 0.
    ``free_order`` lists the free unknowns in a nested-dissection elimination
    order (see ``_nested_dissection``): free unknown ``free_order[k]`` is row
    and column k of the free matrix, so ``free_matrix`` is already permuted
    for a factorization in natural order. ``free_slots`` are the data indices
    of the entries in free rows and columns, in the CSC order of that
    permuted submatrix.
    """

    indptr: np.ndarray      # (n + 1,) int32
    indices: np.ndarray     # (nnz,) int32 row indices, sorted within each column
    v_slots: np.ndarray     # (T, 12, 12) intp, as np.bincount takes them uncast
    div_slots: np.ndarray   # (2, T, 3, 12) intp
    free: np.ndarray        # (n,) bool
    free_order: np.ndarray  # (n_free,) intp unknowns, a permutation of flatnonzero(free)
    free_indptr: np.ndarray   # (n_free + 1,) int32
    free_indices: np.ndarray  # (nnz_free,) int32 free row indices
    free_slots: np.ndarray    # (nnz_free,) intp

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The full saddle matrix whose values on this pattern are ``data``."""
        n = len(self.free)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))

    def free_matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The free rows and columns of ``matrix(data)``, both in ``free_order``."""
        n = len(self.free_indptr) - 1
        return sp.csc_matrix((data[self.free_slots], self.free_indices, self.free_indptr),
                             shape=(n, n))


@dataclass(frozen=True)
class DofMap:
    """Degree-of-freedom numbering for the P2/P1 velocity-pressure pair.

    Velocity dofs are component-blocked: dof(node m, component c) = c*(V+E) + m,
    with P2 node m a vertex (m < V) or an edge midpoint (m = V + edge index).
    Pressure dofs are the vertices; in the saddle unknowns [velocity, pressure]
    vertex v is unknown n_velocity_dofs + v. ``pressure_gauge`` holds the
    weights of the zero-mean constraint: gauge . p = integral of p over the
    domain.
    """

    mesh: TriMesh
    n_velocity_dofs: int
    n_pressure_dofs: int
    element_dofs: np.ndarray         # (T, 15) saddle unknowns: 6 u_x, 6 u_y, 3 p per tri
    dirichlet_mask: np.ndarray       # (n_velocity_dofs,) bool, True on the boundary
    pressure_gauge: np.ndarray       # (n_pressure_dofs,) P1 basis integrals
    pattern: SaddlePattern = field(repr=False)
    node_coords: np.ndarray = field(repr=False)  # (V+E, 2) P2 node coordinates

    @property
    def n_scalar_nodes(self) -> int:
        return self.n_velocity_dofs // 2


def build_structured_mesh(n: int) -> TriMesh:
    """Build the n x n diagonal-split triangulation of the unit square."""
    if n < 1:
        raise ValueError(f"mesh resolution must be >= 1, got n={n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([xs[ii.T.ravel()], xs[jj.T.ravel()]])

    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    triangles = np.asarray(triangles, dtype=np.int64)

    edge_index: dict[tuple[int, int], int] = {}
    edges = []
    triangle_edges = np.empty((len(triangles), 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(triangles):
        # edge k is opposite local vertex k
        for k, (p, q) in enumerate(((b, c), (c, a), (a, b))):
            key = (min(p, q), max(p, q))
            ix = edge_index.get(key)
            if ix is None:
                ix = len(edges)
                edge_index[key] = ix
                edges.append(key)
            triangle_edges[t, k] = ix
    edges = np.asarray(edges, dtype=np.int64)
    edge_midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])

    boundary_vertex_flags = _on_boundary(vertices)
    boundary_edge_flags = _on_boundary(edge_midpoints)

    lengths = np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)
    return TriMesh(
        n=n,
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_midpoints=edge_midpoints,
        triangle_edges=triangle_edges,
        boundary_vertex_flags=boundary_vertex_flags,
        boundary_edge_flags=boundary_edge_flags,
        h=float(lengths.max()),
    )


def _on_boundary(points: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    return ((np.abs(x) <= BOUNDARY_TOL) | (np.abs(x - 1.0) <= BOUNDARY_TOL)
            | (np.abs(y) <= BOUNDARY_TOL) | (np.abs(y - 1.0) <= BOUNDARY_TOL))


def build_dof_map(mesh: TriMesh) -> DofMap:
    """Number the Taylor-Hood dofs and mark the homogeneous Dirichlet set."""
    V, E = mesh.n_vertices, mesh.n_edges
    nn = V + E
    node_coords = np.vstack([mesh.vertices, mesh.edge_midpoints])

    tri_nodes = np.hstack([mesh.triangles, V + mesh.triangle_edges])  # (T, 6)
    element_dofs = np.hstack([tri_nodes, nn + tri_nodes, 2 * nn + mesh.triangles])

    node_on_boundary = np.concatenate([mesh.boundary_vertex_flags, mesh.boundary_edge_flags])
    dirichlet_mask = np.concatenate([node_on_boundary, node_on_boundary])
    free = np.concatenate([~dirichlet_mask, np.arange(V) != 0])

    # each unknown's P2 node on the integer lattice of spacing h/2
    lattice = np.rint(np.vstack([node_coords, node_coords, mesh.vertices])
                      * (2 * mesh.n)).astype(np.intp)
    gauge = np.bincount(mesh.triangles.ravel(), weights=np.repeat(mesh.signed_areas() / 3.0, 3),
                        minlength=V)

    return DofMap(
        mesh=mesh,
        n_velocity_dofs=2 * nn,
        n_pressure_dofs=V,
        element_dofs=element_dofs,
        dirichlet_mask=dirichlet_mask,
        pressure_gauge=gauge,
        pattern=_saddle_pattern(element_dofs, free, lattice),
        node_coords=node_coords,
    )


def _saddle_pattern(element_dofs: np.ndarray, free: np.ndarray,
                    lattice: np.ndarray) -> SaddlePattern:
    """Number the distinct (row, col) pairs of all element blocks in CSC order.

    ``lattice`` holds the integer P2-lattice point of each unknown; it fixes
    the elimination order of the free unknowns.
    """
    n, T = len(free), len(element_dofs)
    vel, prs = element_dofs[:, :12], element_dofs[:, 12:]
    keys = [vel[:, None, :] * n + vel[:, :, None],   # V: (row u_i, col u_j)
            vel[:, None, :] * n + prs[:, :, None],   # B: (row p_a, col u_j)
            prs[:, :, None] * n + vel[:, None, :]]   # B^T: (row u_j, col p_a)
    unique, slots = np.unique(np.concatenate([k.ravel() for k in keys]),
                              return_inverse=True)
    slots = slots.astype(np.intp, copy=False)
    rows, cols = unique % n, unique // n
    free_order = np.flatnonzero(free)
    free_order = free_order[_nested_dissection(lattice[free_order])]
    n_free = len(free_order)
    position = np.full(n, -1)
    position[free_order] = np.arange(n_free)
    free_slots = np.flatnonzero(free[rows] & free[cols])
    free_rows, free_cols = position[rows[free_slots]], position[cols[free_slots]]
    csc = np.argsort(free_cols * n_free + free_rows)   # keys are distinct
    return SaddlePattern(
        indptr=np.searchsorted(unique, n * np.arange(n + 1)).astype(np.int32),
        indices=rows.astype(np.int32),
        v_slots=slots[:T * 144].reshape(T, 12, 12),
        div_slots=slots[T * 144:].reshape(2, T, 3, 12),
        free=free,
        free_order=free_order,
        free_indptr=np.searchsorted(free_cols[csc], np.arange(n_free + 1)).astype(np.int32),
        free_indices=free_rows[csc].astype(np.int32),
        free_slots=free_slots[csc],
    )


def _nested_dissection(points: np.ndarray) -> np.ndarray:
    """Nested-dissection elimination order of unknowns at integer lattice ``points``.

    Recursive coordinate bisection (George, SIAM J. Numer. Anal. 10, 1973) of
    the lattice's bounding box: a box is cut across its longer side at the
    vertex line (an even lattice coordinate) nearest its middle. No element
    crosses a vertex line, so the unknowns on it separate the two halves, and
    they are numbered after both. A box of at most DISSECTION_LEAF unknowns,
    or one no vertex line cuts, is a leaf. Unknowns of one leaf or separator
    keep their given order. Returns indices into ``points``.
    """
    size = points.max(axis=0) + 1
    # inclusive 2-D prefix sums of the unknowns per lattice point
    counts = np.zeros(size + 1, dtype=np.intp)
    counts[1:, 1:] = np.bincount(points[:, 0] * size[1] + points[:, 1],
                                 minlength=size[0] * size[1]).reshape(size)
    counts = counts.cumsum(axis=0).cumsum(axis=1)
    rank = np.empty(size, dtype=np.intp)   # post-order number of each point's leaf or separator
    pieces = 0

    def number(lo: list[int], hi: list[int]) -> None:
        nonlocal pieces
        rank[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1] = pieces
        pieces += 1

    def moved(corner: list[int], axis: int, value: int) -> list[int]:
        corner = corner.copy()
        corner[axis] = value
        return corner

    def dissect(lo: list[int], hi: list[int]) -> None:
        inside = (counts[hi[0] + 1, hi[1] + 1] - counts[lo[0], hi[1] + 1]
                  - counts[hi[0] + 1, lo[1]] + counts[lo[0], lo[1]])
        if inside > DISSECTION_LEAF:
            longer = int(hi[1] - lo[1] > hi[0] - lo[0])
            for axis in (longer, 1 - longer):
                first, last = lo[axis] + 2 - lo[axis] % 2, hi[axis] - 2 + hi[axis] % 2
                if first <= last:   # a vertex line lies strictly inside
                    cut = min(max(2 * round((lo[axis] + hi[axis]) / 4), first), last)
                    dissect(lo, moved(hi, axis, cut - 1))
                    dissect(moved(lo, axis, cut + 1), hi)
                    number(moved(lo, axis, cut), moved(hi, axis, cut))
                    return
        number(lo, hi)

    dissect([0, 0], [int(size[0]) - 1, int(size[1]) - 1])
    # ties keep the given order; distinct keys make any sort stable
    return np.argsort(rank[points[:, 0], points[:, 1]] * len(points) + np.arange(len(points)))


def triangle_nodes(dofs: DofMap) -> np.ndarray:
    """(T, 6) global P2 scalar-node indices per triangle."""
    return dofs.element_dofs[:, :6]
