"""Structured triangulations of the unit square and Taylor-Hood dof maps.

The mesh family is the uniform n x n grid of squares, each split along the
bottom-left -> top-right diagonal. Velocity uses quadratic (P2) nodes at the
vertices and edge midpoints, pressure uses linear (P1) nodes at the vertices.
Each dof map also fixes the sparsity pattern of the saddle matrix that every
assembled operator is a data vector on, the nested-dissection order in which
its free unknowns are eliminated, and the quadrature geometry every assembly
kernel reads.

The pattern is built from the scalar P2 node adjacency, in time linear in
its size: each node's neighbours sit in the 5 x 5 window of P2-lattice points
around it, so one scatter over the triangles' node pairs and a sort of each
short window give every neighbour list, and index arithmetic on those lists
gives the rest. Nothing sorts or uniques the pattern's (row, col) keys as a
whole: the other sorts are of each list's free rows, one short row at a
time, and of the free unknowns into their elimination order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import ElementGeometry

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
    The rows of velocity column (c, m) are the u_x rows of node m's sorted
    neighbour list, then its u_y rows, then B's rows: the pressure of the
    list's vertex prefix. Pressure column v holds the velocity rows of vertex
    v's list. So every slot is a column start plus a place in a list.
    ``free`` drops the Dirichlet velocity dofs and pins pressure dof 0.
    ``free_order`` lists the free unknowns in a nested-dissection elimination
    order (see ``_nested_dissection``): free unknown ``free_order[k]`` is row
    and column k of the free matrix, so ``free_matrix`` is already permuted
    for a factorization in natural order. ``free_slots`` are the data indices
    of the entries in free rows and columns, in the CSC order of that
    permuted submatrix: each list's free rows sorted by their place in
    ``free_order`` (``_free_pattern``).

    ``matrix`` and ``free_matrix`` copy a template matrix of the pattern and
    give the copy its values. The copy shares the template's index arrays,
    which are read-only, since one pattern serves concurrent solves; this
    skips scipy's constructor, whose index checks read every index at every
    call.
    """

    indptr: np.ndarray      # (n + 1,) int32
    indices: np.ndarray     # (nnz,) int32 row indices, sorted within each column
    v_slots: np.ndarray     # (T, 12, 12) intp, as np.bincount takes them uncast
    div_slots: np.ndarray   # (2, T, 3, 12) intp
    free: np.ndarray        # (n,) bool
    free_order: np.ndarray  # (n_free,) intp unknowns, a permutation of flatnonzero(free)
    free_slots: np.ndarray  # (nnz_free,) intp
    full_template: sp.csc_matrix = field(repr=False)
    free_template: sp.csc_matrix = field(repr=False)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The full saddle matrix whose values on this pattern are ``data``."""
        return _with_data(self.full_template, data)

    def free_matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The free rows and columns of ``matrix(data)``, both in ``free_order``."""
        return _with_data(self.free_template, data[self.free_slots])


def _csc_template(indptr: np.ndarray, indices: np.ndarray) -> sp.csc_matrix:
    """A square CSC matrix on a sorted, duplicate-free pattern, with read-only
    index arrays; its values are a zero-stride view, since every copy gets
    its own."""
    n = len(indptr) - 1
    template = sp.csc_matrix((np.broadcast_to(0.0, indices.shape), indices, indptr),
                             shape=(n, n))
    # true by construction; set, so that no copy checks or sorts the shared indices
    template.has_canonical_format = True
    template.indices.setflags(write=False)
    template.indptr.setflags(write=False)
    return template


def _with_data(template: sp.csc_matrix, data: np.ndarray) -> sp.csc_matrix:
    matrix = copy.copy(template)   # shallow: shares the index arrays
    matrix.data = data
    return matrix


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
    geometry: ElementGeometry = field(repr=False)  # degree-5 tables of the mesh

    @property
    def n_scalar_nodes(self) -> int:
        return self.n_velocity_dofs // 2


def build_structured_mesh(n: int) -> TriMesh:
    """Build the n x n diagonal-split triangulation of the unit square."""
    if n < 1:
        raise ValueError(f"mesh resolution must be >= 1, got n={n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.column_stack([np.tile(xs, n + 1), np.repeat(xs, n + 1)])   # vertex j*(n+1)+i

    # square (i, j), row by row, gives (v00, v10, v11) and (v00, v11, v01)
    v00 = (np.arange(n, dtype=np.int64)[None, :] + (n + 1) * np.arange(n)[:, None]).ravel()
    triangles = np.column_stack([v00, v00 + 1, v00 + n + 2,
                                 v00, v00 + n + 2, v00 + n + 1]).reshape(-1, 3)

    # edge k is opposite local vertex k; edges are numbered in the order the
    # triangles first meet them
    ends = np.stack([triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]], axis=-1).reshape(-1, 2)
    ends.sort(axis=1)
    _, first, inverse = np.unique(ends[:, 0] * len(vertices) + ends[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(first), dtype=np.int64)
    number[order] = np.arange(len(first))
    edges = ends[first[order]]
    triangle_edges = number[inverse].reshape(-1, 3)
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
    """Number the Taylor-Hood dofs, mark the homogeneous Dirichlet set and build
    the element geometry that every assembly kernel reads."""
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
        pattern=_saddle_pattern(element_dofs, V, free, lattice),
        node_coords=node_coords,
        geometry=ElementGeometry(mesh),
    )


def _saddle_pattern(element_dofs: np.ndarray, n_vertices: int, free: np.ndarray,
                    lattice: np.ndarray) -> SaddlePattern:
    """Number the (row, col) pairs of all element blocks in CSC order.

    ``lattice`` holds the integer P2-lattice point of each unknown; it places
    each node's neighbours and fixes the elimination order of the free
    unknowns. Column counts follow from the list lengths, the row indices
    from the lists, and the slot of an element entry from its column start,
    its row component's block and its place in the list (``_neighbours``).
    """
    n, T = len(free), len(element_dofs)
    nn = (n - n_vertices) // 2
    near, degree, local = _neighbours(element_dofs[:, :6], lattice[:nn])
    # the rows of node m's velocity columns: u_x and u_y of its neighbours, then
    # the pressure of its neighbouring vertices, the prefix of its list
    rows = np.empty((nn, 3, near.shape[1]), dtype=np.int32)
    np.add(near[:, None, :], np.array([0, nn, 2 * nn])[:, None], out=rows)
    listed, vertex = near < nn, near < n_vertices
    stored = np.stack([listed, listed, vertex], axis=1)
    velocity_rows = rows[stored]
    velocity_count = 2 * degree + np.count_nonzero(vertex, axis=1)
    counts = np.concatenate([velocity_count, velocity_count, 2 * degree[:n_vertices]])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([velocity_rows, velocity_rows,   # pressure column v: B^T, v's velocity rows
                              rows[:n_vertices, :2][stored[:n_vertices, :2]]])

    node_degree = np.tile(degree[element_dofs[:, :6]], 2)[:, None, :]
    v_slots = np.empty((T, 12, 12), dtype=np.intp)
    np.add(np.tile(local, 2), indptr[element_dofs[:, :12]][:, None, :], out=v_slots[:, :6])
    np.add(v_slots[:, :6], node_degree, out=v_slots[:, 6:])
    div_slots = np.empty((2, T, 3, 12), dtype=np.intp)
    np.add(v_slots[:, :3], 2 * node_degree, out=div_slots[0])
    vertices = element_dofs[:, 12:]
    np.add(v_slots[:, :, :3].transpose(0, 2, 1),
           (indptr[vertices] - indptr[vertices - 2 * nn])[:, :, None], out=div_slots[1])

    free_order = np.flatnonzero(free)
    free_order = free_order[_nested_dissection(lattice[free_order])]
    free_indptr, free_rows, free_slots = _free_pattern(near, degree, n_vertices, indptr,
                                                       free_order)
    indptr = indptr.astype(np.int32)
    return SaddlePattern(
        indptr=indptr,
        indices=indices,
        v_slots=v_slots,
        div_slots=div_slots,
        free=free,
        free_order=free_order,
        free_slots=free_slots,
        full_template=_csc_template(indptr, indices),
        free_template=_csc_template(free_indptr, free_rows),
    )


def _neighbours(tri_nodes: np.ndarray,
                points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each P2 node's neighbour list, and each element node pair's place in it.

    A triangle's nodes lie within two lattice steps of each other, so the
    neighbours of node m (m among them) sit in the 5 x 5 window of lattice
    points around ``points[m]``. One scatter over the triangles' 36 node pairs
    fills every window, and sorting a window by node number gives the node's
    list. Returns the lists, (nodes, width) padded with the node count, their
    lengths, and ``local[t, i, j]``, the place of triangle t's node i in node
    j's list.
    """
    nn = len(points)
    corner = (5 * points[:, 0] + points[:, 1])[tri_nodes]
    cell = corner[:, :, None] - corner[:, None, :] + 12   # the cell of node i around node j
    at = cell + 32 * tri_nodes[:, None, :]
    cell += 32 * tri_nodes[:, :, None]
    window = np.full((nn, 32), 32 * nn + 31)
    window.ravel()[at] = cell           # node i's number and cell, in node j's window
    window.sort(axis=1)
    degree = np.count_nonzero(window < 32 * nn, axis=1)
    window = window[:, :degree.max()]
    cells = window & 31
    cells += np.arange(0, 32 * nn, 32)[:, None]
    rank = np.empty(32 * nn, dtype=np.int32)
    rank[cells] = np.arange(window.shape[1])
    return window >> 5, degree, rank[at]


def _free_pattern(near: np.ndarray, degree: np.ndarray, n_vertices: int, indptr: np.ndarray,
                  free_order: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSC pattern of the free rows and columns, both in ``free_order``.

    Column k is unknown free_order[k]. Its entries are the free rows of its
    column of the full pattern, ordered by the rows' places in
    ``free_order``. The two velocity columns of a node share one row list,
    and the pressure column of a vertex has another. Each list is a short
    row of keys place << shift | offset (the entry's offset in its full
    column), sorted in place, so a key gives both a free row and a data
    index. Returns the indptr, the row indices and the data index of each
    entry.
    """
    nn, width = near.shape
    n_free = len(free_order)
    span = int(np.diff(indptr).max())   # the longest column
    shift = (span - 1).bit_length()
    fixed = n_free << shift   # above the key of every free row
    # position[c, m]: the key of unknown c * nn + m, of u_x, u_y or p at node m
    position = np.full((3, nn + 1), fixed,   # every key is below fixed + 3 * width
                       dtype=np.int32 if fixed + 3 * width <= 2 ** 31 else np.intp)
    position.ravel()[free_order + free_order // nn] = np.arange(n_free) << shift
    keys = np.empty((nn + n_vertices, 3, width), dtype=position.dtype)
    for component in range(3):
        keys[:nn, component] = position[component][near]
    keys[:nn] += np.arange(width)
    keys[:nn, 1:] += degree[:, None, None]
    keys[:nn, 2] += degree[:, None]
    keys[nn:, :2] = keys[:n_vertices, :2]   # a vertex's pressure column: its velocity rows
    keys[nn:, 2] = fixed
    keys = keys.reshape(len(keys), -1)
    keys.sort(axis=1)
    keys = np.take(keys[:, :span],
                   np.where(free_order < 2 * nn, free_order % nn, free_order - nn), axis=0)
    listed = keys < fixed
    column_counts = np.count_nonzero(listed, axis=1)
    entries = keys[listed]
    del keys, listed
    free_rows = (entries >> shift).astype(np.int32, copy=False)
    entries &= (1 << shift) - 1
    free_slots = np.repeat(indptr[free_order], column_counts)
    free_slots += entries
    return np.concatenate([[0], np.cumsum(column_counts)]).astype(np.int32), free_rows, free_slots


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
    count = counts.cumsum(axis=0).cumsum(axis=1).tolist()
    # cut[lo][hi]: the vertex line strictly inside [lo, hi] nearest its middle, or -1
    lo, hi = np.ogrid[:size.max(), :size.max()]
    first, last = lo + 2 - lo % 2, hi - 2 + hi % 2
    cut = np.where(first <= last, np.clip(2 * np.round((lo + hi) / 4).astype(np.intp), first, last),
                   -1).tolist()
    pieces = []   # x0, x1, y0, y1 of each leaf and separator, in post-order

    def dissect(x0: int, x1: int, y0: int, y1: int) -> None:
        below, above = count[x0], count[x1 + 1]
        if above[y1 + 1] - below[y1 + 1] - above[y0] + below[y0] > DISSECTION_LEAF:
            x, y = cut[x0][x1], cut[y0][y1]
            if y >= 0 and (x < 0 or y1 - y0 > x1 - x0):
                dissect(x0, x1, y0, y - 1)
                dissect(x0, x1, y + 1, y1)
                pieces.extend((x0, x1, y, y))
                return
            if x >= 0:
                dissect(x0, x - 1, y0, y1)
                dissect(x + 1, x1, y0, y1)
                pieces.extend((x, x, y0, y1))
                return
        pieces.extend((x0, x1, y0, y1))

    dissect(0, int(size[0]) - 1, 0, int(size[1]) - 1)
    x0, x1, y0, y1 = np.array(pieces).reshape(-1, 4).T
    rows = x1 + 1 - x0
    piece = np.repeat(np.arange(len(rows)), rows)
    width = (y1 + 1 - y0)[piece]
    rank = np.empty(size[0] * size[1], dtype=np.intp)   # each lattice point's piece
    rank[_runs(_runs(x0, rows) * size[1] + y0[piece], width)] = np.repeat(piece, width)
    # ties keep the given order; distinct keys make any sort stable
    return np.argsort(rank[points[:, 0] * size[1] + points[:, 1]] * len(points)
                      + np.arange(len(points)))


def _runs(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The integer ranges [first, first + length), one after another."""
    runs = np.repeat(first - np.cumsum(length) + length, length)
    runs += np.arange(len(runs))
    return runs
