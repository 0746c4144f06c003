import numpy as np
import pytest

from snsflow.checks import audit_mesh
from snsflow.mesh import build_dof_map, build_structured_mesh


def test_smallest_mesh_counts_and_euler():
    mesh = build_structured_mesh(1)
    assert (mesh.n_vertices, mesh.n_triangles, mesh.n_edges) == (4, 2, 5)
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1


def test_n2_counts_match_hand_enumeration():
    mesh = build_structured_mesh(2)
    assert (mesh.n_vertices, mesh.n_triangles, mesh.n_edges) == (9, 8, 16)


def test_n12_triangle_count():
    assert build_structured_mesh(12).n_triangles == 288


def test_rejects_degenerate_resolution():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


@pytest.mark.parametrize("n", list(range(1, 33)))
def test_mesh_audit_full_family(n):
    assert audit_mesh(build_structured_mesh(n)) == []


def test_refinement_halves_mesh_size_exactly():
    for n in (1, 2, 4, 8, 16):
        assert build_structured_mesh(2 * n).h == build_structured_mesh(n).h / 2


def test_vertices_inside_unit_square():
    mesh = build_structured_mesh(7)
    assert np.all(mesh.vertices >= -1e-14) and np.all(mesh.vertices <= 1 + 1e-14)


def test_triangles_positively_oriented():
    assert np.all(build_structured_mesh(5).signed_areas() > 0)


def test_dof_counts_smallest_meshes():
    dofs1 = build_dof_map(build_structured_mesh(1))
    assert (dofs1.n_velocity_dofs, dofs1.n_pressure_dofs) == (18, 4)
    dofs2 = build_dof_map(build_structured_mesh(2))
    assert (dofs2.n_velocity_dofs, dofs2.n_pressure_dofs) == (50, 9)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
def test_dirichlet_mask_counts(n):
    dofs = build_dof_map(build_structured_mesh(n))
    assert dofs.dirichlet_mask.sum() == 16 * n


def test_mask_matches_boundary_flags_exactly():
    mesh = build_structured_mesh(4)
    dofs = build_dof_map(mesh)
    node_flags = np.concatenate([mesh.boundary_vertex_flags, mesh.boundary_edge_flags])
    nn = dofs.n_scalar_nodes
    assert np.array_equal(dofs.dirichlet_mask[:nn], node_flags)
    assert np.array_equal(dofs.dirichlet_mask[nn:], node_flags)


def test_local_to_global_injective_and_surjective():
    mesh = build_structured_mesh(3)
    dofs = build_dof_map(mesh)
    for t in range(mesh.n_triangles):
        flat = dofs.element_dofs[t]
        assert len(set(flat.tolist())) == 15
    covered = np.unique(dofs.element_dofs.ravel())
    assert np.array_equal(covered, np.arange(dofs.n_velocity_dofs + dofs.n_pressure_dofs))


def test_node_coords_cover_vertices_then_midpoints():
    mesh = build_structured_mesh(2)
    dofs = build_dof_map(mesh)
    assert np.array_equal(dofs.node_coords[:mesh.n_vertices], mesh.vertices)
    assert np.array_equal(dofs.node_coords[mesh.n_vertices:], mesh.edge_midpoints)
    tn = dofs.element_dofs[:, :6]
    # local node 3 sits opposite local vertex 0, etc.
    for t in range(mesh.n_triangles):
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            mid = 0.5 * (dofs.node_coords[tn[t, i]] + dofs.node_coords[tn[t, j]])
            assert np.allclose(dofs.node_coords[tn[t, 3 + k]], mid, atol=1e-15)


def test_pressure_gauge_is_partition_of_unity_integral():
    dofs = build_dof_map(build_structured_mesh(6))
    assert dofs.pressure_gauge.sum() == pytest.approx(1.0, abs=1e-14)
    # constant pressure p=1 integrates to the domain area
    assert dofs.pressure_gauge @ np.ones(dofs.n_pressure_dofs) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_saddle_pattern_slots_land_on_element_dof_pairs(n):
    dofs = build_dof_map(build_structured_mesh(n))
    pat = dofs.pattern
    for arr in (pat.indptr, pat.indices):
        assert arr.dtype == np.int32
    for arr in (pat.v_slots, pat.div_slots):   # np.bincount's index type: no cast per call
        assert arr.dtype == np.intp
    col_of = np.repeat(np.arange(len(pat.free)), np.diff(pat.indptr))
    vel, prs = dofs.element_dofs[:, :12], dofs.element_dofs[:, 12:]

    def lands_on(slots, rows, cols):
        return (np.array_equal(pat.indices[slots], np.broadcast_to(rows, slots.shape))
                and np.array_equal(col_of[slots], np.broadcast_to(cols, slots.shape)))

    assert lands_on(pat.v_slots, vel[:, :, None], vel[:, None, :])
    assert lands_on(pat.div_slots[0], prs[:, :, None], vel[:, None, :])   # B
    assert lands_on(pat.div_slots[1], vel[:, None, :], prs[:, :, None])   # B^T
    # every stored entry is some element's entry
    slots = np.concatenate([pat.v_slots.ravel(), pat.div_slots.ravel()])
    assert np.array_equal(np.unique(slots), np.arange(pat.nnz))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_free_matrix_is_the_free_submatrix_entry_for_entry(n):
    pat = build_dof_map(build_structured_mesh(n)).pattern
    data = np.random.default_rng(n).standard_normal(pat.nnz)
    got = pat.free_matrix(data)
    want = pat.matrix(data)[pat.free_order][:, pat.free_order]
    want.sort_indices()
    assert got.shape == want.shape and got.has_sorted_indices
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_free_order_is_a_permutation_of_the_free_unknowns(n):
    pat = build_dof_map(build_structured_mesh(n)).pattern
    assert np.array_equal(np.sort(pat.free_order), np.flatnonzero(pat.free))


def test_free_order_numbers_a_separating_vertex_line_last():
    dofs = build_dof_map(build_structured_mesh(4))
    pat = dofs.pattern
    # the unknowns' P2 lattice columns: u_x, u_y at the nodes, p at the vertices
    x = np.rint(8 * np.concatenate([dofs.node_coords[:, 0], dofs.node_coords[:, 0],
                                    dofs.mesh.vertices[:, 0]]))
    ordered = x[pat.free_order]
    line = ordered == 4   # the first cut: the middle vertex line of the 8 x 8 lattice
    assert line[-np.count_nonzero(line):].all()
    # and no entry couples an unknown left of it to one right of it
    coupled = pat.free_matrix(np.ones(pat.nnz)).tocoo()
    left, right = ordered < 4, ordered > 4
    assert not (left[coupled.row] & right[coupled.col]).any()


@pytest.mark.parametrize("n", [1, 3])
def test_saddle_pattern_is_sorted_duplicate_free_and_symmetric(n):
    pat = build_dof_map(build_structured_mesh(n)).pattern
    for c in range(len(pat.free)):
        rows = pat.indices[pat.indptr[c]:pat.indptr[c + 1]]
        assert np.all(np.diff(rows) > 0)
    ones = pat.matrix(np.ones(pat.nnz))
    assert (ones != ones.T).nnz == 0


def test_free_set_drops_dirichlet_dofs_and_pressure_pin():
    dofs = build_dof_map(build_structured_mesh(4))
    pinned = np.zeros(dofs.n_pressure_dofs, dtype=bool)
    pinned[0] = True
    assert np.array_equal(~dofs.pattern.free,
                          np.concatenate([dofs.dirichlet_mask, pinned]))


def _loop_mesh_arrays(n):
    """The triangles, edges and triangle edges of the n x n mesh, built by
    walking the squares and numbering each edge when a triangle first meets it."""
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
    edge_index, edges = {}, []
    triangle_edges = np.empty((len(triangles), 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(triangles):
        for k, (p, q) in enumerate(((b, c), (c, a), (a, b))):
            key = (min(p, q), max(p, q))
            if key not in edge_index:
                edge_index[key] = len(edges)
                edges.append(key)
            triangle_edges[t, k] = edge_index[key]
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.array([(xs[k % (n + 1)], xs[k // (n + 1)]) for k in range((n + 1) ** 2)])
    return {"vertices": vertices, "triangles": triangles,
            "edges": np.asarray(edges, dtype=np.int64), "triangle_edges": triangle_edges}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_mesh_arrays_match_loop_construction(n):
    mesh = build_structured_mesh(n)
    for name, want in _loop_mesh_arrays(n).items():
        got = getattr(mesh, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
