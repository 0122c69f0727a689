import tracemalloc

import numpy as np
import pytest

from llgpc.errors import InvalidParameterError, ProjectionDegenerateError
from llgpc.fem import (PAIRS, _element_stiffness, _p1_gradients, apply_Ph,
                       build_assemblies, check_angle_condition,
                       discrete_laplacian, grad_sq, h1_norm, inner_l2,
                       nodal_cross, nodal_project_sphere)
from llgpc.linalg import spmv
from llgpc.mesh import TET_BLOCK, Mesh, build_cube_mesh, edge_det, tet_blocks

from conftest import (csr_from_coo, dense, inner_h, norm_h, oriented_mesh,
                      random_unit_field)


class TestLumpedMass:
    def test_reference_tet_beta(self, reference_tet_asm):
        assert reference_tet_asm.beta == pytest.approx(np.full(4, 1.0 / 24.0))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_beta_sums_to_volume(self, n):
        beta = build_assemblies(build_cube_mesh(n, 1.0)).beta
        assert abs(beta.sum() - 1.0) <= 1e-13

    def test_center_vertex_n2(self, cube2_asm):
        mesh = cube2_asm.mesh
        center = int(np.argmin(np.linalg.norm(mesh.vertices, axis=1)))
        incident = [t for t in range(mesh.n_tets)
                    if center in mesh.tets[t]]
        assert cube2_asm.beta[center] == pytest.approx(
            mesh.volumes[incident].sum() / 4.0)

    def test_beta_is_the_mesh_bincount_of_quarter_volumes(self):
        # pins the summation order: one bincount over all 4T corners
        for mesh in (perturbed_cube3(), perturbed_cube9()):
            expected = np.bincount(mesh.tets.ravel(),
                                   weights=np.repeat(mesh.volumes / 4.0, 4),
                                   minlength=mesh.n_vertices)
            assert np.array_equal(mesh.beta, expected)

    def test_beta_is_the_read_only_mesh_beta(self):
        asm = build_assemblies(build_cube_mesh(1, 1.0))
        assert asm.beta is asm.mesh.beta
        with pytest.raises(ValueError):
            asm.beta[0] = 1.0


def perturbed_cube(n, shift):
    mesh = build_cube_mesh(n, 1.0)
    rng = np.random.Generator(np.random.Philox(5))
    shift = rng.uniform(-shift, shift, mesh.vertices.shape)
    return Mesh(mesh.vertices + shift, mesh.tets)


def perturbed_cube3():
    return perturbed_cube(3, 0.03)


def perturbed_cube9():
    """4374 tets: a full TET_BLOCK and a partial one."""
    return perturbed_cube(9, 0.01)


def gradients(mesh):
    """(T, 4, 3) gradients of all tets from one unblocked corner gather."""
    return _p1_gradients(mesh.vertices.T[:, mesh.tets.T]).transpose(2, 0, 1)


def inverse_gradients(mesh):
    """Gradients as the columns of the inverted edge matrix: the oracle."""
    x = mesh.vertices[mesh.tets]
    inv = np.linalg.inv(x[:, 1:] - x[:, :1])
    grads = np.empty((mesh.n_tets, 4, 3))
    grads[:, 1:] = np.transpose(inv, (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return grads


class TestGradients:
    def test_cofactors_match_inverse_on_perturbed_cube(self):
        mesh = perturbed_cube3()
        grads = gradients(mesh)
        assert grads.shape == (162, 4, 3)
        assert (np.abs(grads - inverse_gradients(mesh)).max()
                <= 1e-15 * np.abs(grads).max())

    def test_dual_to_edges(self):
        mesh = perturbed_cube3()
        grads = gradients(mesh)
        x = mesh.vertices[mesh.tets]
        # grad_i . (x_j - x_0) = delta_ij for i, j in 1..3
        duals = np.einsum("tic,tjc->tij", grads[:, 1:], x[:, 1:] - x[:, :1])
        assert np.abs(duals - np.eye(3)).max() <= 1e-15

    def test_unit_kuhn_bitwise_equal_to_inverse(self):
        mesh = build_cube_mesh(8, 1.0)
        assert np.array_equal(gradients(mesh), inverse_gradients(mesh))

    def test_volumes_are_the_cofactor_determinant_over_six(self):
        # one determinant per tet gives the volumes and the gradients
        mesh = perturbed_cube3()
        det = edge_det(mesh.vertices.T[:, mesh.tets.T],
                       np.empty((3, 3, mesh.n_tets)))
        assert mesh.volumes.tobytes() == (det / 6.0).tobytes()

    def test_blocked_geometry_equals_unblocked(self):
        mesh = perturbed_cube9()
        assert mesh.n_tets > TET_BLOCK
        det = edge_det(mesh.vertices.T[:, mesh.tets.T],
                       np.empty((3, 3, mesh.n_tets)))
        assert mesh.volumes.tobytes() == (det / 6.0).tobytes()
        x = mesh.vertices[mesh.tets]
        assert mesh.h_max == max(
            float(np.linalg.norm(x[:, i] - x[:, j], axis=1).max())
            for i, j in PAIRS[4:])


class TestElementStiffness:
    def test_bitwise_equal_to_einsum_and_symmetric(self):
        rng = np.random.Generator(np.random.Philox(41))
        t = TET_BLOCK + 904  # a full block and a partial one
        for _ in range(5):
            grads = rng.normal(size=(t, 4, 3)) * 10.0 ** rng.uniform(
                -3, 3, (t, 1, 1))
            vols = 10.0 ** rng.uniform(-6, 0, t)
            ke = np.concatenate([
                _element_stiffness(grads[b].transpose(1, 2, 0), vols[b])
                for b in tet_blocks(t)])
            full = np.einsum("tic,tjc,t->tij", grads, grads, vols)
            i, j = np.array(PAIRS).T
            assert ke.tobytes() == full[:, i, j].tobytes()
            assert ke.tobytes() == full[:, j, i].tobytes()  # symmetric


class TestAssembly:
    def test_caller_writes_after_construction_change_nothing(self):
        # the mesh once kept the caller's arrays: inverting t[0] gave a
        # stiffness diagonal of -1/3 with no error
        cube = build_cube_mesh(1, 1.0)
        v, t = cube.vertices.copy(), cube.tets.copy()
        mesh = Mesh(v, t)
        before = build_assemblies(mesh)
        t[0] = t[0][[0, 2, 1, 3]]
        v[0] += 0.25
        after = build_assemblies(mesh)
        for a, b in ((before.stiffness, after.stiffness),
                     (before.mass, after.mass)):
            for x, y in zip(a.entries(), b.entries()):
                assert np.array_equal(x, y)
        assert np.array_equal(before.beta, after.beta)

    def test_stiffness_pattern_within_mass_pattern(self):
        for mesh in (build_cube_mesh(2, 1.0), perturbed_cube3()):
            asm = build_assemblies(mesh)
            a_rows, a_cols, _ = asm.stiffness.entries()
            m_rows, m_cols, _ = asm.mass.entries()
            n = asm.n
            assert np.isin(a_rows * n + a_cols, m_rows * n + m_cols).all()

    @pytest.mark.parametrize("n, edge, nnz", [
        (8, 1.0, 4617), (8, 0.4, 4617), (8, 0.7, 4617), (8, 2.5, 4617),
        (4, 0.4, 725),
    ], ids=["n8_edge1.0", "n8_edge0.4", "n8_edge0.7", "n8_edge2.5",
            "n4_edge0.4"])
    def test_kuhn_stiffness_stores_no_zeros(self, n, edge, nnz):
        # 7-point stencil at any edge; an inverted edge matrix left rounding
        # residue for 6665, 7319, 6665 and 981 entries at the non-unit edges
        stiffness = build_assemblies(build_cube_mesh(n, edge)).stiffness
        assert not np.any(stiffness.entries()[2] == 0.0)
        assert stiffness.nnz == nnz

    @pytest.mark.parametrize("mesh", [build_cube_mesh(2, 1.0),
                                      perturbed_cube3(), perturbed_cube9()],
                             ids=["kuhn_n2", "perturbed_n3", "perturbed_n9"])
    def test_stiffness_equals_dense_accumulation_in_tet_order(self, mesh):
        grads = gradients(mesh)
        ke = np.einsum("tic,tjc,t->tij", grads, grads, mesh.volumes)
        expected = np.zeros((mesh.n_vertices, mesh.n_vertices))
        for t, tet in enumerate(mesh.tets):
            np.add.at(expected, (tet[:, None], tet[None, :]), ke[t])
        assert np.array_equal(dense(build_assemblies(mesh).stiffness),
                              expected)

    def test_mass_equals_dense_accumulation_in_tet_order(self):
        for mesh in (perturbed_cube3(), perturbed_cube9()):
            ke = (mesh.volumes[:, None, None]
                  * ((np.ones((4, 4)) + np.eye(4)) / 20.0))
            expected = np.zeros((mesh.n_vertices, mesh.n_vertices))
            for t, tet in enumerate(mesh.tets):
                np.add.at(expected, (tet[:, None], tet[None, :]), ke[t])
            assert np.array_equal(dense(build_assemblies(mesh).mass),
                                  expected)

    def test_peak_memory_n16(self):
        mesh = build_cube_mesh(16, 1.0)
        tracemalloc.start()
        try:
            build_assemblies(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_kept_memory_n16(self):
        # each matrix keeps its plan and indptr, not a second copy of its
        # entries: 1.77 MiB kept, 3.44 MiB with CSR indices and data too
        mesh = build_cube_mesh(16, 1.0)
        tracemalloc.start()
        try:
            asm = build_assemblies(mesh)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert asm.stiffness.nnz > 0
        assert kept < 2.5 * 2**20

    def test_cube_mesh_peak_memory_n16(self):
        tracemalloc.start()
        try:
            build_cube_mesh(16, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestStiffness:
    def test_reference_tet_diagonal(self, reference_tet_asm):
        a = dense(reference_tet_asm.stiffness)
        # vertex 0 has gradient (-1,-1,-1): entry 3 * (1/6)
        assert a[0, 0] == pytest.approx(0.5)
        for i in (1, 2, 3):
            assert a[i, i] == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_annihilates_constants(self, n):
        asm = build_assemblies(build_cube_mesh(n, 1.0))
        ones = np.ones(asm.n)
        assert np.abs(spmv(asm.stiffness, ones)).max() <= 1e-13

    def test_symmetric(self, cube2_asm):
        a = dense(cube2_asm.stiffness)
        assert np.array_equal(a, a.T)


class TestConsistentMass:
    def test_reference_tet_stencil(self, reference_tet_asm):
        m = dense(reference_tet_asm.mass)
        expected = np.full((4, 4), 1.0 / 120.0) + np.eye(4) / 120.0
        assert m == pytest.approx(expected)

    def test_row_sums_equal_beta(self, cube2_asm):
        m = dense(cube2_asm.mass)
        assert m.sum(axis=1) == pytest.approx(cube2_asm.beta)

    def test_times_constant_is_beta(self, cube2_asm):
        assert spmv(cube2_asm.mass, np.ones(cube2_asm.n)) == pytest.approx(
            cube2_asm.beta)


class TestInnerProducts:
    def test_constant_field_gives_volume(self, cube2_asm):
        u = np.zeros((cube2_asm.n, 3))
        u[:, 0] = 1.0
        assert inner_h(cube2_asm.beta, u, u) == pytest.approx(1.0)

    def test_pointwise_orthogonal_is_zero(self, cube2_asm):
        u = np.zeros((cube2_asm.n, 3))
        w = np.zeros((cube2_asm.n, 3))
        u[:, 0] = 1.0
        w[:, 1] = 2.0
        assert inner_h(cube2_asm.beta, u, w) == 0.0

    def test_norm_equivalence(self, cube2_asm):
        for seed in range(100):
            rng = np.random.Generator(np.random.Philox(seed))
            w = rng.normal(size=(cube2_asm.n, 3))
            l2 = np.sqrt(inner_l2(cube2_asm.mass, w, w))
            lh = norm_h(cube2_asm.beta, w)
            assert l2 <= lh * (1 + 1e-12)
            assert lh <= np.sqrt(5.0) * l2 * (1 + 1e-12)

    def test_shape_mismatch(self, cube2_asm):
        with pytest.raises(InvalidParameterError):
            inner_l2(cube2_asm.mass, np.zeros((3, 3)), np.zeros((3, 3)))


class TestDiscreteLaplacian:
    def test_constant_maps_to_zero(self, cube2_asm):
        w = np.ones((cube2_asm.n, 3))
        lap = discrete_laplacian(cube2_asm.stiffness, cube2_asm.beta, w)
        assert np.abs(lap).max() <= 1e-12

    def test_defining_identity(self, cube2_asm):
        rng = np.random.Generator(np.random.Philox(11))
        w = rng.normal(size=(cube2_asm.n, 3))
        lap = discrete_laplacian(cube2_asm.stiffness, cube2_asm.beta, w)
        lhs = -inner_h(cube2_asm.beta, lap, w)
        rhs = grad_sq(cube2_asm.stiffness, w)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_self_adjoint_in_lumped_product(self, cube2_asm):
        rng = np.random.Generator(np.random.Philox(12))
        u = rng.normal(size=(cube2_asm.n, 3))
        w = rng.normal(size=(cube2_asm.n, 3))
        lu = discrete_laplacian(cube2_asm.stiffness, cube2_asm.beta, u)
        lw = discrete_laplacian(cube2_asm.stiffness, cube2_asm.beta, w)
        assert inner_h(cube2_asm.beta, lu, w) == pytest.approx(
            inner_h(cube2_asm.beta, u, lw), rel=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_inverse_estimate(self, n):
        asm = build_assemblies(build_cube_mesh(n, 1.0))
        h = asm.mesh.h_max
        rng = np.random.Generator(np.random.Philox(13))
        for _ in range(20):
            w = rng.normal(size=(asm.n, 3))
            ratio = (norm_h(asm.beta,
                            discrete_laplacian(asm.stiffness, asm.beta, w))
                     * h * h / norm_h(asm.beta, w))
            assert ratio <= 30.0


class TestApplyPh:
    def test_constant_fixed_point(self, cube2_asm):
        c = np.tile([1.0, -2.0, 0.5], (cube2_asm.n, 1))
        out = apply_Ph(cube2_asm.mass, cube2_asm.beta, c)
        assert out == pytest.approx(c, abs=1e-13)

    def test_defining_identity(self, cube2_asm):
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(100 + seed))
            w = rng.normal(size=(cube2_asm.n, 3))
            wh = rng.normal(size=(cube2_asm.n, 3))
            lhs = inner_h(cube2_asm.beta,
                          apply_Ph(cube2_asm.mass, cube2_asm.beta, w), wh)
            rhs = inner_l2(cube2_asm.mass, w, wh)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_single_tet_hat_function(self, reference_tet_asm):
        w = np.zeros((4, 3))
        w[0, 0] = 1.0  # phi_0 * e1
        out = apply_Ph(reference_tet_asm.mass, reference_tet_asm.beta, w)
        # (M w)_0 = 1/60, others 1/120; beta = 1/24
        assert out[:, 0] == pytest.approx([0.4, 0.2, 0.2, 0.2])
        assert np.abs(out[:, 1:]).max() == 0.0

    def test_scalar_field_is_one_column(self, cube2_asm):
        s = np.random.Generator(np.random.Philox(14)).normal(size=cube2_asm.n)
        out = apply_Ph(cube2_asm.mass, cube2_asm.beta, s)
        ref = apply_Ph(cube2_asm.mass, cube2_asm.beta,
                       np.column_stack([s, -s, 2.0 * s]))
        assert out.shape == (cube2_asm.n,)
        assert np.array_equal(out, ref[:, 0])

    @pytest.mark.parametrize("extra,cols", [(1, ()), (1, (3,)), (0, (2,)),
                                            (0, (3, 1))],
                             ids=["scalar_long", "field_long", "two_cols",
                                  "three_d"])
    def test_shape_mismatch(self, cube2_asm, extra, cols):
        w = np.ones((cube2_asm.n + extra,) + cols)
        with pytest.raises(InvalidParameterError):
            apply_Ph(cube2_asm.mass, cube2_asm.beta, w)


class TestNodalOps:
    def test_cross_constants(self, cube1_asm):
        e1 = np.tile([1.0, 0, 0], (cube1_asm.n, 1))
        e2 = np.tile([0, 1.0, 0], (cube1_asm.n, 1))
        assert nodal_cross(e1, e2) == pytest.approx(
            np.tile([0, 0, 1.0], (cube1_asm.n, 1)))

    def test_cross_self_and_antisymmetry(self, cube1_asm):
        u = random_unit_field(cube1_asm.n, 21)
        w = random_unit_field(cube1_asm.n, 22)
        assert np.abs(nodal_cross(u, u)).max() <= 1e-16
        assert nodal_cross(u, w) == pytest.approx(-nodal_cross(w, u))

    def test_cross_bitwise_equal_to_numpy(self):
        rng = np.random.Generator(np.random.Philox(23))
        u = rng.normal(size=(200, 3))
        w = rng.normal(size=(200, 3))
        assert nodal_cross(u, w).tobytes() == np.cross(u, w).tobytes()
        # a single 3-vector against a field, as in the tangent-space oracle
        assert nodal_cross(u[7], w).tobytes() == np.cross(u[7], w).tobytes()
        assert nodal_cross(u, w[7]).tobytes() == np.cross(u, w[7]).tobytes()

    def test_project_simple(self):
        u = np.array([[1.0, 1.0, 0.0]])
        assert nodal_project_sphere(u)[0] == pytest.approx(
            [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])

    def test_project_idempotent_bitwise_on_unit(self):
        u = random_unit_field(50, 23)
        p = nodal_project_sphere(u)
        assert np.array_equal(nodal_project_sphere(p), p)

    def test_project_zero_vector_errors(self):
        u = np.array([[1.0, 0, 0], [0, 0, 0]])
        with pytest.raises(ProjectionDegenerateError) as exc:
            nodal_project_sphere(u)
        assert exc.value.vertex == 1


class TestAngleCondition:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_kuhn_meshes_pass(self, n):
        asm = build_assemblies(build_cube_mesh(n, 1.0))
        report = check_angle_condition(asm.stiffness)
        assert report.passed
        # every stored coupling is negative; the unstored ones are 0.0
        assert report.worst_offdiag == 0.0

    def test_regular_tet_passes(self):
        verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         dtype=float)
        mesh = oriented_mesh(verts, [[0, 1, 2, 3]])
        report = check_angle_condition(build_assemblies(mesh).stiffness)
        assert report.passed
        # every vertex pair is stored: the worst is a coupling itself
        assert report.worst_offdiag == pytest.approx(-1.0 / 6.0)

    @pytest.mark.parametrize("mesh, worst", [
        # criterion 8's mesh; an inverted edge matrix gave 9.25e-19
        (build_cube_mesh(4, 0.4), 0.0),
        (perturbed_cube3(), 0.0475),
    ], ids=["kuhn_n4_edge0.4", "perturbed_n3"])
    def test_worst_offdiag_stored(self, mesh, worst):
        report = check_angle_condition(build_assemblies(mesh).stiffness)
        assert report.worst_offdiag == pytest.approx(worst, rel=1e-3, abs=0.0)

    def test_obtuse_sliver_pair_fails(self):
        # two flat tets over a shared triangle: apexes close to its plane
        verts = np.array([
            [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0],
            [0.5, 0.2, 0.05], [0.5, 0.2, -0.05],
        ])
        mesh = oriented_mesh(verts, [[0, 1, 2, 3], [0, 2, 1, 4]])
        stiffness = build_assemblies(mesh).stiffness
        report = check_angle_condition(stiffness)
        assert not report.passed
        assert report.worst_offdiag > 0
        assert len(report.offending) >= 1
        assert report.offending == _offending_by_scan(dense(stiffness))

    def test_report_worst_first_capped_at_ten(self):
        rng = np.random.Generator(np.random.Philox(9))
        cube = build_cube_mesh(2, 1.0)
        verts = cube.vertices + 0.1 * rng.normal(size=cube.vertices.shape)
        mesh = oriented_mesh(verts, cube.tets)
        stiffness = build_assemblies(mesh).stiffness
        report = check_angle_condition(stiffness)
        assert len(report.offending) == 10
        assert report.offending == _offending_by_scan(dense(stiffness))

    def test_report_reads_overflow_entries_and_keeps_ties_in_order(self):
        # row 0 is stored in full, far past the padded width, so its
        # columns 5-11 are overflow entries; the ten worst are six ties at
        # 0.9 and four of the eight at 0.5, which only stored order picks
        a = np.eye(12)
        a[0] = [1.0, 0.5, -0.2, 0.5, 0.3, 0.1, 0.5, 0.9, 0.5, 0.9, 0.2, 0.9]
        for r in range(1, 12):
            a[r, (r + 5) % 12] = (0.9, -0.3, 0.5)[r % 3]
        rows, cols = np.nonzero(a)
        stiffness = csr_from_coo(rows, cols, a[rows, cols], len(a))
        assert np.unique(stiffness._overflow[0]).tolist() == [0]
        report = check_angle_condition(stiffness)
        assert not report.passed and report.worst_offdiag == 0.9
        assert report.offending == _offending_by_scan(a)
        assert [e[:2] for e in report.offending] == [
            (0, 7), (0, 9), (0, 11), (3, 8), (6, 11), (9, 2),
            (0, 1), (0, 3), (0, 6), (0, 8)]


def _offending_by_scan(a, slack=1e-13):
    """Positive off-diagonal entries of a dense array, worst first with
    ties in row-major order, at most 10."""
    bad = [(i, j, float(a[i, j])) for i in range(a.shape[0])
           for j in range(a.shape[1]) if i != j and a[i, j] > slack]
    bad.sort(key=lambda e: -e[2])
    return tuple(bad[:10])


class TestNorms:
    def test_constant_unit_field(self, cube2_asm):
        w = np.zeros((cube2_asm.n, 3))
        w[:, 2] = 1.0
        assert inner_l2(cube2_asm.mass, w, w) == pytest.approx(1.0)
        assert grad_sq(cube2_asm.stiffness, w) == pytest.approx(0.0, abs=1e-13)
        assert h1_norm(cube2_asm.mass, cube2_asm.stiffness, w) == (
            pytest.approx(1.0))

    def test_grad_sq_matches_laplacian(self, cube2_asm):
        rng = np.random.Generator(np.random.Philox(31))
        w = rng.normal(size=(cube2_asm.n, 3))
        lap = discrete_laplacian(cube2_asm.stiffness, cube2_asm.beta, w)
        assert grad_sq(cube2_asm.stiffness, w) == pytest.approx(
            -inner_h(cube2_asm.beta, lap, w), rel=1e-12)

    def test_single_tet_hat_grad_sq(self, reference_tet_asm):
        w = np.zeros((4, 3))
        w[0, 0] = 1.0
        assert grad_sq(reference_tet_asm.stiffness, w) == pytest.approx(0.5)


class TestComplexFieldsRejected:
    @pytest.mark.parametrize("op", [
        lambda a, w: apply_Ph(a.mass, a.beta, w),
        lambda a, w: apply_Ph(a.mass, a.beta, w[:, 0]),
        lambda a, w: discrete_laplacian(a.stiffness, a.beta, w),
        lambda a, w: grad_sq(a.stiffness, w),
        lambda a, w: inner_l2(a.mass, w, w.real),
        lambda a, w: inner_l2(a.mass, w.real, w),
        lambda a, w: h1_norm(a.mass, a.stiffness, w),
    ], ids=["apply_Ph", "apply_Ph_scalar", "discrete_laplacian", "grad_sq",
            "inner_l2_left", "inner_l2_right", "h1_norm"])
    def test_operator_rejects_complex_field(self, cube2_asm, op):
        w = np.ones((cube2_asm.n, 3)) + 1e-3j
        with pytest.raises(InvalidParameterError, match="complex"):
            op(cube2_asm, w)


class TestProjectionEnergyDecrease:
    def test_exchange_energy_never_increases(self, cube2_asm):
        assert check_angle_condition(cube2_asm.stiffness).passed
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(200 + seed))
            w = random_unit_field(cube2_asm.n, 300 + seed)
            w *= (1.0 + np.abs(rng.normal(size=cube2_asm.n)))[:, None]
            proj = nodal_project_sphere(w)
            assert grad_sq(cube2_asm.stiffness, proj) <= (
                grad_sq(cube2_asm.stiffness, w) * (1 + 1e-12) + 1e-12)
