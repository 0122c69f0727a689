import numpy as np
import pytest

from llgpc.errors import InvalidParameterError, ProjectionDegenerateError
from llgpc.fem import (apply_Ph, build_assemblies, check_angle_condition,
                       discrete_laplacian, grad_sq, inner_h, inner_l2,
                       lumped_mass, nodal_cross, nodal_project_sphere, norm_h,
                       norms)
from llgpc.linalg import spmv
from llgpc.mesh import build_cube_mesh, make_mesh

from conftest import random_unit_field


class TestLumpedMass:
    def test_reference_tet_beta(self, reference_tet):
        beta = lumped_mass(reference_tet)
        assert beta == pytest.approx(np.full(4, 1.0 / 24.0))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_beta_sums_to_volume(self, n):
        beta = lumped_mass(build_cube_mesh(n, 1.0))
        assert abs(beta.sum() - 1.0) <= 1e-13

    def test_center_vertex_n2(self):
        mesh = build_cube_mesh(2, 1.0)
        beta = lumped_mass(mesh)
        center = int(np.argmin(np.linalg.norm(mesh.vertices, axis=1)))
        incident = [t for t in range(mesh.n_tets)
                    if center in mesh.tets[t]]
        from llgpc.mesh import tet_volumes
        vols = tet_volumes(mesh.vertices, mesh.tets)
        assert beta[center] == pytest.approx(vols[incident].sum() / 4.0)


class TestStiffness:
    def test_reference_tet_diagonal(self, reference_tet_asm):
        a = reference_tet_asm.stiffness.toarray()
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
        a = cube2_asm.stiffness.toarray()
        assert np.array_equal(a, a.T)


class TestConsistentMass:
    def test_reference_tet_stencil(self, reference_tet_asm):
        m = reference_tet_asm.mass.toarray()
        expected = np.full((4, 4), 1.0 / 120.0) + np.eye(4) / 120.0
        assert m == pytest.approx(expected)

    def test_row_sums_equal_beta(self, cube2_asm):
        m = cube2_asm.mass.toarray()
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
            inner_h(cube2_asm.beta, np.zeros((3, 3)), np.zeros((3, 3)))


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
        # a single 3-vector against a field, as in the tangent-space code
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
        assert check_angle_condition(asm.stiffness).passed

    def test_regular_tet_passes(self):
        verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         dtype=float)
        mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]), fix_orientation=True)
        assert check_angle_condition(build_assemblies(mesh).stiffness).passed

    def test_obtuse_sliver_pair_fails(self):
        # two flat tets over a shared triangle: apexes close to its plane
        verts = np.array([
            [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0],
            [0.5, 0.2, 0.05], [0.5, 0.2, -0.05],
        ])
        mesh = make_mesh(verts, np.array([[0, 1, 2, 3], [0, 2, 1, 4]]),
                         fix_orientation=True)
        stiffness = build_assemblies(mesh).stiffness
        report = check_angle_condition(stiffness)
        assert not report.passed
        assert report.worst_offdiag > 0
        assert len(report.offending) >= 1
        assert report.offending == _offending_by_scan(stiffness)

    def test_report_worst_first_capped_at_ten(self):
        rng = np.random.Generator(np.random.Philox(9))
        cube = build_cube_mesh(2, 1.0)
        verts = cube.vertices + 0.1 * rng.normal(size=cube.vertices.shape)
        mesh = make_mesh(verts, cube.tets, fix_orientation=True)
        stiffness = build_assemblies(mesh).stiffness
        report = check_angle_condition(stiffness)
        assert len(report.offending) == 10
        assert report.offending == _offending_by_scan(stiffness)


def _offending_by_scan(stiffness, slack=1e-13):
    """Positive off-diagonal entries, worst first with ties in row-major
    order, at most 10."""
    a = stiffness.toarray()
    bad = [(i, j, float(a[i, j])) for i in range(a.shape[0])
           for j in range(a.shape[1]) if i != j and a[i, j] > slack]
    bad.sort(key=lambda e: -e[2])
    return tuple(bad[:10])


class TestNorms:
    def test_constant_unit_field(self, cube2_asm):
        w = np.zeros((cube2_asm.n, 3))
        w[:, 2] = 1.0
        result = norms(cube2_asm.mass, cube2_asm.stiffness, w)
        assert result.l2 == pytest.approx(1.0)
        assert result.grad_sq == pytest.approx(0.0, abs=1e-13)

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
