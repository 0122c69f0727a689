from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from llgpc.errors import GeometryError, InvalidParameterError, ParseError
from llgpc.mesh import Mesh, build_cube_mesh, load_mesh, save_mesh

from conftest import oriented_mesh

UNIT_TET = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def face_counts(mesh: Mesh) -> np.ndarray:
    """Number of tets sharing each distinct face (vertex triple)."""
    faces = mesh.tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]
    faces = np.sort(faces.reshape(-1, 3), axis=1)
    return np.unique(faces, axis=0, return_counts=True)[1]


class TestBuildCubeMesh:
    def test_n1_counts_and_volume(self):
        mesh = build_cube_mesh(1, 1.0, center=(0.5, 0.5, 0.5))
        assert mesh.n_vertices == 8
        assert mesh.n_tets == 6
        assert mesh.volumes.sum() == pytest.approx(1.0)

    def test_n1_tets_pinned(self):
        # corner (i, j, k) of the cell has index i + 2 j + 4 k; one Kuhn path
        # per axis permutation, odd ones with their last two corners swapped
        assert build_cube_mesh(1, 1.0).tets.tolist() == [
            [0, 1, 3, 7], [0, 1, 7, 5], [0, 2, 7, 3],
            [0, 2, 6, 7], [0, 4, 5, 7], [0, 4, 7, 6]]

    def test_n2_counts(self):
        mesh = build_cube_mesh(2, 1.0)
        assert mesh.n_vertices == 27
        assert mesh.n_tets == 48

    @pytest.mark.parametrize("n,edge", [(1, 1.0), (2, 1.0), (3, 2.5), (4, 0.4)])
    def test_volume_partition(self, n, edge):
        mesh = build_cube_mesh(n, edge)
        vols = mesh.volumes
        assert np.all(vols > 0)
        assert abs(vols.sum() - edge ** 3) <= 1e-13 * edge ** 3

    @pytest.mark.parametrize("n,edge", [(1, 1.0), (2, 1.0), (4, 0.4)])
    def test_h_max_is_cell_diagonal(self, n, edge):
        mesh = build_cube_mesh(n, edge)
        assert mesh.h_max == pytest.approx(np.sqrt(3.0) * edge / n, rel=1e-14)

    def test_h_max_equals_longest_edge_norm(self):
        cube = build_cube_mesh(4, 0.7)
        rng = np.random.Generator(np.random.Philox(17))
        mesh = Mesh(cube.vertices + rng.uniform(-0.01, 0.01, (125, 3)),
                    cube.tets)
        x = mesh.vertices[mesh.tets]
        six_norms = max(float(np.linalg.norm(x[:, i] - x[:, j], axis=1).max())
                        for i, j in combinations(range(4), 2))
        assert mesh.h_max == six_norms
        assert mesh.h_max != build_cube_mesh(4, 0.7).h_max

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conforming_face_counts(self, n):
        counts = face_counts(build_cube_mesh(n, 1.0))
        assert set(counts.tolist()) <= {1, 2}
        n_boundary = int(np.count_nonzero(counts == 1))
        # each cube face is covered by 2 n^2 triangles
        assert n_boundary == 12 * n * n

    def test_center_shift(self):
        mesh = build_cube_mesh(2, 1.0, center=(1.0, 2.0, 3.0))
        assert mesh.vertices.min(axis=0) == pytest.approx([0.5, 1.5, 2.5])
        assert mesh.vertices.max(axis=0) == pytest.approx([1.5, 2.5, 3.5])

    def test_invalid_args(self):
        with pytest.raises(InvalidParameterError):
            build_cube_mesh(0, 1.0)
        with pytest.raises(InvalidParameterError):
            build_cube_mesh(2, -1.0)
        # not an integer cell count, or not a real edge length
        for n, edge in ((2.5, 1.0), ("2", 1.0), (2, "1"), (2, np.nan)):
            with pytest.raises(InvalidParameterError):
                build_cube_mesh(n, edge)


class TestMakeMesh:
    def test_index_out_of_range(self):
        verts = np.zeros((4, 3))
        with pytest.raises(ParseError):
            Mesh(verts, np.array([[0, 1, 2, 7]]))

    @pytest.mark.parametrize("tets", [
        [[0, 1.7, 2, 3]],  # a cast truncated 1.7 to vertex 1
        [[False, True, True, True]],
    ], ids=["fractional", "boolean"])
    def test_non_integer_index_rejected(self, tets):
        with pytest.raises(ParseError, match="tet indices must be integers"):
            Mesh(UNIT_TET, np.array(tets))

    def test_complex_vertices_rejected(self):
        with pytest.raises(InvalidParameterError, match="vertices must be real"):
            Mesh(UNIT_TET + 1e-3j, np.array([[0, 1, 2, 3]]))

    def test_degenerate_tet_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]],
                         dtype=float)
        with pytest.raises(GeometryError):
            Mesh(verts, np.array([[0, 1, 2, 3]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                         dtype=float)
        verts[2, 1] = bad
        with pytest.raises(GeometryError):
            Mesh(verts, np.array([[0, 1, 2, 3]]))
        text = f"tetmesh 4 1\n0 0 0\n1 0 0\n0 {bad!r} 0\n0 0 1\n0 1 2 3\n"
        with pytest.raises(GeometryError):
            load_mesh(text)

    def test_unused_vertex_rejected(self):
        # its hat function is zero, so Lap_h and P_h would divide by 0
        verts = np.vstack([UNIT_TET[:2], [[5.0, 5.0, 5.0]], UNIT_TET[2:]])
        with pytest.raises(GeometryError, match="vertex 2 is used by no tet"):
            Mesh(verts, np.array([[0, 1, 3, 4]]))

    def test_orientation_fix(self):
        mesh = oriented_mesh(UNIT_TET, [[0, 1, 3, 2]])
        assert mesh.tets.tolist() == [[0, 1, 2, 3]]
        assert mesh.volumes[0] > 0

    def test_volumes_and_h_max(self):
        mesh = Mesh(UNIT_TET, np.array([[0, 1, 2, 3]]))
        assert mesh.volumes.tolist() == [1.0 / 6.0]
        assert mesh.h_max == np.sqrt(2.0)

    def test_inverted_tet_rejected(self):
        with pytest.raises(GeometryError, match="tet 1 has non-positive"):
            Mesh(UNIT_TET, np.array([[0, 1, 2, 3], [0, 1, 3, 2]]))

    @pytest.mark.parametrize("verts,tets", [
        (UNIT_TET[:, :2], [[0, 1, 2, 3]]),
        (UNIT_TET, [[0, 1, 2]]),
        (UNIT_TET, np.zeros((0, 4), dtype=np.int64)),
    ])
    def test_bad_shapes_rejected(self, verts, tets):
        with pytest.raises(GeometryError):
            Mesh(verts, np.asarray(tets))


class TestTextFormat:
    def test_round_trip_identical_connectivity(self):
        mesh = build_cube_mesh(1, 1.0)
        back = load_mesh(save_mesh(mesh))
        assert np.array_equal(back.tets, mesh.tets)
        assert np.array_equal(back.vertices, mesh.vertices)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=3),
           edge=st.floats(min_value=0.1, max_value=10.0,
                          allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, n, edge):
        mesh = build_cube_mesh(n, edge)
        back = load_mesh(save_mesh(mesh))
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.tets, mesh.tets)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=3),
           edge=st.floats(min_value=0.1, max_value=10.0),
           center=hnp.arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)),
           data=st.data())
    def test_round_trip_perturbed_property(self, n, edge, center, data):
        cube = build_cube_mesh(n, edge, center=center)
        # a shift of at most 5% of the cell size per coordinate keeps every
        # Kuhn tet, whose heights are at least 70% of it, positive
        shift = data.draw(hnp.arrays(np.float64, cube.vertices.shape,
                                     elements=st.floats(-0.05, 0.05)))
        mesh = Mesh(cube.vertices + shift * (edge / n), cube.tets)
        back = load_mesh(save_mesh(mesh))
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert np.array_equal(back.tets, mesh.tets)
        assert back.h_max == mesh.h_max

    def test_bad_vertex_reference(self):
        mesh = build_cube_mesh(1, 1.0)
        text = save_mesh(mesh).replace("4 5 7 6", "4 5 7 99", 1)
        if "99" not in text:  # connectivity text depends on the tet order
            lines = text.strip().split("\n")
            lines[-1] = "0 1 2 99"
            text = "\n".join(lines) + "\n"
        with pytest.raises(ParseError):
            load_mesh(text)

    def test_zero_volume_tet_in_file(self):
        text = ("tetmesh 4 1\n"
                "0 0 0\n1 0 0\n0 1 0\n1 0 0\n"
                "0 1 2 3\n")
        with pytest.raises(GeometryError):
            load_mesh(text)

    def test_comments_and_blank_lines(self):
        text = ("# a comment\n\ntetmesh 4 1\n"
                "0 0 0\n1 0 0\n0 1 0\n# interior comment\n0 0 1\n"
                "0 1 2 3\n")
        mesh = load_mesh(text)
        assert mesh.n_vertices == 4 and mesh.n_tets == 1

    @pytest.mark.parametrize("text", [
        "",
        "tetmesh x y\n",
        "tetmesh 4 1\n0 0 0\n1 0 0\n0 1 0\n",
        "tetmesh 1 0\n0 0 zzz\n",
        "notamesh 4 1\n",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            load_mesh(text)

    @pytest.mark.parametrize("line, match", [
        ("0 0", "line 2: expected 3 coordinates"),
        ("0 1 2", "line 6: expected 4 vertex indices"),
        ("0 1 2 x", "line 6: bad index"),
    ], ids=["two_coordinates", "three_indices", "non_integer_index"])
    def test_parse_error_names_the_line(self, line, match):
        lines = ["tetmesh 4 1", "0 0 0", "1 0 0", "0 1 0", "0 0 1",
                 "0 1 2 3"]
        lines[1 if "coordinates" in match else 5] = line
        with pytest.raises(ParseError, match=match):
            load_mesh("\n".join(lines) + "\n")
