"""Structured tetrahedral meshes of boxes and a line-oriented text format.

Cube meshes use the Kuhn 6-tet subdivision of every grid cell with the same
cell diagonal everywhere.  The resulting triangulation is conforming,
quasi-uniform, and all dihedral angles are at most pi/2, so the assembled
stiffness matrix has nonpositive off-diagonal entries (checked at runtime
by fem.check_angle_condition, never assumed).
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import GeometryError, InvalidParameterError, ParseError


@dataclass(frozen=True)
class Mesh:
    """Tetrahedral triangulation: vertex coordinates plus 4-index cells.

    All tets have strictly positive signed volume (consistent orientation).
    """

    vertices: np.ndarray  # (N, 3) float64
    tets: np.ndarray      # (T, 4) int64
    h_max: float

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_tets(self) -> int:
        return int(self.tets.shape[0])


def tet_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volumes det(x1-x0, x2-x0, x3-x0)/6 for every tet."""
    x = vertices[tets]
    e = x[:, 1:] - x[:, :1]
    return np.linalg.det(e) / 6.0


def _max_edge_length(vertices, tets):
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    h = 0.0
    x = vertices[tets]
    for i, j in pairs:
        d = np.linalg.norm(x[:, i] - x[:, j], axis=1)
        h = max(h, float(d.max()))
    return h


def make_mesh(vertices, tets, fix_orientation=False) -> Mesh:
    """Validate coordinates, connectivity and volumes and compute h_max."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    tets = np.ascontiguousarray(tets, dtype=np.int64)
    n = vertices.shape[0]
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise GeometryError(f"vertex {bad} has a non-finite coordinate")
    if tets.size and (tets.min() < 0 or tets.max() >= n):
        raise ParseError(f"tet index out of range (mesh has {n} vertices)")
    vols = tet_volumes(vertices, tets)
    if fix_orientation:
        flip = vols < 0
        tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
        vols = np.abs(vols)
    if np.any(vols <= 0.0):
        bad = int(np.argmax(vols <= 0.0))
        raise GeometryError(f"tet {bad} has non-positive volume {vols[bad]:.3e}")
    return Mesh(vertices=vertices, tets=tets,
                h_max=_max_edge_length(vertices, tets))


# The six Kuhn tets of the unit cell: paths from (0,0,0) to (1,1,1) adding
# one coordinate axis per step, one tet per axis permutation.
_KUHN_PATHS = []
for perm in sorted(permutations(range(3))):
    corners = [np.zeros(3, dtype=np.int64)]
    for axis in perm:
        nxt = corners[-1].copy()
        nxt[axis] += 1
        corners.append(nxt)
    _KUHN_PATHS.append(np.array(corners))


def build_cube_mesh(n: int, edge_length: float, center=(0.0, 0.0, 0.0)) -> Mesh:
    """Axis-aligned cube split into n^3 cells of 6 Kuhn tets each.

    All cells share the same diagonal direction, so the mesh is conforming
    with (n+1)^3 vertices and 6 n^3 tets.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if edge_length <= 0:
        raise InvalidParameterError("edge_length must be positive")
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (3,):
        raise InvalidParameterError("center must be a 3-vector")

    grid = np.arange(n + 1, dtype=np.float64) * (edge_length / n)
    # vertex (i, j, k) -> index i + (n+1)*(j + (n+1)*k)
    kk, jj, ii = np.meshgrid(grid, grid, grid, indexing="ij")
    vertices = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])
    vertices += center - edge_length / 2.0

    def vid(i, j, k):
        return i + (n + 1) * (j + (n + 1) * k)

    cells = np.arange(n)
    ci, cj, ck = np.meshgrid(cells, cells, cells, indexing="ij")
    ci, cj, ck = ci.ravel(), cj.ravel(), ck.ravel()
    tets = np.empty((6 * ci.size, 4), dtype=np.int64)
    for t, path in enumerate(_KUHN_PATHS):
        for corner in range(4):
            di, dj, dk = path[corner]
            tets[t::6, corner] = vid(ci + di, cj + dj, ck + dk)
    return make_mesh(vertices, tets, fix_orientation=True)


def save_mesh(mesh: Mesh) -> str:
    """Serialize to the line-oriented text format (see load_mesh)."""
    lines = [f"tetmesh {mesh.n_vertices} {mesh.n_tets}"]
    for v in mesh.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for t in mesh.tets:
        lines.append(f"{t[0]} {t[1]} {t[2]} {t[3]}")
    return "\n".join(lines) + "\n"


def load_mesh(text: str) -> Mesh:
    """Parse the text format: header ``tetmesh N T``, N vertex lines
    ``x y z``, T tet lines ``i0 i1 i2 i3`` (0-based).  ``#`` starts a
    comment line; blank lines are ignored.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line.split()))
    if not rows:
        raise ParseError("empty mesh file")
    lineno, header = rows[0]
    if len(header) != 3 or header[0] != "tetmesh":
        raise ParseError(f"line {lineno}: expected header 'tetmesh N T'")
    try:
        n, t = int(header[1]), int(header[2])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad header counts") from exc
    if n < 0 or t < 0 or len(rows) != 1 + n + t:
        raise ParseError(
            f"expected {n} vertex and {t} tet lines, found {len(rows) - 1}"
        )
    vertices = np.empty((n, 3))
    for i, (lineno, parts) in enumerate(rows[1:1 + n]):
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 coordinates")
        try:
            vertices[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad coordinate") from exc
    tets = np.empty((t, 4), dtype=np.int64)
    for i, (lineno, parts) in enumerate(rows[1 + n:]):
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 vertex indices")
        try:
            tets[i] = [int(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad index") from exc
    return make_mesh(vertices, tets, fix_orientation=False)
