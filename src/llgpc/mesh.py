"""Structured tetrahedral meshes of boxes and a line-oriented text format.

A Mesh computes and validates its geometry once, when it is constructed,
in blocks of TET_BLOCK tets: one gather of a block's corners gives its
signed volumes, e1.(e2 x e3)/6 from the one cofactor row of the P1
gradients they need (each V/4 must be a finite positive float), and its
longest edge, so no full-size corner array is ever held.  Cube meshes use
the Kuhn 6-tet subdivision of every grid cell with the same diagonal
everywhere; the cell table is positively oriented by construction.  The
triangulation is conforming, quasi-uniform and all its dihedral angles
are at most pi/2, so the assembled stiffness has nonpositive off-diagonal
entries (fem.check_angle_condition checks).
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .errors import (GeometryError, ParseError, check_int, check_real,
                     real_array)

TET_BLOCK = 4096  # a (3, 4, 4096) float64 corner block is 384 KiB


def tet_blocks(n_tets):
    """Slices of TET_BLOCK consecutive tets that cover range(n_tets)."""
    return [slice(s, s + TET_BLOCK) for s in range(0, n_tets, TET_BLOCK)]


def edge_det(x, cof):
    """det = e1.(e2 x e3) of (3, 4, T) tet corners x, e_k = x_k - x_0, six
    times the signed volume; the cofactor rows e2 x e3, e3 x e1, e1 x e2
    fill as many rows as the (r, 3, T) array cof has, r = 1 to 3.  Row k
    over det is the gradient of corner k+1's hat function."""
    e1, e2, e3 = (x[:, k] - x[:, 0] for k in (1, 2, 3))
    for c, (a, b) in zip(cof, ((e2, e3), (e3, e1), (e1, e2))):
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.subtract(a[j] * b[k], a[k] * b[j], out=c[i])
    return e1[0] * cof[0, 0] + e1[1] * cof[0, 1] + e1[2] * cof[0, 2]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Tetrahedral triangulation: vertex coordinates plus 4-index cells.

    Construction rejects non-real coordinates (errors.real_array:
    InvalidParameterError), non-finite ones, wrong shapes, non-integer or
    out-of-range indices (ParseError), a tet whose signed volume
    V = e1.(e2 x e3)/6, e_k = x_k - x_0, has a V/4 that is no finite
    positive float and a vertex no tet uses, whose lumped weight beta_z =
    sum of V/4 over its tets is then 0 (GeometryError).  `volumes`, `beta`,
    `volume` and `h_max` come from that one pass; every array the mesh
    holds is a read-only copy.
    """

    vertices: np.ndarray  # (N, 3) float64
    tets: np.ndarray      # (T, 4) int64
    volumes: np.ndarray = field(init=False)  # (T,) signed volumes, all > 0
    beta: np.ndarray = field(init=False)     # (N,) lumped weights, all > 0
    h_max: float = field(init=False)         # longest tet edge

    def __post_init__(self):
        vertices = np.ascontiguousarray(real_array(self.vertices, "vertices"))
        tets = np.asarray(self.tets)
        if (vertices.shape[1:] != (3,) or tets.shape[1:] != (4,)
                or not len(tets)):
            raise GeometryError(f"need (N, 3) vertices and (T >= 1, 4) tets, "
                                f"got {vertices.shape} and {tets.shape}")
        if not np.issubdtype(tets.dtype, np.integer):  # a cast would truncate
            raise ParseError(f"tet indices must be integers, not {tets.dtype}")
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        n = vertices.shape[0]
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise GeometryError(f"vertex {bad} has a non-finite coordinate")
        if tets.min() < 0 or tets.max() >= n:
            raise ParseError(f"tet index out of range (mesh has {n} vertices)")
        volumes = np.empty(len(tets))
        h_sq = 0.0  # largest squared edge length
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            for block in tet_blocks(len(tets)):
                x = vertices.T[:, tets[block].T]  # (3, 4, B) corners
                np.divide(edge_det(x, np.empty((1, 3, x.shape[2]))), 6.0,
                          out=volumes[block])
                h_sq = max(h_sq, *(
                    float(np.max(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]))
                    for d in (x[:, i] - x[:, j]
                              for i, j in combinations(range(4), 2))))
        bad = np.flatnonzero(~((volumes / 4.0 > 0.0) & (volumes < np.inf)))
        if bad.size:  # each V/4 finite and positive: beta > 0 iff z is used
            v = volumes[bad[0]]
            raise GeometryError(f"tet {bad[0]} has " + (
                f"non-positive volume {v:.3e}" if v <= 0.0 else
                f"V/4 = {v / 4.0:.3e}, not a finite positive float"))
        beta = np.bincount(tets.ravel(), weights=np.repeat(volumes / 4.0, 4),
                           minlength=n)
        if not np.all(beta > 0.0):
            raise GeometryError(
                f"vertex {int(np.argmin(beta > 0.0))} is used by no tet")
        # sqrt is monotone and correctly rounded, so the root of the largest
        # squared length is the largest np.linalg.norm of an edge, bitwise
        object.__setattr__(self, "h_max", math.sqrt(h_sq))
        # copied last, once the bincount's weights are freed: a lower peak
        for name, a in (("vertices", vertices.copy()), ("tets", tets.copy()),
                        ("volumes", volumes), ("beta", beta)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def volume(self) -> float:
        return float(self.beta.sum())  # the domain volume

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_tets(self) -> int:
        return int(self.tets.shape[0])


# The six Kuhn tets of the unit cell: paths from (0,0,0) to (1,1,1) adding
# one coordinate axis per step, one tet per axis permutation.  The path's
# edge matrix reduces to the permutation matrix, so its volume is
# sign(perm)/6: an odd permutation swaps its last two corners.
_KUHN_PATHS = []
for perm in sorted(permutations(range(3))):
    corners = [np.zeros(3, dtype=np.int64)]
    for axis in perm:
        nxt = corners[-1].copy()
        nxt[axis] += 1
        corners.append(nxt)
    if sum(a > b for a, b in combinations(perm, 2)) % 2:
        corners[2], corners[3] = corners[3], corners[2]
    _KUHN_PATHS.append(np.array(corners))


def build_cube_mesh(n: int, edge_length: float, center=(0.0, 0.0, 0.0)) -> Mesh:
    """Axis-aligned cube split into n^3 cells of 6 Kuhn tets each.

    All cells share the same diagonal direction, so the mesh is conforming
    with (n+1)^3 vertices and 6 n^3 tets.
    """
    check_int(n, "n", 1)
    check_real(edge_length, "edge_length", positive=True)
    center = real_array(center, "center", (3,))

    def vid(i, j, k):  # the index of vertex (i, j, k)
        return i + (n + 1) * (j + (n + 1) * k)

    grid = np.arange(n + 1, dtype=np.float64) * (edge_length / n)
    kk, jj, ii = np.meshgrid(grid, grid, grid, indexing="ij")  # vid order
    vertices = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])
    vertices += center - edge_length / 2.0

    cells = np.arange(n)
    base = vid(*np.meshgrid(cells, cells, cells, indexing="ij")).ravel()
    # vid is linear: a tet corner is its cell's base vertex plus an offset
    offsets = vid(*np.array(_KUHN_PATHS).T).T  # (6 tets, 4 corners)
    return Mesh(vertices, (base[:, None, None] + offsets).reshape(-1, 4))


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
    # one rule per line: a vertex line holds 3 floats, a tet line 4 ints
    rules = ((float, 3, "coordinates", "coordinate"),
             (int, 4, "vertex indices", "index"))
    numbers = ([], [])
    for i, (lineno, parts) in enumerate(rows[1:]):
        kind, width, many, one = rules[i >= n]
        if len(parts) != width:
            raise ParseError(f"line {lineno}: expected {width} {many}")
        try:
            numbers[i >= n].extend(kind(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad {one}") from exc
    # Mesh types and checks them: a huge index makes an object array
    return Mesh(np.array(numbers[0], dtype=float).reshape(n, 3),
                np.array(numbers[1]).reshape(t, 4))
