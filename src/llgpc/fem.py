"""P1 assembly on tetrahedra and the discrete operators built on it.

Fields are plain (N, 3) float64 arrays with one 3-vector per mesh vertex.
The mass-lumped inner product is <u, w>_h = sum_z beta_z u(z).w(z) with
beta_z the integral of the hat function at z; the discrete Laplacian is
realized as -beta^{-1} (A w) and never as an inverted matrix.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ProjectionDegenerateError, real_array
from .linalg import CsrMatrix, coo_pattern, spmv
from .mesh import Mesh, edge_det, tet_blocks

UNIT_TOL = 1e-9
PROJECTION_DELTA_MIN = 1e-12
ANGLE_SLACK = 1e-13
# the corner pairs i <= j of a tet: its 4 vertices, then its 6 edges
PAIRS = tuple((i, i) for i in range(4)) + tuple(combinations(range(4), 2))
_MASS_PAIRS = np.array([(1.0 + (i == j)) / 20.0 for i, j in PAIRS])


def _p1_gradients(x):
    """(4, 3, B) barycentric gradients of (3, 4, B) tet corners x.

    Cofactor rows over det, no inverse: mesh.edge_det, which gives the
    volumes, writes them into grads[1:]; grad_0 = -grad_1 - grad_2 - grad_3.
    A zero edge component and a*b - b*a give exact zeros, so a Kuhn tet's
    stiffness zeros are exact at any edge.
    """
    grads = np.empty((4, 3, x.shape[2]))
    cof = grads[1:]
    cof /= edge_det(x, cof)
    grads[0] = -grads[1] - grads[2] - grads[3]
    return grads


def _element_stiffness(g, vols):
    """(B, 10) stiffness V grad_i.grad_j of PAIRS from (4, 3, B) gradients.

    ((g_i0 g_j0) V + (g_i1 g_j1) V) + (g_i2 g_j2) V: the operations of
    np.einsum("tic,tjc,t->tij", G, G, vols) on the (B, 4, 3) view G of g,
    so bitwise equal to its upper triangle, which equals its lower one.
    """
    ke = np.empty((vols.shape[0], len(PAIRS)))
    for p, (i, j) in enumerate(PAIRS):
        s = g[i, 0] * g[j, 0] * vols
        s += g[i, 1] * g[j, 1] * vols
        s += g[i, 2] * g[j, 2] * vols
        ke[:, p] = s
    return ke


def _edge_keys(tets, n):
    """Key min * n + max of the 6 edges in PAIRS of every tet, tet-major."""
    corners = tets.T.copy()
    key = np.empty((tets.shape[0], 6), dtype=np.int64)
    for p, (i, j) in enumerate(PAIRS[4:]):
        a, b = corners[i], corners[j]
        np.add(np.minimum(a, b) * n, np.maximum(a, b), out=key[:, p])
    return key.reshape(-1)


@dataclass(frozen=True, eq=False)
class Assemblies:
    """Mesh-constant objects shared by every scheme and experiment."""

    mesh: Mesh
    stiffness: CsrMatrix
    mass: CsrMatrix
    beta: np.ndarray

    @property
    def n(self) -> int:
        return self.mesh.n_vertices

    @property
    def volume(self) -> float:
        return float(self.beta.sum())


def build_assemblies(mesh: Mesh) -> Assemblies:
    """Stiffness, consistent mass and lumped weights, in blocks of tets.

    - A_{z,z'} = <grad phi_{z'}, grad phi_z>: symmetric, zero row sums.
    - M_{z,z'} = <phi_{z'}, phi_z>: element matrix V/20 * (1 + delta_ij).
    - beta_z = sum over incident tets of V/4.
    One stable sort of the keys min * n + max of every tet's 6 edges gives
    the strictly upper pattern; every vertex is in a tet, so the diagonal
    needs no key.  Per block of mesh.TET_BLOCK tets, the gradients
    (_p1_gradients) give the values of the 10 corner pairs i <= j, which
    np.add.at sums per vertex and edge from 0.0 in tet order.  Element
    matrices are exactly symmetric and a tet holds a vertex once, so these
    sums mirrored into the full pattern are bitwise those of all 16 pairs.
    M stores every vertex pair of a tet.  A keeps only its entries that are
    not exactly 0.0 (on a Kuhn cube of any edge length a 7-point stencil):
    a stored 0.0 adds a signed zero to a row sum that is never -0.0, so no
    product with a finite operand changes.
    """
    n, tets, vols = mesh.n_vertices, mesh.tets, mesh.volumes
    indptr, cols, edge = coo_pattern(_edge_keys(tets, n), (n, n))
    edge = edge.reshape(-1, 6)
    # stiffness and mass sums: vertex z at z, upper edge e at n + e
    sums = np.zeros((2, n + cols.shape[0]))
    for block in tet_blocks(tets.shape[0]):
        v = vols[block]
        pair = np.concatenate((tets[block], edge[block] + n), axis=1).ravel()
        grads = _p1_gradients(mesh.vertices.T[:, tets[block].T])
        np.add.at(sums[0], pair, _element_stiffness(grads, v).ravel())
        np.add.at(sums[1], pair, (v[:, None] * _MASS_PAIRS).ravel())
    del edge
    rows = np.repeat(np.arange(n), np.diff(indptr))
    indptr, indices, entry = coo_pattern(np.concatenate(
        (np.arange(n) * (n + 1), rows * n + cols, cols * n + rows)), (n, n))
    a, m = np.empty(entry.shape[0]), np.empty(entry.shape[0])
    a[entry], m[entry] = np.concatenate((sums, sums[:, n:]), axis=1)  # mirror
    del rows, cols, entry, sums  # before the CSR plans: a lower peak
    keep = a != 0.0
    kept = np.concatenate(([0], np.cumsum(keep)))[indptr]
    stiffness = CsrMatrix(indptr=kept, indices=indices[keep], data=a[keep],
                          n_rows=n, n_cols=n)
    del a, keep
    mass = CsrMatrix(indptr=indptr, indices=indices, data=m,
                     n_rows=n, n_cols=n)
    beta = np.bincount(tets.ravel(), weights=np.repeat(vols / 4.0, 4),
                       minlength=n)
    return Assemblies(mesh=mesh, stiffness=stiffness, mass=mass, beta=beta)


def inner_l2(mass: CsrMatrix, u: np.ndarray, w: np.ndarray) -> float:
    """Consistent L2 inner product of two real P1 fields of one shape."""
    mu = spmv(mass, u)
    return float(np.sum(mu * real_array(w, "w", mu.shape)))


def discrete_laplacian(stiffness: CsrMatrix, beta: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """(Lap_h w)(z) = -beta_z^{-1} (A w)(z) componentwise."""
    w = real_array(w, "w", (beta.shape[0], 3))
    return -spmv(stiffness, w) / beta[:, None]


def apply_Ph(mass: CsrMatrix, beta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Lumped representative of a P1 field: (P_h w)(z) = beta_z^{-1} (M w)(z).

    Satisfies <P_h w, w_h>_h = <w, w_h>_L2 for every discrete w_h.  The
    field is (N, 3) or scalar (N,), as spmv checks.
    """
    y = spmv(mass, w)
    return y / (beta if y.ndim == 1 else beta[:, None])


def nodal_cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Nodal interpolant of u x w; the products and differences of np.cross,
    so bitwise equal to it, without its axis handling."""
    out = np.empty(np.broadcast(u, w).shape)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    np.subtract(u1 * w2, u2 * w1, out=out[..., 0])
    np.subtract(u2 * w0, u0 * w2, out=out[..., 1])
    np.subtract(u0 * w1, u1 * w0, out=out[..., 2])
    return out


def nodal_project_sphere(u: np.ndarray) -> np.ndarray:
    """m(z) = u(z)/|u(z)|; errors out on (near-)zero nodal vectors."""
    mods = np.linalg.norm(u, axis=1)
    if np.any(mods < PROJECTION_DELTA_MIN):
        z = int(np.argmin(mods))
        raise ProjectionDegenerateError(z, float(mods[z]))
    return u / mods[:, None]


@dataclass(frozen=True)
class AngleConditionReport:
    passed: bool
    worst_offdiag: float
    offending: tuple  # ((row, col, value), ...) worst first, at most 10


def check_angle_condition(stiffness: CsrMatrix) -> AngleConditionReport:
    """Pass iff every off-diagonal stiffness entry is <= ANGLE_SLACK.

    worst_offdiag is the largest off-diagonal entry, an unstored one
    counting as 0.0."""
    rows = stiffness.rows
    off = rows != stiffness.indices
    rows = rows[off]
    cols = stiffness.indices[off]
    vals = stiffness.data[off]
    full = 0 < vals.size == stiffness.n_rows * (stiffness.n_cols - 1)
    bad = np.flatnonzero(vals > ANGLE_SLACK)
    # stable sort keeps stored order among equal values
    worst_first = bad[np.argsort(-vals[bad], kind="stable")]
    return AngleConditionReport(
        passed=bad.size == 0,
        worst_offdiag=float(vals.max(initial=-np.inf if full else 0.0)),
        offending=tuple((int(rows[p]), int(cols[p]), float(vals[p]))
                        for p in worst_first[:10]))


@dataclass(frozen=True)
class FieldNorms:
    l2: float
    grad_sq: float
    h1: float


def grad_sq(stiffness: CsrMatrix, w: np.ndarray) -> float:
    """||grad w||^2 = sum over components of w^T A w."""
    return float(np.sum(spmv(stiffness, w) * w))


def norms(mass: CsrMatrix, stiffness: CsrMatrix, w: np.ndarray) -> FieldNorms:
    l2sq = max(inner_l2(mass, w, w), 0.0)
    gsq = max(grad_sq(stiffness, w), 0.0)
    return FieldNorms(l2=float(np.sqrt(l2sq)), grad_sq=gsq,
                      h1=float(np.sqrt(l2sq + gsq)))
