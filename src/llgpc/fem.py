"""P1 assembly on tetrahedra and the discrete operators built on it.

Fields are plain (N, 3) float64 arrays with one 3-vector per mesh vertex.
The mass-lumped inner product is <u, w>_h = sum_z beta_z u(z).w(z) with
beta_z the integral of the hat function at z; the discrete Laplacian is
realized as -beta^{-1} (A w) and never as an inverted matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, ProjectionDegenerateError,
                     real_array)
from .linalg import CsrMatrix, coo_pattern, spmv
from .mesh import Mesh, edge_cofactors

UNIT_TOL = 1e-9
PROJECTION_DELTA_MIN = 1e-12
ANGLE_SLACK = 1e-13
TET_BLOCK = 4096  # a (4096, 4, 4) float64 block is 512 KiB


def _p1_gradients(mesh: Mesh):
    """Constant barycentric gradients per tet, as a (4, 3, T) array.

    Cofactor rows over det, no inverse (mesh.edge_cofactors, the determinant
    the volumes come from); grad_0 = -grad_1 - grad_2 - grad_3.  A zero
    edge component and a*b - b*a give exact zeros, so a Kuhn tet's
    stiffness zeros are exact at any edge.
    """
    cof, det = edge_cofactors(mesh.vertices.T[:, mesh.tets.T])
    grads = np.empty((4, 3, mesh.n_tets))
    np.divide(cof, det, out=grads[1:])
    grads[0] = -grads[1] - grads[2] - grads[3]
    return grads


def _element_stiffness(g, vols):
    """(T, 4, 4) element stiffness V grad_i.grad_j from (4, 3, T) gradients g.

    ((g_i0 g_j0) V + (g_i1 g_j1) V) + (g_i2 g_j2) V once per pair i <= j:
    the operations of np.einsum("tic,tjc,t->tij", G, G, vols) on the
    (T, 4, 3) view G of g, so bitwise equal to it and exactly symmetric.
    Blocks of TET_BLOCK tets keep each pair's strided writes in cache.
    """
    ke = np.empty((vols.shape[0], 4, 4))
    for start in range(0, vols.shape[0], TET_BLOCK):
        block = slice(start, start + TET_BLOCK)
        gb, v, kb = g[:, :, block], vols[block], ke[block]
        for i in range(4):
            for j in range(i, 4):
                s = gb[i, 0] * gb[j, 0] * v
                s += gb[i, 1] * gb[j, 1] * v
                s += gb[i, 2] * gb[j, 2] * v
                kb[:, i, j] = s
                kb[:, j, i] = s
    return ke


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
    """Stiffness, consistent mass and lumped weights from one geometry pass.

    - A_{z,z'} = <grad phi_{z'}, grad phi_z>: symmetric, zero row sums.
    - M_{z,z'} = <phi_{z'}, phi_z>: element matrix V/20 * (1 + delta_ij).
    - beta_z = sum over incident tets of V/4.
    The gradients come from cofactors on component rows (_p1_gradients)
    and the element stiffness from them, pair by pair (_element_stiffness).
    M stores every vertex pair of a tet, from one stable sort of the pair
    keys; each matrix sums its element values per entry from 0.0 in tet
    order.  A keeps only its entries that are not exactly 0.0 (on a Kuhn
    cube of any edge length a 7-point stencil): a stored 0.0 adds a signed
    zero to a row sum that is never -0.0, so no product with a finite
    operand changes.
    """
    n, tets, vols = mesh.n_vertices, mesh.tets, mesh.volumes
    indptr, indices, entry = coo_pattern(
        (tets[:, :, None] * n + tets[:, None, :]).ravel(), (n, n))
    grads = _p1_gradients(mesh)  # after the pattern: lower peak memory

    def summed(ke):
        return np.bincount(entry, weights=ke.reshape(-1),
                           minlength=indices.shape[0])

    mass = CsrMatrix(indptr=indptr, indices=indices, n_rows=n, n_cols=n,
                     data=summed(vols[:, None, None]
                                 * ((np.ones((4, 4)) + np.eye(4)) / 20.0)))
    a = summed(_element_stiffness(grads, vols))
    keep = a != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    stiffness = CsrMatrix(indptr=kept_before[indptr], indices=indices[keep],
                          data=a[keep], n_rows=n, n_cols=n)
    beta = np.bincount(tets.ravel(), weights=np.repeat(vols / 4.0, 4),
                       minlength=n)
    return Assemblies(mesh=mesh, stiffness=stiffness, mass=mass, beta=beta)


def _check_match(beta, *fields, scalar=False):
    n = beta.shape[0]
    for f in fields:
        if f.shape != (n, 3) and not (scalar and f.shape == (n,)):
            raise InvalidParameterError(
                f"field shape {f.shape} does not match mesh with {n} vertices"
            )


def inner_l2(mass: CsrMatrix, u: np.ndarray, w: np.ndarray) -> float:
    """Consistent L2 inner product of two real P1 fields."""
    return float(np.sum(spmv(mass, u) * real_array(w, "w")))


def discrete_laplacian(stiffness: CsrMatrix, beta: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """(Lap_h w)(z) = -beta_z^{-1} (A w)(z) componentwise."""
    _check_match(beta, w)
    return -spmv(stiffness, w) / beta[:, None]


def apply_Ph(mass: CsrMatrix, beta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Lumped representative of a P1 field: (P_h w)(z) = beta_z^{-1} (M w)(z).

    Satisfies <P_h w, w_h>_h = <w, w_h>_L2 for every discrete w_h.  The
    field is (N, 3) or scalar (N,).
    """
    _check_match(beta, w, scalar=True)
    return spmv(mass, w) / (beta if w.ndim == 1 else beta[:, None])


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
