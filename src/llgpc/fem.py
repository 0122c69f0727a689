"""P1 assembly on tetrahedra and the discrete operators built on it.

Fields are plain (N, 3) float64 arrays with one 3-vector per mesh vertex.
The mass-lumped inner product is <u, w>_h = sum_z beta_z u(z).w(z) with
beta_z the integral of the hat function at z; the discrete Laplacian is
realized as -beta^{-1} (A w) and never as an inverted matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InvalidParameterError, ProjectionDegenerateError
from .linalg import CsrMatrix, spmv
from .mesh import Mesh, tet_volumes

UNIT_TOL = 1e-9
PROJECTION_DELTA_MIN = 1e-12


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """beta_z = sum over incident tets of (volume / 4)."""
    vols = tet_volumes(mesh.vertices, mesh.tets)
    if np.any(vols <= 0):
        raise GeometryError("mesh contains a non-positive-volume tet")
    beta = np.bincount(mesh.tets.ravel(),
                       weights=np.repeat(vols / 4.0, 4),
                       minlength=mesh.n_vertices)
    return beta


def _p1_gradients(mesh: Mesh):
    """Constant barycentric gradients per tet: (T, 4, 3), plus volumes."""
    x = mesh.vertices[mesh.tets]
    e = x[:, 1:] - x[:, :1]          # (T, 3, 3) rows x1-x0, x2-x0, x3-x0
    vols = np.linalg.det(e) / 6.0
    if np.any(vols <= 0):
        raise GeometryError("mesh contains a non-positive-volume tet")
    inv_t = np.linalg.inv(e)          # columns of inv(e) = gradients^T
    grads = np.empty((mesh.n_tets, 4, 3))
    grads[:, 1:, :] = np.transpose(inv_t, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, vols


def assemble_stiffness(mesh: Mesh) -> CsrMatrix:
    """A_{z,z'} = <grad phi_{z'}, grad phi_z>; symmetric, zero row sums."""
    grads, vols = _p1_gradients(mesh)
    ke = np.einsum("tic,tjc,t->tij", grads, grads, vols)
    return _scatter(mesh, ke)


def assemble_consistent_mass(mesh: Mesh) -> CsrMatrix:
    """M_{z,z'} = <phi_{z'}, phi_z>; element matrix V/20 * (1 + delta_ij)."""
    vols = tet_volumes(mesh.vertices, mesh.tets)
    if np.any(vols <= 0):
        raise GeometryError("mesh contains a non-positive-volume tet")
    base = (np.ones((4, 4)) + np.eye(4)) / 20.0
    ke = vols[:, None, None] * base
    return _scatter(mesh, ke)


def _scatter(mesh: Mesh, ke: np.ndarray) -> CsrMatrix:
    t = mesh.n_tets
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    return CsrMatrix.from_coo(rows, cols, ke.reshape(t * 16),
                              shape=(mesh.n_vertices, mesh.n_vertices))


@dataclass(frozen=True)
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
    return Assemblies(mesh=mesh, stiffness=assemble_stiffness(mesh),
                      mass=assemble_consistent_mass(mesh), beta=lumped_mass(mesh))


def _check_match(beta, *fields):
    n = beta.shape[0]
    for f in fields:
        if f.shape != (n, 3):
            raise InvalidParameterError(
                f"field shape {f.shape} does not match mesh with {n} vertices"
            )


def inner_h(beta: np.ndarray, u: np.ndarray, w: np.ndarray) -> float:
    """Mass-lumped inner product sum_z beta_z u(z).w(z)."""
    _check_match(beta, u, w)
    return float(np.dot(beta, np.einsum("ij,ij->i", u, w)))


def norm_h(beta: np.ndarray, u: np.ndarray) -> float:
    return float(np.sqrt(max(inner_h(beta, u, u), 0.0)))


def inner_l2(mass: CsrMatrix, u: np.ndarray, w: np.ndarray) -> float:
    """Consistent L2 inner product of two P1 fields."""
    return float(np.sum(spmv(mass, u) * w))


def discrete_laplacian(stiffness: CsrMatrix, beta: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """(Lap_h w)(z) = -beta_z^{-1} (A w)(z) componentwise."""
    _check_match(beta, w)
    return -spmv(stiffness, w) / beta[:, None]


def apply_Ph(mass: CsrMatrix, beta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Lumped representative of a P1 field: (P_h w)(z) = beta_z^{-1} (M w)(z).

    Satisfies <P_h w, w_h>_h = <w, w_h>_L2 for every discrete w_h.
    """
    _check_match(beta, w)
    return spmv(mass, w) / beta[:, None]


def nodal_cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Nodal interpolant of u x w; the products and differences of np.cross,
    so bitwise equal to it, without its axis handling."""
    out = np.empty(np.broadcast_shapes(u.shape, w.shape))
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


def is_unit(u: np.ndarray, tol: float = UNIT_TOL) -> bool:
    mods = np.linalg.norm(u, axis=1)
    return bool(np.max(np.abs(mods - 1.0)) <= tol)


@dataclass(frozen=True)
class AngleConditionReport:
    passed: bool
    worst_offdiag: float
    offending: tuple  # ((row, col, value), ...) worst first, at most 10


def check_angle_condition(stiffness: CsrMatrix,
                          slack: float = 1e-13) -> AngleConditionReport:
    """Pass iff every off-diagonal stiffness entry is <= slack."""
    rows = stiffness.rows
    off = rows != stiffness.indices
    rows = rows[off]
    cols = stiffness.indices[off]
    vals = stiffness.data[off]
    bad = np.flatnonzero(vals > slack)
    # stable sort keeps stored order among equal values
    worst_first = bad[np.argsort(-vals[bad], kind="stable")]
    return AngleConditionReport(
        passed=bad.size == 0,
        worst_offdiag=float(vals.max()) if vals.size else 0.0,
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
