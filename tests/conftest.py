from contextlib import contextmanager

import numpy as np
import pytest

from llgpc import llg
from llgpc.errors import InvalidParameterError
from llgpc.fem import build_assemblies
from llgpc.linalg import CsrMatrix, coo_pattern
from llgpc.mesh import Mesh, build_cube_mesh

import tangent_oracle

REFERENCE_TET_VERTICES = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])


@pytest.fixture(scope="session")
def reference_tet():
    return Mesh(REFERENCE_TET_VERTICES, np.array([[0, 1, 2, 3]]))


@pytest.fixture(scope="session")
def reference_tet_asm(reference_tet):
    return build_assemblies(reference_tet)


def cube_asm(n, edge=1.0):
    """Assemblies of the Kuhn cube of n^3 cells and the given edge length."""
    return build_assemblies(build_cube_mesh(n, edge))


@pytest.fixture(scope="session")
def cube1_asm():
    return cube_asm(1)


@pytest.fixture(scope="session")
def cube2_asm():
    return cube_asm(2)


@pytest.fixture(scope="session")
def cube4_asm():
    return cube_asm(4)


def oriented_mesh(vertices, tets):
    """Mesh of `tets` with columns 2 and 3 swapped in every tet of negative
    signed volume, so that every tet is positively oriented."""
    vertices = np.asarray(vertices, dtype=np.float64)
    tets = np.array(tets, dtype=np.int64)
    x = vertices[tets]
    flip = np.linalg.det(x[:, 1:] - x[:, :1]) < 0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    return Mesh(vertices, tets)


def csr_from_coo(rows, cols, vals, n):
    """n x n CsrMatrix of triplets; each stored entry sums its triplets
    from 0.0 in triplet order, as build_assemblies does."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.ndim != 1 or cols.shape != rows.shape:
        raise InvalidParameterError("rows and cols must be equal-length 1-d")
    # checked before keying: row * n + col would alias an out-of-range
    # column with a neighbouring row
    for what, idx in (("row", rows), ("column", cols)):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise InvalidParameterError(f"{what} index outside [0, {n})")
    indptr, indices, entry = coo_pattern(rows * n + cols, n)
    data = np.bincount(entry, weights=np.asarray(vals, dtype=np.float64),
                       minlength=indices.shape[0])
    return CsrMatrix(indptr=indptr, indices=indices, data=data)


def dense(a):
    """The stored entries of a CsrMatrix as a dense array."""
    out = np.zeros((a.n, a.n))
    rows, cols, vals = a.entries()
    out[rows, cols] = vals
    return out


def inner_h(beta, u, w):
    """Mass-lumped inner product sum_z beta_z u(z).w(z)."""
    return float(np.dot(beta, np.einsum("ij,ij->i", u, w)))


def norm_h(beta, u):
    return float(np.sqrt(max(inner_h(beta, u, u), 0.0)))


def random_unit_field(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = rng.normal(size=(n, 3))
    return g / np.linalg.norm(g, axis=1)[:, None]


class TangencyRecorder:
    """Worst ratio max_z |m(z).v(z)| / (1 + max |v|) over the predictor
    solves it has seen on a unit m; other solves are not counted."""

    def __init__(self):
        self.worst_ratio = 0.0
        self.calls = 0

    def wrap(self, predictor):
        def recorded(m, *args, **kwargs):
            v, iterations = predictor(m, *args, **kwargs)
            if tangent_oracle.is_unit(m):
                dots = np.abs(np.einsum("ij,ij->i", m, v)).max()
                self.calls += 1
                self.worst_ratio = max(self.worst_ratio,
                                       float(dots / (1.0 + np.abs(v).max())))
            return v, iterations
        return recorded


@contextmanager
def tangency_recorder():
    """Record every llg.predictor_full and tangent_oracle.predictor_tangent
    solve in the block, including those issued by step and the harness,
    which look predictor_full up as an llg module attribute at call time."""
    rec = TangencyRecorder()
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((llg, "predictor_full"),
                             (tangent_oracle, "predictor_tangent")):
            mp.setattr(module, name, rec.wrap(getattr(module, name)))
        yield rec
