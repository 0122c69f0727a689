"""The 2N tangent-space predictor, a test oracle for llg.predictor_full.

The paper proves the mass-lumped 3N predictor system equivalent to a 2N
system whose unknowns are per-node coordinates in a nodal tangent frame.
The library solves only the 3N system; criterion 2 and tests/test_llg.py
solve both and compare.  Call the oracle through this module
(`tangent_oracle.predictor_tangent(...)`), so that conftest's tangency
recorder, which wraps the module attribute, sees every solve.
"""

import numpy as np

from llgpc.errors import InvalidParameterError
from llgpc.fem import (UNIT_TOL, Assemblies, discrete_laplacian,
                       nodal_cross)
from llgpc.linalg import gmres
from llgpc.llg import EffectiveField, IntegratorConfig, exchange_field


def is_unit(u: np.ndarray) -> bool:
    mods = np.linalg.norm(u, axis=1)
    return bool(np.max(np.abs(mods - 1.0)) <= UNIT_TOL)


def tangent_basis(u: np.ndarray):
    """Orthonormal (t1, t2) with {u, t1, t2} right-handed, deterministic.

    Picks the coordinate axis with the smallest |u-component| (lowest index
    on ties) and orthonormalizes.  Works on a single unit 3-vector or on an
    (N, 3) array of them.
    """
    single = u.ndim == 1
    uu = u[None, :] if single else u
    mods = np.linalg.norm(uu, axis=1)
    if np.max(np.abs(mods - 1.0)) > UNIT_TOL:
        raise InvalidParameterError("tangent_basis requires unit vectors")
    axis = np.argmin(np.abs(uu), axis=1)
    e = np.zeros_like(uu)
    e[np.arange(uu.shape[0]), axis] = 1.0
    t1 = e - np.einsum("ij,ij->i", e, uu)[:, None] * uu
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = nodal_cross(uu, t1)
    if single:
        return t1[0], t2[0]
    return t1, t2


def predictor_tangent(m: np.ndarray, cfg: IntegratorConfig,
                      field_cfg: EffectiveField, asm: Assemblies,
                      h_lower: np.ndarray | float = 0.0):
    """Solve the equivalent tangent-space predictor system.

    Unknowns are per-node 2D coordinates in the nodal tangent frame, so the
    output is tangent to m at every node by construction.  Requires a
    unit-flagged m and alpha > 0 or theta*k > 0 for ellipticity.
    """
    if not is_unit(m):
        raise InvalidParameterError("predictor_tangent requires |m(z)| = 1")
    if cfg.alpha <= 0 and cfg.theta * cfg.k <= 0:
        raise InvalidParameterError("tangent system needs alpha > 0 or theta*k > 0")
    n = asm.n
    a = cfg.alpha
    c_ex = field_cfg.ell_ex ** 2 * cfg.theta * cfg.k
    st = asm.stiffness
    beta = asm.beta
    t1, t2 = tangent_basis(m)

    def lift(c):
        c = c.reshape(n, 2)
        return c[:, :1] * t1 + c[:, 1:] * t2

    def project(w):
        return np.column_stack([np.einsum("ij,ij->i", w, t1),
                                np.einsum("ij,ij->i", w, t2)]).reshape(-1)

    mxt1 = nodal_cross(m, t1)
    mxt2 = nodal_cross(m, t2)

    def apply(c):
        v = lift(c)
        # alpha <v, phi>_h + <m x v, phi>_h - c_ex <Lap_h v, phi>_h,
        # tested with phi = t1(z) phi_z and t2(z) phi_z, divided by beta_z
        lap = discrete_laplacian(st, beta, v)
        cv = c.reshape(n, 2)
        mxv = cv[:, 0][:, None] * mxt1 + cv[:, 1][:, None] * mxt2
        w = a * v + mxv - c_ex * lap
        return project(w)

    h0 = exchange_field(asm, field_cfg, m) + h_lower
    rhs = project(h0)

    res = gmres(apply, rhs, rtol=cfg.lin_tol)
    return lift(res.x), res.iterations
