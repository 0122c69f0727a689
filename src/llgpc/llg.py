"""Effective field, Gibbs energy, and the five predictor-corrector schemes.

The predictor solves, after mass lumping, the nodewise system

    (1+a^2) v(z) + c [ m x Lap_h v + a m x (m x Lap_h v) ](z)
        = -[ m x H0 + a m x (m x H0) ](z),       c = ell_ex^2 theta k,

with H0 = ell_ex^2 Lap_h m + h_lower, h_lower the (already P_h-mapped)
lower-order field.  The PC2 corrector decouples into independent 3x3
solves per node because its unknown appears without a Laplacian; this is
verified against a dense oracle in the tests.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import FixedPointDivergenceError, InvalidParameterError
from .fem import (Assemblies, UNIT_TOL, apply_Ph, discrete_laplacian,
                  inner_l2, is_unit, nodal_project_sphere)
from .linalg import gmres

SCHEMES = ("PC1", "PC1_IMEX", "PC1_PROJFREE", "PC2", "PC2_IMEX")

MAX_FIXPOINT_ITERATIONS = 100


@dataclass(frozen=True)
class Uniaxial:
    """Local uniaxial anisotropy pi(m) = c (axis.m) axis."""

    c: float
    axis: np.ndarray

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64)
        if self.c < 0:
            raise InvalidParameterError("anisotropy constant must be >= 0")
        n = np.linalg.norm(axis)
        if not np.isclose(n, 1.0, atol=1e-12):
            raise InvalidParameterError("anisotropy axis must be unit length")
        object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class EffectiveField:
    """Configuration of h_eff = ell_ex^2 Lap m + pi(m) + f(t)."""

    ell_ex: float = 1.0
    uniaxial: Optional[Uniaxial] = None
    applied: Optional[object] = None  # constant 3-vector or callable t -> 3-vector

    def __post_init__(self):
        if self.ell_ex <= 0:
            raise InvalidParameterError("exchange length must be positive")
        if self.applied is not None and not callable(self.applied):
            object.__setattr__(self, "applied",
                               np.asarray(self.applied, dtype=np.float64))

    def f_at(self, t: float) -> Optional[np.ndarray]:
        if self.applied is None:
            return None
        if callable(self.applied):
            return np.asarray(self.applied(t), dtype=np.float64)
        return self.applied

    @property
    def has_lower_order(self) -> bool:
        return self.uniaxial is not None or self.applied is not None


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str
    k: float
    theta: float = 0.5
    alpha: float = 1.0
    lin_tol: float = 1e-12
    fixpoint_tol: float = 1e-10
    restart: int = 30
    maxit: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParameterError(f"unknown scheme {self.scheme!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidParameterError("theta must lie in [0, 1]")
        if self.k <= 0:
            raise InvalidParameterError("time-step size must be positive")
        if self.alpha < 0:
            raise InvalidParameterError("damping must be >= 0")


@dataclass
class SimState:
    """Time-stepping state: step index and the last one or two iterates."""

    ell: int
    m_curr: np.ndarray
    m_prev: Optional[np.ndarray] = None
    v_last: Optional[np.ndarray] = None
    predictor_iterations: int = 0

    def time(self, k: float) -> float:
        return self.ell * k


def apply_pi(field_cfg: EffectiveField, m: np.ndarray) -> np.ndarray:
    """Lower-order operator pi: zero or local uniaxial anisotropy."""
    if field_cfg.uniaxial is None:
        return np.zeros_like(m)
    u = field_cfg.uniaxial
    return u.c * np.outer(m @ u.axis, u.axis)


def lower_field(asm: Assemblies, field_cfg: EffectiveField, pi_of: np.ndarray,
                t: float) -> np.ndarray:
    """P_h(pi-term + f(t)) for a P1 field pi_of already evaluated nodewise."""
    h = apply_Ph(asm.mass, asm.beta, pi_of)
    f = field_cfg.f_at(t)
    if f is not None:
        h = h + f  # P_h of a constant is the constant itself
    return h


def energy(asm: Assemblies, field_cfg: EffectiveField, m: np.ndarray,
           t: float = 0.0) -> float:
    """Gibbs free energy: exchange - anisotropy - Zeeman contributions."""
    from .fem import grad_sq
    e = 0.5 * field_cfg.ell_ex ** 2 * grad_sq(asm.stiffness, m)
    if field_cfg.uniaxial is not None:
        e -= 0.5 * inner_l2(asm.mass, apply_pi(field_cfg, m), m)
    f = field_cfg.f_at(t)
    if f is not None:
        # M's row sums are beta, so <f, m>_L2 = f . (beta @ m) exactly
        e -= f @ (asm.beta @ m)
    return float(e)


# Optional hook recording max_z |m(z).v(z)| for every predictor solve on a
# unit-flagged m; installed by tests to check tangency across whole runs.
_tangency_hook: Optional[Callable[[np.ndarray, np.ndarray], None]] = None


class TangencyRecorder:
    """Context manager tracking the worst tangency ratio seen."""

    def __init__(self):
        self.worst_ratio = 0.0
        self.calls = 0

    def __enter__(self):
        global _tangency_hook
        self._prev = _tangency_hook
        _tangency_hook = self._record
        return self

    def __exit__(self, *exc):
        global _tangency_hook
        _tangency_hook = self._prev
        return False

    def _record(self, m, v):
        if not is_unit(m):
            return
        dots = np.abs(np.einsum("ij,ij->i", m, v)).max()
        scale = 1.0 + np.abs(v).max()
        self.calls += 1
        self.worst_ratio = max(self.worst_ratio, float(dots / scale))


def _cross_damped(m, h, alpha):
    """m x h + alpha m x (m x h)."""
    t = np.cross(m, h)
    return t + alpha * np.cross(m, t)


def predictor_full(m: np.ndarray, cfg: IntegratorConfig, field_cfg: EffectiveField,
                   asm: Assemblies, h_lower: Optional[np.ndarray] = None):
    """Solve the 3N predictor system with GMRES; returns (v, iterations)."""
    n = asm.n
    a = cfg.alpha
    c_ex = field_cfg.ell_ex ** 2 * cfg.theta * cfg.k
    st = asm.stiffness
    beta = asm.beta

    h0 = field_cfg.ell_ex ** 2 * discrete_laplacian(st, beta, m)
    if h_lower is not None:
        h0 = h0 + h_lower
    rhs = -_cross_damped(m, h0, a)

    def apply(x):
        v = x.reshape(n, 3)
        lap = discrete_laplacian(st, beta, v)
        return ((1.0 + a * a) * v + c_ex * _cross_damped(m, lap, a)).reshape(-1)

    res = gmres(apply, rhs.reshape(-1), rtol=cfg.lin_tol, restart=cfg.restart,
                maxit=cfg.maxit)
    v = res.x.reshape(n, 3)
    if _tangency_hook is not None:
        _tangency_hook(m, v)
    return v, res.iterations


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
    t2 = np.cross(uu, t1)
    if single:
        return t1[0], t2[0]
    return t1, t2


def predictor_tangent(m: np.ndarray, cfg: IntegratorConfig,
                      field_cfg: EffectiveField, asm: Assemblies,
                      h_lower: Optional[np.ndarray] = None):
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

    mxt1 = np.cross(m, t1)
    mxt2 = np.cross(m, t2)

    def apply(c):
        v = lift(c)
        # alpha <v, phi>_h + <m x v, phi>_h - c_ex <Lap_h v, phi>_h,
        # tested with phi = t1(z) phi_z and t2(z) phi_z, divided by beta_z
        lap = discrete_laplacian(st, beta, v)
        cv = c.reshape(n, 2)
        mxv = cv[:, 0][:, None] * mxt1 + cv[:, 1][:, None] * mxt2
        w = a * v + mxv - c_ex * lap
        return project(w)

    h0 = field_cfg.ell_ex ** 2 * discrete_laplacian(st, beta, m)
    if h_lower is not None:
        h0 = h0 + h_lower
    rhs = project(h0)

    res = gmres(apply, rhs, rtol=cfg.lin_tol, restart=cfg.restart, maxit=cfg.maxit)
    v = lift(res.x)
    if _tangency_hook is not None:
        _tangency_hook(m, v)
    return v, res.iterations


def predictor_fully_implicit(m: np.ndarray, cfg: IntegratorConfig,
                             field_cfg: EffectiveField, asm: Assemblies,
                             t: float):
    """Inner fixed-point loop treating the lower-order field implicitly.

    v^0 = 0; v^{i+1} solves the predictor with
    h_lower = P_h(pi(m + theta k v^i) + f(t + theta k)); stops when the
    L2 norm of the increment drops below fixpoint_tol.
    """
    t_eval = t + cfg.theta * cfg.k
    if field_cfg.uniaxial is None:
        # no v-dependence in the lower-order field: one solve suffices
        f = field_cfg.f_at(t_eval)
        h_lower = None if f is None else np.broadcast_to(f, m.shape).copy()
        return predictor_full(m, cfg, field_cfg, asm, h_lower=h_lower)

    v = np.zeros_like(m)
    total_iters = 0
    increment = np.inf
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        arg = m + cfg.theta * cfg.k * v
        h_lower = lower_field(asm, field_cfg, apply_pi(field_cfg, arg), t_eval)
        v_new, iters = predictor_full(m, cfg, field_cfg, asm, h_lower=h_lower)
        total_iters += iters
        d = v_new - v
        increment = np.sqrt(max(inner_l2(asm.mass, d, d), 0.0))
        v = v_new
        if increment <= cfg.fixpoint_tol:
            return v, total_iters
    raise FixedPointDivergenceError(MAX_FIXPOINT_ITERATIONS, increment)


def corrector_project(m: np.ndarray, v: np.ndarray, k: float) -> np.ndarray:
    """Nodal sphere projection of m + k v."""
    return nodal_project_sphere(m + k * v)


def corrector_pc2(m: np.ndarray, v: np.ndarray, cfg: IntegratorConfig,
                  field_cfg: EffectiveField, asm: Assemblies,
                  t: float) -> np.ndarray:
    """Constraint-preserving corrector; N independent 3x3 solves.

    With eta the midpoint unknown and u = m + (k/2) v, the nodewise system
    reads ((1+a^2) I - [c]_x) eta = (1+a^2) m with
    c(z) = (k/2) (F(z) + a u(z) x F(z)) and F the frozen midpoint field.
    The matrix is identity-plus-skew, hence always invertible, with the
    closed-form inverse applied below.  Nodal moduli are conserved exactly:
    |2 eta - m| = |m|.
    """
    a2 = 1.0 + cfg.alpha ** 2
    u = m + 0.5 * cfg.k * v
    f_mid = field_cfg.ell_ex ** 2 * discrete_laplacian(asm.stiffness, asm.beta, u)
    if field_cfg.has_lower_order:
        f_mid = f_mid + lower_field(asm, field_cfg, apply_pi(field_cfg, u),
                                    t + 0.5 * cfg.k)
    c = 0.5 * cfg.k * (f_mid + cfg.alpha * np.cross(u, f_mid))
    # (a I - [c]_x)^{-1} = (a^2 I + a [c]_x + c c^T) / (a (a^2 + |c|^2))
    csq = np.einsum("ij,ij->i", c, c)
    cm = np.einsum("ij,ij->i", c, m)
    eta = (a2 * a2 * m + a2 * np.cross(c, m) + cm[:, None] * c)
    eta /= (a2 * a2 + csq)[:, None]
    return 2.0 * eta - m


def step(state: SimState, cfg: IntegratorConfig, field_cfg: EffectiveField,
         asm: Assemblies) -> SimState:
    """Advance one time step with the configured scheme."""
    m = state.m_curr
    t = state.ell * cfg.k
    scheme = cfg.scheme

    if scheme in ("PC1", "PC2"):
        v, iters = predictor_fully_implicit(m, cfg, field_cfg, asm, t)
    elif scheme in ("PC1_IMEX", "PC1_PROJFREE"):
        h_lower = None
        if field_cfg.has_lower_order:
            h_lower = lower_field(asm, field_cfg, apply_pi(field_cfg, m), t)
        v, iters = predictor_full(m, cfg, field_cfg, asm, h_lower=h_lower)
    elif scheme == "PC2_IMEX":
        if state.ell == 0:
            # preprocessing step: one PC2 step supplies a second-order m^1
            pc2 = replace(cfg, scheme="PC2")
            v, iters = predictor_fully_implicit(m, pc2, field_cfg, asm, t)
            m_next = corrector_pc2(m, v, pc2, field_cfg, asm, t)
            return SimState(ell=1, m_curr=m_next, m_prev=m, v_last=v,
                            predictor_iterations=iters)
        if state.m_prev is None:
            raise InvalidParameterError("PC2_IMEX needs m_prev for ell >= 1")
        h_lower = None
        if field_cfg.has_lower_order:
            pi_ex = ((1.0 + cfg.theta) * apply_pi(field_cfg, m)
                     - cfg.theta * apply_pi(field_cfg, state.m_prev))
            h_lower = lower_field(asm, field_cfg, pi_ex, t + cfg.theta * cfg.k)
        v, iters = predictor_full(m, cfg, field_cfg, asm, h_lower=h_lower)
    else:  # pragma: no cover
        raise InvalidParameterError(f"unknown scheme {scheme!r}")

    if scheme in ("PC1", "PC1_IMEX"):
        m_next = corrector_project(m, v, cfg.k)
    elif scheme == "PC1_PROJFREE":
        m_next = m + cfg.k * v
    else:  # PC2, PC2_IMEX
        m_next = corrector_pc2(m, v, cfg, field_cfg, asm, t)

    return SimState(ell=state.ell + 1, m_curr=m_next, m_prev=m, v_last=v,
                    predictor_iterations=iters)
