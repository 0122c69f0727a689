"""Effective field, Gibbs energy, and the five predictor-corrector schemes.

The predictor solves, after mass lumping, the nodewise system

    (1+a^2) v(z) + [ m x h + a m x (m x h) ](z)
        = -[ m x H0 + a m x (m x H0) ](z),

with H0 = ell_ex^2 Lap_h m + h_lower, h_lower the (already P_h-mapped)
lower-order field.  The IMEX schemes take h = ell_ex^2 theta k Lap_h v.
PC1 and PC2 evaluate the lower-order field at m + theta k v; pi is linear,
so this adds theta k P_h pi(v) to h, with H0 = ell_ex^2 Lap_h m +
P_h pi(m) + f(t + theta k), and v is still one linear solve.  Dotting with
m gives (1+a^2) m.v = 0 either way.  This 3N system is the one predictor
solved here; its equivalent 2N system in nodal tangent coordinates serves
the tests as an oracle.  The map h -> m x h + a m x (m x h) is one
nodal 3x3 block per vertex, built once per solve: it gives the right-hand
side, and scaled in place the operator, so an operator application is
one stiffness SpMV and one block product.
pi(w) = c (w.e) e has rank one, so P_h pi(w) = c beta^{-1} M (w.e) e takes
one scalar mass product, and the anisotropy energy is
-c/2 (m.e)^T M (m.e).  The PC2 corrector decouples into independent 3x3
solves per node because its unknown appears without a Laplacian; this is
verified against a dense oracle in the tests.  A predictor whose solve
fails raises NoConvergenceError, which carries the best residual and the
iteration count, not an iterate; a step whose new state is not finite
raises NonFiniteStateError.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import fem
from .errors import (InvalidParameterError, NonFiniteStateError, check_int,
                     check_real, real_array)
from .fem import (Assemblies, apply_Ph, discrete_laplacian, grad_sq,
                  inner_l2, nodal_cross, nodal_project_sphere)
from .linalg import gmres

SCHEMES = ("PC1", "PC1_IMEX", "PC1_PROJFREE", "PC2", "PC2_IMEX")


@dataclass(frozen=True, eq=False)
class Uniaxial:
    """Local uniaxial anisotropy pi(m) = c (axis.m) axis."""

    c: float
    axis: np.ndarray

    def __post_init__(self):
        check_real(self.c, "anisotropy constant")
        axis = _field_vector(self.axis, "anisotropy axis")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise InvalidParameterError("anisotropy axis must be unit length")
        object.__setattr__(self, "axis", axis)


def _field_vector(f, what: str) -> np.ndarray:
    f = real_array(f, what, (3,))
    if not np.all(np.isfinite(f)):
        raise InvalidParameterError(f"{what} must be finite, got {f.tolist()}")
    return f


@dataclass(frozen=True, eq=False)
class EffectiveField:
    """Configuration of h_eff = ell_ex^2 Lap m + pi(m) + f(t)."""

    ell_ex: float = 1.0
    uniaxial: Optional[Uniaxial] = None
    applied: Optional[object] = None  # constant 3-vector or callable t -> 3-vector

    def __post_init__(self):
        check_real(self.ell_ex, "exchange length", positive=True)
        sq = float(self.ell_ex) * float(self.ell_ex)
        if not (math.isfinite(sq) and sq > 0.0):
            raise InvalidParameterError("exchange length must have a finite "
                                        f"positive square, got {self.ell_ex!r}")
        if not isinstance(self.uniaxial, (Uniaxial, type(None))):
            raise InvalidParameterError("uniaxial must be a Uniaxial or None")
        if (self.uniaxial is not None
                and not math.isfinite(self.uniaxial.c / self.ell_ex ** 2)):
            raise InvalidParameterError(
                "anisotropy constant over the squared exchange length must "
                f"be finite, got {self.uniaxial.c!r} / {self.ell_ex!r}**2")
        if self.applied is not None and not callable(self.applied):
            object.__setattr__(self, "applied",
                               _field_vector(self.applied, "applied field"))

    def f_at(self, t: float) -> Optional[np.ndarray]:
        if self.applied is None:
            return None
        if callable(self.applied):
            return _field_vector(self.applied(t), f"applied field at t={t}")
        return self.applied


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str
    k: float
    theta: float = 0.5
    alpha: float = 1.0
    lin_tol: float = 1e-12

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParameterError(f"unknown scheme {self.scheme!r}")
        check_real(self.theta, "theta")
        if self.theta > 1.0:
            raise InvalidParameterError("theta must lie in [0, 1]")
        check_real(self.k, "time-step size", positive=True)
        check_real(self.alpha, "damping")
        a2 = 1.0 + float(self.alpha) * float(self.alpha)
        if not math.isfinite(a2 * a2):  # corrector_pc2 forms a2 * a2
            raise InvalidParameterError("damping must have a finite "
                                        f"(1 + alpha^2)^2, got {self.alpha!r}")
        check_real(self.lin_tol, "lin_tol", positive=True)


@dataclass(eq=False)
class SimState:
    """Time-stepping state: step index and the last one or two iterates."""

    ell: int
    m_curr: np.ndarray
    m_prev: Optional[np.ndarray] = None
    predictor_iterations: int = 0


def lower_field(asm: Assemblies, field_cfg: EffectiveField, w: np.ndarray,
                t: float) -> np.ndarray | float:
    """P_h(pi(w) + f(t)), the term every scheme adds to an (N, 3) field:
    (N, 3) if pi is set, else f(t) (P_h of a constant is itself), else
    0.0.  pi(w) = c (w.e) e has rank one: one scalar mass product."""
    u = field_cfg.uniaxial
    f = field_cfg.f_at(t)
    if u is None:
        return 0.0 if f is None else f
    h = np.outer(u.c * apply_Ph(asm.mass, asm.beta, w @ u.axis), u.axis)
    return h if f is None else h + f


def energy(asm: Assemblies, field_cfg: EffectiveField, m: np.ndarray,
           t: float = 0.0, gsq: Optional[float] = None) -> float:
    """Gibbs free energy: exchange - anisotropy - Zeeman contributions;
    gsq is ||grad m||^2 if the caller has it."""
    if gsq is None:
        gsq = grad_sq(asm.stiffness, m)
    e = 0.5 * field_cfg.ell_ex ** 2 * gsq
    if field_cfg.uniaxial is not None:
        s = m @ field_cfg.uniaxial.axis
        e -= 0.5 * field_cfg.uniaxial.c * inner_l2(asm.mass, s, s)
    f = field_cfg.f_at(t)
    if f is not None:
        # M's row sums are beta, so <f, m>_L2 = f . (beta @ m) exactly
        e -= f @ (asm.beta @ m)
    return float(e)


def damped_cross_block(m: np.ndarray, alpha: float) -> np.ndarray:
    """Nodal 3x3 blocks B(z) = ([m]_x + alpha (m m^T - |m|^2 I))(z) of an
    (N, 3) field m, as a (3, 3, N) array.

    B(z) h(z) = (m x h + alpha m x (m x h))(z) for every m, unit or not,
    since m x (m x h) = (m.h) m - |m|^2 h."""
    mt = np.ascontiguousarray(m.T)
    m0, m1, m2 = mt
    b = alpha * mt[:, None] * mt[None, :]
    b[[0, 1, 2], [0, 1, 2]] -= alpha * (m0 * m0 + m1 * m1 + m2 * m2)
    b[0, 1] -= m2
    b[0, 2] += m1
    b[1, 0] += m2
    b[1, 2] -= m0
    b[2, 0] -= m1
    b[2, 1] += m0
    return b


def exchange_field(asm: Assemblies, field_cfg: EffectiveField,
                   m: np.ndarray) -> np.ndarray:
    """ell_ex^2 Lap_h m."""
    return field_cfg.ell_ex ** 2 * discrete_laplacian(asm.stiffness, asm.beta, m)


def predictor_full(m: np.ndarray, cfg: IntegratorConfig, field_cfg: EffectiveField,
                   asm: Assemblies, h_lower: np.ndarray | float = 0.0,
                   implicit_pi: bool = False):
    """Solve the 3N predictor system with GMRES; returns (v, iterations).
    H0 is the exchange field plus h_lower, a lower_field value (0.0 for
    none).  With implicit_pi the operator also carries theta k P_h pi(v).

    One nodal block B1 = damped_cross_block(m, a) maps h to
    m x h + a m x (m x h).  It gives the right-hand side -B1 H0, and
    scaled in place by -c_ex / beta, c_ex = ell_ex^2 theta k, the
    operator block B: the operator's term c_ex (m x h + a m x (m x h)),
    with h = Lap_h v (+ ell_ex^-2 P_h pi(v)) = -beta^{-1} y, is B y for
    y = A v (- ell_ex^-2 c M (v.e) e).  An application is thus one
    stiffness SpMV (plus one scalar mass SpMV under implicit_pi) and one
    nodal 3x3 product: v -> (1+a^2) v + B y.

    The GMRES unknown is ordered component-major (every x, then every y,
    then every z), so its (3, N) view feeds the SpMV and the block product
    contiguous component rows; GMRES is indifferent to the order of its
    unknowns.  v is returned as a C-ordered (N, 3) field."""
    n = asm.n
    a = cfg.alpha
    c_ex = field_cfg.ell_ex ** 2 * cfg.theta * cfg.k

    h0 = exchange_field(asm, field_cfg, m) + h_lower
    block = damped_cross_block(m, a)
    rhs = -np.einsum("ijz,jz->iz", block, h0.T)
    block *= -c_ex / asm.beta  # B1 becomes the operator block B, in place
    if implicit_pi:
        axis = field_cfg.uniaxial.axis
        pi_scale = field_cfg.uniaxial.c / field_cfg.ell_ex ** 2

    def apply(x):
        v = x.reshape(3, n)
        # fem.spmv looked up at call time, as the fem operators do
        y = fem.spmv(asm.stiffness, v.T).T
        if implicit_pi:
            y -= np.outer(axis, pi_scale * fem.spmv(asm.mass, axis @ v))
        out = np.einsum("ijz,jz->iz", block, y)
        out += (1.0 + a * a) * v
        return out.reshape(-1)

    res = gmres(apply, rhs.reshape(-1), rtol=cfg.lin_tol)
    return np.ascontiguousarray(res.x.reshape(3, n).T), res.iterations


def predictor_fully_implicit(m: np.ndarray, cfg: IntegratorConfig,
                             field_cfg: EffectiveField, asm: Assemblies,
                             t: float):
    """PC1/PC2 predictor with the lower-order field P_h pi(m + theta k v) +
    f(t + theta k); pi is linear, so this is one predictor_full solve."""
    h_lower = lower_field(asm, field_cfg, m, t + cfg.theta * cfg.k)
    return predictor_full(m, cfg, field_cfg, asm, h_lower,
                          implicit_pi=field_cfg.uniaxial is not None)


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
    f_mid = (exchange_field(asm, field_cfg, u)
             + lower_field(asm, field_cfg, u, t + 0.5 * cfg.k))
    c = 0.5 * cfg.k * (f_mid + cfg.alpha * nodal_cross(u, f_mid))
    # (a I - [c]_x)^{-1} = (a^2 I + a [c]_x + c c^T) / (a (a^2 + |c|^2))
    csq = np.einsum("ij,ij->i", c, c)
    cm = np.einsum("ij,ij->i", c, m)
    eta = (a2 * a2 * m + a2 * nodal_cross(c, m) + cm[:, None] * c)
    eta /= (a2 * a2 + csq)[:, None]
    return 2.0 * eta - m


def step(state: SimState, cfg: IntegratorConfig, field_cfg: EffectiveField,
         asm: Assemblies) -> SimState:
    """Advance one time step with the configured scheme.

    Raises NonFiniteStateError, naming the first vertex, if the new state
    is not finite (an overflow in the corrector, say)."""
    m = real_array(state.m_curr, "m_curr", (asm.n, 3))
    check_int(state.ell, "ell", 0)
    t = state.ell * cfg.k
    if cfg.scheme == "PC2_IMEX" and state.ell == 0:
        # preprocessing step: one PC2 step supplies a second-order m^1
        cfg = replace(cfg, scheme="PC2")
    scheme = cfg.scheme

    if scheme in ("PC1", "PC2"):
        v, iters = predictor_fully_implicit(m, cfg, field_cfg, asm, t)
    else:  # IMEX and projection-free: the lower-order field is explicit
        w, t_lower = m, t
        if scheme == "PC2_IMEX":
            if state.m_prev is None:
                raise InvalidParameterError("PC2_IMEX needs m_prev for ell >= 1")
            m_prev = real_array(state.m_prev, "m_prev", (asm.n, 3))
            # pi is linear: extrapolate its argument, not its values
            w = (1.0 + cfg.theta) * m - cfg.theta * m_prev
            t_lower = t + cfg.theta * cfg.k
        v, iters = predictor_full(m, cfg, field_cfg, asm,
                                  lower_field(asm, field_cfg, w, t_lower))

    if scheme in ("PC1", "PC1_IMEX"):
        m_next = corrector_project(m, v, cfg.k)
    elif scheme == "PC1_PROJFREE":
        m_next = m + cfg.k * v
    else:  # PC2, PC2_IMEX
        m_next = corrector_pc2(m, v, cfg, field_cfg, asm, t)
    finite = np.isfinite(m_next).all(axis=1)
    if not finite.all():  # else only the next step's GMRES rejects it
        raise NonFiniteStateError(int(np.argmin(finite)))

    return SimState(ell=state.ell + 1, m_curr=m_next, m_prev=m,
                    predictor_iterations=iters)
