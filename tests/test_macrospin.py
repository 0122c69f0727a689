"""Time-step convergence against an independent reference.

From a uniform field the stiffness rows sum to zero, so Lap_h m = 0 and
every scheme integrates the macrospin Landau-Lifshitz ODE

    m' = -(m x h + a m x (m x h)) / (1 + a^2),   h = c (m.e) e + f(t),

here with criterion 1's field, constant f or f plus a drift in t.  RK4 at a step far below the
schemes' gives the reference, so the orders are measured against code
that shares nothing with the library.  A v = 0 for a uniform v, so in
the PC1 and PC2 predictors only the implicit P_h pi term of the operator
acts.
"""

import numpy as np
import pytest

from llgpc.harness import RunConfig, run_simulation
from llgpc.llg import EffectiveField, IntegratorConfig, Uniaxial

from conftest import cube_asm

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
C, F, ALPHA = 1.0, np.array([-2.0, -0.5, 0.0]), 1.0
FIELD = EffectiveField(ell_ex=1.0, uniaxial=Uniaxial(C, E3), applied=F)
T_END = 1.0
KS = [8e-3, 4e-3, 2e-3, 1e-3]
K_RK4 = 1e-4  # differs from RK4 at k = 5e-5 by about 5e-15


def _cross(u, w):
    # np.cross's axis handling costs more than the product of 3-vectors,
    # and RK4 takes 80000 of them
    u0, u1, u2 = u
    w0, w1, w2 = w
    return np.array([u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0])


def _f_of_t(t):
    # a time-dependent applied field: F plus a non-polynomial drift
    return F + np.array([np.sin(3.0 * t), 0.0, 2.0 * np.cos(2.0 * t)])


def _macrospin_rhs(m, f):
    h = C * (m @ E3) * E3 + f
    mxh = _cross(m, h)
    return -(mxh + ALPHA * _cross(m, mxh)) / (1.0 + ALPHA ** 2)


def _rk4(m, t_end, k, f=lambda t: F):
    for j in range(round(t_end / k)):
        t = j * k
        k1 = _macrospin_rhs(m, f(t))
        k2 = _macrospin_rhs(m + 0.5 * k * k1, f(t + 0.5 * k))
        k3 = _macrospin_rhs(m + 0.5 * k * k2, f(t + 0.5 * k))
        k4 = _macrospin_rhs(m + k * k3, f(t + k))
        m = m + k / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


@pytest.fixture(scope="module")
def reference():
    return _rk4(E1, T_END, K_RK4)


@pytest.fixture(scope="module")
def reference_f_of_t():
    return _rk4(E1, T_END, K_RK4, _f_of_t)


@pytest.fixture(scope="module")
def cube2():
    return cube_asm(2)


def _slopes(scheme, field, reference, asm):
    m0 = np.tile(E1, (asm.n, 1))
    errors = []
    for k in KS:
        n_steps = round(T_END / k)
        cfg = RunConfig(
            integrator=IntegratorConfig(scheme=scheme, k=k, theta=0.5,
                                        alpha=ALPHA),
            field=field, t_end=n_steps * k, stride=n_steps)
        res = run_simulation(asm, cfg, m0)
        assert res.status == "completed"
        errors.append(np.abs(res.state.m_curr - reference).max())
    slopes = np.diff(np.log(errors)) / np.diff(np.log(KS))
    print(f"\n{scheme}: errors {errors}, slopes {slopes}")
    return slopes


SCHEME_ORDERS = [("PC1", 1), ("PC1_IMEX", 1), ("PC2", 2), ("PC2_IMEX", 2)]


@pytest.mark.parametrize("scheme,order", SCHEME_ORDERS)
def test_order_against_rk4_macrospin(scheme, order, reference, cube2):
    slopes = _slopes(scheme, FIELD, reference, cube2)
    assert np.all(np.abs(slopes - order) <= 0.05)


@pytest.mark.parametrize("scheme,order", SCHEME_ORDERS)
def test_order_with_time_dependent_field(scheme, order, reference_f_of_t,
                                         cube2):
    # f(t) enters at the predictor's t + theta k and the PC2 corrector's
    # t + k/2; a scheme that read it at another time would lose an order
    field = EffectiveField(ell_ex=1.0, uniaxial=Uniaxial(C, E3),
                           applied=_f_of_t)
    slopes = _slopes(scheme, field, reference_f_of_t, cube2)
    assert np.all(np.abs(slopes - order) <= 0.05)
