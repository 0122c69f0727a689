"""Time-step convergence against an independent reference.

From a uniform field the stiffness rows sum to zero, so Lap_h m = 0 and
every scheme integrates the macrospin Landau-Lifshitz ODE

    m' = -(m x h + a m x (m x h)) / (1 + a^2),   h = c (m.e) e + f,

here with criterion 1's field.  Classical RK4 at a step far below the
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


def _macrospin_rhs(m):
    h = C * (m @ E3) * E3 + F
    mxh = _cross(m, h)
    return -(mxh + ALPHA * _cross(m, mxh)) / (1.0 + ALPHA ** 2)


def _rk4(m, t_end, k):
    for _ in range(round(t_end / k)):
        k1 = _macrospin_rhs(m)
        k2 = _macrospin_rhs(m + 0.5 * k * k1)
        k3 = _macrospin_rhs(m + 0.5 * k * k2)
        k4 = _macrospin_rhs(m + k * k3)
        m = m + k / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


@pytest.fixture(scope="module")
def reference():
    return _rk4(E1, T_END, K_RK4)


@pytest.fixture(scope="module")
def cube2():
    return cube_asm(2)


@pytest.mark.parametrize("scheme,order", [
    ("PC1", 1), ("PC1_IMEX", 1), ("PC2", 2), ("PC2_IMEX", 2)])
def test_order_against_rk4_macrospin(scheme, order, reference, cube2):
    m0 = np.tile(E1, (cube2.n, 1))
    errors = []
    for k in KS:
        n_steps = round(T_END / k)
        cfg = RunConfig(
            integrator=IntegratorConfig(scheme=scheme, k=k, theta=0.5,
                                        alpha=ALPHA),
            field=FIELD, t_end=n_steps * k, stride=n_steps)
        res = run_simulation(cube2, cfg, m0)
        assert res.status == "completed"
        errors.append(np.abs(res.state.m_curr - reference).max())
    slopes = np.diff(np.log(errors)) / np.diff(np.log(KS))
    print(f"\n{scheme}: errors {errors}, slopes {slopes}")
    assert np.all(np.abs(slopes - order) <= 0.05)
