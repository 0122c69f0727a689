"""Time-step convergence with the exchange term acting, against an
independent reference.

On a fixed mesh every scheme converges in time to the mass-lumped
semi-discrete Landau-Lifshitz ODE

    m' = -(m x h + a m x (m x h)) / (1 + a^2),
    h = Lap_h m + P_h pi(m) + f,   Lap_h = -beta^{-1} A,
    P_h pi(m) = c beta^{-1} M (m.e) e,

here with criterion 1's field and ell_ex = 1.  Classical RK4 on dense
copies of A and M, at a step far below the schemes', gives the reference,
so the orders are measured against code that shares no time stepping
with the library.  Unlike criterion 1 and the macrospin test, which start
from a uniform field where Lap_h m = 0, the initial field here varies in
space, so the exchange term acts in every predictor and corrector.

k = 8e-3 is left out: at this h it is outside the asymptotic range (PC2's
error there is some 200 times its error at 4e-3).
"""

import numpy as np
import pytest

from llgpc.fem import h1_norm
from llgpc.harness import RunConfig, run_simulation
from llgpc.llg import EffectiveField, IntegratorConfig, Uniaxial

from conftest import dense

E3 = np.array([0.0, 0.0, 1.0])
C, F, ALPHA = 1.0, np.array([-2.0, -0.5, 0.0]), 1.0
FIELD = EffectiveField(ell_ex=1.0, uniaxial=Uniaxial(C, E3), applied=F)
T_END = 0.5
KS = [4e-3, 2e-3, 1e-3]
K_RK4 = 2e-4  # differs from RK4 at k = 1e-4 by about 7e-12


def _initial_field(vertices):
    x, y = vertices[:, 0], vertices[:, 1]
    m = np.column_stack([np.ones_like(x), 0.5 * np.sin(np.pi * x),
                         0.5 * np.cos(np.pi * y)])
    return m / np.linalg.norm(m, axis=1)[:, None]


def _rk4(asm, m, t_end, k):
    a, mass = dense(asm.stiffness), dense(asm.mass)
    beta = mass.sum(axis=1)[:, None]

    def rhs(m):
        h = (-(a @ m) + C * (mass @ (m @ E3))[:, None] * E3) / beta + F
        mxh = np.cross(m, h)
        return -(mxh + ALPHA * np.cross(m, mxh)) / (1.0 + ALPHA ** 2)

    for _ in range(round(t_end / k)):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * k * k1)
        k3 = rhs(m + 0.5 * k * k2)
        k4 = rhs(m + k * k3)
        m = m + k / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


@pytest.fixture(scope="module")
def m0(cube4_asm):
    return _initial_field(cube4_asm.mesh.vertices)


@pytest.fixture(scope="module")
def reference(cube4_asm, m0):
    return _rk4(cube4_asm, m0, T_END, K_RK4)


@pytest.mark.parametrize("scheme,order", [
    ("PC1", 1), ("PC1_IMEX", 1), ("PC2", 2), ("PC2_IMEX", 2)])
def test_order_against_rk4_semidiscrete(scheme, order, cube4_asm, m0,
                                        reference):
    errors = []
    for k in KS:
        n_steps = round(T_END / k)
        cfg = RunConfig(
            integrator=IntegratorConfig(scheme=scheme, k=k, theta=0.5,
                                        alpha=ALPHA),
            field=FIELD, t_end=n_steps * k, stride=n_steps)
        res = run_simulation(cube4_asm, cfg, m0)
        assert res.status == "completed"
        errors.append(h1_norm(cube4_asm.mass, cube4_asm.stiffness,
                              res.state.m_curr - reference))
    slopes = np.diff(np.log(errors)) / np.diff(np.log(KS))
    print(f"\n{scheme}: errors {errors}, slopes {slopes}")
    assert np.all(np.abs(slopes - order) <= 0.05)
