import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from llgpc import llg
from llgpc.errors import (InvalidParameterError, NoConvergenceError,
                          NonFiniteStateError)
from llgpc.fem import apply_Ph, discrete_laplacian, grad_sq, inner_l2
from llgpc.harness import RunConfig
from llgpc.llg import (EffectiveField, IntegratorConfig, SimState, Uniaxial,
                       corrector_pc2, corrector_project, damped_cross_block,
                       energy, lower_field, predictor_full,
                       predictor_fully_implicit, step)

import tangent_oracle
from conftest import dense, inner_h, random_unit_field, tangency_recorder

E3 = np.array([0.0, 0.0, 1.0])


def swirl_field(t):
    """A time-dependent applied field f(t) = (sin 3t, 0, 2 cos 2t)."""
    return np.array([np.sin(3.0 * t), 0.0, 2.0 * np.cos(2.0 * t)])


def uniform_field(n, direction=(1.0, 0.0, 0.0)):
    return np.tile(np.asarray(direction, dtype=float), (n, 1))


class TestConfigs:
    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(scheme="RK4", k=1e-3)

    @pytest.mark.parametrize("kw", [dict(theta=-0.1), dict(theta=1.1),
                                    dict(k=0.0), dict(alpha=-1.0),
                                    dict(k=np.nan), dict(k=np.inf),
                                    dict(alpha=np.nan), dict(alpha=np.inf),
                                    dict(lin_tol=np.nan), dict(lin_tol=-1.0),
                                    dict(lin_tol=0.0), dict(k="1e-3"),
                                    dict(theta=np.array([0.5, 0.5])),
                                    dict(alpha=1e200), dict(alpha=1e100),
                                    dict(alpha=1e154)])
    def test_bad_parameters(self, kw):
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(scheme="PC1", k=kw.pop("k", 1e-3), **kw)

    @pytest.mark.parametrize("make", [
        lambda: EffectiveField(ell_ex=np.nan),
        lambda: EffectiveField(ell_ex=np.inf),
        lambda: EffectiveField(ell_ex=1e200),
        lambda: EffectiveField(ell_ex=1e-170),
        lambda: Uniaxial(np.nan, E3),
        lambda: Uniaxial(np.inf, E3),
        lambda: EffectiveField(ell_ex=np.array([1.0, 2.0])),
        lambda: Uniaxial(np.array([1.0, 2.0]), E3),
        lambda: Uniaxial("1", E3),
        lambda: EffectiveField(ell_ex=1e-160, uniaxial=Uniaxial(1.0, E3)),
    ], ids=["ell_ex_nan", "ell_ex_inf", "ell_ex_square_overflows",
            "ell_ex_square_underflows", "uniaxial_c_nan", "uniaxial_c_inf",
            "ell_ex_array", "uniaxial_c_array", "uniaxial_c_string",
            "uniaxial_c_over_ell_ex_square_overflows"])
    def test_bad_field_constants(self, make):
        with pytest.raises(InvalidParameterError):
            make()

    def test_uniaxial_axis_must_be_unit(self):
        with pytest.raises(InvalidParameterError):
            Uniaxial(1.0, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0 + 9e-6], [1.0, 0.0],
                                      [[0.0, 0.0, 1.0]], [0.0, 0.0, 1.0, 0.0]],
                             ids=["off_by_9e-6", "shape2", "shape1x3",
                                  "shape4"])
    def test_uniaxial_bad_axis_rejected(self, axis):
        # each has |axis| within numpy's isclose default rtol of 1
        with pytest.raises(InvalidParameterError):
            Uniaxial(1.0, np.array(axis))

    def test_applied_field_callable(self):
        f = EffectiveField(applied=lambda t: np.array([t, 0.0, 0.0]))
        assert f.f_at(2.0) == pytest.approx([2.0, 0.0, 0.0])

    @pytest.mark.parametrize("applied", [[np.nan, 0.0, 0.0],
                                         [0.0, np.inf, 0.0], [1.0, 0.0]],
                             ids=["nan", "inf", "shape2"])
    def test_bad_constant_applied_field(self, applied):
        with pytest.raises(InvalidParameterError):
            EffectiveField(applied=np.array(applied))

    @pytest.mark.parametrize("make,read", [
        (lambda v: Uniaxial(1.0, v), lambda held: held.axis),
        (lambda v: EffectiveField(applied=v), lambda held: held.f_at(0.0)),
    ], ids=["anisotropy_axis", "applied"])
    def test_field_vector_is_a_read_only_copy(self, make, read):
        # the caller's array was kept: a later write to it took the axis
        # off the unit sphere, or made f_at return inf
        v = E3.copy()
        held = make(v)
        v[2] = np.inf
        assert read(held).tolist() == [0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            read(held)[2] = 5.0

    @pytest.mark.parametrize("make", [
        lambda v: Uniaxial(1.0, v),
        lambda v: EffectiveField(applied=v),
        lambda v: EffectiveField(applied=lambda t: v).f_at(0.0),
    ], ids=["anisotropy_axis", "applied", "applied_callable"])
    def test_complex_vector_rejected(self, make):
        with pytest.raises(InvalidParameterError, match="must be real"):
            make(E3 + 1e-3j)

    @pytest.mark.parametrize("value", [[np.nan, 0.0, 0.0], [1.0, 0.0]],
                             ids=["nan", "shape2"])
    def test_bad_callable_applied_field(self, value):
        f = EffectiveField(applied=lambda t: np.array(value))
        with pytest.raises(InvalidParameterError):
            f.f_at(0.0)


class TestPhPi:
    def test_aligned_with_axis(self, cube2_asm):
        fld = EffectiveField(uniaxial=Uniaxial(2.0, E3))
        m = uniform_field(cube2_asm.n, E3)
        assert lower_field(cube2_asm, fld, m, 0.0) == pytest.approx(2.0 * m)

    def test_orthogonal_to_axis(self, cube2_asm):
        fld = EffectiveField(uniaxial=Uniaxial(2.0, E3))
        m = uniform_field(cube2_asm.n, (1.0, 0.0, 0.0))
        assert np.abs(lower_field(cube2_asm, fld, m, 0.0)).max() == 0.0

    def test_self_adjoint(self, cube2_asm):
        fld = EffectiveField(uniaxial=Uniaxial(1.5, E3))
        u = random_unit_field(cube2_asm.n, 41)
        w = random_unit_field(cube2_asm.n, 42)
        pu = lower_field(cube2_asm, fld, u, 0.0)
        pw = lower_field(cube2_asm, fld, w, 0.0)
        assert inner_h(cube2_asm.beta, pu, w) == pytest.approx(
            inner_h(cube2_asm.beta, u, pw), rel=1e-12)

    def test_matches_three_column_mass_product(self, cube2_asm):
        c, axis = 2.5, np.array([1.0, -2.0, 2.0]) / 3.0
        fld = EffectiveField(uniaxial=Uniaxial(c, axis))
        rng = np.random.Generator(np.random.Philox(43))
        w = rng.normal(size=(cube2_asm.n, 3))
        ref = apply_Ph(cube2_asm.mass, cube2_asm.beta,
                       c * np.outer(w @ axis, axis))
        out = lower_field(cube2_asm, fld, w, 0.0)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


class TestLowerField:
    """lower_field is always a term to add to an (N, 3) field."""

    def test_neither_term_is_zero(self, cube2_asm):
        fld = EffectiveField()
        m = random_unit_field(cube2_asm.n, 44)
        out = lower_field(cube2_asm, fld, m, 0.3)
        assert type(out) is float and out == 0.0
        cfg = IntegratorConfig(scheme="PC1_IMEX", k=1e-2)
        v, _ = predictor_full(m, cfg, fld, cube2_asm, h_lower=out)
        v0, _ = predictor_full(m, cfg, fld, cube2_asm)
        assert v.tobytes() == v0.tobytes()

    @pytest.mark.parametrize("applied", [np.array([0.1, -0.2, 0.3]),
                                         swirl_field], ids=["const", "f_t"])
    def test_applied_only_is_f(self, cube2_asm, applied):
        fld = EffectiveField(applied=applied)
        w = random_unit_field(cube2_asm.n, 45)
        out = lower_field(cube2_asm, fld, w, 0.3)
        assert out.shape == (3,)
        assert out.tobytes() == fld.f_at(0.3).tobytes()

    @pytest.mark.parametrize("fld", [
        EffectiveField(), EffectiveField(applied=np.array([0.1, -0.2, 0.3]))],
        ids=["none", "applied"])
    def test_predictor_adds_it_as_given(self, cube2_asm, fld):
        cfg = IntegratorConfig(scheme="PC1_IMEX", k=1e-2)
        m = random_unit_field(cube2_asm.n, 46)
        h = lower_field(cube2_asm, fld, m, 0.3)
        v, _ = predictor_full(m, cfg, fld, cube2_asm, h_lower=h)
        # 0.0 or f(t) adds as the full (N, 3) array it stands for would
        full = np.broadcast_to(h, m.shape).copy()
        v_full, _ = predictor_full(m, cfg, fld, cube2_asm, h_lower=full)
        assert v.tobytes() == v_full.tobytes()


class TestEnergy:
    def test_uniform_exchange_only_is_zero(self, cube2_asm):
        m = uniform_field(cube2_asm.n)
        assert energy(cube2_asm, EffectiveField(), m) == pytest.approx(
            0.0, abs=1e-13)

    def test_uniform_with_applied_field(self, cube2_asm):
        f = np.array([-2.0, -0.5, 0.0])
        m = uniform_field(cube2_asm.n)
        fld = EffectiveField(applied=f)
        # -(f . m) * |Omega| with |Omega| = 1
        assert energy(cube2_asm, fld, m) == pytest.approx(2.0)

    def test_uniform_along_easy_axis(self, cube2_asm):
        fld = EffectiveField(uniaxial=Uniaxial(3.0, E3))
        m = uniform_field(cube2_asm.n, E3)
        assert energy(cube2_asm, fld, m) == pytest.approx(-1.5)

    def test_anisotropy_matches_three_column_form(self, cube2_asm):
        # -1/2 <pi(m), m>_L2 with the nodal pi(m) = c (m.e) e
        c, axis = 2.5, np.array([1.0, -2.0, 2.0]) / 3.0
        fld = EffectiveField(uniaxial=Uniaxial(c, axis))
        m = random_unit_field(cube2_asm.n, 44)
        pi_m = c * np.outer(m @ axis, axis)
        ref = (0.5 * grad_sq(cube2_asm.stiffness, m)
               - 0.5 * inner_l2(cube2_asm.mass, pi_m, m))
        assert energy(cube2_asm, fld, m) == pytest.approx(ref, rel=1e-13)


class TestTangentBasis:
    def test_e3_gives_e1_e2(self):
        t1, t2 = tangent_oracle.tangent_basis(E3)
        assert t1 == pytest.approx([1.0, 0.0, 0.0])
        assert t2 == pytest.approx([0.0, 1.0, 0.0])

    def test_orthonormal_right_handed_random(self):
        u = random_unit_field(1000, 51)
        t1, t2 = tangent_oracle.tangent_basis(u)
        for a, b in [(t1, t1), (t2, t2)]:
            assert np.einsum("ij,ij->i", a, b) == pytest.approx(
                np.ones(1000), abs=1e-14)
        for a, b in [(t1, u), (t2, u), (t1, t2)]:
            assert np.abs(np.einsum("ij,ij->i", a, b)).max() <= 1e-14
        assert np.abs(np.cross(t1, t2) - u).max() <= 1e-14

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidParameterError):
            tangent_oracle.tangent_basis(np.array([2.0, 0.0, 0.0]))


class TestDampedCrossBlock:
    @pytest.mark.parametrize("alpha", [1.0, 1.0 / 16.0])
    def test_block_times_h_is_damped_cross_product(self, alpha):
        # an exact identity for any m, so non-unit m (PC1_PROJFREE) too
        rng = np.random.Generator(np.random.Philox(61))
        m = rng.normal(size=(500, 3)) * rng.uniform(0.5, 2.0, size=(500, 1))
        h = rng.normal(size=(500, 3))
        mxh = np.cross(m, h)
        ref = mxh + alpha * np.cross(m, mxh)
        out = np.einsum("ijz,zj->zi", damped_cross_block(m, alpha), h)
        # a few ulps of the largest term of the sum
        scale = (np.linalg.norm(m, axis=1) * np.linalg.norm(h, axis=1)
                 * (1.0 + alpha * np.linalg.norm(m, axis=1)))
        assert np.all(np.abs(out - ref) <= 8 * np.finfo(float).eps
                      * scale[:, None])


class TestPredictors:
    def test_uniform_equilibrium_gives_zero(self, cube2_asm):
        m = uniform_field(cube2_asm.n)
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        v, _ = predictor_full(m, cfg, EffectiveField(), cube2_asm)
        assert np.abs(v).max() <= 1e-13

    def test_tangency_of_full_predictor(self, cube2_asm):
        m = random_unit_field(cube2_asm.n, 61)
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        v, _ = predictor_full(m, cfg, EffectiveField(), cube2_asm)
        dots = np.abs(np.einsum("ij,ij->i", m, v)).max()
        assert dots <= 1e-9 * (1.0 + np.abs(v).max())

    @pytest.mark.parametrize("implicit_pi", [False, True])
    def test_operator_returns_new_arrays(self, cube2_asm, monkeypatch,
                                         implicit_pi):
        # gmres overwrites what apply returns and does not copy it
        applies, gmres = [], llg.gmres

        def capturing_gmres(apply, b, **kw):
            applies.append(apply)
            return gmres(apply, b, **kw)

        monkeypatch.setattr(llg, "gmres", capturing_gmres)
        m = random_unit_field(cube2_asm.n, 63)
        field_cfg = EffectiveField(uniaxial=Uniaxial(0.5, E3))
        predictor_full(m, IntegratorConfig(scheme="PC1", k=1e-2), field_cfg,
                       cube2_asm, implicit_pi=implicit_pi)
        x = random_unit_field(cube2_asm.n, 64).reshape(-1)
        first, second = applies[0](x), applies[0](x)
        assert first.dtype == np.float64
        assert not np.shares_memory(first, x)
        assert not np.shares_memory(second, x)
        assert not np.shares_memory(first, second)

    def test_tangent_predictor_exact_tangency(self, cube2_asm):
        m = random_unit_field(cube2_asm.n, 62)
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        v, _ = tangent_oracle.predictor_tangent(m, cfg, EffectiveField(),
                                                cube2_asm)
        assert np.abs(np.einsum("ij,ij->i", m, v)).max() <= 1e-13 * (
            1.0 + np.abs(v).max())

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.0 / 16.0])
    def test_formulations_agree(self, cube2_asm, theta, alpha):
        fld = EffectiveField()
        cfg = IntegratorConfig(scheme="PC1", k=1e-2, theta=theta, alpha=alpha)
        for seed in range(3):
            m = random_unit_field(cube2_asm.n, 70 + seed)
            v1, _ = predictor_full(m, cfg, fld, cube2_asm)
            v2, _ = tangent_oracle.predictor_tangent(m, cfg, fld, cube2_asm)
            d = v1 - v2
            rel = np.sqrt(inner_l2(cube2_asm.mass, d, d)
                          / inner_l2(cube2_asm.mass, v1, v1))
            assert rel <= 1e-8

    def test_tangent_requires_unit_m(self, cube2_asm):
        m = 2.0 * random_unit_field(cube2_asm.n, 63)
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        with pytest.raises(InvalidParameterError):
            tangent_oracle.predictor_tangent(m, cfg, EffectiveField(),
                                             cube2_asm)

    def test_fully_implicit_without_pi_is_single_solve(self, cube2_asm):
        fld = EffectiveField(applied=np.array([0.1, 0.0, 0.0]))
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        m = random_unit_field(cube2_asm.n, 64)
        v_fi, _ = predictor_fully_implicit(m, cfg, fld, cube2_asm, t=0.0)
        h = np.tile([0.1, 0.0, 0.0], (cube2_asm.n, 1))
        v_ex, _ = predictor_full(m, cfg, fld, cube2_asm, h_lower=h)
        assert v_fi == pytest.approx(v_ex, abs=1e-14)

    def test_fully_implicit_small_anisotropy_converges_fast(self, cube2_asm):
        fld = EffectiveField(uniaxial=Uniaxial(0.1, E3))
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        m = random_unit_field(cube2_asm.n, 65)
        v, iters = predictor_fully_implicit(m, cfg, fld, cube2_asm, t=0.0)
        assert np.all(np.isfinite(v))
        assert iters <= 40

    def test_fully_implicit_variational_residual(self, cube2_asm):
        # at t != 0 with a time-dependent field, so that a field read at t
        # instead of t + theta k shows; no order test can see that offset
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3), applied=swirl_field)
        cfg = IntegratorConfig(scheme="PC2", k=1e-3, theta=0.5)
        m = random_unit_field(cube2_asm.n, 66)
        t = 0.3
        v, _ = predictor_fully_implicit(m, cfg, fld, cube2_asm, t=t)
        # re-evaluate the implicit system at the returned v
        arg = m + cfg.theta * cfg.k * v
        h_lower = lower_field(cube2_asm, fld, arg, t + cfg.theta * cfg.k)
        v2, _ = predictor_full(m, cfg, fld, cube2_asm, h_lower=h_lower)
        d = v2 - v
        res = np.sqrt(inner_l2(cube2_asm.mass, d, d))
        assert res <= 10 * cfg.lin_tol

    def test_full_predictor_over_many_cycles_matches_dense_solve(self,
                                                                 cube4_asm):
        # a stiff step needs many GMRES cycles on the one Krylov basis; the
        # dense 3N operator is built node-major from dense matrices, with
        # ell_ex != 1 so the implicit P_h pi term carries its 1/ell_ex^2
        asm = cube4_asm
        n = asm.n
        ell, c, axis = 0.5, 3.0, np.array([2.0, -1.0, 2.0]) / 3.0
        fld = EffectiveField(ell_ex=ell, uniaxial=Uniaxial(c, axis))
        cfg = IntegratorConfig(scheme="PC1", k=0.2, theta=0.5, alpha=0.5)
        m = random_unit_field(n, 67)
        v, iters = predictor_full(m, cfg, fld, asm, implicit_pi=True)
        assert iters > 10
        assert v.shape == (n, 3) and v.flags.c_contiguous

        lap = -dense(asm.stiffness) / asm.beta[:, None]
        ph_aniso_dense = np.kron(dense(asm.mass) / asm.beta[:, None],
                                 c * np.outer(axis, axis))
        mx = np.zeros((3 * n, 3 * n))
        for z, (m0, m1, m2) in enumerate(m):
            mx[3 * z:3 * z + 3, 3 * z:3 * z + 3] = [[0.0, -m2, m1],
                                                    [m2, 0.0, -m0],
                                                    [-m1, m0, 0.0]]
        cross = mx + cfg.alpha * mx @ mx
        lap3 = np.kron(lap, np.eye(3))
        a = ((1 + cfg.alpha ** 2) * np.eye(3 * n) + ell ** 2 * cfg.theta
             * cfg.k * cross @ (lap3 + ph_aniso_dense / ell ** 2))
        b = -cross @ (ell ** 2 * lap3 @ m.reshape(-1))
        x = v.reshape(-1)
        assert np.linalg.norm(b - a @ x) <= cfg.lin_tol * np.linalg.norm(b)
        v_dense = np.linalg.solve(a, b).reshape(n, 3)
        assert np.abs(v - v_dense).max() <= 1e-10 * np.abs(v_dense).max()

    @pytest.mark.parametrize("c,k", [(10.0, 0.5), (50.0, 0.2)])
    def test_fully_implicit_stiff_anisotropy_converges(self, cube2_asm, c, k):
        # a fixed-point iteration on the lower-order field diverges here;
        # the field is linear in v, so one linear solve gives v directly
        fld = EffectiveField(uniaxial=Uniaxial(c, E3))
        cfg = IntegratorConfig(scheme="PC1", k=k, theta=1.0)
        m = random_unit_field(cube2_asm.n, 1)
        v, _ = predictor_fully_implicit(m, cfg, fld, cube2_asm, t=0.0)
        assert np.abs(np.einsum("ij,ij->i", m, v)).max() <= 1e-13
        h_lower = lower_field(cube2_asm, fld, m + k * v, k)
        v2, _ = predictor_full(m, cfg, fld, cube2_asm, h_lower=h_lower)
        assert np.abs(v2 - v).max() <= 1e-9 * np.abs(v).max()


class TestCorrectors:
    def test_project_examples(self):
        m = np.array([[1.0, 0.0, 0.0]])
        v = np.array([[0.0, 1.0, 0.0]])
        assert corrector_project(m, v, 1.0)[0] == pytest.approx(
            [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])
        m = np.array([[0.0, 0.0, 1.0]])
        v = np.array([[1.0, 0.0, 0.0]])
        assert corrector_project(m, v, 2.0)[0] == pytest.approx(
            [2 / np.sqrt(5), 0.0, 1 / np.sqrt(5)])

    def test_project_zero_velocity(self):
        m = random_unit_field(10, 71)
        assert corrector_project(m, np.zeros_like(m), 1e-2) == pytest.approx(m)

    def test_pc2_equilibrium_fixed_point(self, cube2_asm):
        m = uniform_field(cube2_asm.n)
        cfg = IntegratorConfig(scheme="PC2", k=1e-2)
        out = corrector_pc2(m, np.zeros_like(m), cfg, EffectiveField(),
                            cube2_asm, 0.0)
        assert out == pytest.approx(m, abs=1e-14)

    def test_pc2_preserves_moduli(self, cube2_asm):
        cfg = IntegratorConfig(scheme="PC2", k=1e-2)
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3),
                             applied=np.array([-2.0, -0.5, 0.0]))
        m = random_unit_field(cube2_asm.n, 72)
        v, _ = predictor_full(m, cfg, fld, cube2_asm)
        out = corrector_pc2(m, v, cfg, fld, cube2_asm, 0.0)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           v_scale=st.floats(1e-3, 1e3),
           k=st.floats(1e-4, 1.0),
           alpha=st.floats(0.0, 2.0),
           c=st.floats(0.0, 5.0),
           applied=hnp.arrays(np.float64, 3, elements=st.floats(-5.0, 5.0)))
    def test_pc2_preserves_moduli_property(self, cube2_asm, seed, v_scale, k,
                                           alpha, c, applied):
        rng = np.random.Generator(np.random.Philox(seed))
        m = random_unit_field(cube2_asm.n, seed)
        v = v_scale * rng.normal(size=m.shape)
        axis = rng.normal(size=3)
        fld = EffectiveField(uniaxial=Uniaxial(c, axis / np.linalg.norm(axis)),
                             applied=applied)
        cfg = IntegratorConfig(scheme="PC2", k=k, alpha=alpha)
        out = corrector_pc2(m, v, cfg, fld, cube2_asm, 0.0)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-14

    def test_pc2_matches_dense_blocks(self, cube2_asm):
        cfg = IntegratorConfig(scheme="PC2", k=5e-3, alpha=0.7)
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3))
        m = random_unit_field(cube2_asm.n, 73)
        v, _ = predictor_full(m, cfg, fld, cube2_asm)
        out = corrector_pc2(m, v, cfg, fld, cube2_asm, 0.0)
        a2 = 1.0 + cfg.alpha ** 2
        u = m + 0.5 * cfg.k * v
        f_mid = discrete_laplacian(cube2_asm.stiffness, cube2_asm.beta, u)
        f_mid = f_mid + lower_field(cube2_asm, fld, u, 0.5 * cfg.k)
        c = 0.5 * cfg.k * (f_mid + cfg.alpha * np.cross(u, f_mid))
        for z in range(cube2_asm.n):
            skew = np.array([[0.0, -c[z, 2], c[z, 1]],
                             [c[z, 2], 0.0, -c[z, 0]],
                             [-c[z, 1], c[z, 0], 0.0]])
            eta = np.linalg.solve(a2 * np.eye(3) - skew, a2 * m[z])
            assert out[z] == pytest.approx(2.0 * eta - m[z], abs=1e-12)


class TestStep:
    @pytest.mark.parametrize("scheme", ["PC1", "PC1_IMEX", "PC1_PROJFREE",
                                        "PC2", "PC2_IMEX"])
    def test_equilibrium_is_fixed_point(self, cube2_asm, scheme):
        m = uniform_field(cube2_asm.n)
        cfg = IntegratorConfig(scheme=scheme, k=1e-3)
        state = SimState(ell=0, m_curr=m.copy())
        for _ in range(3):
            state = step(state, cfg, EffectiveField(), cube2_asm)
        assert state.m_curr == pytest.approx(m, abs=1e-11)
        assert state.ell == 3

    def test_pc2_imex_reduces_without_extrapolation(self, cube2_asm):
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3))
        m = random_unit_field(cube2_asm.n, 81)
        cfg = IntegratorConfig(scheme="PC2_IMEX", k=1e-3, theta=0.5)
        # ell >= 1 with m_prev = m_curr: extrapolation collapses to pi(m)
        state = SimState(ell=1, m_curr=m.copy(), m_prev=m.copy())
        out = step(state, cfg, fld, cube2_asm)

        h = lower_field(cube2_asm, fld, m, cfg.theta * cfg.k)
        cfg_pc2 = IntegratorConfig(scheme="PC2", k=1e-3, theta=0.5)
        v, _ = predictor_full(m, cfg_pc2, fld, cube2_asm, h_lower=h)
        expected = corrector_pc2(m, v, cfg_pc2, fld, cube2_asm, 1e-3)
        assert out.m_curr == pytest.approx(expected, abs=1e-13)

    def test_pc2_imex_reads_lower_field_at_theta_offset(self, cube2_asm):
        # ell >= 1: P_h pi of the extrapolated argument plus f, both at
        # t + theta k; the order tests cannot see a field read at t, as v
        # enters the corrector only through k v
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3), applied=swirl_field)
        cfg = IntegratorConfig(scheme="PC2_IMEX", k=1e-2, theta=0.5)
        m, m_prev = (random_unit_field(cube2_asm.n, s) for s in (86, 87))
        out = step(SimState(ell=30, m_curr=m, m_prev=m_prev), cfg, fld,
                   cube2_asm)

        t = 30 * cfg.k
        w = (1.0 + cfg.theta) * m - cfg.theta * m_prev
        h = lower_field(cube2_asm, fld, w, t + cfg.theta * cfg.k)
        v, _ = predictor_full(m, cfg, fld, cube2_asm, h_lower=h)
        expected = corrector_pc2(m, v, cfg, fld, cube2_asm, t)
        assert out.m_curr == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("scheme, fields", [
        ("PC1", dict(m_curr=[[1.0, 0.0, 0.0]] * 26)),
        ("PC1", dict(m_curr=np.full((27, 3), True))),
        ("PC2_IMEX", dict(m_prev=[[1.0, 0.0, 0.0]] * 26)),
        ("PC2_IMEX", dict(m_prev=np.ones((27, 2)))),
    ], ids=["m_curr_short_list", "m_curr_bool", "m_prev_short_list",
            "m_prev_shape"])
    def test_bad_state_fields_rejected(self, cube2_asm, scheme, fields):
        # a short m_prev once met m in a numpy broadcast error
        m = uniform_field(cube2_asm.n)
        state = SimState(**{"ell": 1, "m_curr": m, "m_prev": m, **fields})
        with pytest.raises(InvalidParameterError):
            step(state, IntegratorConfig(scheme=scheme, k=1e-3),
                 EffectiveField(), cube2_asm)

    @pytest.mark.parametrize("ell", [1.5, True, -1, "a", None],
                             ids=["float", "bool", "negative", "str", "none"])
    def test_step_index_must_be_integer_ge_0(self, cube2_asm, ell):
        # 1.5 once stepped to 2.5, True to 2 and -1 to 0; "a" and None
        # raised a bare TypeError
        state = SimState(ell=ell, m_curr=uniform_field(cube2_asm.n))
        with pytest.raises(InvalidParameterError, match="ell must be an int"):
            step(state, IntegratorConfig(scheme="PC1", k=1e-3),
                 EffectiveField(), cube2_asm)

    @pytest.mark.parametrize("arg", ["cfg", "field_cfg", "asm"])
    def test_wrongly_typed_arguments_named(self, cube2_asm, arg):
        # each once raised a bare AttributeError from deep inside the step
        ok = dict(cfg=IntegratorConfig(scheme="PC1", k=1e-3),
                  field_cfg=EffectiveField(), asm=cube2_asm)
        wrong = dict(cfg=RunConfig(ok["cfg"], ok["field_cfg"], 1e-2),
                     field_cfg=None, asm=cube2_asm.mesh)
        args = {**ok, arg: wrong[arg]}
        state = SimState(0, uniform_field(cube2_asm.n))
        with pytest.raises(InvalidParameterError, match=f"^{arg} must be"):
            step(state, args["cfg"], args["field_cfg"], args["asm"])

    def test_numpy_integer_step_index_accepted(self, cube2_asm):
        state = SimState(ell=np.int64(3), m_curr=uniform_field(cube2_asm.n))
        out = step(state, IntegratorConfig(scheme="PC1", k=1e-3),
                   EffectiveField(), cube2_asm)
        assert out.ell == 4

    def test_list_fields_step_as_arrays(self, cube2_asm):
        # a list m_curr once raised AttributeError from the nodal blocks
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3))
        cfg = IntegratorConfig(scheme="PC2_IMEX", k=1e-3)
        m, m_prev = (random_unit_field(cube2_asm.n, s) for s in (88, 89))
        out = step(SimState(ell=1, m_curr=m.tolist(), m_prev=m_prev.tolist()),
                   cfg, fld, cube2_asm)
        expected = step(SimState(ell=1, m_curr=m, m_prev=m_prev), cfg, fld,
                        cube2_asm)
        assert out.m_curr.tobytes() == expected.m_curr.tobytes()
        assert np.array_equal(out.m_prev, m)

    def test_pc1_energy_decay_exchange_only(self, cube4_asm):
        from llgpc.fem import check_angle_condition
        assert check_angle_condition(cube4_asm.stiffness).passed
        m = random_unit_field(cube4_asm.n, 82)
        cfg = IntegratorConfig(scheme="PC1", k=1e-3, theta=0.5)
        state = SimState(ell=0, m_curr=m)
        g_prev = grad_sq(cube4_asm.stiffness, m)
        for _ in range(20):
            state = step(state, cfg, EffectiveField(), cube4_asm)
            g = grad_sq(cube4_asm.stiffness, state.m_curr)
            assert g <= g_prev + 1e-10
            g_prev = g

    def test_pc2_step_takes_exchange_field_of_m_once(self, cube2_asm,
                                                     monkeypatch):
        # one predictor solve per step, and Lap_h m is computed once in it
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3))
        m = random_unit_field(cube2_asm.n, 84)
        laplacians_of_m, solves = [], []
        lap, full = llg.discrete_laplacian, llg.predictor_full

        def counting_lap(stiffness, beta, w):
            if np.array_equal(w, m):
                laplacians_of_m.append(1)
            return lap(stiffness, beta, w)

        def counting_full(*args, **kwargs):
            solves.append(1)
            return full(*args, **kwargs)

        monkeypatch.setattr(llg, "discrete_laplacian", counting_lap)
        monkeypatch.setattr(llg, "predictor_full", counting_full)
        step(SimState(ell=0, m_curr=m.copy()),
             IntegratorConfig(scheme="PC2", k=1e-2), fld, cube2_asm)
        assert len(solves) == 1
        assert len(laplacians_of_m) == 1

    def test_non_finite_state_fails_fast(self, cube2_asm):
        m = random_unit_field(cube2_asm.n, 85)
        m[13] = np.nan
        with pytest.raises(NoConvergenceError) as exc:
            step(SimState(ell=0, m_curr=m),
                 IntegratorConfig(scheme="PC1_IMEX", k=1e-3),
                 EffectiveField(), cube2_asm)
        # the whole budget would be 10 * 3N = 810 iterations
        assert exc.value.iterations <= 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_corrector_fails_at_once(self, cube2_asm):
        # m is parallel to f, so v = 0, but |c|^2 overflows in the PC2
        # corrector and eta = inf / inf
        m = uniform_field(cube2_asm.n)
        cfg = IntegratorConfig(scheme="PC2", k=1e-2)
        with pytest.raises(NonFiniteStateError) as exc:
            step(SimState(ell=0, m_curr=m), cfg,
                 EffectiveField(applied=[1e308, 0.0, 0.0]), cube2_asm)
        assert exc.value.vertex == 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["PC1", "PC1_IMEX", "PC1_PROJFREE"])
    def test_non_finite_new_state_names_its_vertex(self, cube2_asm,
                                                   monkeypatch, scheme):
        def infinite_at_last_vertex(m, *args, **kwargs):
            v = np.zeros_like(m)
            v[-1] = np.inf
            return v, 0

        monkeypatch.setattr(llg, "predictor_full", infinite_at_last_vertex)
        with pytest.raises(NonFiniteStateError) as exc:
            step(SimState(ell=0, m_curr=uniform_field(cube2_asm.n)),
                 IntegratorConfig(scheme=scheme, k=1e-3), EffectiveField(),
                 cube2_asm)
        assert exc.value.vertex == cube2_asm.n - 1

    def test_step_index_advances_and_rotates(self, cube2_asm):
        m = random_unit_field(cube2_asm.n, 83)
        cfg = IntegratorConfig(scheme="PC2", k=1e-3)
        state = SimState(ell=0, m_curr=m.copy())
        out = step(state, cfg, EffectiveField(), cube2_asm)
        assert out.ell == 1
        assert np.array_equal(out.m_prev, m)


class TestTangencyRecorder:
    def test_records_worst_ratio(self, cube2_asm):
        m = random_unit_field(cube2_asm.n, 91)
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        oracle = tangent_oracle.predictor_tangent
        with tangency_recorder() as rec:
            llg.predictor_full(m, cfg, EffectiveField(), cube2_asm)
            tangent_oracle.predictor_tangent(m, cfg, EffectiveField(),
                                             cube2_asm)
        assert rec.calls == 2
        assert rec.worst_ratio <= 1e-9
        assert llg.predictor_full is predictor_full
        assert tangent_oracle.predictor_tangent is oracle

    def test_skips_non_unit_m(self, cube2_asm):
        m = 1.5 * random_unit_field(cube2_asm.n, 92)
        cfg = IntegratorConfig(scheme="PC1", k=1e-2)
        with tangency_recorder() as rec:
            llg.predictor_full(m, cfg, EffectiveField(), cube2_asm)
        assert rec.calls == 0
