import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from llgpc import fem, harness, llg
from llgpc.errors import (ConfigError, InvalidParameterError, LlgpcError,
                          NoConvergenceError, SolverFailure)
from llgpc.harness import (RunConfig, convergence_to_csv, estimated_order,
                           init_state, run_convergence_study, run_simulation,
                           run_stability_sweep, sweep_to_csv, trace_to_csv)
from llgpc.linalg import spmv
from llgpc.llg import EffectiveField, IntegratorConfig, Uniaxial
from llgpc.mesh import Mesh, build_cube_mesh

from conftest import cube_asm

E3 = np.array([0.0, 0.0, 1.0])


def run_config(**kw):
    return RunConfig(**{"integrator": IntegratorConfig(scheme="PC2", k=1e-3),
                        "field": EffectiveField(), "t_end": 1e-2, **kw})


class TestInitState:
    def test_uniform(self):
        mesh = build_cube_mesh(2, 1.0)
        m = init_state(mesh, "uniform")
        assert np.array_equal(m, np.tile([1.0, 0, 0], (27, 1)))

    def test_random_unit_and_reproducible(self):
        mesh = build_cube_mesh(2, 1.0)
        m1 = init_state(mesh, "random", seed=5)
        m2 = init_state(mesh, "random", seed=5)
        assert np.array_equal(m1, m2)
        assert np.abs(np.linalg.norm(m1, axis=1) - 1.0).max() <= 1e-15
        assert not np.array_equal(m1, init_state(mesh, "random", seed=6))
        # the draw is pinned: Gaussian triples of Philox(seed), normalised
        g = np.random.Generator(np.random.Philox(5)).normal(
            size=(mesh.n_vertices, 3))
        g /= np.linalg.norm(g, axis=1)[:, None]
        assert m1.tobytes() == g.tobytes()

    def test_hedgehog_corner_and_origin(self):
        mesh = build_cube_mesh(2, 1.0)  # centered at origin
        m = init_state(mesh, "hedgehog")
        corner = int(np.argmin(
            np.abs(mesh.vertices - [-0.5, -0.5, -0.5]).sum(axis=1)))
        assert m[corner] == pytest.approx(-np.ones(3) / np.sqrt(3.0))
        origin = int(np.argmin(np.linalg.norm(mesh.vertices, axis=1)))
        assert m[origin] == pytest.approx([0.0, 0.0, 1.0])

    def test_hedgehog_requires_interior_origin(self):
        mesh = build_cube_mesh(2, 1.0, center=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            init_state(mesh, "hedgehog")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            init_state(build_cube_mesh(1, 1.0), "spiral")

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            init_state(build_cube_mesh(1, 1.0), "random", seed=seed)


class TestRunSimulation:
    def test_uniform_relaxes_immediately(self):
        asm = cube_asm(2)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=1e-2, relax=True)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "uniform"))
        assert res.status == "relaxed"
        assert res.state.ell == 0

    def test_random_relaxes_monotonically(self):
        asm = cube_asm(2)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=20.0, stride=1,
                        relax=True, monitor_stability=True)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=2))
        assert res.status == "relaxed"
        g = [row.grad_sq for row in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(g, g[1:]))
        assert g[-1] <= 1e-8

    def test_unstable_flagged(self):
        asm = cube_asm(4, edge=0.4)
        cfg = RunConfig(
            integrator=IntegratorConfig(scheme="PC2", k=1e-2, theta=0.0),
            field=EffectiveField(), t_end=5.0, relax=True,
            monitor_stability=True)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=2))
        assert res.status == "unstable"

    def test_trace_times_monotone_and_stride(self):
        asm = cube_asm(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC1", k=1e-3),
                        field=EffectiveField(applied=np.array([0, 0, 1.0])),
                        t_end=1e-2, stride=2)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "uniform"))
        ts = [row.t for row in res.trace]
        assert ts == sorted(ts)
        assert res.trace[1].ell == 2

    def test_unit_error_small_for_projecting_schemes(self):
        asm = cube_asm(2)
        for scheme in ("PC1", "PC2"):
            cfg = RunConfig(integrator=IntegratorConfig(scheme=scheme, k=1e-3),
                            field=EffectiveField(), t_end=2e-2)
            res = run_simulation(asm, cfg,
                                 init_state(asm.mesh, "random", seed=3))
            assert max(r.max_unit_err for r in res.trace) <= 1e-9

    @pytest.mark.parametrize("bad", ["scaled", "nan", "inf"])
    def test_non_unit_m0_rejected(self, bad):
        asm = cube_asm(2)
        m0 = init_state(asm.mesh, "random", seed=4)
        if bad == "scaled":
            m0 = 2.0 * m0
        else:
            m0[11] = float(bad)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=3e-3)
        with pytest.raises(InvalidParameterError, match=r"\|m0\(") as exc:
            run_simulation(asm, cfg, m0)
        if bad != "scaled":
            assert "m0(11)" in str(exc.value)

    def test_complex_m0_rejected(self, monkeypatch):
        # its real part is a unit field: cast to float64, it would run
        asm = cube_asm(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=3e-3)
        monkeypatch.setattr(harness, "step", None)  # no step may run
        m0 = init_state(asm.mesh, "random", seed=4) + 1e-3j
        with pytest.raises(InvalidParameterError, match="m0 must be real"):
            run_simulation(asm, cfg, m0)

    @pytest.mark.parametrize("shape", [(24,), (3, 3), (8, 2)])
    def test_m0_of_wrong_shape_rejected(self, shape, monkeypatch):
        asm = cube_asm(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=3e-3)
        monkeypatch.setattr(harness, "step", None)  # no step may run
        with pytest.raises(InvalidParameterError, match=r"\(8, 3\)"):
            run_simulation(asm, cfg, np.ones(shape) / np.sqrt(shape[-1]))

    def test_grad_sq_once_per_trace_row(self, monkeypatch):
        asm = cube_asm(2)
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3),
                             applied=np.array([-2.0, -0.5, 0.0]))
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC1_IMEX", k=1e-3),
                        field=fld, t_end=5e-3, stride=5)
        calls = []
        inner = fem.grad_sq

        def counting(stiffness, w):
            calls.append(1)
            return inner(stiffness, w)

        for mod in (fem, harness, llg):
            monkeypatch.setattr(mod, "grad_sq", counting, raising=False)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=4))
        assert [row.ell for row in res.trace] == [0, 5]
        assert len(calls) == 2
        last = res.trace[-1]
        assert last.energy == llg.energy(asm, fld, res.state.m_curr, last.t)

    def test_observe_sees_every_step_once_in_order(self):
        asm = cube_asm(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC1_IMEX", k=0.1),
                        field=EffectiveField(), t_end=0.5, stride=5)
        m0 = init_state(asm.mesh, "random", seed=3)
        seen = []
        res = run_simulation(asm, cfg, m0,
                             lambda s: seen.append((s.ell, s.m_curr.copy())))
        at_3 = run_simulation(asm, replace(cfg, t_end=0.3), m0).state.m_curr
        assert res.status == "completed"
        assert [ell for ell, _ in seen] == [0, 1, 2, 3, 4, 5]
        assert np.array_equal(seen[0][1], m0)
        assert np.array_equal(seen[3][1], at_3)
        assert np.array_equal(seen[5][1], res.state.m_curr)

    def test_observe_skips_failed_step_and_sees_step_0_relax(
            self, monkeypatch):
        asm = cube_asm(1)
        seen = []
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=1e-2, relax=True)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "uniform"),
                             lambda s: seen.append(s.ell))
        assert (res.status, seen) == ("relaxed", [0])
        real_step = harness.step

        def failing_step(state, *args):
            if state.ell == 2:
                raise NoConvergenceError("GMRES did not converge")
            return real_step(state, *args)

        monkeypatch.setattr(harness, "step", failing_step)
        seen.clear()
        res = run_simulation(asm, replace(cfg, relax=False),
                             init_state(asm.mesh, "random", seed=3),
                             lambda s: seen.append(s.ell))
        assert (res.status, res.error.step, seen) == ("failed", 3, [0, 1, 2])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_projection_free_run_fails(self):
        # m.v = 0 nodewise, so m + k v only grows the nodal moduli: by step
        # 5 they reach 1e82 and the predictor's right-hand side overflows
        asm = cube_asm(2)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC1_PROJFREE",
                                                    k=0.5, theta=0.0),
                        field=EffectiveField(), t_end=20.0)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=1))
        assert res.status == "failed"
        assert res.error.step == 6
        assert isinstance(res.error.cause, NoConvergenceError)

    def test_solver_failure_names_scheme_step_k_and_t(self, monkeypatch):
        asm = cube_asm(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=0.25),
                        field=EffectiveField(), t_end=1.0)
        real_step = harness.step

        def failing_step(state, *args):
            if state.ell == 2:
                raise NoConvergenceError("GMRES did not converge",
                                         residual=1e-3, iterations=7)
            return real_step(state, *args)

        monkeypatch.setattr(harness, "step", failing_step)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=3))
        err = res.error
        assert res.status == "failed" and res.state.ell == 2
        assert (err.scheme, err.step, err.k, err.t) == ("PC2", 3, 0.25, 0.5)
        assert isinstance(err.cause, NoConvergenceError)
        assert str(err).startswith(
            "PC2 step 3 (k=0.25, from t=0.5) failed: GMRES did not converge")
        with pytest.raises(SolverFailure) as exc:
            run_convergence_study(asm, EffectiveField(), ["PC2"], [0.25],
                                  0.25, 1.0, init_state(asm.mesh, "uniform"))
        assert (exc.value.scheme, exc.value.step) == ("PC2", 3)

    def test_study_raises_a_failed_run_s_solver_failure(self, monkeypatch):
        # the reference run at k_ref succeeds; the study's run at k fails
        asm = cube_asm(1)
        real_step = harness.step

        def failing_step(state, cfg, *args):
            if cfg.k == 0.5 and state.ell == 1:
                raise NoConvergenceError("GMRES did not converge")
            return real_step(state, cfg, *args)

        monkeypatch.setattr(harness, "step", failing_step)
        with pytest.raises(SolverFailure) as exc:
            run_convergence_study(asm, EffectiveField(), ["PC1"], [0.5],
                                  0.25, 1.0, init_state(asm.mesh, "uniform"))
        assert (exc.value.scheme, exc.value.step, exc.value.k) == ("PC1", 2,
                                                                   0.5)

    @pytest.mark.parametrize("fields, match", [
        (dict(integrator="PC1"), "integrator must be an IntegratorConfig"),
        (dict(integrator=None), "integrator must be an IntegratorConfig"),
        (dict(field=None), "field must be an EffectiveField"),
        (dict(field=Uniaxial(1.0, E3)), "field must be an EffectiveField"),
    ], ids=["integrator_str", "integrator_none", "field_none",
            "field_uniaxial"])
    def test_run_config_holds_its_config_types(self, fields, match):
        # a str integrator once raised AttributeError on .k, and a None
        # field was accepted and failed inside the first trace row
        with pytest.raises(ConfigError, match=match):
            run_config(**fields)

    def test_t_end_must_be_multiple_of_k(self):
        with pytest.raises(ConfigError):
            RunConfig(integrator=IntegratorConfig(scheme="PC1", k=3e-3),
                      field=EffectiveField(), t_end=1e-2)

    @pytest.mark.parametrize("start", [
        lambda asm, m0: run_config(t_end=np.inf),
        lambda asm, m0: run_config(t_end=np.nan),
        # t_end / k rounds to zero steps: a run would record only ell = 0
        lambda asm, m0: run_config(t_end=1e-12),
        lambda asm, m0: run_config(stride=1.5),
        lambda asm, m0: run_config(stride="2"),
        lambda asm, m0: run_stability_sweep(asm, EffectiveField(), "PC2",
                                            [0.5], [1e-3], m0, t_cap=np.inf),
        lambda asm, m0: run_stability_sweep(asm, EffectiveField(), "PC2",
                                            [0.5], [0.0], m0),
        lambda asm, m0: run_convergence_study(asm, EffectiveField(), ["PC2"],
                                              [1e-3], 0.0, 1e-2, m0),
        lambda asm, m0: run_convergence_study(asm, EffectiveField(), ["PC2"],
                                              [1e-3], np.nan, 1e-2, m0),
        lambda asm, m0: run_convergence_study(asm, EffectiveField(), ["PC2"],
                                              [1e-3], 1e-3, np.inf, m0),
        lambda asm, m0: run_convergence_study(asm, EffectiveField(), ["PC2"],
                                              [np.inf], 1e-3, 1e-2, m0),
        # t_end / k, t_cap / k, t_end / k_ref and k / k_ref overflow to inf
        lambda asm, m0: RunConfig(
            integrator=IntegratorConfig(scheme="PC2", k=1e-320),
            field=EffectiveField(), t_end=1.0),
        lambda asm, m0: run_stability_sweep(asm, EffectiveField(), "PC2",
                                            [0.5], [1e-320], m0, t_cap=1.0),
        lambda asm, m0: run_convergence_study(asm, EffectiveField(), ["PC2"],
                                              [1.0], 1e-320, 1.0, m0),
        lambda asm, m0: run_convergence_study(asm, EffectiveField(), ["PC2"],
                                              [1e10], 1e-300, 1.0, m0),
    ], ids=["t_end_inf", "t_end_nan", "t_end_zero_steps", "stride_float",
            "stride_str", "t_cap_inf", "sweep_k_0", "k_ref_0", "k_ref_nan",
            "study_t_end_inf", "study_k_inf", "run_k_tiny", "sweep_k_tiny",
            "study_k_ref_tiny", "study_k_over_k_ref_inf"])
    def test_bad_run_length_rejected(self, start):
        asm = cube_asm(1)
        with pytest.raises(ConfigError):
            start(asm, init_state(asm.mesh, "uniform"))

    @pytest.mark.parametrize("k", ["1e-3", "x", None],
                             ids=["numeric_str", "str", "none"])
    def test_study_k_checked_before_cast(self, k):
        # float(k) ran first: "1e-3" was a step size, "x" raised ValueError
        # and None TypeError
        asm = cube_asm(1)
        with pytest.raises(ConfigError, match="k must be a finite positive"):
            run_convergence_study(asm, EffectiveField(), ["PC2"], [k], 1e-3,
                                  1e-2, init_state(asm.mesh, "uniform"))

    @pytest.mark.parametrize("start,match", [
        (lambda asm, m0: run_convergence_study(
            asm, EffectiveField(), ["PC2", "PC3"], [2e-3], 1e-3, 1e-2, m0),
         "unknown scheme 'PC3'"),
        (lambda asm, m0: run_convergence_study(
            asm, EffectiveField(), ["PC2"], [3e-3], 1e-3, 1e-2, m0),
         "t_end must be an integer multiple of k"),
        (lambda asm, m0: run_stability_sweep(
            asm, EffectiveField(), "PC2", [0.5, 1.5], [1e-3], m0, t_cap=1e-2),
         "theta must lie in"),
        (lambda asm, m0: run_stability_sweep(
            asm, EffectiveField(), "PC2", [0.5], [1e-3, 0.0], m0, t_cap=1e-2),
         "k must be a finite positive"),
        # an empty grid ran the whole reference, then returned no error
        (lambda asm, m0: run_convergence_study(
            asm, EffectiveField(), [], [2e-3], 1e-3, 1e-2, m0),
         "needs a scheme and a k"),
        (lambda asm, m0: run_convergence_study(
            asm, EffectiveField(), ["PC2"], [], 1e-3, 1e-2, m0),
         "needs a scheme and a k"),
        # an empty sweep grid returned [] without an error
        (lambda asm, m0: run_stability_sweep(
            asm, EffectiveField(), "PC2", [], [1e-3], m0, t_cap=1e-2),
         "needs a theta and a k"),
        (lambda asm, m0: run_stability_sweep(
            asm, EffectiveField(), "PC2", [0.5], [], m0, t_cap=1e-2),
         "needs a theta and a k"),
    ], ids=["study_unknown_second_scheme", "study_t_end_not_multiple_of_k",
            "sweep_second_theta_above_1", "sweep_second_k_0",
            "study_no_scheme", "study_no_k", "sweep_no_theta", "sweep_no_k"])
    def test_study_and_sweep_check_every_run_before_the_first(
            self, start, match, monkeypatch):
        asm = cube_asm(1)
        calls = []
        inner = harness.run_simulation

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(harness, "run_simulation", spy)
        with pytest.raises(LlgpcError, match=match):
            start(asm, init_state(asm.mesh, "uniform"))
        assert calls == []



class TestInputTypes:
    @pytest.mark.parametrize("make", [
        lambda: IntegratorConfig(scheme="PC2", k=True),
        lambda: run_config(stride=True),
        lambda: build_cube_mesh(True, 1.0),
        lambda: init_state(build_cube_mesh(1, 1.0), "random", seed=True),
        lambda: EffectiveField(ell_ex=True),
        lambda: run_convergence_study(
            cube_asm(1), EffectiveField(), ["PC2"], [0.5], 0.5, True,
            init_state(build_cube_mesh(1, 1.0), "uniform")),
    ], ids=["integrator_k", "run_stride", "cube_mesh_n", "init_seed",
            "ell_ex", "study_t_end"])
    def test_bool_is_not_a_number(self, make):
        # each ran as 1 or 1.0; np.True_ was already rejected
        with pytest.raises(LlgpcError, match="got True"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: Mesh([["x", "0", "0"]] * 4, np.array([[0, 1, 2, 3]])),
        lambda: build_cube_mesh(1, 1.0, center="x"),
        lambda: run_simulation(cube_asm(1), run_config(), "x"),
        lambda: EffectiveField(applied="x"),
        lambda: EffectiveField(applied=lambda t: "x").f_at(0.0),
        lambda: Uniaxial(1.0, "x"),
        # numeric strings: the float64 cast read them as numbers
        lambda: Mesh([["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
                      ["0", "0", "1"]], np.array([[0, 1, 2, 3]])),
        lambda: EffectiveField(applied=["1", "0", "0"]),
        lambda: Uniaxial(1.0, ["0", "0", "1"]),
        # numpy's UFuncTypeError of the product came out
        lambda: fem.grad_sq(cube_asm(1).stiffness, np.full((8, 3), "1")),
        # a None entry gave NaN rows, a bool vector ran on 0 and 1
        lambda: spmv(cube_asm(1).mass, [None] + [1.0] * 7),
        lambda: spmv(cube_asm(1).mass, np.ones(8, dtype=bool)),
        # a ragged list, and a list field, raised AttributeError
        lambda: fem.apply_Ph(cube_asm(1).mass, cube_asm(1).beta,
                             [[1.0, 0.0, 0.0]] * 7 + [[1.0]]),
        lambda: fem.discrete_laplacian(cube_asm(1).stiffness,
                                       cube_asm(1).beta, [["1"] * 3] * 8),
    ], ids=["mesh_vertices", "cube_mesh_center", "m0", "applied",
            "applied_callable", "anisotropy_axis", "mesh_numeric_strings",
            "applied_numeric_strings", "axis_numeric_strings",
            "grad_sq_strings", "spmv_none_entry", "spmv_bool",
            "apply_Ph_ragged_list", "laplacian_string_list"])
    def test_non_numeric_array_rejected(self, make):
        # numpy's bare ValueError of the float64 cast leaked out
        with pytest.raises(InvalidParameterError, match="must be real numbers"):
            make()

    @pytest.mark.parametrize("make", [
        # inner_l2 broadcast w to 3.0, or raised numpy's bare ValueError
        lambda: fem.inner_l2(cube_asm(1).mass, np.ones((8, 3)), np.ones(3)),
        lambda: fem.inner_l2(cube_asm(1).mass, np.ones(8), np.ones((8, 3))),
        # list fields raised AttributeError
        lambda: fem.discrete_laplacian(cube_asm(1).stiffness,
                                       cube_asm(1).beta, [[1.0, 0, 0]] * 7),
        lambda: fem.apply_Ph(cube_asm(1).mass, cube_asm(1).beta, [1.0] * 9),
        lambda: fem.discrete_laplacian(cube_asm(1).stiffness,
                                       cube_asm(1).beta, np.ones(8)),
        lambda: run_simulation(cube_asm(1), run_config(), np.ones((8, 2))),
        lambda: build_cube_mesh(1, 1.0, center=(0.0, 0.0)),
        lambda: EffectiveField(applied=np.ones((1, 3))),
        lambda: Uniaxial(1.0, [[0.0, 0.0, 1.0]]),
    ], ids=["inner_l2_broadcast", "inner_l2_scalar_and_field",
            "laplacian_list", "apply_Ph_list", "laplacian_scalar", "m0",
            "cube_mesh_center", "applied", "anisotropy_axis"])
    def test_array_of_wrong_shape_rejected(self, make):
        # every entry point hands errors.real_array the exact shape it needs
        with pytest.raises(InvalidParameterError, match="must have shape"):
            make()

    def test_list_field_is_the_array_field(self):
        # a nested list of numbers is valid input: it is converted once
        asm = cube_asm(1)
        w = init_state(asm.mesh, "random", seed=2)
        assert np.array_equal(
            fem.discrete_laplacian(asm.stiffness, asm.beta, w.tolist()),
            fem.discrete_laplacian(asm.stiffness, asm.beta, w))
        assert np.array_equal(fem.apply_Ph(asm.mass, asm.beta, w.tolist()),
                              fem.apply_Ph(asm.mass, asm.beta, w))

    def test_uniaxial_must_be_a_uniaxial(self):
        # an AttributeError on .c came out
        with pytest.raises(InvalidParameterError, match="must be a Uniaxial"):
            EffectiveField(uniaxial=(1.0, E3))


class TestCsvOutput:
    def test_trace_csv_header_and_determinism(self):
        asm = cube_asm(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(applied=np.array([0, 1.0, 0])),
                        t_end=3e-3)
        m0 = init_state(asm.mesh, "random", seed=9)
        a = trace_to_csv(run_simulation(asm, cfg, m0).trace)
        b = trace_to_csv(run_simulation(asm, cfg, m0).trace)
        lines_a = a.split("\n")
        assert lines_a[0] == ("ell,t,energy,grad_sq,mean_mx,mean_my,mean_mz,"
                              "max_unit_err,predictor_iterations,wall_time")
        assert "\r" not in a
        # bitwise identical except the wall-time column
        strip = lambda text: ["," .join(row.split(",")[:-1])
                              for row in text.strip().split("\n")]
        assert strip(a) == strip(b)

    def test_sweep_csv_shape(self):
        cells = run_stability_sweep(
            cube_asm(1), EffectiveField(), "PC2", [0.5],
            [1e-3], np.tile([1.0, 0, 0], (8, 1)), t_cap=1e-2)
        text = sweep_to_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,k,stable,status,steps_taken"
        assert len(lines) == 2

    def test_numpy_scalars_written_as_floats(self):
        asm = cube_asm(1)
        m0 = init_state(asm.mesh, "random", seed=9)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2",
                                                    k=np.float64(0.25)),
                        field=EffectiveField(), t_end=0.5)
        trace = trace_to_csv(run_simulation(asm, cfg, m0).trace)
        assert [row.split(",")[1] for row in trace.split("\n")[1:-1]] == [
            "0.0", "0.25", "0.5"]
        sweep = sweep_to_csv(run_stability_sweep(
            asm, EffectiveField(), "PC2", np.array([0.5]), np.array([0.25]),
            m0, t_cap=0.5))
        assert sweep.split("\n")[1].startswith("0.5,0.25,")
        conv = convergence_to_csv(run_convergence_study(
            asm, EffectiveField(), ["PC2"], np.array([2e-3, 1e-3]),
            np.float64(1e-3), 4e-3, m0, theta=np.float64(0.5)))
        assert [row.split(",")[1] for row in conv.split("\n")[1:-1]] == [
            "0.002", "0.001"]
        for text in (trace, sweep, conv):
            assert "np." not in text


class TestConvergence:
    def test_reference_scheme_at_k_ref_gives_zero_error(self):
        asm = cube_asm(1)
        fld = EffectiveField(applied=np.array([0.0, 1.0, 0.0]))
        m0 = init_state(asm.mesh, "random", seed=1)
        results = run_convergence_study(asm, fld, ["PC2"], [1e-3], 1e-3,
                                        1e-2, m0)
        assert results[0].errors[0] <= 1e-13

    def test_non_commensurate_k_rejected(self):
        asm = cube_asm(1)
        with pytest.raises(ConfigError):
            run_convergence_study(asm, EffectiveField(), ["PC2"], [1e-3],
                                  3e-4, 1e-2, init_state(asm.mesh, "uniform"))

    def test_orders_on_small_problem(self):
        asm = cube_asm(2)
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3),
                             applied=np.array([-2.0, -0.5, 0.0]))
        m0 = init_state(asm.mesh, "uniform")
        results = run_convergence_study(
            asm, fld, ["PC1", "PC2"], [8e-3, 4e-3, 2e-3, 1e-3], 2.5e-4,
            0.2, m0)
        by_scheme = {r.scheme: r for r in results}
        assert 0.85 <= by_scheme["PC1"].slope <= 1.2
        assert 1.75 <= by_scheme["PC2"].slope <= 2.3
        # errors strictly decrease with k for the midpoint scheme
        errs = by_scheme["PC2"].errors
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_pc1_at_half_theta_still_first_order(self):
        asm = cube_asm(2)
        fld = EffectiveField(applied=np.array([0.0, 1.0, 0.0]))
        m0 = init_state(asm.mesh, "random", seed=4)
        results = run_convergence_study(asm, fld, ["PC1"],
                                        [8e-3, 4e-3, 2e-3, 1e-3], 2.5e-4,
                                        0.2, m0, theta=0.5)
        assert 0.85 <= results[0].slope <= 1.2

    def test_errors_bitwise_equal_to_stepping_oracle(self):
        # criterion 1's field and schemes on a small cube; the oracle steps
        # llg.step itself and keeps a copy of every state, so a state that
        # a later step updated in place would show here
        asm = cube_asm(2)
        fld = EffectiveField(uniaxial=Uniaxial(1.0, E3),
                             applied=np.array([-2.0, -0.5, 0.0]))
        m0 = init_state(asm.mesh, "uniform")
        schemes = ["PC1", "PC1_IMEX", "PC2", "PC2_IMEX"]
        ks, k_ref, t_end = [8e-3, 4e-3, 2e-3], 1e-3, 2.4e-2

        def trajectory(scheme, k):
            cfg = IntegratorConfig(scheme=scheme, k=k, theta=0.5, alpha=1.0,
                                   lin_tol=1e-12)
            state = llg.SimState(ell=0, m_curr=m0.copy())
            fields = [m0.copy()]
            for _ in range(round(t_end / k)):
                state = llg.step(state, cfg, fld, asm)
                fields.append(state.m_curr.copy())
            return fields

        ref = trajectory("PC2", k_ref)
        results = run_convergence_study(asm, fld, schemes, ks, k_ref, t_end,
                                        m0, theta=0.5, alpha=1.0)
        assert [r.scheme for r in results] == schemes
        for res in results:
            errors = []
            for k in ks:
                err, ratio = 0.0, round(k / k_ref)
                for j, m in enumerate(trajectory(res.scheme, k)):
                    diff = m - ref[j * ratio]
                    err = max(err, fem.h1_norm(asm.mass, asm.stiffness,
                                               diff))
                errors.append(err)
            assert res.errors == errors
            assert res.slope == estimated_order(ks, errors)

    def test_study_holds_only_reference_node_states(self):
        # the k = k_ref run has as many time nodes as the reference, so a
        # study that kept its runs' states would hold twice these fields
        asm = cube_asm(4)
        m0 = init_state(asm.mesh, "random", seed=1)
        k_ref, t_end = 1e-3, 0.1
        node_bytes = (round(t_end / k_ref) + 1) * m0.nbytes
        tracemalloc.start()
        try:
            run_convergence_study(
                asm, EffectiveField(applied=np.array([0.0, 1.0, 0.0])),
                ["PC1"], [2e-3, 1e-3], k_ref, t_end, m0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * node_bytes

    def test_estimated_order_exact_power(self):
        ks = [8e-3, 4e-3, 2e-3, 1e-3]
        errs = [k ** 2 for k in ks]
        assert estimated_order(ks, errs) == pytest.approx(2.0, abs=1e-12)

    def test_csv_format(self):
        asm = cube_asm(1)
        res = run_convergence_study(
            asm, EffectiveField(applied=np.array([0, 1.0, 0])), ["PC2"],
            [4e-3, 2e-3, 1e-3], 5e-4, 2e-2, init_state(asm.mesh, "uniform"))
        text = convergence_to_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "scheme,k,h1_error,slope,wall_time"
        assert len(lines) == 4


class TestStabilitySweep:
    def test_uniform_state_all_stable(self):
        asm = cube_asm(2)
        cells = run_stability_sweep(asm, EffectiveField(), "PC2",
                                    [0.0, 0.5, 1.0], [1e-3, 4e-3],
                                    init_state(asm.mesh, "uniform"),
                                    t_cap=1e-2)
        assert all(c.stable for c in cells)

    def test_grid_order_deterministic(self):
        asm = cube_asm(1)
        m0 = init_state(asm.mesh, "uniform")
        cells = run_stability_sweep(asm, EffectiveField(), "PC2",
                                    [0.0, 1.0], [1e-3, 2e-3], m0, t_cap=1e-2)
        assert [(c.theta, c.k) for c in cells] == [
            (0.0, 1e-3), (0.0, 2e-3), (1.0, 1e-3), (1.0, 2e-3)]

    def test_cell_status_of_every_run_outcome(self, monkeypatch):
        asm = cube_asm(1)
        m0 = init_state(asm.mesh, "uniform")
        # k -> (run status, steps), None for a run that raises
        outcomes = {1e-3: ("relaxed", 3), 2e-3: ("completed", 5),
                    3e-3: ("unstable", 2), 4e-3: ("failed", 4), 5e-3: None}

        def fake_run(asm_, cfg, m0_):
            if outcomes[cfg.integrator.k] is None:
                raise InvalidParameterError("m0 must be a unit field")
            status, ell = outcomes[cfg.integrator.k]
            return harness.RunResult(state=llg.SimState(ell=ell, m_curr=m0_),
                                     trace=[], status=status)

        monkeypatch.setattr(harness, "run_simulation", fake_run)
        cells = run_stability_sweep(asm, EffectiveField(), "PC2", [0.5],
                                    [1e-3, 2e-3, 3e-3, 4e-3], m0, t_cap=1e-2)
        assert [(c.status, c.stable, c.steps_taken) for c in cells] == [
            ("stable", True, 3), ("inconclusive", False, 5),
            ("unstable", False, 2), ("failed", False, 4)]
        # a run that raises is bad input, not a failed cell
        with pytest.raises(InvalidParameterError):
            run_stability_sweep(asm, EffectiveField(), "PC2", [0.5], [5e-3],
                                m0, t_cap=1e-2)

    def test_non_unit_m0_raises(self):
        asm = cube_asm(1)
        m0 = 2.0 * init_state(asm.mesh, "uniform")
        with pytest.raises(InvalidParameterError, match="unit field"):
            run_stability_sweep(asm, EffectiveField(), "PC2", [0.5],
                                [1e-3, 2e-3], m0, t_cap=1e-2)
