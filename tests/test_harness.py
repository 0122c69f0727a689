from dataclasses import replace

import numpy as np
import pytest

from llgpc import fem, harness, llg
from llgpc.errors import (ConfigError, InvalidParameterError, LlgpcError,
                          NoConvergenceError, SolverFailure)
from llgpc.harness import (RunConfig, convergence_to_csv,
                           estimated_order, init_state, make_cube_assemblies,
                           run_convergence_study, run_simulation,
                           run_stability_sweep, sweep_to_csv, trace_to_csv)
from llgpc.llg import EffectiveField, IntegratorConfig, Uniaxial
from llgpc.mesh import build_cube_mesh

E3 = np.array([0.0, 0.0, 1.0])


def run_config(**kw):
    return RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                     field=EffectiveField(), **{"t_end": 1e-2, **kw})


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
        asm = make_cube_assemblies(2)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=1e-2, relax=True)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "uniform"))
        assert res.status == "relaxed"
        assert res.state.ell == 0

    def test_random_relaxes_monotonically(self):
        asm = make_cube_assemblies(2)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=20.0, stride=1,
                        relax=True, monitor_stability=True)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=2))
        assert res.status == "relaxed"
        g = [row.grad_sq for row in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(g, g[1:]))
        assert g[-1] <= 1e-8

    def test_unstable_flagged(self):
        asm = make_cube_assemblies(4, edge=0.4)
        cfg = RunConfig(
            integrator=IntegratorConfig(scheme="PC2", k=1e-2, theta=0.0),
            field=EffectiveField(), t_end=5.0, relax=True,
            monitor_stability=True)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=2))
        assert res.status == "unstable"

    def test_trace_times_monotone_and_stride(self):
        asm = make_cube_assemblies(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC1", k=1e-3),
                        field=EffectiveField(applied=np.array([0, 0, 1.0])),
                        t_end=1e-2, stride=2)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "uniform"))
        ts = [row.t for row in res.trace]
        assert ts == sorted(ts)
        assert res.trace[1].ell == 2

    def test_unit_error_small_for_projecting_schemes(self):
        asm = make_cube_assemblies(2)
        for scheme in ("PC1", "PC2"):
            cfg = RunConfig(integrator=IntegratorConfig(scheme=scheme, k=1e-3),
                            field=EffectiveField(), t_end=2e-2)
            res = run_simulation(asm, cfg,
                                 init_state(asm.mesh, "random", seed=3))
            assert max(r.max_unit_err for r in res.trace) <= 1e-9

    @pytest.mark.parametrize("bad", ["scaled", "nan", "inf"])
    def test_non_unit_m0_rejected(self, bad):
        asm = make_cube_assemblies(2)
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
        asm = make_cube_assemblies(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=3e-3)
        monkeypatch.setattr(harness, "step", None)  # no step may run
        m0 = init_state(asm.mesh, "random", seed=4) + 1e-3j
        with pytest.raises(InvalidParameterError, match="m0 must be real"):
            run_simulation(asm, cfg, m0)

    @pytest.mark.parametrize("shape", [(24,), (3, 3), (8, 2)])
    def test_m0_of_wrong_shape_rejected(self, shape, monkeypatch):
        asm = make_cube_assemblies(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC2", k=1e-3),
                        field=EffectiveField(), t_end=3e-3)
        monkeypatch.setattr(harness, "step", None)  # no step may run
        with pytest.raises(InvalidParameterError, match=r"\(8, 3\)"):
            run_simulation(asm, cfg, np.ones(shape) / np.sqrt(shape[-1]))

    def test_grad_sq_once_per_trace_row(self, monkeypatch):
        asm = make_cube_assemblies(2)
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

    def test_snapshots_keyed_by_step_index(self):
        asm = make_cube_assemblies(1)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC1_IMEX", k=0.1),
                        field=EffectiveField(), t_end=0.5)
        m0 = init_state(asm.mesh, "random", seed=3)
        res = run_simulation(asm, cfg, m0, snapshot_steps=[0, 3, np.int64(3)])
        at_3 = run_simulation(asm, replace(cfg, t_end=0.3), m0).state.m_curr
        assert res.status == "completed"
        assert sorted(res.snapshots) == [0, 3]
        assert np.array_equal(res.snapshots[0], m0)
        assert np.array_equal(res.snapshots[3], at_3)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_projection_free_run_fails(self):
        # m.v = 0 nodewise, so m + k v only grows the nodal moduli: by step
        # 5 they reach 1e82 and the predictor's right-hand side overflows
        asm = make_cube_assemblies(2)
        cfg = RunConfig(integrator=IntegratorConfig(scheme="PC1_PROJFREE",
                                                    k=0.5, theta=0.0),
                        field=EffectiveField(), t_end=20.0)
        res = run_simulation(asm, cfg, init_state(asm.mesh, "random", seed=1))
        assert res.status == "failed"
        assert res.error.step == 6
        assert isinstance(res.error.cause, NoConvergenceError)

    def test_solver_failure_names_scheme_step_k_and_t(self, monkeypatch):
        asm = make_cube_assemblies(1)
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
        lambda asm, m0: run_simulation(asm, run_config(), m0,
                                       snapshot_steps=[1, np.nan]),
        lambda asm, m0: run_simulation(asm, run_config(), m0,
                                       snapshot_steps=[1, 2.0]),
        lambda asm, m0: run_simulation(asm, run_config(), m0,
                                       snapshot_steps=[1, -1]),
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
            "study_t_end_inf", "study_k_inf", "snapshot_nan", "snapshot_float",
            "snapshot_negative", "run_k_tiny", "sweep_k_tiny",
            "study_k_ref_tiny", "study_k_over_k_ref_inf"])
    def test_bad_run_length_rejected(self, start):
        asm = make_cube_assemblies(1)
        with pytest.raises(ConfigError):
            start(asm, init_state(asm.mesh, "uniform"))

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
    ], ids=["study_unknown_second_scheme", "study_t_end_not_multiple_of_k",
            "sweep_second_theta_above_1", "sweep_second_k_0"])
    def test_study_and_sweep_check_every_run_before_the_first(
            self, start, match, monkeypatch):
        asm = make_cube_assemblies(1)
        calls = []
        inner = harness.run_simulation

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(harness, "run_simulation", spy)
        with pytest.raises(LlgpcError, match=match):
            start(asm, init_state(asm.mesh, "uniform"))
        assert calls == []


class TestCsvOutput:
    def test_trace_csv_header_and_determinism(self):
        asm = make_cube_assemblies(1)
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
            make_cube_assemblies(1), EffectiveField(), "PC2", [0.5],
            [1e-3], np.tile([1.0, 0, 0], (8, 1)), t_cap=1e-2)
        text = sweep_to_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,k,stable,status,steps_taken"
        assert len(lines) == 2

    def test_numpy_scalars_written_as_floats(self):
        asm = make_cube_assemblies(1)
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
        asm = make_cube_assemblies(1)
        fld = EffectiveField(applied=np.array([0.0, 1.0, 0.0]))
        m0 = init_state(asm.mesh, "random", seed=1)
        results = run_convergence_study(asm, fld, ["PC2"], [1e-3], 1e-3,
                                        1e-2, m0)
        assert results[0].errors[0] <= 1e-13

    def test_non_commensurate_k_rejected(self):
        asm = make_cube_assemblies(1)
        with pytest.raises(ConfigError):
            run_convergence_study(asm, EffectiveField(), ["PC2"], [1e-3],
                                  3e-4, 1e-2, init_state(asm.mesh, "uniform"))

    def test_orders_on_small_problem(self):
        asm = make_cube_assemblies(2)
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
        asm = make_cube_assemblies(2)
        fld = EffectiveField(applied=np.array([0.0, 1.0, 0.0]))
        m0 = init_state(asm.mesh, "random", seed=4)
        results = run_convergence_study(asm, fld, ["PC1"],
                                        [8e-3, 4e-3, 2e-3, 1e-3], 2.5e-4,
                                        0.2, m0, theta=0.5)
        assert 0.85 <= results[0].slope <= 1.2

    def test_estimated_order_exact_power(self):
        ks = [8e-3, 4e-3, 2e-3, 1e-3]
        errs = [k ** 2 for k in ks]
        assert estimated_order(ks, errs) == pytest.approx(2.0, abs=1e-12)

    def test_csv_format(self):
        asm = make_cube_assemblies(1)
        res = run_convergence_study(
            asm, EffectiveField(applied=np.array([0, 1.0, 0])), ["PC2"],
            [4e-3, 2e-3, 1e-3], 5e-4, 2e-2, init_state(asm.mesh, "uniform"))
        text = convergence_to_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "scheme,k,h1_error,slope,wall_time"
        assert len(lines) == 4


class TestStabilitySweep:
    def test_uniform_state_all_stable(self):
        asm = make_cube_assemblies(2)
        cells = run_stability_sweep(asm, EffectiveField(), "PC2",
                                    [0.0, 0.5, 1.0], [1e-3, 4e-3],
                                    init_state(asm.mesh, "uniform"),
                                    t_cap=1e-2)
        assert all(c.stable for c in cells)

    def test_grid_order_deterministic(self):
        asm = make_cube_assemblies(1)
        m0 = init_state(asm.mesh, "uniform")
        cells = run_stability_sweep(asm, EffectiveField(), "PC2",
                                    [0.0, 1.0], [1e-3, 2e-3], m0, t_cap=1e-2)
        assert [(c.theta, c.k) for c in cells] == [
            (0.0, 1e-3), (0.0, 2e-3), (1.0, 1e-3), (1.0, 2e-3)]

    def test_cell_status_of_every_run_outcome(self, monkeypatch):
        asm = make_cube_assemblies(1)
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
        asm = make_cube_assemblies(1)
        m0 = 2.0 * init_state(asm.mesh, "uniform")
        with pytest.raises(InvalidParameterError, match="unit field"):
            run_stability_sweep(asm, EffectiveField(), "PC2", [0.5],
                                [1e-3, 2e-3], m0, t_cap=1e-2)
