"""Acceptance suite: eleven end-to-end checks of the integrator toolkit.

Each test prints a single PASS/FAIL line.  Tolerances are pinned; shared
expensive runs are cached in session-scoped fixtures.  Criterion 4
(tangency) observes every predictor solve issued by criteria 1-3 through
conftest's recorder, which wraps `llg.predictor_full` and the oracle's
`tangent_oracle.predictor_tangent`, so those fixtures run inside the
recorder and call the predictors through their modules.
"""

import numpy as np
import pytest

from llgpc import fem, llg
from llgpc.fem import (build_assemblies, check_angle_condition,
                       discrete_laplacian, grad_sq, inner_l2, nodal_cross)
from llgpc.harness import (RunConfig, init_state, run_convergence_study,
                           run_simulation, run_stability_sweep)
from llgpc.llg import (EffectiveField, IntegratorConfig, SimState, Uniaxial,
                       corrector_pc2, step)
from llgpc.mesh import Mesh, build_cube_mesh

import tangent_oracle
from conftest import (REFERENCE_TET_VERTICES, cube_asm, inner_h, norm_h,
                      random_unit_field, tangency_recorder)

E3 = np.array([0.0, 0.0, 1.0])

CRIT1_FIELD = EffectiveField(ell_ex=1.0, uniaxial=Uniaxial(1.0, E3),
                             applied=np.array([-2.0, -0.5, 0.0]))
CRIT1_KS = [8e-3, 4e-3, 2e-3, 1e-3]
CRIT1_KREF = 2.5e-4
CRIT11_KS = [4e-3, 2e-3, 1e-3]
CRIT11_PAIRS = [("PC1_IMEX", "PC1"), ("PC2_IMEX", "PC2")]  # (IMEX, implicit)


def solver_work(asm, scheme, k, m0):
    """(GMRES iterations, fem.spmv calls) of one criterion-1 run to
    t = 0.016, counted by wrapping the names the schemes call through."""
    counts = [0, 0]
    gmres, spmv = llg.gmres, fem.spmv

    def counted_gmres(*args, **kwargs):
        result = gmres(*args, **kwargs)
        counts[0] += result.iterations
        return result

    def counted_spmv(*args):
        counts[1] += 1
        return spmv(*args)

    cfg = RunConfig(integrator=IntegratorConfig(scheme=scheme, k=k,
                                                theta=0.5, alpha=1.0),
                    field=CRIT1_FIELD, t_end=0.016, stride=1000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llg, "gmres", counted_gmres)
        mp.setattr(fem, "spmv", counted_spmv)
        assert run_simulation(asm, cfg, m0).status == "completed"
    return tuple(counts)


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def recorder():
    with tangency_recorder() as rec:
        yield rec


@pytest.fixture(scope="module")
def cube8_asm():
    return cube_asm(8)


@pytest.fixture(scope="module")
def convergence_results(recorder, cube8_asm):
    m0 = init_state(cube8_asm.mesh, "uniform")
    results = run_convergence_study(
        cube8_asm, CRIT1_FIELD, ["PC1", "PC1_IMEX", "PC2", "PC2_IMEX"],
        CRIT1_KS, CRIT1_KREF, 1.0, m0, theta=0.5, alpha=1.0)
    return {r.scheme: r for r in results}


@pytest.fixture(scope="module")
def equivalence_worst(recorder):
    worst = 0.0
    cfg_count = 0
    for n in (1, 2):
        asm = cube_asm(n)
        fields = [random_unit_field(asm.n, 1000 + i) for i in range(20)]
        for theta in (0.0, 0.5, 1.0):
            for alpha in (1.0, 1.0 / 16.0):
                cfg = IntegratorConfig(scheme="PC1", k=1e-2, theta=theta,
                                       alpha=alpha, lin_tol=1e-12)
                for m in fields:
                    v1, _ = llg.predictor_full(m, cfg, EffectiveField(), asm)
                    v2, _ = tangent_oracle.predictor_tangent(
                        m, cfg, EffectiveField(), asm)
                    d = v1 - v2
                    denom = max(inner_l2(asm.mass, v1, v1), 1e-300)
                    worst = max(worst,
                                np.sqrt(inner_l2(asm.mass, d, d) / denom))
                    cfg_count += 1
    return worst, cfg_count


@pytest.fixture(scope="module")
def dense_oracle_worst(recorder):
    single = build_assemblies(
        Mesh(REFERENCE_TET_VERTICES, np.array([[0, 1, 2, 3]])))
    cube1 = cube_asm(1)
    worst_pred = 0.0
    worst_corr = 0.0
    for asm, seed in ((single, 7), (cube1, 8)):
        m = random_unit_field(asm.n, seed)
        cfg = IntegratorConfig(scheme="PC2", k=0.1, theta=0.5, alpha=1.0,
                               lin_tol=1e-13)
        v, _ = llg.predictor_full(m, cfg, EffectiveField(), asm)

        # dense predictor matrix: apply the operator to identity columns
        n3 = 3 * asm.n
        c_ex = cfg.theta * cfg.k

        def apply_op(x):
            vv = x.reshape(asm.n, 3)
            lap = discrete_laplacian(asm.stiffness, asm.beta, vv)
            out = ((1 + cfg.alpha ** 2) * vv
                   + c_ex * (nodal_cross(m, lap)
                             + cfg.alpha * nodal_cross(m, nodal_cross(m, lap))))
            return out.reshape(-1)

        a = np.column_stack([apply_op(col) for col in np.eye(n3)])
        h0 = discrete_laplacian(asm.stiffness, asm.beta, m)
        rhs = -(nodal_cross(m, h0)
                + cfg.alpha * nodal_cross(m, nodal_cross(m, h0))).reshape(-1)
        v_dense = np.linalg.solve(a, rhs).reshape(asm.n, 3)
        worst_pred = max(worst_pred, np.abs(v - v_dense).max())

        # dense corrector: block-diagonal 3x3 systems of the midpoint form
        m_next = corrector_pc2(m, v, cfg, EffectiveField(), asm, 0.0)
        a2 = 1 + cfg.alpha ** 2
        u = m + 0.5 * cfg.k * v
        f_mid = discrete_laplacian(asm.stiffness, asm.beta, u)
        c = 0.5 * cfg.k * (f_mid + cfg.alpha * np.cross(u, f_mid))
        for z in range(asm.n):
            skew = np.array([[0.0, -c[z, 2], c[z, 1]],
                             [c[z, 2], 0.0, -c[z, 0]],
                             [-c[z, 1], c[z, 0], 0.0]])
            eta = np.linalg.solve(a2 * np.eye(3) - skew, a2 * m[z])
            worst_corr = max(worst_corr,
                             np.abs(m_next[z] - (2 * eta - m[z])).max())
    return worst_pred, worst_corr


class TestAcceptance:
    def test_01_convergence_orders(self, convergence_results):
        r = convergence_results
        ok = (0.85 <= r["PC1"].slope <= 1.2
              and 0.85 <= r["PC1_IMEX"].slope <= 1.2
              and 1.75 <= r["PC2"].slope <= 2.3
              and 1.75 <= r["PC2_IMEX"].slope <= 2.3)
        ratios = [a / b for a, b in zip(r["PC2"].errors, r["PC2_IMEX"].errors)]
        ok = ok and all(1 / 1.5 <= q <= 1.5 for q in ratios)
        detail = ("slopes " + ", ".join(
            f"{s}={r[s].slope:.3f}" for s in ("PC1", "PC1_IMEX", "PC2",
                                              "PC2_IMEX"))
            + f"; PC2/PC2_IMEX error ratios {[round(q, 3) for q in ratios]}")
        report("criterion 1 convergence orders", ok, detail)

    def test_02_formulation_equivalence(self, equivalence_worst):
        worst, count = equivalence_worst
        report("criterion 2 formulation equivalence", worst <= 1e-8,
               f"worst relative L2 difference {worst:.3e} over {count} solves")

    def test_03_dense_oracle(self, dense_oracle_worst):
        wp, wc = dense_oracle_worst
        ok = wp <= 1e-10 and wc <= 1e-10
        report("criterion 3 dense-oracle equivalence", ok,
               f"predictor max err {wp:.3e}, corrector max err {wc:.3e}")

    def test_04_tangency(self, recorder, convergence_results,
                         equivalence_worst, dense_oracle_worst):
        ok = recorder.calls > 0 and recorder.worst_ratio <= 1e-9
        report("criterion 4 tangency", ok,
               f"worst |m.v|/(1+max|v|) = {recorder.worst_ratio:.3e} "
               f"over {recorder.calls} predictor solves")

    def test_05_unit_length_conservation(self, cube8_asm):
        cfg = RunConfig(
            integrator=IntegratorConfig(scheme="PC2", k=1e-3, theta=0.5),
            field=CRIT1_FIELD, t_end=1.0, stride=50)
        res = run_simulation(cube8_asm, cfg,
                             init_state(cube8_asm.mesh, "uniform"))
        drift = max(row.max_unit_err for row in res.trace)
        ok = res.status == "completed" and drift <= 1e-9
        report("criterion 5 unit-length conservation", ok,
               f"status {res.status}, max ||m(z)|-1| = {drift:.3e} "
               f"over {res.state.ell} steps")

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_06_pc1_energy_decay(self, cube4_asm, theta):
        assert check_angle_condition(cube4_asm.stiffness).passed
        m0 = init_state(cube4_asm.mesh, "random", seed=1)
        cfg = RunConfig(
            integrator=IntegratorConfig(scheme="PC1", k=1e-3, theta=theta),
            field=EffectiveField(), t_end=20.0, stride=1, relax=True)
        res = run_simulation(cube4_asm, cfg, m0)
        # one trace row per step, each with grad_sq of that step's m
        g = [row.grad_sq for row in res.trace]
        worst_increase = max([0.0] + [b - a for a, b in zip(g, g[1:])])
        ok = res.status == "relaxed" and worst_increase <= 1e-10
        report(f"criterion 6 energy decay (theta={theta})", ok,
               f"status {res.status}, worst grad_sq increase "
               f"{worst_increase:.3e} over {res.state.ell} steps")

    def test_07_projection_free_energy_identity(self, cube4_asm):
        alpha, k, ell = 1.0, 1e-3, 1.0
        cfg = IntegratorConfig(scheme="PC1_PROJFREE", k=k, theta=0.5,
                               alpha=alpha)
        fld = EffectiveField(ell_ex=ell)
        state = SimState(ell=0, m_curr=init_state(cube4_asm.mesh, "random",
                                                  seed=1))
        e0 = 0.5 * ell ** 2 * grad_sq(cube4_asm.stiffness, state.m_curr)
        dissipated = 0.0
        drift = 0.0
        for _ in range(100):
            m = state.m_curr
            # the v that step solves for: PC1_PROJFREE, no lower-order field
            v, _ = llg.predictor_full(m, cfg, fld, cube4_asm)
            state = step(state, cfg, fld, cube4_asm)
            lap = discrete_laplacian(cube4_asm.stiffness, cube4_asm.beta,
                                     m + 0.5 * k * v)
            dissipated += (alpha / (1 + alpha ** 2)) * ell ** 4 * k * \
                norm_h(cube4_asm.beta, nodal_cross(m, lap)) ** 2
            e_now = 0.5 * ell ** 2 * grad_sq(cube4_asm.stiffness,
                                             state.m_curr)
            drift = max(drift, abs(e_now + dissipated - e0) / e0)
        report("criterion 7 projection-free energy identity", drift <= 1e-8,
               f"max relative drift {drift:.3e} over 100 steps")

    def test_08_stability_map_pattern(self):
        asm = cube_asm(4, edge=0.4)
        m0 = init_state(asm.mesh, "random", seed=7)
        thetas = [0.0, 0.25, 0.5, 0.75, 1.0]
        ks = [i * 1e-3 for i in range(1, 13)]

        def largest_stable(cells, theta):
            stable = [c.k for c in cells if c.theta == theta and c.stable]
            return max(stable) if stable else 0.0

        def stable_set(cells, theta):
            return {c.k for c in cells if c.theta == theta and c.stable}

        maps = {}
        for alpha in (1.0, 1.0 / 16.0):
            maps[alpha] = run_stability_sweep(asm, EffectiveField(), "PC2",
                                              thetas, ks, m0, alpha=alpha,
                                              t_cap=20.0)
        mid = largest_stable(maps[1.0], 0.5)
        lo = largest_stable(maps[1.0], 0.0)
        hi = largest_stable(maps[1.0], 1.0)
        ok = mid >= lo and mid >= hi and (mid > lo or mid > hi)
        shrinks = all(
            stable_set(maps[1.0 / 16.0], th) <= stable_set(maps[1.0], th)
            and stable_set(maps[1.0 / 16.0], th) != stable_set(maps[1.0], th)
            for th in thetas)
        ok = ok and shrinks
        report("criterion 8 stability-map pattern", ok,
               f"alpha=1 largest stable k: theta=0 -> {lo}, "
               f"theta=1/2 -> {mid}, theta=1 -> {hi}; "
               f"alpha=1/16 shrinks all stable sets: {shrinks}")

    def test_09_operator_properties(self):
        worst_eq = 0.0
        worst_inv = 0.0
        worst_ph = 0.0
        worst_proj = 0.0
        inv_constants = {}
        for n in (2, 4, 8):
            asm = cube_asm(n)
            h2 = asm.mesh.h_max ** 2
            rng = np.random.Generator(np.random.Philox(900 + n))
            c_n = 0.0
            for trial in range(100):
                w = rng.normal(size=(asm.n, 3))
                l2 = np.sqrt(inner_l2(asm.mass, w, w))
                lh = norm_h(asm.beta, w)
                worst_eq = max(worst_eq, l2 / lh, lh / (np.sqrt(5.0) * l2))
                lap = discrete_laplacian(asm.stiffness, asm.beta, w)
                c_n = max(c_n, norm_h(asm.beta, lap) * h2 / lh)
                wh = rng.normal(size=(asm.n, 3))
                from llgpc.fem import apply_Ph, nodal_project_sphere
                lhs = inner_h(asm.beta, apply_Ph(asm.mass, asm.beta, w), wh)
                rhs = inner_l2(asm.mass, w, wh)
                worst_ph = max(worst_ph,
                               abs(lhs - rhs) / max(abs(rhs), 1.0))
                big = random_unit_field(asm.n, 5000 + 100 * n + trial)
                big *= (1.0 + np.abs(rng.normal(size=asm.n)))[:, None]
                worst_proj = max(
                    worst_proj,
                    grad_sq(asm.stiffness, nodal_project_sphere(big))
                    - grad_sq(asm.stiffness, big))
            inv_constants[n] = c_n
            worst_inv = max(worst_inv, c_n)
        bounded = worst_inv <= 30.0 and (
            inv_constants[8] <= inv_constants[2] * (1 + 1e-12))
        ok = (worst_eq <= 1.0 + 1e-12 and bounded
              and worst_ph <= 1e-12 and worst_proj <= 1e-10)
        report("criterion 9 operator properties", ok,
               f"norm-equivalence worst ratio {worst_eq:.6f} (<=1), "
               f"inverse-estimate constants {[round(inv_constants[n], 2) for n in (2, 4, 8)]}, "
               f"P_h identity worst {worst_ph:.3e}, "
               f"projection energy increase worst {worst_proj:.3e}")

    def test_10_zero_damping_well_posed(self, cube8_asm):
        cfg = IntegratorConfig(scheme="PC2", k=1e-3, theta=0.5, alpha=0.0)
        state = SimState(ell=0, m_curr=init_state(cube8_asm.mesh, "random",
                                                  seed=1))
        drift = 0.0
        for _ in range(100):
            state = step(state, cfg, EffectiveField(), cube8_asm)
            drift = max(drift, np.abs(
                np.linalg.norm(state.m_curr, axis=1) - 1.0).max())
        report("criterion 10 zero-damping well-posedness", drift <= 1e-9,
               f"100 steps completed without solver failure, "
               f"unit drift {drift:.3e}")

    def test_11_imex_cost(self, cube4_asm):
        # the paper's cost claim for the IMEX lower-order field, in work
        # counts that do not depend on the machine
        m0 = init_state(cube4_asm.mesh, "uniform")
        work = {(scheme, k): solver_work(cube4_asm, scheme, k, m0)
                for pair in CRIT11_PAIRS for scheme in pair
                for k in CRIT11_KS}
        # GMRES iterations: the implicit operator also carries
        # theta k P_h pi(v), and its solves take about twice the IMEX
        # iterations (8 against 4 and 5 per 4 steps at k = 4e-3).
        # SpMV calls: an implicit application makes a mass SpMV besides
        # its stiffness SpMV, and the implicit solves make about twice the
        # applications; right-hand sides, correctors and the trace cost
        # both schemes of a pair alike.  Both bounds are strict: an IMEX
        # predictor that carries pi(v) implicitly makes exactly the
        # implicit partner's counts.
        ok = all(work[(imex, k)][i] < work[(implicit, k)][i]
                 for imex, implicit in CRIT11_PAIRS for k in CRIT11_KS
                 for i in (0, 1))
        detail = "; ".join(
            f"{scheme} " + " / ".join(
                f"{work[(scheme, k)][0]}:{work[(scheme, k)][1]}"
                for k in CRIT11_KS)
            for pair in CRIT11_PAIRS for scheme in pair)
        report("criterion 11 IMEX cost", ok,
               f"GMRES iterations:SpMV calls at k = {CRIT11_KS}: {detail}")
