"""The benchmark's three workloads, taken from the paper's experiments.

Each workload builds its inputs from a seed, is set up through the public
API (llgpc.mesh, llgpc.fem, llgpc.harness) and solved through
llgpc.harness.  One solve is the unit whose time is `wall_s`.  The checks
reuse the acceptance suite's tolerances and do not depend on the seed.

`sweep` and `converge` pose the paper's own problem in an orientation the
seed draws: every input vector (initial field, anisotropy axis, applied
field) is turned by one random rotation.  LLG dynamics commute with a
global rotation of all of these, so each seed gives different numbers to
the kernels but the same amount of work.  Drawing a fresh random field
instead moved the relaxation of the sweep row from 934 to 1287 steps over
seeds 0-23, which is input variation, not machine variation.

The library functions are looked up as module attributes at call time
(`harness.run_simulation`, not an imported name), so that the wrappers the
traced run installs see every call.
"""

from contextlib import contextmanager

import numpy as np

from llgpc import fem, harness, llg, mesh
from llgpc.llg import EffectiveField, IntegratorConfig, Uniaxial

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
APPLIED = np.array([-2.0, -0.5, 0.0])
UNIT_ERR_TOL = 1e-9


def rotation(seed):
    """Uniformly random rotation matrix (QR of a Gaussian matrix)."""
    g = np.random.Generator(np.random.Philox(seed)).normal(size=(3, 3))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def anisotropy_field(rot):
    """Criterion-1 lower-order field, also the README `run` example's:
    uniaxial anisotropy c=1 along e3 plus a constant applied field, both
    turned by the rotation `rot`."""
    return EffectiveField(ell_ex=1.0, uniaxial=Uniaxial(1.0, rot @ E3),
                          applied=rot @ APPLIED)


@contextmanager
def captured_runs():
    """Collect the RunResult of every harness.run_simulation call.

    A call that raised leaves None in its place, so the list stays aligned
    with the calls the study drivers make.
    """
    runs = []
    inner = harness.run_simulation

    def capture(*args, **kwargs):
        i = len(runs)
        runs.append(None)
        runs[i] = inner(*args, **kwargs)
        return runs[i]

    harness.run_simulation = capture
    try:
        yield runs
    finally:
        harness.run_simulation = inner


class Workload:
    """A cube mesh of `mesh_n` cells per edge and side `edge`, and a solve."""

    def set_up(self, seed, tracer):
        """Mesh build, assembly, angle check and initial state, in spans.

        Returns the assemblies, the solve's inputs and whether the angle
        condition holds.
        """
        with tracer.span("mesh.build"):
            msh = mesh.build_cube_mesh(self.mesh_n, self.edge)
        with tracer.span("fem.assemble"):
            asm = fem.build_assemblies(msh)
        with tracer.span("fem.angle_check"):
            angle = fem.check_angle_condition(asm.stiffness)
        with tracer.span("harness.init_state"):
            inputs = self.inputs(msh, seed)
        return asm, inputs, angle.passed


class Sweep(Workload):
    """Criterion-8 stability sweep, theta = 1/2 row, alpha = 1, on the
    criterion's random field (seed 7), rotated.

    Runnable, but not among BENCHMARK.json's workloads: its 1125 steps of
    125-vertex arrays are all interpreter dispatch, and on a shared 2-vCPU
    VM its 35 s run medians spread by up to 0.30 (IQR/median over 10
    seeds) as the host's speed drifted, beyond any bound the benchmark
    may set.  `converge` covers the same per-call overhead more steadily.
    """

    name = "sweep"
    mesh_n, edge = 4, 0.4
    thetas = (0.5,)
    ks = tuple(i * 1e-3 for i in range(1, 13))

    def inputs(self, msh, seed):
        return harness.init_state(msh, "random", seed=7) @ rotation(seed).T

    def solve(self, asm, m0, tracer):
        with captured_runs() as runs, tracer.span("harness.study"):
            cells = harness.run_stability_sweep(
                asm, EffectiveField(), "PC2", self.thetas, self.ks, m0,
                alpha=1.0, t_cap=20.0)
        return cells, runs

    def steps(self, out):
        cells, _ = out
        return sum(c.steps_taken for c in cells)

    def check(self, asm, out):
        cells, runs = out
        checks = [("one run per cell",
                   len(cells) == len(runs) == len(self.thetas) * len(self.ks)),
                  ("some cell stable", any(c.stable for c in cells))]
        for cell, run in zip(cells, runs):
            ok = cell.status != "failed"
            if cell.stable:
                ok = ok and run is not None and fem.grad_sq(
                    asm.stiffness, run.state.m_curr) <= harness.RELAX_GRAD_SQ_TOL
            checks.append((f"cell theta={cell.theta} k={cell.k:.0e} "
                           f"{cell.status}", ok))
        return checks


class Converge(Workload):
    """Criterion-1 convergence study from the uniform e1 field, rotated,
    shortened to T = 0.048 (same slopes as T = 0.096 to three digits)."""

    name = "converge"
    mesh_n, edge = 8, 1.0
    schemes = ("PC1", "PC1_IMEX", "PC2", "PC2_IMEX")
    ks = (8e-3, 4e-3, 2e-3, 1e-3)
    k_ref = 2.5e-4
    t_end = 0.048

    def inputs(self, msh, seed):
        rot = rotation(seed)
        m0 = np.broadcast_to(rot @ E1, (msh.n_vertices, 3)).copy()
        return m0, anisotropy_field(rot)

    def solve(self, asm, inputs, tracer):
        m0, field = inputs
        with captured_runs() as runs, tracer.span("harness.study"):
            results = harness.run_convergence_study(
                asm, field, self.schemes, self.ks, self.k_ref, self.t_end, m0,
                theta=0.5, alpha=1.0)
        return {r.scheme: r for r in results}, runs

    def steps(self, out):
        _, runs = out
        return sum(r.state.ell for r in runs)

    def check(self, asm, out):
        r, _ = out
        checks = [(f"{s} slope {r[s].slope:.3f} in [0.85, 1.2]",
                   0.85 <= r[s].slope <= 1.2) for s in ("PC1", "PC1_IMEX")]
        checks += [(f"{s} slope {r[s].slope:.3f} in [1.75, 2.3]",
                    1.75 <= r[s].slope <= 2.3) for s in ("PC2", "PC2_IMEX")]
        for k, a, b in zip(r["PC2"].ks, r["PC2"].errors, r["PC2_IMEX"].errors):
            checks.append((f"PC2/PC2_IMEX error ratio at k={k:.0e} "
                           f"{a / b:.3f} in [1/1.5, 1.5]",
                           1 / 1.5 <= a / b <= 1.5))
        return checks


class ImexN32(Workload):
    """PC1_IMEX, six steps of k = 1e-3 on the n=32 cube from a random field.

    The field is fresh for every seed: with 35937 vertices its GMRES
    iteration counts hardly change between draws.
    """

    name = "imex_n32"
    mesh_n, edge = 32, 1.0
    k = 1e-3
    n_steps = 6
    field = anisotropy_field(np.eye(3))

    def inputs(self, msh, seed):
        return harness.init_state(msh, "random", seed=seed)

    def solve(self, asm, m0, tracer):
        cfg = harness.RunConfig(
            integrator=IntegratorConfig(scheme="PC1_IMEX", k=self.k),
            field=self.field, t_end=self.n_steps * self.k, stride=1)
        return harness.run_simulation(asm, cfg, m0)

    def steps(self, out):
        return out.state.ell

    def check(self, asm, out):
        m = out.state.m_curr
        unit_err = max(max(row.max_unit_err for row in out.trace),
                       float(np.abs(np.linalg.norm(m, axis=1) - 1.0).max()))
        e = llg.energy(asm, self.field, m, out.state.ell * self.k)
        return [(f"status {out.status}", out.status == "completed"),
                (f"{out.state.ell} of {self.n_steps} steps",
                 out.state.ell == self.n_steps),
                (f"max unit error {unit_err:.3e} <= {UNIT_ERR_TOL:g}",
                 unit_err <= UNIT_ERR_TOL),
                (f"final energy {e!r} finite", bool(np.isfinite(e)))]


WORKLOADS = {w.name: w for w in (Sweep(), Converge(), ImexN32())}
