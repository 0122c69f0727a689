"""Experiment drivers: single runs, convergence studies, stability sweeps.

All drivers emit plain comma-separated CSV with LF line endings.  A run
trace has one row per recorded step; the convergence study reports one row
per (scheme, k) pair; the stability sweep one row per (theta, k) cell.
"""

import csv
import dataclasses
import io
import time
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (ConfigError, InvalidParameterError, LlgpcError,
                     SolverFailure, check_int, check_real, real_array)
from .fem import UNIT_TOL, Assemblies, grad_sq, h1_norm
from .llg import (EffectiveField, IntegratorConfig, SimState, energy, step)
from .mesh import Mesh

RELAX_GRAD_SQ_TOL = 1e-8
ORDER_POINTS = 3  # finest step sizes in the convergence-order fit


def _num(x) -> str:
    """CSV text of a real: the Python float repr, also for numpy scalars."""
    return repr(float(x))


def _csv(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def init_state(mesh: Mesh, kind: str, seed: int = 0) -> np.ndarray:
    """Initial unit field: 'uniform' (+e1), 'random', or 'hedgehog'.

    Random draws use the counter-based Philox generator so the field is
    reproducible across platforms for a given seed; Gaussian triples are
    normalized to the sphere.  The hedgehog points radially away from the
    origin with m = e3 at the origin itself; the origin must lie strictly
    inside the mesh bounding box.
    """
    check_int(seed, "seed", 0, error=ConfigError)
    n = mesh.n_vertices
    if kind == "uniform":
        m = np.zeros((n, 3))
        m[:, 0] = 1.0
        return m
    if kind == "random":
        rng = np.random.Generator(np.random.Philox(seed))
        g = rng.normal(size=(n, 3))
        return g / np.linalg.norm(g, axis=1)[:, None]
    if kind == "hedgehog":
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        if np.any(lo >= 0.0) or np.any(hi <= 0.0):
            raise ConfigError(
                "hedgehog needs the origin strictly inside the mesh box"
            )
        r = np.linalg.norm(mesh.vertices, axis=1)
        m = np.zeros((n, 3))
        at_origin = r < 1e-14
        m[at_origin, 2] = 1.0
        m[~at_origin] = mesh.vertices[~at_origin] / r[~at_origin, None]
        return m
    raise ConfigError(f"unknown initial state {kind!r}")


@dataclass
class TraceRow:
    ell: int
    t: float
    energy: float
    grad_sq: float
    mean_mx: float
    mean_my: float
    mean_mz: float
    max_unit_err: float
    predictor_iterations: int
    wall_time: float

    def as_list(self):
        return [_num(getattr(self, f.name)) if f.type is float
                else getattr(self, f.name) for f in fields(self)]


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


@dataclass(frozen=True)
class RunConfig:
    """One simulation: integrator + field + duration + recording cadence."""

    integrator: IntegratorConfig
    field: EffectiveField
    t_end: float
    stride: int = 1
    relax: bool = False
    monitor_stability: bool = False
    n_steps: int = dataclasses.field(init=False)  # round(t_end / k)

    def __post_init__(self):
        for name, kind, noun in (
                ("integrator", IntegratorConfig, "an IntegratorConfig"),
                ("field", EffectiveField, "an EffectiveField"),
                ("relax", (bool, np.bool_), "a bool"),
                ("monitor_stability", (bool, np.bool_), "a bool")):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be {noun}")
        check_real(self.t_end, "t_end", positive=True, error=ConfigError)
        check_int(self.stride, "stride", 1, error=ConfigError)
        ratio = self.t_end / self.integrator.k
        check_real(ratio, "step count t_end / k", error=ConfigError)
        object.__setattr__(self, "n_steps", round(ratio))
        if self.n_steps < 1:
            raise ConfigError(f"t_end={self.t_end} is less than one step "
                              f"k={self.integrator.k}")
        if abs(ratio - self.n_steps) > 1e-9 * max(ratio, 1.0):
            raise ConfigError("t_end must be an integer multiple of k")


@dataclass
class RunResult:
    state: SimState
    trace: List[TraceRow]
    status: str  # "completed" | "relaxed" | "unstable" | "failed"
    error: Optional[LlgpcError] = None


def _mean_m(asm: Assemblies, m: np.ndarray) -> np.ndarray:
    """Volume average of m over the domain.

    Exact for the consistent-mass quadrature too, since M's row sums are beta.
    """
    return asm.beta @ m / asm.mesh.volume


def _row(asm, cfg: RunConfig, state: SimState, t0: float,
         gsq: float) -> TraceRow:
    m = state.m_curr
    mean = _mean_m(asm, m)
    unit_err = float(np.abs(np.linalg.norm(m, axis=1) - 1.0).max())
    return TraceRow(ell=state.ell, t=state.ell * cfg.integrator.k,
                    energy=energy(asm, cfg.field, m,
                                  state.ell * cfg.integrator.k, gsq=gsq),
                    grad_sq=gsq, mean_mx=float(mean[0]),
                    mean_my=float(mean[1]), mean_mz=float(mean[2]),
                    max_unit_err=unit_err,
                    predictor_iterations=state.predictor_iterations,
                    wall_time=time.perf_counter() - t0)


def run_simulation(asm: Assemblies, cfg: RunConfig, m0: np.ndarray,
                   observe: Optional[Callable] = None) -> RunResult:
    """Step from m0 to t_end, recording a trace every `stride` steps.

    Every step index, step 0 included, passes one rule: it is observed,
    recorded on the stride and at the last step, and its status checked:
    relax mode stops once ||grad m||^2 <= 1e-8, and with stability
    monitoring on any rise of ||grad m||^2 aborts the run as 'unstable'.
    Solver failures terminate the run with the partial trace intact.  An
    m0 that is not a finite unit field is rejected before any step.
    `observe(state)`, if given, sees each state that is reached, in order.
    """
    k = cfg.integrator.k
    t0 = time.perf_counter()
    state = SimState(ell=0, m_curr=real_array(m0, "m0", (asm.n, 3)).copy())
    mods = np.linalg.norm(state.m_curr, axis=1)
    z = int(np.argmax(np.abs(mods - 1.0)))  # worst node; the first NaN if any
    if not abs(mods[z] - 1.0) <= UNIT_TOL:  # also true for NaN and inf
        raise InvalidParameterError(
            f"m0 must be a unit field: |m0({z})| = {float(mods[z])!r}")
    trace = []
    gsq_prev = np.inf  # step 0 has no step before it to rise above
    while True:
        if observe is not None:
            observe(state)
        record = state.ell % cfg.stride == 0 or state.ell == cfg.n_steps
        if record or cfg.relax or cfg.monitor_stability:
            gsq = grad_sq(asm.stiffness, state.m_curr)
            status = ("unstable" if cfg.monitor_stability and gsq > gsq_prev
                      else "relaxed" if cfg.relax and gsq <= RELAX_GRAD_SQ_TOL
                      else None)
            if record or status:
                trace.append(_row(asm, cfg, state, t0, gsq))
            if status:
                return RunResult(state=state, trace=trace, status=status)
            gsq_prev = gsq
        if state.ell == cfg.n_steps:
            return RunResult(state=state, trace=trace, status="completed")
        try:
            state = step(state, cfg.integrator, cfg.field, asm)
        except LlgpcError as exc:
            err = SolverFailure(cfg.integrator.scheme, state.ell + 1, k,
                                state.ell * k, exc)
            return RunResult(state=state, trace=trace, status="failed",
                             error=err)


def trace_to_csv(trace: Sequence[TraceRow]) -> str:
    return _csv(TRACE_COLUMNS, (row.as_list() for row in trace))


@dataclass
class ConvergenceResult:
    scheme: str
    ks: List[float]
    errors: List[float]      # max over shared time nodes of the H1 error
    slope: float             # log-log least-squares fit over the finest 3 ks
    wall_time: float


def estimated_order(ks: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) vs log(k) over the ORDER_POINTS
    finest step sizes."""
    order = np.argsort(ks)[:ORDER_POINTS]
    k_sel = np.asarray(ks, dtype=float)[order]
    e_sel = np.asarray(errors, dtype=float)[order]
    if k_sel.size < 2 or np.any(e_sel <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(k_sel), np.log(e_sel), 1)[0])


def run_convergence_study(asm: Assemblies, field_cfg: EffectiveField,
                          schemes: Sequence[str], ks: Sequence[float],
                          k_ref: float, t_end: float, m0: np.ndarray,
                          theta: float = 0.5, alpha: float = 1.0,
                          lin_tol: float = 1e-12
                          ) -> List[ConvergenceResult]:
    """Self-convergence against a fine-step constraint-preserving reference.

    The reference uses the midpoint corrector scheme at step size k_ref.
    Every run's config, and so its step count under RunConfig's rule, is
    checked before the first run starts; each study step count must divide
    the reference's, and the quotient is the step ratio at which their time
    nodes meet.  The error for each k is the maximum H1-norm difference over
    all its time nodes, taken as the run steps, so the study holds only the
    reference's node states.  A run that fails raises its SolverFailure.
    """
    check_real(t_end, "t_end", positive=True, error=ConfigError)
    for k, what in [(k_ref, "k_ref")] + [(k, "k") for k in ks]:
        check_real(k, what, positive=True, error=ConfigError)
        check_real(t_end / k, f"step count t_end / {what}", error=ConfigError)
    ks = sorted(set(float(k) for k in ks), reverse=True)
    if not ks or not len(schemes):
        raise ConfigError("a convergence study needs a scheme and a k")

    def config(scheme, k):  # a trace row at t = 0 and t = t_end only
        return RunConfig(
            integrator=IntegratorConfig(scheme=scheme, k=k, theta=theta,
                                        alpha=alpha, lin_tol=lin_tol),
            field=field_cfg, t_end=t_end, stride=max(int(round(t_end / k)), 1))

    ref_cfg = config("PC2", k_ref)
    grid = [[config(scheme, k) for k in ks] for scheme in schemes]
    for cfg in grid[0]:
        if ref_cfg.n_steps % cfg.n_steps:
            raise ConfigError(f"k={cfg.integrator.k} is not an integer "
                              f"multiple of k_ref={k_ref}")
    # reference states at the union of every study run's time nodes
    ref_states = dict.fromkeys(j for cfg in grid[0] for j in range(
        0, ref_cfg.n_steps + 1, ref_cfg.n_steps // cfg.n_steps))

    def keep(state):
        if state.ell in ref_states:
            ref_states[state.ell] = state.m_curr  # step makes new arrays

    ref = run_simulation(asm, ref_cfg, m0, keep)
    if ref.status == "failed":
        raise ref.error

    results = []
    for scheme, row in zip(schemes, grid):
        t_start = time.perf_counter()
        errors = []
        for cfg in row:
            ratio = ref_cfg.n_steps // cfg.n_steps
            h1 = []  # one H1 error per time node, in step order
            res = run_simulation(asm, cfg, m0, lambda state: h1.append(
                h1_norm(asm.mass, asm.stiffness,
                        state.m_curr - ref_states[state.ell * ratio])))
            if res.status == "failed":
                raise res.error
            errors.append(max(h1))
        results.append(ConvergenceResult(
            scheme=scheme, ks=list(ks), errors=errors,
            slope=estimated_order(ks, errors),
            wall_time=time.perf_counter() - t_start))
    return results


def convergence_to_csv(results: Sequence[ConvergenceResult]) -> str:
    return _csv(("scheme", "k", "h1_error", "slope", "wall_time"),
                ([r.scheme, _num(k), _num(e), _num(r.slope), _num(r.wall_time)]
                 for r in results for k, e in zip(r.ks, r.errors)))


# sweep cell status of each run status
_CELL_STATUS = {"relaxed": "stable", "completed": "inconclusive",
               "unstable": "unstable", "failed": "failed"}


@dataclass
class SweepCell:
    theta: float
    k: float
    stable: bool
    status: str  # "stable" | "unstable" | "inconclusive" | "failed"
    steps_taken: int


def run_stability_sweep(asm: Assemblies, field_cfg: EffectiveField,
                        scheme: str, thetas: Sequence[float],
                        ks: Sequence[float], m0: np.ndarray,
                        alpha: float = 1.0, t_cap: float = 100.0,
                        lin_tol: float = 1e-12) -> List[SweepCell]:
    """Classify every (theta, k) grid cell by relaxing toward equilibrium.

    A cell is stable when the exchange energy decreases monotonically all
    the way down to the relaxed threshold; any increase flags it unstable
    immediately.  Hitting the time cap without reaching the threshold is
    inconclusive (counted as not stable).  Solver failures are recorded as
    their own status, also not stable; bad input raises, and every cell's
    config is built, and so checked, before the first run starts.  Grid
    order is deterministic: thetas outer, ks inner, in the order given.
    """
    check_real(t_cap, "t_cap", positive=True, error=ConfigError)
    if not (len(thetas) and len(ks)):
        raise ConfigError("a stability sweep needs a theta and a k")

    def config(theta, k):
        check_real(k, "k", positive=True, error=ConfigError)
        check_real(t_cap / k, "step count t_cap / k", error=ConfigError)
        n_steps = int(np.ceil(t_cap / k))
        return RunConfig(
            integrator=IntegratorConfig(scheme=scheme, k=k, theta=theta,
                                        alpha=alpha, lin_tol=lin_tol),
            field=field_cfg, t_end=n_steps * k, stride=n_steps,
            relax=True, monitor_stability=True)

    cells = []
    for cfg in [config(theta, k) for theta in thetas for k in ks]:
        res = run_simulation(asm, cfg, m0)
        status = _CELL_STATUS[res.status]
        cells.append(SweepCell(theta=cfg.integrator.theta, k=cfg.integrator.k,
                               stable=status == "stable", status=status,
                               steps_taken=res.state.ell))
    return cells


def sweep_to_csv(cells: Sequence[SweepCell]) -> str:
    return _csv(("theta", "k", "stable", "status", "steps_taken"),
                ([_num(c.theta), _num(c.k), int(c.stable), c.status,
                  c.steps_taken] for c in cells))
