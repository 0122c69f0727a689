"""Mass-lumped P1 predictor-corrector integrators for magnetization dynamics."""

from .errors import (ConfigError, GeometryError, InvalidParameterError,
                     LlgpcError, NoConvergenceError, ParseError,
                     ProjectionDegenerateError, SolverFailure)
from .fem import (Assemblies, apply_Ph, build_assemblies,
                  check_angle_condition, discrete_laplacian, grad_sq,
                  inner_l2, norms)
from .harness import (RunConfig, RunResult, TraceRow, init_state,
                      run_convergence_study, run_simulation,
                      run_stability_sweep)
from .llg import (EffectiveField, IntegratorConfig, SimState, Uniaxial,
                  corrector_pc2, corrector_project, energy, predictor_full,
                  predictor_fully_implicit, step)
from .mesh import Mesh, build_cube_mesh, load_mesh, save_mesh

__version__ = "0.1.0"

__all__ = [
    "Assemblies", "ConfigError", "EffectiveField", "GeometryError",
    "IntegratorConfig", "InvalidParameterError", "LlgpcError", "Mesh",
    "NoConvergenceError", "ParseError", "ProjectionDegenerateError",
    "RunConfig", "RunResult", "SimState", "SolverFailure", "TraceRow",
    "Uniaxial", "apply_Ph", "build_assemblies", "build_cube_mesh",
    "check_angle_condition", "corrector_pc2", "corrector_project",
    "discrete_laplacian", "energy", "grad_sq", "init_state", "inner_l2",
    "load_mesh", "norms", "predictor_full", "predictor_fully_implicit",
    "run_convergence_study", "run_simulation", "run_stability_sweep",
    "save_mesh", "step",
]
