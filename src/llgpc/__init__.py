"""Mass-lumped P1 predictor-corrector integrators for magnetization dynamics."""

from .errors import (ConfigError, GeometryError, InvalidParameterError,
                     LlgpcError, NoConvergenceError, ParseError,
                     ProjectionDegenerateError, SolverFailure)
from .fem import (Assemblies, apply_Ph, build_assemblies,
                  check_angle_condition, discrete_laplacian, grad_sq, h1_norm,
                  inner_l2)
from .harness import (RunConfig, RunResult, TraceRow, init_state,
                      run_convergence_study, run_simulation,
                      run_stability_sweep)
from .llg import (EffectiveField, IntegratorConfig, SimState, Uniaxial,
                  energy, step)
from .mesh import Mesh, build_cube_mesh, load_mesh, save_mesh

__version__ = "0.1.0"

__all__ = [
    "Assemblies", "ConfigError", "EffectiveField", "GeometryError",
    "IntegratorConfig", "InvalidParameterError", "LlgpcError", "Mesh",
    "NoConvergenceError", "ParseError", "ProjectionDegenerateError",
    "RunConfig", "RunResult", "SimState", "SolverFailure", "TraceRow",
    "Uniaxial", "apply_Ph", "build_assemblies", "build_cube_mesh",
    "check_angle_condition", "discrete_laplacian", "energy", "grad_sq",
    "h1_norm", "init_state", "inner_l2", "load_mesh", "run_convergence_study",
    "run_simulation", "run_stability_sweep", "save_mesh", "step",
]
