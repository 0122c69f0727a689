import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import llgpc

from conftest import csr_from_coo

# the directory that holds the llgpc package this test process imported
PACKAGE_ROOT = str(Path(llgpc.__file__).resolve().parents[1])


def test_import_loads_neither_scipy_nor_numba():
    # scipy's import alone raises a run's peak RSS; the library needs numpy only
    code = ("import sys, llgpc; "
            "print(sorted({'scipy', 'numba'} & {m.split('.')[0] "
            "for m in sys.modules}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [PACKAGE_ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in llgpc.__all__ if not hasattr(llgpc, name)]
    assert missing == []
    assert len(set(llgpc.__all__)) == len(llgpc.__all__)


def test_public_surface_is_pinned():
    # adding or dropping a public name must show up as a diff here; the
    # predictor and corrector stages live in llgpc.llg, behind step
    assert sorted(llgpc.__all__) == [
        "Assemblies", "ConfigError", "EffectiveField", "GeometryError",
        "IntegratorConfig", "InvalidParameterError", "LlgpcError", "Mesh",
        "NoConvergenceError", "ParseError", "ProjectionDegenerateError",
        "RunConfig", "RunResult", "SimState", "SolverFailure", "TraceRow",
        "Uniaxial", "apply_Ph", "build_assemblies", "build_cube_mesh",
        "check_angle_condition", "discrete_laplacian", "energy", "grad_sq",
        "h1_norm", "init_state", "inner_l2", "load_mesh",
        "run_convergence_study", "run_simulation", "run_stability_sweep",
        "save_mesh", "step",
    ]


@pytest.mark.parametrize("make", [
    lambda: llgpc.build_cube_mesh(1, 1.0),
    lambda: llgpc.build_assemblies(llgpc.build_cube_mesh(1, 1.0)),
    lambda: csr_from_coo([0, 1], [1, 0], [1.0, 2.0], 2),
    lambda: llgpc.Uniaxial(1.0, np.array([0.0, 0.0, 1.0])),
    lambda: llgpc.EffectiveField(applied=np.ones(3)),
    lambda: llgpc.SimState(ell=0, m_curr=np.ones((8, 3))),
], ids=["Mesh", "Assemblies", "CsrMatrix", "Uniaxial", "EffectiveField",
        "SimState"])
def test_array_holders_compare_by_identity_and_hash(make):
    # equal arrays have no single truth value, so == cannot compare fields
    a = make()
    assert a == a and a != make()
    assert hash(a) == hash(a)
