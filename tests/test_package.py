import os
import subprocess
import sys
from pathlib import Path

import llgpc

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
