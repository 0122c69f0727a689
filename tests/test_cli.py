import numpy as np
import pytest

from llgpc.cli import main
from llgpc.harness import TRACE_COLUMNS


def test_mesh_command(capsys, tmp_path):
    out = tmp_path / "mesh.txt"
    code = main(["mesh", "--mesh-n", "2", "--edge", "1.0", "--check-angle",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "vertices: 27" in captured
    assert "tets: 48" in captured
    assert "angle_condition: pass" in captured
    assert out.read_text().startswith("tetmesh 27 48")


def test_mesh_from_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    main(["mesh", "--mesh-n", "1", "--out", str(path)])
    capsys.readouterr()
    assert main(["mesh", "--mesh-file", str(path)]) == 0
    assert "vertices: 8" in capsys.readouterr().out


def test_run_writes_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["run", "--mesh-n", "1", "--scheme", "PC2", "--k", "1e-3",
                 "--T", "5e-3", "--init", "random", "--seed", "3",
                 "--f", "0", "1", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) >= 6


def test_run_pc1_with_anisotropy(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    args = ["run", "--mesh-n", "2", "--scheme", "PC1", "--theta", "1.0",
            "--k", "0.5", "--T", "1.0", "--pi-uniaxial", "10", "0", "0", "1",
            "--init", "random", "--seed", "1", "--out", str(out)]
    assert main(args) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 3  # ell = 0, 1, 2
    with pytest.raises(SystemExit):  # the implicit field needs no own tolerance
        main(args + ["--fix-tol", "1e-10"])


def test_run_config_error_exit_code(capsys):
    # t_end not a multiple of k
    assert main(["run", "--mesh-n", "1", "--k", "3e-3", "--T", "1e-2"]) == 2
    # no mesh source at all
    assert main(["run", "--k", "1e-3", "--T", "1e-2"]) == 2


def test_run_fail_on_unstable(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--mesh-n", "4", "--edge", "0.4", "--scheme", "PC2",
                 "--theta", "0.0", "--k", "1e-2", "--T", "2.0",
                 "--init", "random", "--seed", "2", "--stride", "100",
                 "--fail-on-unstable", "--out", str(out)])
    assert code == 4
    assert out.exists()  # partial trace still written


def test_converge_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--mesh-n", "1", "--schemes", "PC2",
                 "--ks", "4e-3", "2e-3", "1e-3", "--k-ref", "5e-4",
                 "--T", "2e-2", "--f", "0", "1", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,k,h1_error,slope,wall_time"
    assert len(lines) == 4


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--mesh-n", "1", "--scheme", "PC2",
                 "--thetas", "0.5", "--ks", "1e-3", "--init", "uniform",
                 "--t-cap", "1e-2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,k,stable,status,steps_taken"
    assert lines[1].startswith("0.5,0.001,1,stable")
