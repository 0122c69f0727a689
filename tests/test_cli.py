import argparse

import pytest

from llgpc.cli import _build_parser, main
from llgpc.harness import TRACE_COLUMNS
from llgpc.mesh import build_cube_mesh, save_mesh

MESH = ["--center", "--edge", "--mesh-file", "--mesh-n"]
PHYSICS = ["--alpha", "--ellex", "--f", "--init", "--lin-tol", "--pi-uniaxial",
           "--seed"]


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


def test_mesh_check_angle_reports_unstored_zero(capsys):
    # the n=1 Kuhn cube stores only negative off-diagonals
    assert main(["mesh", "--mesh-n", "1", "--check-angle"]) == 0
    assert "(worst off-diagonal 0.000e+00)" in capsys.readouterr().out


def test_mesh_check_angle_lists_offending_entries(capsys, tmp_path):
    # one flat tet: its apex sits low over the base, so three dihedral
    # angles are obtuse and six off-diagonal entries positive
    path = tmp_path / "obtuse.txt"
    path.write_text("tetmesh 4 1\n0 0 0\n1 0 0\n0 1 0\n0.3 0.3 0.1\n"
                    "0 1 2 3\n")
    assert main(["mesh", "--mesh-file", str(path), "--check-angle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "angle_condition: FAIL (worst off-diagonal 1.833e-01)" in lines
    assert [line for line in lines if "positive entry" in line] == [
        "  positive entry at (0, 1): 1.833333e-01",
        "  positive entry at (0, 2): 1.833333e-01",
        "  positive entry at (1, 0): 1.833333e-01",
        "  positive entry at (2, 0): 1.833333e-01",
        "  positive entry at (1, 2): 1.500000e-01",
        "  positive entry at (2, 1): 1.500000e-01"]


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


@pytest.mark.parametrize("argv", [
    ["run", "--mesh-n", "1", "--T", "inf"],
    ["converge", "--mesh-n", "1", "--T", "1e-2", "--ks", "1e-3",
     "--k-ref", "0"],
    ["sweep", "--mesh-n", "1", "--thetas", "0.5", "--ks", "1e-3",
     "--t-cap", "inf"],
    ["run", "--mesh-n", "1", "--T", "1e-2", "--init", "random",
     "--seed", "-1"],
    ["run", "--mesh-n", "1", "--k", "1e-320", "--T", "1"],
    ["sweep", "--mesh-n", "1", "--thetas", "0.5", "--ks", "1e-320",
     "--t-cap", "1"],
    ["converge", "--mesh-n", "1", "--T", "1", "--ks", "1", "--k-ref",
     "1e-320"],
    ["run", "--mesh-n", "1", "--k", "1", "--T", "1e-12"],
    ["converge", "--mesh-n", "1", "--T", "1e-12", "--ks", "1", "--k-ref",
     "1"],
    ["run", "--mesh-n", "1", "--T", "1e-2", "--alpha", "1e200"],
    ["run", "--mesh-n", "1", "--T", "1e-2", "--ellex", "1e200"],
    ["sweep", "--mesh-n", "1", "--thetas", "0.5", "--ks", "1e-3",
     "--t-cap", "1e-2", "--ellex", "1e200"],
    ["run", "--mesh-n", "2", "--T", "1e-2", "--k", "1e-2", "--scheme", "PC1",
     "--ellex", "1e-170", "--pi-uniaxial", "1", "0", "0", "1",
     "--init", "random"],
    ["run", "--mesh-n", "2", "--T", "1e-2", "--k", "1e-2", "--scheme", "PC1",
     "--ellex", "1e-160", "--pi-uniaxial", "1", "0", "0", "1",
     "--init", "random"],
    ["run", "--mesh-n", "2", "--T", "1e-2", "--k", "1e-2", "--scheme", "PC1",
     "--alpha", "1e154", "--init", "random"],
    ["run", "--mesh-n", "2", "--T", "1e-2", "--k", "1e-2", "--scheme", "PC2",
     "--alpha", "1e154", "--init", "random"],
    ["run", "--mesh-n", "2", "--T", "1e-2", "--k", "1e-2", "--scheme", "PC2",
     "--alpha", "1e100", "--init", "random"],
    ["mesh", "--mesh-n", "1", "--edge", "1e103", "--check-angle"],
], ids=["run_T_inf", "converge_k_ref_0", "sweep_t_cap_inf", "seed_negative",
        "run_k_tiny", "sweep_k_tiny", "converge_k_ref_tiny", "run_zero_steps",
        "converge_zero_steps", "run_alpha_square_overflows",
        "run_ellex_square_overflows", "sweep_ellex_square_overflows",
        "run_ellex_square_underflows", "run_uniaxial_over_ellex_square_overflows",
        "run_pc1_alpha_fourth_power_overflows",
        "run_pc2_alpha_fourth_power_overflows",
        "run_pc2_alpha_1e100_fourth_power_overflows",
        "mesh_volume_overflows"])
def test_bad_run_input_exit_code(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("scheme", ["PC1", "PC2"])
def test_largest_accepted_alpha_runs(scheme, capsys):
    assert main(["run", "--mesh-n", "2", "--T", "1e-2", "--k", "1e-2",
                 "--scheme", scheme, "--alpha", "1e77", "--init",
                 "random"]) == 0


@pytest.mark.parametrize("command", [["mesh"], ["run", "--T", "1e-2"]])
def test_inverted_mesh_file_exit_code(command, tmp_path, capsys):
    path = tmp_path / "inverted.txt"
    path.write_text("tetmesh 4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 2 1 3\n")
    assert main(command + ["--mesh-file", str(path)]) == 2
    assert "tet 0 has non-positive volume" in capsys.readouterr().err


def test_huge_index_mesh_file_exit_code(tmp_path, capsys):
    # past int64: Mesh rejects the index array load_mesh hands it
    path = tmp_path / "huge.txt"
    path.write_text("tetmesh 4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "0 1 2 99999999999999999999\n")
    assert main(["mesh", "--mesh-file", str(path)]) == 2
    assert "tet indices must be integers" in capsys.readouterr().err


def test_mesh_without_check_angle_assembles_nothing(monkeypatch, capsys):
    def no_assembly(mesh):
        raise AssertionError("build_assemblies called")

    monkeypatch.setattr("llgpc.cli.build_assemblies", no_assembly)
    assert main(["mesh", "--mesh-n", "2"]) == 0
    capsys.readouterr()
    assert main(["mesh", "--mesh-n", "4"]) == 0
    assert capsys.readouterr().out == (
        "vertices: 125\ntets: 384\nh_max: 0.4330127018922193\n"
        "volume: 0.9999999999999999\n")


@pytest.mark.parametrize("command", [["mesh", "--check-angle"],
                                     ["run", "--T", "1e-2"]])
def test_unused_vertex_mesh_file_exit_code(command, tmp_path, capsys):
    # the n=1 cube plus a vertex no tet uses: its lumped mass would be 0
    lines = save_mesh(build_cube_mesh(1, 1.0)).split("\n")
    lines[0], lines[9:9] = "tetmesh 9 6", ["2.0 2.0 2.0"]
    path = tmp_path / "unused.txt"
    path.write_text("\n".join(lines))
    assert main(command + ["--mesh-file", str(path)]) == 2
    assert "vertex 8 is used by no tet" in capsys.readouterr().err


def test_each_command_takes_only_the_flags_it_reads():
    # adding or dropping a flag must show up as a diff here
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    assert flags == {
        "mesh": sorted(MESH + ["--check-angle", "--out"]),
        "run": sorted(MESH + PHYSICS + [
            "--T", "--fail-on-unstable", "--k", "--monitor-stability",
            "--out", "--relax", "--scheme", "--stride", "--theta"]),
        "converge": sorted(MESH + PHYSICS + [
            "--T", "--k-ref", "--ks", "--out", "--schemes", "--theta"]),
        "sweep": sorted(MESH + PHYSICS + [
            "--ks", "--out", "--scheme", "--t-cap", "--thetas"]),
    }


@pytest.mark.parametrize("flag", [["--scheme", "PC1"], ["--k", "7"]])
def test_converge_rejects_flags_it_does_not_read(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--mesh-n", "1", "--T", "0.004", "--ks", "2e-3",
              "--k-ref", "1e-3"] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--theta", "0.9"], ["--k", "99"]])
def test_sweep_rejects_flags_it_does_not_read(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--mesh-n", "1", "--thetas", "0.5", "--ks", "1e-3",
              "--t-cap", "1e-2"] + flag)
    assert exc.value.code == 2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("f, t_end", [("1e308", "1e-2"), ("1e160", "3e-2")])
def test_run_non_finite_state_fails_at_step_one(f, t_end, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--mesh-n", "2", "--T", t_end, "--k", "1e-2",
                 "--scheme", "PC2", "--f", f, "0", "0", "--out", str(out)])
    assert code == 3
    assert "step 1 " in capsys.readouterr().err
    assert len(out.read_text().strip().split("\n")) == 1 + 1  # ell = 0 only


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_converge_solver_failure_exits_3(capsys):
    # the reference run's first step overflows, and the study raises its
    # SolverFailure, which is no configuration error
    code = main(["converge", "--mesh-n", "2", "--schemes", "PC2",
                 "--ks", "2e-2", "--k-ref", "1e-2", "--T", "2e-2",
                 "--f", "1e308", "0", "0"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "solver error: PC2 step 1 (k=0.01, from t=0.0) failed:")


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
