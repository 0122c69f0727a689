"""Command-line entry point: mesh building, runs, convergence, sweeps."""

import argparse
import sys
from pathlib import Path

from .errors import (ConfigError, GeometryError, InvalidParameterError,
                     LlgpcError, ParseError)
from .fem import build_assemblies, check_angle_condition
from .harness import (RunConfig, convergence_to_csv, init_state,
                      run_convergence_study, run_simulation,
                      run_stability_sweep, sweep_to_csv, trace_to_csv)
from .llg import SCHEMES, EffectiveField, IntegratorConfig, Uniaxial
from .mesh import build_cube_mesh, load_mesh, save_mesh

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_UNSTABLE = 4


def _add_mesh_flags(p):
    p.add_argument("--mesh-n", type=int, default=None,
                   help="cells per edge of a structured cube mesh")
    p.add_argument("--edge", type=float, default=1.0,
                   help="cube edge length (default 1)")
    p.add_argument("--center", type=float, nargs=3, default=(0.0, 0.0, 0.0),
                   metavar=("CX", "CY", "CZ"), help="cube center (default origin)")
    p.add_argument("--mesh-file", type=Path, default=None,
                   help="load a mesh from a text file instead of building one")


def _add_physics_flags(p):
    """Flags run, converge and sweep all read (not --scheme, --theta, --k)."""
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--ellex", type=float, default=1.0, help="exchange length")
    p.add_argument("--pi-uniaxial", type=float, nargs=4, default=None,
                   metavar=("C", "AX", "AY", "AZ"),
                   help="uniaxial anisotropy: constant and unit axis")
    p.add_argument("--f", type=float, nargs=3, default=None,
                   metavar=("FX", "FY", "FZ"), help="constant applied field")
    p.add_argument("--init", choices=("uniform", "random", "hedgehog"),
                   default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lin-tol", type=float, default=1e-12)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="llgpc",
        description="Mass-lumped predictor-corrector magnetization dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help):  # no prefixes: --k must not pass for --ks
        return sub.add_parser(name, help=help, allow_abbrev=False)

    pm = command("mesh", help="build, inspect, or angle-check a mesh")
    _add_mesh_flags(pm)
    pm.add_argument("--check-angle", action="store_true",
                    help="verify nonpositive off-diagonal stiffness entries")
    pm.add_argument("--out", type=Path, default=None,
                    help="write the mesh in the text format")

    pr = command("run", help="run one trajectory and write a trace CSV")
    _add_mesh_flags(pr)
    _add_physics_flags(pr)
    pr.add_argument("--scheme", choices=SCHEMES, default="PC2")
    pr.add_argument("--theta", type=float, default=0.5)
    pr.add_argument("--k", type=float, default=1e-3, help="time-step size")
    pr.add_argument("--T", type=float, required=True, help="final time")
    pr.add_argument("--stride", type=int, default=1)
    pr.add_argument("--relax", action="store_true",
                    help="stop once the exchange energy reaches the "
                         "relaxed threshold")
    pr.add_argument("--monitor-stability", action="store_true")
    pr.add_argument("--fail-on-unstable", action="store_true")
    pr.add_argument("--out", type=Path, default=None)

    pc = command("converge", help="time-step convergence study CSV")
    _add_mesh_flags(pc)
    _add_physics_flags(pc)
    pc.add_argument("--theta", type=float, default=0.5)
    pc.add_argument("--T", type=float, required=True)
    pc.add_argument("--schemes", nargs="+", choices=SCHEMES, default=["PC2"])
    pc.add_argument("--ks", type=float, nargs="+", required=True,
                    help="study step sizes (multiples of --k-ref)")
    pc.add_argument("--k-ref", type=float, required=True)
    pc.add_argument("--out", type=Path, default=None)

    ps = command("sweep", help="theta-k stability sweep CSV")
    _add_mesh_flags(ps)
    _add_physics_flags(ps)
    ps.add_argument("--scheme", choices=SCHEMES, default="PC2")
    ps.add_argument("--thetas", type=float, nargs="+", required=True)
    ps.add_argument("--ks", type=float, nargs="+", required=True)
    ps.add_argument("--t-cap", type=float, default=100.0,
                    help="wall-clock-free time cap per cell")
    ps.add_argument("--out", type=Path, default=None)
    return ap


def _mesh_from_args(args):
    if args.mesh_file is not None:
        return load_mesh(args.mesh_file.read_text())
    if args.mesh_n is None:
        raise ConfigError("provide --mesh-n or --mesh-file")
    return build_cube_mesh(args.mesh_n, args.edge, tuple(args.center))


def _make_field(args) -> EffectiveField:
    uni = None
    if args.pi_uniaxial is not None:
        c, *axis = args.pi_uniaxial
        uni = Uniaxial(c=c, axis=axis)
    return EffectiveField(ell_ex=args.ellex, uniaxial=uni, applied=args.f)


def _make_integrator(args) -> IntegratorConfig:
    return IntegratorConfig(scheme=args.scheme, k=args.k,
                            theta=args.theta, alpha=args.alpha,
                            lin_tol=args.lin_tol)


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_mesh(args):
    mesh = _mesh_from_args(args)
    asm = build_assemblies(mesh)
    print(f"vertices: {mesh.n_vertices}")
    print(f"tets: {mesh.n_tets}")
    print(f"h_max: {mesh.h_max!r}")
    print(f"volume: {asm.volume!r}")
    if args.check_angle:
        report = check_angle_condition(asm.stiffness)
        print(f"angle_condition: {'pass' if report.passed else 'FAIL'} "
              f"(worst off-diagonal {report.worst_offdiag:.3e})")
        if not report.passed:
            for i, j, v in report.offending:
                print(f"  positive entry at ({i}, {j}): {v:.6e}")
    if args.out is not None:
        args.out.write_text(save_mesh(mesh))
    return EXIT_OK


def _cmd_run(args):
    asm = build_assemblies(_mesh_from_args(args))
    cfg = RunConfig(integrator=_make_integrator(args), field=_make_field(args),
                    t_end=args.T, stride=args.stride, relax=args.relax,
                    monitor_stability=args.monitor_stability or
                    args.fail_on_unstable)
    m0 = init_state(asm.mesh, args.init, seed=args.seed)
    res = run_simulation(asm, cfg, m0)
    _emit(trace_to_csv(res.trace), args.out)
    if res.status == "failed":
        print(f"solver failure: {res.error}", file=sys.stderr)
        return EXIT_SOLVER
    if res.status == "unstable" and args.fail_on_unstable:
        print(f"unstable at step {res.state.ell}", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def _cmd_converge(args):
    asm = build_assemblies(_mesh_from_args(args))
    m0 = init_state(asm.mesh, args.init, seed=args.seed)
    results = run_convergence_study(
        asm, _make_field(args), args.schemes, args.ks, args.k_ref, args.T,
        m0, theta=args.theta, alpha=args.alpha, lin_tol=args.lin_tol)
    _emit(convergence_to_csv(results), args.out)
    for r in results:
        print(f"{r.scheme}: slope {r.slope:.3f} "
              f"({r.wall_time:.1f}s)", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args):
    asm = build_assemblies(_mesh_from_args(args))
    m0 = init_state(asm.mesh, args.init, seed=args.seed)
    cells = run_stability_sweep(asm, _make_field(args), args.scheme,
                                args.thetas, args.ks, m0, alpha=args.alpha,
                                t_cap=args.t_cap, lin_tol=args.lin_tol)
    _emit(sweep_to_csv(cells), args.out)
    return EXIT_OK


_COMMANDS = {"mesh": _cmd_mesh, "run": _cmd_run, "converge": _cmd_converge,
             "sweep": _cmd_sweep}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, GeometryError, InvalidParameterError, ParseError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LlgpcError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
