"""Benchmark llgpc on the paper's three experiments; see BENCHMARK.json.

    python3 bench/run.py --workload converge --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --seed 1 --trace 1     # every workload, traced

BENCHMARK.json declares `converge` and `imex_n32`; `sweep` runs the same
way but is left out there, for the reason its class gives.

For --seconds the workload is set up again and again in short bursts,
each followed by one solve on the same inputs; setup_s and the solve
timings are medians over the run.  With --trace 0 every end-to-end metric
of BENCHMARK.json is printed.  With --trace 1 untraced and traced solves
alternate and every per-layer metric is printed, with trace.overhead
comparing the two kinds.  All solves of one run must agree exactly on
their work counts.

Readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A record with the
environment, every sample and check, and the spans of the first traced
solve is written to .bench_out/ at the root of the checkout.  The exit
code is 1 when a check failed and 2 when the library is not found next to
the benchmark, in src/.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

SETUP_BURST_S = 0.4
MIN_SOLVES = 3


def git_state():
    """Commit and dirty flag of the checkout, or None if it is no git tree.

    Git is not allowed to look for a repository above the checkout.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode:
            return None
        status = git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git": git_state(),
    }


def set_up_burst(workload, seed, tracing, setups):
    """Set up at least once and for SETUP_BURST_S seconds, appending each
    set-up's time to `setups`; returns the last assemblies and inputs."""
    stop = time.perf_counter() + SETUP_BURST_S
    while True:
        asm = inputs = None  # free the previous assemblies before building anew
        tracer = tracing.Tracer(run_id=f"setup-{len(setups)}")
        t0 = time.perf_counter()
        asm, inputs, angle_ok = workload.set_up(seed, tracer)
        setups.append({"setup_s": time.perf_counter() - t0,
                       "angle_ok": angle_ok,
                       "phases_s": {name: total for name, (_, total, _)
                                    in tracer.summary().items()}})
        if time.perf_counter() >= stop:
            return asm, inputs


def solve_once(workload, asm, inputs, tracer, traced, errors):
    """One solve; returns (wall seconds, output or None, checks)."""
    t0 = time.perf_counter()
    try:
        with tracer.installed() if traced else contextlib.nullcontext():
            out = workload.solve(asm, inputs, tracer)
    except errors.LlgpcError as exc:
        return time.perf_counter() - t0, None, [(f"solve raised {exc!r}", False)]
    wall = time.perf_counter() - t0
    return wall, out, [("solve completed", True)] + workload.check(asm, out)


def measure(workload, seed, seconds, trace, tracing, errors):
    """Alternate set-up bursts and solves for `seconds`.

    Set-ups are spread over the whole run like the solves, so both sample
    the same spells of a busy host: a fixed set-up task on a shared 2-core
    VM switched between 33 and 54 ms on time scales of 2 to 20 s.  With
    trace, solves alternate between untraced and traced.
    """
    setups, samples, cycles = [], [], []
    stop = time.perf_counter() + seconds
    while True:
        t_cycle = time.perf_counter()
        asm = inputs = None  # free the previous assemblies before building anew
        asm, inputs = set_up_burst(workload, seed, tracing, setups)
        traced = trace and len(samples) % 2 == 1
        tracer = tracing.Tracer(run_id=f"solve-{len(samples)}")
        wall, out, checks = solve_once(workload, asm, inputs, tracer, traced,
                                       errors)
        sample = {"traced": traced, "wall_s": wall, "checks": checks,
                  "steps": workload.steps(out) if out is not None else 0}
        if traced:
            sample["tracer"] = tracer
            sample["counts"] = tracer.counts()
            sample["layers"] = tracing.layer_metrics(
                tracer, asm.n, asm.stiffness.nnz)
        samples.append(sample)
        cycles.append(time.perf_counter() - t_cycle)
        n_traced = sum(s["traced"] for s in samples)
        enough = (n_traced >= 2 and len(samples) - n_traced >= 1 if trace
                  else len(samples) >= MIN_SOLVES)
        if enough and time.perf_counter() + statistics.median(cycles) > stop:
            return asm, setups, samples


def consistency_checks(samples):
    """Every solve of a run has the same inputs, so its work must repeat."""
    steps = {s["steps"] for s in samples}
    checks = [(f"steps identical across solves: {sorted(steps)}",
               len(steps) == 1)]
    counts = [s["counts"] for s in samples if s["traced"]]
    if counts:
        same = all(c == counts[0] for c in counts)
        checks.append((f"work counts identical across traced solves: "
                       f"{counts if not same else counts[0]}", same))
    return checks


def end_to_end(samples, setups):
    untraced = [s for s in samples if not s["traced"]]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in untraced),
        "steps_per_s": statistics.median(s["steps"] / s["wall_s"]
                                         for s in untraced),
        "setup_s": statistics.median(u["setup_s"] for u in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(samples, setups):
    traced = [s for s in samples if s["traced"]]
    metrics = {}
    for name, first in traced[0]["layers"].items():
        # counts repeat exactly (a check says so); times take the median
        metrics[name] = first if isinstance(first, int) else statistics.median(
            s["layers"][name] for s in traced)
    for name in ("mesh.build", "fem.assemble", "fem.angle_check"):
        metrics[name + "_s"] = statistics.median(u["phases_s"][name]
                                                 for u in setups)
    untraced_wall = statistics.median(s["wall_s"] for s in samples
                                      if not s["traced"])
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return metrics


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "llgpc" / "__init__.py").is_file():
        print(f"llgpc sources not found under {SRC}", file=sys.stderr)
        return 2
    # One process on a small shared machine: keep BLAS single-threaded unless
    # the caller chose otherwise.  Threaded BLAS was no faster on a 2-core
    # x86-64 VM (imex_n32 solve 6.8-8.3 s vs 6.5-6.9 s single-threaded).
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import llgpc
    from llgpc import errors
    import tracing
    from workloads import WORKLOADS

    if Path(llgpc.__file__).resolve().parent != SRC / "llgpc":
        print(f"imported llgpc from {llgpc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="default: every workload, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload is None:
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
            for name in WORKLOADS]
        return max(codes)

    workload = WORKLOADS[args.workload]
    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True))

    asm, setups, samples = measure(workload, args.seed, args.seconds,
                                   bool(args.trace), tracing, errors)
    checks = [("angle condition passes", all(u["angle_ok"] for u in setups))]
    for s in samples:
        checks += s["checks"]
    checks += consistency_checks(samples)
    failed = [label for label, ok in checks if not ok]

    if args.trace:
        computed = per_layer(samples, setups)
        declared = spec["per_layer"]
    else:
        computed = end_to_end(samples, setups)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in declared}

    n_traced = sum(s["traced"] for s in samples)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(setups)} setups, {len(samples) - n_traced} untraced and "
          f"{n_traced} traced solves, N={asm.n} nnz={asm.stiffness.nnz}")
    for m in declared:
        note = tracing.LAYER_MAP.get(m["name"])
        print(f"  {m['name']:30s} {computed[m['name']]:>16.6g} {m['unit']:10s}"
              f" {m['better']} is better" + (f"; moves {note}" if note else ""))
    print(f"  {'failed_frac':30s} {len(failed) / len(checks):>16.6g} "
          f"{'1':10s} lower is better ({len(failed)} of {len(checks)} "
          f"runs, cells and checks failed)")
    for label in failed:
        print(f"  FAILED: {label}")

    first_traced = next((s["tracer"] for s in samples if s["traced"]), None)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics,
        "setups": setups,
        "solves": [{k: v for k, v in s.items() if k != "tracer"}
                   for s in samples],
        "failed_checks": failed,
        "spans": first_traced.dump() if first_traced else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))
    print(f"record written to {out_path.relative_to(ROOT)}")

    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
