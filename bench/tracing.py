"""Per-layer tracing by wrapping the module attributes llgpc's callers look up.

While a traced pass runs, `Tracer.installed()` replaces these attributes,
and restores them when the pass ends:

    llgpc.harness.run_simulation    called by the study drivers
    llgpc.harness.step              called by run_simulation
    llgpc.llg.predictor_fully_implicit, llgpc.llg.predictor_full,
    llgpc.llg.corrector_pc2, llgpc.llg.corrector_project
                                    called by step and by each other
    llgpc.llg.gmres                 called by the predictors; the operator
                                    callback it receives is wrapped as well
    llgpc.fem.spmv                  called by every fem operator

Each wrapped call appends one span (name, start, end, parent id) to an
in-memory list; the list is written out only when the benchmark ends.
SpMV is counted (calls and time) but opens no span, so the self time of
each layer includes the SpMVs it issues itself: `harness.diag_s` is the
trace rows and `grad_sq` of run_simulation, as the layer map says.
Nothing in llgpc is edited.
"""

import time
from contextlib import contextmanager

import numpy as np

from llgpc import fem, harness, llg
from llgpc.errors import NoConvergenceError

RUN_SIMULATION = "harness.run_simulation"
STUDY = "harness.study"
STEP = "llg.step"
FULLY_IMPLICIT = "llg.predictor_fully_implicit"
PREDICTOR_FULL = "llg.predictor_full"
CORRECTOR_PC2 = "llg.corrector_pc2"
CORRECTOR_PROJECT = "llg.corrector_project"
GMRES = "linalg.gmres"
OP_APPLY = "linalg.op.apply"

_SPANNED = (
    (harness, "run_simulation", RUN_SIMULATION),
    (harness, "step", STEP),
    (llg, "predictor_fully_implicit", FULLY_IMPLICIT),
    (llg, "predictor_full", PREDICTOR_FULL),
    (llg, "corrector_pc2", CORRECTOR_PC2),
    (llg, "corrector_project", CORRECTOR_PROJECT),
)

# Which end-to-end metric each per-layer metric should move, and on which
# workload; on the workloads not named the prediction is no change.
LAYER_MAP = {
    "mesh.build_s": "setup_s on imex_n32",
    "fem.assemble_s": "setup_s on imex_n32 (mostly CsrMatrix row validation)",
    "fem.angle_check_s": "setup_s on imex_n32",
    "linalg.spmv.calls": "wall_s on converge, sweep",
    "linalg.spmv.us_per_call": "wall_s on converge, sweep",
    "linalg.gmres.solves": "wall_s on sweep, imex_n32",
    "linalg.gmres.iters": "wall_s on sweep, imex_n32",
    "linalg.gmres.iters_per_solve":
        "wall_s on sweep, imex_n32 (stays near 1 on converge)",
    "linalg.gmres.applies": "wall_s on converge",
    "linalg.gmres.useful_ratio":
        "wall_s on converge (about 0.25 there, 0.85 on sweep)",
    "linalg.gmres.self_s": "wall_s on sweep, imex_n32",
    "linalg.gmres.failures": "failed_frac on every workload",
    "linalg.op.apply_us": "steps_per_s on imex_n32",
    "linalg.op.bytes_computed": "steps_per_s on imex_n32 (computed, not measured)",
    "linalg.op.gbps_computed": "steps_per_s on imex_n32 (computed bytes / apply time)",
    "llg.step.calls": "steps_per_s on every workload (sample count of the step percentiles)",
    "llg.step.ms_p50": "steps_per_s on every workload",
    "llg.step.ms_p99": "steps_per_s on every workload",
    "llg.applies_per_step": "steps_per_s on every workload",
    "llg.predictor_full.calls": "wall_s on converge",
    "llg.fixpoint.iters_per_call": "wall_s on converge",
    "llg.predictor.self_s": "wall_s on converge",
    "llg.corrector_s": "wall_s on sweep, converge",
    "harness.diag_s": "wall_s on sweep",
    "harness.study_self_s": "wall_s on converge",
    "trace.overhead": "none: traced wall_s / untraced wall_s - 1",
}


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.spmv_calls = 0
        self.spmv_s = 0.0
        self.gmres_iters = 0
        self.gmres_failures = 0

    def wrap(self, name, fn):
        """Return fn recording one span per call.

        Written out rather than built on `span`: it runs once per operator
        application, where a context manager's cost would show.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def _gmres(self, gmres):
        def counted(apply, b, *args, **kwargs):
            try:
                res = gmres(self.wrap(OP_APPLY, apply), b, *args, **kwargs)
            except NoConvergenceError as exc:
                self.gmres_failures += 1
                self.gmres_iters += exc.iterations
                raise
            self.gmres_iters += res.iterations
            return res
        return self.wrap(GMRES, counted)

    def _spmv(self, spmv):
        clock = time.perf_counter

        def counted(a, x):
            t0 = clock()
            try:
                return spmv(a, x)
            finally:
                self.spmv_s += clock() - t0
                self.spmv_calls += 1
        return counted

    @contextmanager
    def installed(self):
        """Wrap the library's layer boundaries for the duration of a block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _SPANNED]
        saved += [(llg, "gmres", llg.gmres), (fem, "spmv", fem.spmv)]
        for mod, attr, name in _SPANNED:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        llg.gmres = self._gmres(llg.gmres)
        fem.spmv = self._spmv(fem.spmv)
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def dump(self):
        """Spans as JSON-ready records."""
        return [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "run": self.run_id}
                for i, (name, start, end, parent) in enumerate(self.spans)]

    def summary(self):
        """Per name: call count, total time and self time, in seconds.

        Self time is a span's duration minus the durations of its child
        spans; children never overlap because calls nest on one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans, child):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         self_s + end - start - c)
        return out

    def counts(self):
        """Exact work counts that two passes on the same input must share."""
        s = self.summary()
        return {
            "steps": s.get(STEP, (0,))[0],
            "gmres_solves": s.get(GMRES, (0,))[0],
            "gmres_iters": self.gmres_iters,
            "op_applies": s.get(OP_APPLY, (0,))[0],
            "predictor_full_calls": s.get(PREDICTOR_FULL, (0,))[0],
            "spmv_calls": self.spmv_calls,
        }


def op_bytes(n, nnz):
    """Compulsory bytes of one predictor-operator application, computed.

    Reads the stiffness CSR arrays (indptr, indices, data), beta, m and v
    once each and writes the (N, 3) result plus its flattened copy; cache
    misses, temporaries and the gathers of v are not counted.
    """
    return 8 * ((n + 1) + 2 * nnz + n + 3 * n + 3 * n + 2 * 3 * n)


def layer_metrics(tracer, n, nnz):
    """Per-layer metrics of one traced pass over a mesh with n vertices."""
    s = tracer.summary()
    c = tracer.counts()

    def total(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return s.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    step_ms = [1e3 * (end - start) for name, start, end, _ in tracer.spans
               if name == STEP]
    fixpoint_children = sum(
        1 for name, _, _, parent in tracer.spans
        if name == PREDICTOR_FULL and parent >= 0
        and tracer.spans[parent][0] == FULLY_IMPLICIT)
    apply_s = total(OP_APPLY)
    per_apply = op_bytes(n, nnz)
    return {
        "linalg.spmv.calls": tracer.spmv_calls,
        "linalg.spmv.us_per_call": 1e6 * ratio(tracer.spmv_s,
                                               tracer.spmv_calls),
        "linalg.gmres.solves": c["gmres_solves"],
        "linalg.gmres.iters": c["gmres_iters"],
        "linalg.gmres.iters_per_solve": ratio(c["gmres_iters"],
                                              c["gmres_solves"]),
        "linalg.gmres.applies": c["op_applies"],
        "linalg.gmres.useful_ratio": ratio(c["gmres_iters"],
                                           c["op_applies"]),
        "linalg.gmres.self_s": self_time(GMRES),
        "linalg.gmres.failures": tracer.gmres_failures,
        "linalg.op.apply_us": 1e6 * ratio(apply_s, c["op_applies"]),
        "linalg.op.bytes_computed": per_apply,
        "linalg.op.gbps_computed": ratio(per_apply * c["op_applies"],
                                         apply_s) / 1e9,
        "llg.step.calls": c["steps"],
        "llg.step.ms_p50": float(np.percentile(step_ms, 50)) if step_ms else 0.0,
        "llg.step.ms_p99": float(np.percentile(step_ms, 99)) if step_ms else 0.0,
        "llg.applies_per_step": ratio(c["op_applies"], c["steps"]),
        "llg.predictor_full.calls": c["predictor_full_calls"],
        "llg.fixpoint.iters_per_call": ratio(
            fixpoint_children, s.get(FULLY_IMPLICIT, (0,))[0]),
        "llg.predictor.self_s": (self_time(FULLY_IMPLICIT)
                                 + self_time(PREDICTOR_FULL)),
        "llg.corrector_s": total(CORRECTOR_PC2) + total(CORRECTOR_PROJECT),
        "harness.diag_s": self_time(RUN_SIMULATION),
        "harness.study_self_s": self_time(STUDY),
    }
