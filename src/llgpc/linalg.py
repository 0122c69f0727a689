"""Sparse CSR storage and the GMRES solver used by the schemes.

GMRES takes an operator callback rather than a matrix: the predictor
systems change every time step, and callers apply them term-by-term
without ever materializing a matrix.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (InvalidParameterError, NoConvergenceError, check_real,
                     real_array)

RESTART = 10  # Arnoldi steps per GMRES cycle
ROW_BLOCK = 4096  # a (3, 15, 4096) float64 gather is 1.4 MiB, in L2


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Compressed-row n x n matrix, n = len(indptr) - 1, stored as `indptr`
    and the padded-row plan `spmv` runs on, which `entries()` reads back.

    Construction checks that index arrays are 1-d integer ndarrays that
    fit int64, data is real, columns increase strictly within each row in
    [0, n) and row offsets are monotone from 0 to nnz.  The plan is
    slot-major (n_blocks, W, B) column and value arrays that cut
    R = max(n, 2) rows into n_blocks = ceil(R / ROW_BLOCK) blocks of
    B = ceil(R / n_blocks) >= 2 rows, the last padded with empty rows,
    plus, as COO, the entries of rows longer than W past their W slots.
    """

    indptr: np.ndarray
    indices: InitVar[np.ndarray]
    data: InitVar[np.ndarray]
    n: int = field(init=False)
    _ell: tuple = field(init=False, repr=False)
    _overflow: tuple = field(init=False, repr=False)

    def __post_init__(self, indices, data):
        for name, a in (("indptr", self.indptr), ("indices", indices)):
            # a cast truncates; uint64 does not fit the int64 index sums
            if (not isinstance(a, np.ndarray) or a.ndim != 1
                    or a.dtype.kind not in "iu"
                    or not np.can_cast(a.dtype, np.int64)):
                raise InvalidParameterError(
                    f"{name} must be integers in int64, in a 1-d ndarray")
        data = real_array(data, "data", indices.shape)
        n = self.indptr.shape[0] - 1  # -1 for an empty indptr: no start
        if n < 0 or self.indptr[0] != 0 or self.indptr[-1] != data.shape[0]:
            raise InvalidParameterError("indptr must start at 0 and end at nnz")
        if np.any(self.indptr[1:] < self.indptr[:-1]):
            raise InvalidParameterError("row offsets must be monotone")
        bad = np.zeros(self.nnz + 1, dtype=bool)  # bad[p]: column p <= p - 1
        np.less_equal(indices[1:], indices[:-1], out=bad[1:-1])
        bad[self.indptr] = False  # a row's first entry follows none of it
        bad = bad[:-1] | (indices < 0) | (indices >= n)
        if np.any(bad):
            row = np.searchsorted(self.indptr, np.argmax(bad), "right") - 1
            raise InvalidParameterError(f"bad column indices in row {row}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indptr", self.indptr.astype(np.int64))
        self.indptr.flags.writeable = False  # the plan was built from it
        lengths = np.diff(self.indptr)
        n_blocks = -(-max(n, 2) // ROW_BLOCK)
        size = -(-max(n, 2) // n_blocks)  # rows per block, >= 2
        width = min(int(lengths.max(initial=0)),
                    2 * self.nnz // (n_blocks * size))
        ell_cols = np.full((n_blocks, width, size), n)
        object.__setattr__(self, "_ell", (ell_cols, np.zeros(ell_cols.shape)))
        in_plan = np.zeros(self.nnz, dtype=bool)
        for at, pos, stored in self._slots(lengths):
            for p, a in zip(self._ell, (indices, data)):
                np.copyto(p[at], a.take(pos, mode="clip"), where=stored)
            in_plan[pos[stored]] = True
        long = np.flatnonzero(lengths > width)
        object.__setattr__(self, "_overflow", (np.repeat(
            long, lengths[long] - width), indices[~in_plan], data[~in_plan]))

    def _slots(self, lengths):
        """Slot j of row r holds stored entry indptr[r] + j if j < lengths[r].
        Yields, block by block and slot by slot, the slot's view index, the
        positions indptr[r] + j (masked ones may pass nnz) and that mask."""
        n_blocks, width, size = self._ell[0].shape
        for b, j in np.ndindex(n_blocks, width):
            rows = slice(b * size, (b + 1) * size)
            held = lengths[rows]
            yield np.s_[b, j, :held.size], self.indptr[:-1][rows] + j, held > j

    def entries(self) -> tuple:
        """(rows, cols, vals) of the stored entries in stored order, read
        from the plan: slot j of row r, then the row's overflow entries."""
        lengths = np.diff(self.indptr)
        cols, vals = np.full(self.nnz, -1), np.empty(self.nnz)
        for at, pos, stored in self._slots(lengths):
            pos = pos[stored]
            cols[pos], vals[pos] = (p[at][stored] for p in self._ell)
        over = cols < 0  # the entries no slot wrote
        cols[over], vals[over] = self._overflow[1:]
        return np.repeat(np.arange(self.n), lengths), cols, vals

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def coo_pattern(key, n):
    """n x n CSR pattern of COO keys row * n + col: (indptr, indices, entry).

    Key p belongs to stored entry entry[p]; callers sum per entry with
    np.add.at, from 0.0 in key order, or place the values of unique keys.
    One stable sort of the int64 keys orders the pattern; the caller
    checks the indices, as an out-of-range column would alias a
    neighbouring row.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_entry = np.empty(key.size, dtype=bool)
    new_entry[:1] = True
    np.not_equal(key[1:], key[:-1], out=new_entry[1:])
    unique = key[new_entry]
    np.cumsum(new_entry, out=key)  # the sorted keys are no longer read
    key -= 1
    entry = np.empty_like(key)
    entry[order] = key
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
    return indptr, unique % n, entry


def spmv(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x for a vector or an (n, 3) field, summing each row in stored
    order from 0.0, so the result is bitwise that of a per-row loop.  A
    Fortran-ordered field gives a Fortran-ordered result, any other field a
    C-ordered one.

    The product runs on a hybrid ELL plan (Bell & Garland, SC 2009) built
    with the matrix: slot j of row r in its block's slot-major (W, B)
    arrays holds the row's j-th stored entry.  Block by block, one gather
    of x and one einsum pass multiply and add over the slot axis, so the
    (3, W, B) gather stays in cache while it is read.
    - Padding has value 0.0 and reads column n of a copy of x whose
      extra column is 0.0: a padded term is exactly +0.0, which leaves a
      sum unchanged even where x holds inf or NaN (0 * inf would be NaN).
      An entry the matrix does not store adds nothing either: the result
      is A x for the stored matrix, where a stored 0.0 would turn an inf
      of x into NaN.
    - Every block holds B >= 2 rows: with one, the slot axis would
      become einsum's fast axis, which it sums out of order (a one-row
      square matrix holds at most one entry).  With more, einsum adds
      each slot's products to its row sums in slot order, by an unfused
      multiply and add where numpy's SIMD baseline has no FMA (X86_V2);
      the tests against a stored-order loop guard both.
    - W is at most 2 nnz / (n_blocks B), so one long row cannot make the
      plan quadratic in memory.  A longer row's entries past slot W are
      COO, and np.add.at adds their products to its sum in stored order.
    """
    n = a.n
    x = real_array(x, "x")
    if x.shape not in ((n,), (n, 3)):
        raise InvalidParameterError(
            f"x must have shape ({n},) or ({n}, 3), got {x.shape}")
    xs = np.zeros((1 if x.ndim == 1 else 3, n + 1))
    xs[:, :-1] = x.T
    ell_cols, ell_vals = a._ell
    n_blocks, _, size = ell_cols.shape
    y = np.empty((xs.shape[0], n_blocks * size))
    for b in range(n_blocks):
        np.einsum("cwr,wr->cr", xs.take(ell_cols[b], axis=1), ell_vals[b],
                  out=y[:, b * size:(b + 1) * size])
    rows, cols, vals = a._overflow
    if rows.size:
        with np.errstate(over="ignore", invalid="ignore"):  # quiet, as einsum
            for y_c, q_c in zip(y, xs.take(cols, axis=1) * vals):
                np.add.at(y_c, rows, q_c)
    if x.ndim == 1:
        return y[0, :n]
    return np.asarray(y[:, :n].T, order="F" if np.isfortran(x) else "C")


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float


def _norm(x):
    """Euclidean norm of a real 1-d array, as np.linalg.norm computes it."""
    return math.sqrt(float(np.dot(x, x)))


def _arnoldi_residual(V, rotations, g_k):
    """b - A x after a cycle of k Arnoldi steps with no breakdown, from the
    Arnoldi relation A V_k = V_{k+1} H: r = V_{k+1} Q^T (g_k e_{k+1}), with
    Q the cycle's k Givens rotations, applied last to first."""
    u = [g_k]  # Q^T (g_k e_{k+1}) from its last entry back
    for c, s in reversed(rotations):
        u[-1:] = c * u[-1], -s * u[-1]
    return np.array(u[::-1]) @ V[:len(u)]


def gmres(apply, b, rtol=1e-12):
    """Restarted GMRES (Saad & Schultz 1986) for a square operator given as
    a callback.

    Each cycle runs at most RESTART Arnoldi steps with modified
    Gram-Schmidt: short cycles keep the per-step orthogonalisation cheap,
    and the predictors' iteration counts hardly depend on the length.  The
    Krylov basis is allocated once per solve and reused by every cycle;
    the small Hessenberg least-squares problem is worked on Python floats,
    its triangle solved by back substitution.
    A cycle that ends short of tol restarts from the residual the Arnoldi
    relation gives, with no operator application; the true residual
    b - A x is applied only where a cycle's estimate meets tol, at a
    breakdown and at the budget, and only it can accept x.  A solve thus
    makes one application per iteration plus one per true residual.
    apply must return a new float64 array, which gmres overwrites and does
    not keep: never its input or a view of it.

    Returns a SolveResult with ||b - A x|| <= rtol * ||b||.  Raises
    NoConvergenceError, carrying the best true residual and the iteration
    count, once max(10 n, 100) iterations are spent, and at once if ||b||
    or a residual is not finite, or the triangle is singular.
    """
    check_real(rtol, "rtol", positive=True)
    b = real_array(b, "b")
    if b.ndim != 1:
        raise InvalidParameterError(f"b must have shape (n,), got {b.shape}")
    n = b.shape[0]
    maxit = max(10 * n, 100)
    bnorm = _norm(b)
    x = np.zeros(n)
    if bnorm == 0.0:
        return SolveResult(x=x, iterations=0, residual=0.0)
    # an inf tol would accept any residual, an overflowed one included
    if not math.isfinite(bnorm):
        raise NoConvergenceError("GMRES right-hand side norm is not finite",
                                 residual=bnorm)
    tol = rtol * bnorm

    r = b  # the true residual of the zero start
    beta = best_res = bnorm
    true_residual = True
    total_iters = 0
    # every row a cycle reads is written first in that cycle
    V = np.empty((RESTART + 1, n))
    while True:
        if true_residual:
            best_res = min(best_res, beta)
            if beta <= tol:
                return SolveResult(x=x, iterations=total_iters, residual=beta)
            # a NaN or inf residual never meets tol: fail now, not after maxit
            if total_iters >= maxit or not math.isfinite(beta):
                raise NoConvergenceError("GMRES did not converge",
                                         residual=best_res,
                                         iterations=total_iters)
        np.divide(r, beta, out=V[0])
        R = []  # R[j]: column j of H, rotated; upper triangular
        rotations = []
        g = [beta]
        for j in range(min(RESTART, maxit - total_iters)):
            w = apply(V[j])
            h = []
            for i in range(j + 1):
                h.append(float(np.dot(w, V[i])))
                w -= h[i] * V[i]
            h_sub = _norm(w)
            if h_sub > 0.0:
                np.divide(w, h_sub, out=V[j + 1])
            for i, (c, s) in enumerate(rotations):
                hi, hn = h[i], h[i + 1]
                h[i], h[i + 1] = c * hi + s * hn, -s * hi + c * hn
            denom = math.hypot(h[j], h_sub)
            c, s = (1.0, 0.0) if denom == 0.0 else (h[j] / denom, h_sub / denom)
            h[j] = c * h[j] + s * h_sub
            R.append(h)
            rotations.append((c, s))
            g.append(-s * g[j])
            g[j] = c * g[j]
            total_iters += 1
            if not math.isfinite(g[j + 1]):
                raise NoConvergenceError("GMRES residual is not finite",
                                         residual=best_res,
                                         iterations=total_iters)
            if abs(g[j + 1]) <= tol or h_sub == 0.0:
                break
        k = len(R)
        y = g[:k]
        for j in range(k - 1, -1, -1):
            if R[j][j] == 0.0:
                raise NoConvergenceError("GMRES broke down on a singular "
                                         "operator", residual=best_res,
                                         iterations=total_iters)
            y[j] /= R[j][j]
            for i in range(j):
                y[i] -= R[j][i] * y[j]
        x = x + V[:k].T @ y
        true_residual = (abs(g[k]) <= tol or h_sub == 0.0
                         or total_iters >= maxit)
        r = (b - apply(x) if true_residual
             else _arnoldi_residual(V, rotations, g[k]))
        beta = _norm(r)
