"""Sparse CSR storage and the GMRES solver used by the schemes.

GMRES takes an operator callback rather than a matrix: the predictor
systems change every time step, and callers apply them term-by-term
without ever materializing a matrix.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidParameterError, NoConvergenceError, check_real,
                     real_array)

RESTART = 10  # Arnoldi steps per GMRES cycle
ROW_BLOCK = 4096  # a (3, 15, 4096) float64 gather is 1.4 MiB, in L2


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Compressed-row scalar matrix.

    Column indices are strictly increasing within each row and lie in
    [0, n_cols); row offsets are monotone; both are enforced at
    construction, as are integer index arrays and real data.  Construction
    also builds the padded-row plan `spmv` runs on: slot-major
    (n_blocks, W, B) column and value arrays that cut R = max(n_rows, 2)
    rows into n_blocks = ceil(R / ROW_BLOCK) blocks of B = ceil(R / n_blocks)
    >= 2 rows, the last one padded with empty rows.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_rows: int
    n_cols: int
    _ell: tuple = field(init=False, repr=False)
    _overflow: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("indptr", "indices"):  # a cast would truncate
            if not np.issubdtype(getattr(self, name).dtype, np.integer):
                raise InvalidParameterError(f"{name} must be integers")
        object.__setattr__(self, "data", real_array(
            self.data, "data", self.indices.shape))
        if self.indptr.shape[0] != self.n_rows + 1:
            raise InvalidParameterError("indptr length must be n_rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.shape[0]:
            raise InvalidParameterError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise InvalidParameterError("row offsets must be monotone")
        rows = self.rows
        cols = self.indices
        bad = (cols < 0) | (cols >= self.n_cols)
        bad[1:] |= (rows[1:] == rows[:-1]) & (np.diff(cols) <= 0)
        if np.any(bad):
            raise InvalidParameterError(
                f"bad column indices in row {rows[np.argmax(bad)]}")
        lengths = np.diff(self.indptr)
        n_blocks = -(-max(self.n_rows, 2) // ROW_BLOCK)
        size = -(-max(self.n_rows, 2) // n_blocks)  # rows per block, >= 2
        width = min(int(lengths.max(initial=0)),
                    2 * self.nnz // (n_blocks * size))
        # flat index of (block, slot, row in block); overflow entries land
        # in a spare slot row, cut off below
        slot = np.minimum(np.arange(self.nnz) - self.indptr[rows], width)
        flat = (rows // size * width + slot) * size + rows
        ell_cols = np.full((n_blocks, width + 1, size), self.n_cols)
        ell_vals = np.zeros(ell_cols.shape)
        ell_cols.reshape(-1)[flat] = cols
        ell_vals.reshape(-1)[flat] = self.data
        over = np.flatnonzero(slot == width)
        long = np.flatnonzero(lengths > width)
        bins = np.concatenate([np.arange(long.size),
                               np.searchsorted(long, rows[over])])
        object.__setattr__(self, "_ell", (ell_cols[:, :width],
                                          ell_vals[:, :width]))
        object.__setattr__(self, "_overflow",
                           (long, bins, cols[over], self.data[over]))

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry; computed, not stored, as no
        product reads it."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])


def coo_pattern(key, shape):
    """CSR pattern of COO keys row * n_cols + col: (indptr, indices, entry).

    Key p belongs to stored entry entry[p]; callers sum per entry with
    np.add.at, from 0.0 in key order, or place the values of unique keys.
    One stable sort of the int64 keys orders the pattern; the caller
    checks the indices, as an out-of-range column would alias a
    neighbouring row.
    """
    n_rows, n_cols = shape
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
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(unique // n_cols, minlength=n_rows), out=indptr[1:])
    return indptr, unique % n_cols, entry


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
    - Padding has value 0.0 and reads column n_cols of a copy of x whose
      extra column is 0.0: a padded term is exactly +0.0, which leaves a
      sum unchanged even where x holds inf or NaN (0 * inf would be NaN).
      An entry the matrix does not store adds nothing either: the result
      is A x for the stored matrix, where a stored 0.0 would turn an inf
      of x into NaN.
    - Every block holds B >= 2 rows: with one, the slot axis would
      become einsum's fast axis, which it sums out of order.  With more,
      einsum adds each slot's products to its row sums in slot order, by
      an unfused multiply and add where numpy's SIMD baseline has no FMA
      (X86_V2); the tests against a stored-order loop guard both.
    - W is at most 2 nnz / (n_blocks B), so one long row cannot make the
      plan quadratic in memory.  A longer row continues in one bincount per
      component, whose weights are the row's slot sum s followed by its
      remaining products: 0.0 + s = s, as s is never -0.0.
    """
    x = real_array(x, "x")
    if x.shape not in ((a.n_cols,), (a.n_cols, 3)):
        raise InvalidParameterError(
            f"x must have shape ({a.n_cols},) or ({a.n_cols}, 3) for a "
            f"{a.n_rows}x{a.n_cols} matrix, got {x.shape}")
    xs = np.zeros((1 if x.ndim == 1 else 3, a.n_cols + 1))
    xs[:, :-1] = x.T
    ell_cols, ell_vals = a._ell
    n_blocks, _, size = ell_cols.shape
    y = np.empty((xs.shape[0], n_blocks * size))
    for b in range(n_blocks):
        np.einsum("cwr,wr->cr", xs.take(ell_cols[b], axis=1), ell_vals[b],
                  out=y[:, b * size:(b + 1) * size])
    long, bins, cols, vals = a._overflow
    if long.size:
        q = xs.take(cols, axis=1) * vals
        for yc, qc in zip(y, q):
            yc[long] = np.bincount(bins, weights=np.concatenate([yc[long], qc]))
    if x.ndim == 1:
        return y[0, :a.n_rows]
    return np.asarray(y[:, :a.n_rows].T, order="F" if np.isfortran(x) else "C")


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
