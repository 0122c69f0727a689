"""Sparse CSR storage and the GMRES solver used by the schemes.

GMRES takes an operator callback rather than a matrix: the predictor
systems change every time step, and callers apply them term-by-term
without ever materializing a matrix.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NoConvergenceError


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed-row scalar matrix.

    Column indices are strictly increasing within each row and lie in
    [0, n_cols); row offsets are monotone; both are enforced at
    construction, which also builds the padded-row plan `spmv` runs on.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_rows: int
    n_cols: int
    _ell: tuple = field(init=False, repr=False, compare=False)
    _overflow: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.indptr.shape[0] != self.n_rows + 1:
            raise InvalidParameterError("indptr length must be n_rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.shape[0]:
            raise InvalidParameterError("indptr must start at 0 and end at nnz")
        if self.indices.shape != self.data.shape:
            raise InvalidParameterError("indices and data must have nnz entries")
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
        n_slots = max(self.n_rows, 2)
        width = min(int(lengths.max(initial=0)), 2 * self.nnz // n_slots)
        # overflow entries land in a spare slot row, cut off below
        slot = np.minimum(np.arange(self.nnz) - self.indptr[rows], width)
        ell_cols = np.full((width + 1, n_slots), self.n_cols)
        ell_vals = np.zeros((width + 1, n_slots))
        ell_cols[slot, rows] = cols
        ell_vals[slot, rows] = self.data
        over = np.flatnonzero(slot == width)
        long = np.flatnonzero(lengths > width)
        bins = np.concatenate([np.arange(long.size),
                               np.searchsorted(long, rows[over])])
        object.__setattr__(self, "_ell", (ell_cols[:width], ell_vals[:width]))
        object.__setattr__(self, "_overflow",
                           (long, bins, cols[over], self.data[over]))

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build from triplets; each stored entry sums its triplets from 0.0
        in triplet order."""
        rows = np.asarray(rows, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if vals.shape != rows.shape:
            raise InvalidParameterError("rows and vals differ in length")
        indptr, indices, entry = coo_pattern(rows, cols, shape)
        data = np.bincount(entry, weights=vals, minlength=indices.shape[0])
        return cls(indptr=indptr, indices=indices, data=data,
                   n_rows=shape[0], n_cols=shape[1])

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry; computed, not stored, as no
        product reads it."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.indices] = self.data
        return out


def coo_pattern(rows, cols, shape):
    """CSR pattern of COO triplets: (indptr, indices, entry).

    Triplet p adds to stored entry entry[p]; `np.bincount(entry, weights=
    vals, minlength=nnz)` then sums each entry's triplets from 0.0 in
    triplet order.  Indices are checked before they are keyed, as
    row * n_cols + col would alias an out-of-range column with a
    neighbouring row.  One stable sort of the keys orders the pattern.
    """
    n_rows, n_cols = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.ndim != 1 or cols.shape != rows.shape:
        raise InvalidParameterError("rows and cols must be equal-length 1-d")
    for what, idx, bound in (("row", rows, n_rows), ("column", cols, n_cols)):
        if idx.size and (idx.min() < 0 or idx.max() >= bound):
            raise InvalidParameterError(f"{what} index outside [0, {bound})")
    key = rows * n_cols
    key += cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_entry = np.empty(key.size, dtype=bool)
    new_entry[:1] = True
    np.not_equal(key[1:], key[:-1], out=new_entry[1:])
    first = order[new_entry]
    np.cumsum(new_entry, out=key)  # the sorted keys are no longer read
    key -= 1
    entry = np.empty_like(key)
    entry[order] = key
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=n_rows), out=indptr[1:])
    return indptr, cols[first], entry


def spmv(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x for a vector or an (n, 3) field, summing each row in stored
    order from 0.0, so the result is bitwise that of a per-row loop.

    The product runs on a hybrid ELL plan (Bell & Garland, SC 2009) built
    with the matrix: slot j of row r in the slot-major (W, R) arrays holds
    the row's j-th stored entry, so one gather, one multiply and one sum
    over the slot axis add every row in stored order.
    - Padding has value 0.0 and reads column n_cols of a copy of x whose
      extra column is 0.0: a padded term is exactly +0.0, which leaves a
      sum unchanged even where x holds inf or NaN (0 * inf would be NaN).
    - R = max(n_rows, 2): with one row the slot axis would become numpy's
      fast axis, which it sums pairwise, not in order.
    - W is at most 2 nnz / R, so one long row cannot make the block
      quadratic in memory.  A longer row continues in one bincount per
      component, whose weights are the row's slot sum s followed by its
      remaining products: 0.0 + s = s, as s is never -0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x.ndim == 1 or (x.ndim == 2 and x.shape[1] == 3)):
        raise InvalidParameterError("x must be a vector or an (n, 3) field")
    if x.shape[0] != a.n_cols:
        raise InvalidParameterError(
            f"dimension mismatch: matrix is {a.n_rows}x{a.n_cols}, "
            f"vector has length {x.shape[0]}"
        )
    ell_cols, ell_vals = a._ell
    xs = np.zeros((1 if x.ndim == 1 else 3, a.n_cols + 1))
    xs[:, :-1] = x.T
    p = xs.take(ell_cols, axis=1)
    p *= ell_vals
    y = np.add.reduce(p, axis=1, initial=0.0)
    long, bins, cols, vals = a._overflow
    if long.size:
        q = xs.take(cols, axis=1) * vals
        for yc, qc in zip(y, q):
            yc[long] = np.bincount(bins, weights=np.concatenate([yc[long], qc]))
    if x.ndim == 1:
        return y[0, :a.n_rows]
    return np.ascontiguousarray(y[:, :a.n_rows].T)


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float


def _norm(x):
    return float(np.linalg.norm(x))


def gmres(apply, b, x0=None, rtol=1e-12, restart=30, maxit=None):
    """Restarted GMRES for a square operator given as a callback.

    Returns a SolveResult with ||b - A x|| <= rtol * ||b||.  Raises
    NoConvergenceError carrying the best iterate if maxit is exhausted, and
    at once if ||b|| or a residual is not finite.
    """
    if rtol <= 0:
        raise InvalidParameterError("rtol must be positive")
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if maxit is None:
        maxit = max(10 * n, 100)
    bnorm = _norm(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if bnorm == 0.0:
        return SolveResult(x=np.zeros(n), iterations=0, residual=0.0)
    # an inf tol would accept any residual, an overflowed one included
    if not math.isfinite(bnorm):
        raise NoConvergenceError("GMRES right-hand side norm is not finite",
                                 best_x=x, residual=bnorm)
    tol = rtol * bnorm

    # with x0 = None the initial residual is b itself; after that, each
    # restart reuses the residual computed at the end of the previous cycle
    r = b if x0 is None else b - apply(x)
    beta = best_res = _norm(r)
    best_x = x.copy()
    total_iters = 0
    while True:
        if beta <= tol:
            return SolveResult(x=x, iterations=total_iters, residual=beta)
        # a NaN or inf residual never meets tol: fail now, not after maxit
        if total_iters >= maxit or not math.isfinite(beta):
            raise NoConvergenceError("GMRES did not converge", best_x=best_x,
                                     residual=best_res, iterations=total_iters)
        m = min(restart, maxit - total_iters)
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta
        k_done = 0
        for j in range(m):
            # copy: apply may return (a view of) its input, e.g. identity
            w = np.array(apply(V[j]), dtype=np.float64)
            for i in range(j + 1):
                H[i, j] = np.dot(w, V[i])
                w -= H[i, j] * V[i]
            h_sub = _norm(w)
            H[j + 1, j] = h_sub
            if h_sub > 0.0:
                V[j + 1] = w / h_sub
            # apply accumulated Givens rotations to the new column
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = H[j, j] / denom
                sn[j] = H[j + 1, j] / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            k_done = j + 1
            total_iters += 1
            if not math.isfinite(g[j + 1]):
                raise NoConvergenceError("GMRES residual is not finite",
                                         best_x=best_x, residual=best_res,
                                         iterations=total_iters)
            if abs(g[j + 1]) <= tol or h_sub == 0.0:
                break
        y = np.linalg.solve(np.triu(H[:k_done, :k_done]), g[:k_done])
        x = x + V[:k_done].T @ y
        r = b - apply(x)
        beta = _norm(r)
        if beta < best_res:
            best_res = beta
            best_x = x.copy()
