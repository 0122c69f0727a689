"""Sparse CSR storage and the GMRES solver used by the schemes.

GMRES takes an operator callback rather than a matrix: the predictor
systems change every time step, and callers apply them term-by-term
without ever materializing a matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NoConvergenceError


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed-row scalar matrix.

    Column indices are strictly increasing within each row and lie in
    [0, n_cols); row offsets are monotone; both are enforced at
    construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_rows: int
    n_cols: int

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

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build from triplets; duplicate entries are summed."""
        n_rows, n_cols = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            # collapse duplicates deterministically (sorted order)
            new_entry = np.empty(rows.size, dtype=bool)
            new_entry[0] = True
            new_entry[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(new_entry) - 1
            rows_u = rows[new_entry]
            cols_u = cols[new_entry]
            vals_u = np.bincount(group, weights=vals)
        else:
            rows_u = rows
            cols_u = cols
            vals_u = vals
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows_u + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr=indptr, indices=cols_u, data=vals_u,
                   n_rows=n_rows, n_cols=n_cols)

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry; computed, not stored, so a
        matrix holds no more memory than its three CSR arrays."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.indices] = self.data
        return out


def spmv(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x for a vector or an (n, 3) field, summing each row in stored
    order, so repeated calls with identical inputs are bitwise identical."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != a.n_cols:
        raise InvalidParameterError(
            f"dimension mismatch: matrix is {a.n_rows}x{a.n_cols}, "
            f"vector has length {x.shape[0]}"
        )
    rows = a.rows
    if x.ndim == 1:
        return np.bincount(rows, weights=a.data * x[a.indices],
                           minlength=a.n_rows)
    if x.ndim == 2 and x.shape[1] == 3:
        return np.column_stack([
            np.bincount(rows, weights=a.data * x[a.indices, c],
                        minlength=a.n_rows)
            for c in range(3)])
    raise InvalidParameterError("x must be a vector or an (n, 3) field")


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
    NoConvergenceError carrying the best iterate if maxit is exhausted.
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
        if total_iters >= maxit:
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
            if abs(g[j + 1]) <= tol or h_sub == 0.0:
                break
        y = np.linalg.solve(np.triu(H[:k_done, :k_done]), g[:k_done])
        x = x + V[:k_done].T @ y
        r = b - apply(x)
        beta = _norm(r)
        if beta < best_res:
            best_res = beta
            best_x = x.copy()
