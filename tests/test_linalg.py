import numpy as np
import pytest

from llgpc.errors import InvalidParameterError, NoConvergenceError
from llgpc.linalg import CsrMatrix, gmres, spmv


def dense_to_csr(a):
    rows, cols = np.nonzero(a)
    return CsrMatrix.from_coo(rows, cols, a[rows, cols], shape=a.shape)


class TestCsrMatrix:
    def test_from_coo_sums_duplicates(self):
        m = CsrMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0],
                               shape=(2, 2))
        assert m.nnz == 2
        assert m.toarray() == pytest.approx(np.array([[0.0, 5.0], [4.0, 0.0]]))

    def test_invalid_indptr(self):
        with pytest.raises(InvalidParameterError):
            CsrMatrix(indptr=np.array([0, 1]), indices=np.array([0]),
                      data=np.array([1.0]), n_rows=2, n_cols=2)

    @pytest.mark.parametrize("indices", [
        [1, 0, 0, 2], [0, 0, 0, 2], [0, 1, -1, 2], [0, 1, 0, 3],
    ], ids=["unsorted", "duplicate", "negative", "out_of_range"])
    def test_bad_column_indices(self, indices):
        with pytest.raises(InvalidParameterError):
            CsrMatrix(indptr=np.array([0, 2, 2, 4]),
                      indices=np.array(indices), data=np.ones(4),
                      n_rows=3, n_cols=3)

    def test_empty_row_accepted(self):
        m = CsrMatrix(indptr=np.array([0, 2, 2, 4]),
                      indices=np.array([0, 2, 0, 1]),
                      data=np.array([1.0, 2.0, 3.0, 4.0]), n_rows=3, n_cols=3)
        assert np.array_equal(m.toarray(), [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0],
                                            [3.0, 4.0, 0.0]])


class TestSpmv:
    def test_identity(self):
        a = dense_to_csr(np.eye(4))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert spmv(a, x) == pytest.approx(x)

    def test_zero_matrix(self):
        z = CsrMatrix.from_coo([], [], [], shape=(3, 3))
        assert spmv(z, np.ones(3)) == pytest.approx(np.zeros(3))

    def test_hand_3x3(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0], [5.0, 0.0, 6.0]])
        x = np.array([1.0, 1.0, 2.0])
        # hand product: (1+2, 3+8, 5+12)
        assert spmv(dense_to_csr(a), x) == pytest.approx([3.0, 11.0, 17.0])

    def test_field_variant_matches_columns(self):
        rng = np.random.Generator(np.random.Philox(0))
        a = rng.normal(size=(5, 5))
        m = dense_to_csr(a)
        x = rng.normal(size=(5, 3))
        out = spmv(m, x)
        for c in range(3):
            assert out[:, c] == pytest.approx(spmv(m, x[:, c]))

    def test_deterministic(self):
        rng = np.random.Generator(np.random.Philox(1))
        a = dense_to_csr(rng.normal(size=(10, 10)))
        x = rng.normal(size=10)
        assert np.array_equal(spmv(a, x), spmv(a, x))

    def test_dimension_mismatch(self):
        a = dense_to_csr(np.eye(3))
        with pytest.raises(InvalidParameterError):
            spmv(a, np.ones(4))


class TestGmres:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0, 3.0])
        res = gmres(lambda x: x, b)
        assert res.x == pytest.approx(b)
        assert res.iterations <= 1

    def test_identity_from_zero_guess_applies_at_most_twice(self):
        # one Arnoldi step plus the final residual; the initial residual of
        # x0 = 0 is b itself and needs no application
        calls = []

        def identity(x):
            calls.append(1)
            return x

        res = gmres(identity, np.array([1.0, 2.0, 3.0]))
        assert res.iterations == 1
        assert len(calls) <= 2

    def test_zero_rhs(self):
        res = gmres(lambda x: 2 * x, np.zeros(4))
        assert np.array_equal(res.x, np.zeros(4))
        assert res.residual == 0.0

    def test_random_system_vs_dense(self):
        rng = np.random.Generator(np.random.Philox(2))
        a = np.eye(12) + 0.3 * rng.normal(size=(12, 12))
        b = rng.normal(size=12)
        res = gmres(lambda x: a @ x, b, rtol=1e-12)
        assert res.x == pytest.approx(np.linalg.solve(a, b), abs=1e-9)
        assert np.linalg.norm(b - a @ res.x) <= 1e-12 * np.linalg.norm(b)

    def test_restart_path(self):
        rng = np.random.Generator(np.random.Philox(3))
        a = np.eye(20) + 0.15 * rng.normal(size=(20, 20))
        b = rng.normal(size=20)
        res = gmres(lambda x: a @ x, b, rtol=1e-10, restart=5)
        assert np.linalg.norm(b - a @ res.x) <= 1e-10 * np.linalg.norm(b)

    def test_maxit_exhausted_carries_best_iterate(self):
        rng = np.random.Generator(np.random.Philox(4))
        a = np.eye(30) + 0.9 * rng.normal(size=(30, 30))
        b = rng.normal(size=30)
        with pytest.raises(NoConvergenceError) as exc:
            gmres(lambda x: a @ x, b, rtol=1e-14, maxit=2)
        err = exc.value
        assert err.best_x is not None
        assert np.isfinite(err.residual)
        assert err.iterations == 2

    def test_invalid_rtol(self):
        with pytest.raises(InvalidParameterError):
            gmres(lambda x: x, np.ones(2), rtol=0.0)
