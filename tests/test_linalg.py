import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from llgpc.errors import InvalidParameterError, NoConvergenceError
from llgpc.linalg import RESTART, ROW_BLOCK, CsrMatrix, gmres, spmv

from conftest import csr_from_coo, dense


def dense_to_csr(a):
    rows, cols = np.nonzero(a)
    return csr_from_coo(rows, cols, a[rows, cols], a.shape)


def stored_order_loop(a, xc):
    """Reference product: each row summed from 0.0 in stored order."""
    y = np.empty(a.n_rows)
    for i in range(a.n_rows):
        acc = 0.0
        for p in range(a.indptr[i], a.indptr[i + 1]):
            acc += a.data[p] * xc[a.indices[p]]
        y[i] = acc
    return y


def named_matrix(name, asm):
    if name == "empty_row":
        return CsrMatrix(indptr=np.array([0, 2, 2, 4]),
                         indices=np.array([0, 2, 0, 1]),
                         data=np.array([0.1, 0.7, -0.3, 1.9]),
                         n_rows=3, n_cols=3)
    if name == "one_row":
        # numpy sums 8 or more terms pairwise along its fast axis
        rng = np.random.Generator(np.random.Philox(7))
        return csr_from_coo(np.zeros(24), np.arange(24), rng.normal(size=24),
                            (1, 24))
    if name == "long_row":
        # a dense first row over 40 columns, far longer than twice the mean
        # row length; the nine other rows hold 1-3 entries each
        rng = np.random.Generator(np.random.Philox(6))
        rows, cols = [0] * 40, list(range(40))
        for r in range(1, 10):
            picked = np.sort(rng.choice(40, size=1 + r % 3, replace=False))
            rows += [r] * picked.size
            cols += picked.tolist()
        return csr_from_coo(rows, cols, rng.normal(size=len(rows)), (10, 40))
    return getattr(asm, name)


@st.composite
def coo_triplets(draw):
    """Random triplets on a small shape, so duplicates and empty rows are
    common; one-row and rectangular shapes included."""
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    k = draw(st.integers(0, 40))
    rows = draw(hnp.arrays(np.int64, k, elements=st.integers(0, n_rows - 1)))
    cols = draw(hnp.arrays(np.int64, k, elements=st.integers(0, n_cols - 1)))
    vals = draw(hnp.arrays(np.float64, k, elements=st.floats(-1e3, 1e3)))
    return rows, cols, vals, (n_rows, n_cols)


class TestCsrMatrix:
    def test_from_coo_sums_duplicates(self):
        m = csr_from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        assert m.nnz == 2
        assert dense(m) == pytest.approx(np.array([[0.0, 5.0], [4.0, 0.0]]))

    def test_invalid_indptr(self):
        with pytest.raises(InvalidParameterError):
            CsrMatrix(indptr=np.array([0, 1]), indices=np.array([0]),
                      data=np.array([1.0]), n_rows=2, n_cols=2)

    @pytest.mark.parametrize("indptr, data, match", [
        ([1, 2, 2, 4], np.ones(4), "indptr must start at 0 and end at nnz"),
        ([0, 2, 2, 3], np.ones(4), "indptr must start at 0 and end at nnz"),
        ([0, 2, 2, 4], np.ones(3), r"data must have shape \(4,\), got \(3,\)"),
        ([0, 3, 2, 4], np.ones(4), "row offsets must be monotone"),
    ], ids=["indptr_start", "indptr_end", "data_length", "indptr_decreases"])
    def test_indptr_and_data_must_fit_indices(self, indptr, data, match):
        with pytest.raises(InvalidParameterError, match=match):
            CsrMatrix(indptr=np.array(indptr), indices=np.array([0, 2, 0, 1]),
                      data=data, n_rows=3, n_cols=3)

    @pytest.mark.parametrize("indices", [
        [1, 0, 0, 2], [0, 0, 0, 2], [0, 1, -1, 2], [0, 1, 0, 3],
    ], ids=["unsorted", "duplicate", "negative", "out_of_range"])
    def test_bad_column_indices(self, indices):
        with pytest.raises(InvalidParameterError):
            CsrMatrix(indptr=np.array([0, 2, 2, 4]),
                      indices=np.array(indices), data=np.ones(4),
                      n_rows=3, n_cols=3)

    @pytest.mark.parametrize("name, value, match", [
        # a cast would truncate column 0.5 to 0
        ("indices", np.array([0.5, 2.0, 0.0, 1.0]), "indices must be int"),
        ("indptr", np.array([0.0, 2.0, 2.0, 4.0]), "indptr must be int"),
        ("data", np.ones(4) + 1e-3j, "data must be real"),
    ], ids=["fractional_indices", "float_indptr", "complex_data"])
    def test_non_integer_index_or_complex_data_rejected(self, name, value,
                                                        match):
        parts = dict(indptr=np.array([0, 2, 2, 4]),
                     indices=np.array([0, 2, 0, 1]), data=np.ones(4))
        parts[name] = value
        with pytest.raises(InvalidParameterError, match=match):
            CsrMatrix(**parts, n_rows=3, n_cols=3)

    @pytest.mark.parametrize("rows, cols, vals", [
        ([0], [0, 1], [1.0]),
        ([0, 2], [0, 1], [1.0, 2.0]),
        # keyed as row * n_cols + col, (1, -1) would alias (0, 1)
        ([0, 1], [1, -1], [1.0, 2.0]),
    ], ids=["lengths_differ", "row_out_of_range", "col_aliases_row"])
    def test_from_coo_rejects_bad_triplets(self, rows, cols, vals):
        with pytest.raises(InvalidParameterError):
            csr_from_coo(rows, cols, vals, (2, 2))

    def test_empty_row_accepted(self):
        m = CsrMatrix(indptr=np.array([0, 2, 2, 4]),
                      indices=np.array([0, 2, 0, 1]),
                      data=np.array([1.0, 2.0, 3.0, 4.0]), n_rows=3, n_cols=3)
        assert np.array_equal(dense(m), [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0],
                                            [3.0, 4.0, 0.0]])


class TestSpmv:
    def test_identity(self):
        a = dense_to_csr(np.eye(4))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert spmv(a, x) == pytest.approx(x)

    def test_zero_matrix(self):
        z = csr_from_coo([], [], [], (3, 3))
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

    def test_sum_starts_from_positive_zero(self):
        # as in the loop, 0.0 + (-0.0) leaves a row of -0.0 products at +0.0
        y = spmv(dense_to_csr(np.eye(3)), np.full((3, 3), -0.0))
        assert not np.any(np.signbit(y))

    def test_scalar_operand_rejected(self):
        with pytest.raises(InvalidParameterError):
            spmv(dense_to_csr(np.eye(3)), 3.0)

    @pytest.mark.parametrize("shape", [(3,), (3, 3)], ids=["vector", "field"])
    def test_complex_operand_rejected(self, shape):
        # a cast to float64 would drop the imaginary part with a warning
        with pytest.raises(InvalidParameterError, match="complex"):
            spmv(dense_to_csr(np.eye(3)), np.ones(shape) + 1j)

    @pytest.mark.parametrize("matrix", ["stiffness", "mass", "empty_row",
                                        "one_row", "long_row"])
    def test_bitwise_equal_to_stored_order_loop(self, cube2_asm, matrix):
        a = named_matrix(matrix, cube2_asm)
        rng = np.random.Generator(np.random.Philox(5))
        x = rng.normal(size=(a.n_cols, 3))
        expected = np.column_stack([stored_order_loop(a, x[:, c])
                                    for c in range(3)])
        assert spmv(a, x).tobytes() == expected.tobytes()
        assert spmv(a, x[:, 1]).tobytes() == expected[:, 1].tobytes()
        # the padded blocks never hold more than twice the stored entries
        assert a._ell[0].size <= 2 * a.nnz

    @pytest.mark.parametrize("n_rows", [ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_row_blocks_bitwise_equal_to_stored_order_loop(self, n_rows):
        # 8-16 entries a row, so that a sum out of stored order shows; row
        # 5 is empty and the last but one, 200 long, overflows the padded
        # slots.  Cut into contiguous blocks of ROW_BLOCK rows, the last
        # block would hold the last row alone, and einsum would sum its
        # slots out of order.
        rng = np.random.Generator(np.random.Philox(9))
        lengths = rng.integers(8, 17, size=n_rows)
        lengths[5], lengths[-2], lengths[-1] = 0, 200, 16
        indices = np.concatenate([np.sort(rng.choice(300, size=n,
                                                     replace=False))
                                  for n in lengths])
        a = CsrMatrix(indptr=np.concatenate(([0], np.cumsum(lengths))),
                      indices=indices,
                      data=rng.normal(size=indices.size)
                      * 10.0 ** rng.uniform(-4, 4, indices.size),
                      n_rows=n_rows, n_cols=300)
        assert a._overflow[0].tolist() == [n_rows - 2]
        x = rng.normal(size=(300, 4))  # the last column for the 1-D path
        expected = np.column_stack([stored_order_loop(a, x[:, c])
                                    for c in range(4)])
        assert spmv(a, x[:, :3]).tobytes() == expected[:, :3].tobytes()
        yf = spmv(a, np.asfortranarray(x[:, :3]))
        assert (yf.flags.f_contiguous
                and yf.tobytes() == expected[:, :3].tobytes())
        assert spmv(a, x[:, 3]).tobytes() == expected[:, 3].tobytes()

    @pytest.mark.parametrize("matrix", ["stiffness", "one_row", "long_row"])
    def test_fortran_field_gives_equal_fortran_result(self, cube2_asm,
                                                      matrix):
        # the component-major predictor passes x.reshape(3, n).T
        a = named_matrix(matrix, cube2_asm)
        rng = np.random.Generator(np.random.Philox(6))
        x = rng.normal(size=(a.n_cols, 3))
        xf = np.asfortranarray(x)
        assert np.array_equal(spmv(a, xf), spmv(a, x))
        assert spmv(a, xf).flags.f_contiguous
        assert spmv(a, x).flags.c_contiguous
        # a strided field that is neither C- nor Fortran-ordered gives C
        xs = np.repeat(x, 2, axis=1)[:, ::2]
        assert np.array_equal(spmv(a, xs), spmv(a, x))
        assert spmv(a, xs).flags.c_contiguous

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("matrix", ["stiffness", "long_row"])
    def test_inf_operand_reaches_only_rows_that_read_it(self, cube2_asm,
                                                        matrix):
        a = named_matrix(matrix, cube2_asm)
        rng = np.random.Generator(np.random.Philox(8))
        for col in range(a.n_cols):
            x = rng.normal(size=a.n_cols)
            x[col] = np.inf
            y = spmv(a, x)
            clean = ~np.isin(np.arange(a.n_rows), a.rows[a.indices == col])
            assert np.all(np.isfinite(y[clean]))
            np.testing.assert_array_equal(y, stored_order_loop(a, x))


class TestCsrProperties:
    @settings(deadline=None)
    @given(coo_triplets())
    def test_from_coo_equals_dense_accumulation(self, triplets):
        rows, cols, vals, shape = triplets
        expected = np.zeros(shape)
        np.add.at(expected, (rows, cols), vals)
        assert np.array_equal(
            dense(csr_from_coo(rows, cols, vals, shape)), expected)

    @settings(deadline=None)
    @given(coo_triplets(), st.data())
    def test_spmv_bitwise_equal_to_stored_order_loop(self, triplets, data):
        rows, cols, vals, shape = triplets
        a = csr_from_coo(rows, cols, vals, shape)
        x = data.draw(hnp.arrays(np.float64, (a.n_cols, 3),
                                 elements=st.floats(-1e3, 1e3)))
        expected = np.column_stack([stored_order_loop(a, x[:, c])
                                    for c in range(3)])
        assert spmv(a, x).tobytes() == expected.tobytes()
        assert spmv(a, x[:, 0]).tobytes() == expected[:, 0].tobytes()


class TestGmres:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0, 3.0])
        res = gmres(lambda x: x.copy(), b)
        assert res.x == pytest.approx(b)
        assert res.iterations <= 1

    def test_identity_from_zero_guess_applies_at_most_twice(self):
        # one Arnoldi step plus the final residual; the initial residual of
        # the zero start is b itself and needs no application
        calls = []

        def identity(x):
            calls.append(1)
            return x.copy()

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
        calls = []

        def apply(x):
            calls.append(1)
            return a @ x

        res = gmres(apply, b, rtol=1e-10)
        assert res.iterations > RESTART
        assert np.linalg.norm(b - a @ res.x) <= 1e-10 * np.linalg.norm(b)
        # a non-final cycle restarts from the Arnoldi residual: one
        # application per iteration, plus the final true residual
        assert len(calls) == res.iterations + 1
        assert res.residual == np.linalg.norm(b - a @ res.x)

    def test_budget_exhausted_on_stagnation(self):
        # the cyclic shift S with b = e1: S K_j(S, b) = span(e2 .. e(j+1))
        # is orthogonal to b for j < 12, so every cycle of RESTART steps
        # leaves the residual at exactly 1 and GMRES(RESTART) stagnates
        a = np.roll(np.eye(12), 1, axis=0)
        b = np.eye(12)[0]
        with pytest.raises(NoConvergenceError) as exc:
            gmres(lambda x: a @ x, b)
        assert exc.value.iterations == 120  # the budget max(10 n, 100)
        assert exc.value.residual == 1.0

    def test_nan_rhs_fails_before_any_application(self):
        calls = []

        def identity(x):
            calls.append(1)
            return x.copy()

        with pytest.raises(NoConvergenceError) as exc:
            gmres(identity, np.array([1.0, np.nan, 3.0]))
        assert calls == []
        assert exc.value.iterations == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_rhs_norm_fails_before_any_application(self):
        # ||b|| overflows although b is finite: tol = inf must not accept x = 0
        calls = []

        def double(x):
            calls.append(1)
            return 2.0 * x

        with pytest.raises(NoConvergenceError) as exc:
            gmres(double, np.array([1e200, 1e200, 3.0]))
        assert calls == []
        assert exc.value.iterations == 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_fails_after_one_application(self, bad):
        calls = []

        def broken(x):
            calls.append(1)
            return np.full_like(x, bad)

        with pytest.raises(NoConvergenceError) as exc:
            gmres(broken, np.ones(50))
        assert len(calls) == 1
        assert exc.value.iterations == 1

    def test_singular_operator_raises_typed_error(self):
        # the zero operator breaks down at once, on a zero triangle
        with pytest.raises(NoConvergenceError) as exc:
            gmres(lambda x: 0.0 * x, np.ones(3))
        assert exc.value.iterations == 1
        assert exc.value.residual == np.linalg.norm(np.ones(3))

    def test_invalid_rtol(self):
        with pytest.raises(InvalidParameterError):
            gmres(lambda x: x.copy(), np.ones(2), rtol=0.0)

    @pytest.mark.parametrize("kw", [dict(rtol=np.nan), dict(rtol=np.inf),
                                    dict(rtol=np.array([1e-8, 1e-8]))],
                             ids=["rtol_nan", "rtol_inf", "rtol_array"])
    def test_bad_arguments_rejected_before_any_application(self, kw):
        calls = []

        def double(x):
            calls.append(1)
            return 2.0 * x

        with pytest.raises(InvalidParameterError):
            gmres(double, np.ones(4), **kw)
        assert calls == []
