"""Symmetric-matrix primitives: PD test, likelihood, indexing, serialization."""

import json

import numpy as np
import pytest

from logvor import (
    IndexOutOfRange,
    NotPD,
    ShapeMismatch,
    check_symmetric,
    embed,
    is_positive_definite,
    log_likelihood,
    pd_mask,
    principal_submatrix,
    score_matrix,
    sym_from_json,
    sym_to_json,
)
from logvor.core import _is_pd

from conftest import random_pd


class TestCheckSymmetric:
    def test_symmetrises_small_asymmetry(self):
        A = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        out = check_symmetric(A)
        np.testing.assert_allclose(out, out.T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ShapeMismatch):
            check_symmetric(np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            check_symmetric(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch, match="positive dimension"):
            check_symmetric(np.zeros((0, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ShapeMismatch):
            check_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(5))

    def test_negative_definite(self):
        assert not is_positive_definite(-np.eye(3))

    def test_matches_eigenvalue_oracle(self):
        """Pivot elimination must agree with an eigenvalue check away from
        the tolerance boundary."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            A = rng.uniform(-1.0, 1.0, size=(m, m))
            A = (A + A.T) / 2.0
            if rng.uniform() < 0.5:
                A = A + m * np.eye(m)     # usually PD
            lam = np.linalg.eigvalsh(A)[0]
            if abs(lam) < 1e-9:
                continue
            assert is_positive_definite(A) == (lam > 0), A

    def test_pivot_tolerance_is_relative(self):
        # threshold is 1e-12 times the largest diagonal entry
        assert is_positive_definite(np.diag([1.0, 1e-11]))
        assert not is_positive_definite(np.diag([1.0, 1e-13]))
        assert not is_positive_definite(np.diag([1e6, 1e-7]))

    def test_semidefinite_is_rejected(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert not is_positive_definite(A)


class TestPdMask:
    def test_agrees_with_single_matrix_test(self):
        """Every row of the batched test equals is_positive_definite on
        PD, indefinite, singular PSD and near-boundary matrices."""
        rng = np.random.default_rng(12)
        for m in range(1, 8):
            mats = []
            for _ in range(50):
                A = rng.standard_normal((m, m))
                A = A @ A.T + 0.1 * np.eye(m)
                B = rng.uniform(-1.0, 1.0, size=(m, m))
                C = rng.standard_normal((m, int(rng.integers(0, m))))
                lam, V = np.linalg.eigh(A)
                lam[0] = rng.choice([-1.0, 1.0]) * lam[-1] \
                    * 10.0 ** rng.uniform(-14.0, -10.0)
                N = (V * lam) @ V.T
                mats += [A, (B + B.T) / 2.0, C @ C.T, (N + N.T) / 2.0]
            M = np.array(mats)
            before = M.copy()
            assert pd_mask(M).tolist() == [is_positive_definite(X) for X in M]
            np.testing.assert_array_equal(M, before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [2.0 ** 1000, 2.0 ** -1000, 1e160,
                                       1e-160, 1e300, 1e-300, 2.0 ** -537])
    def test_agrees_at_extreme_scales(self, scale):
        """The two tests agree, without a numpy warning, on the stacks of
        test_agrees_with_single_matrix_test scaled far from 1; at a power
        of two the scale is exact and every verdict is the unscaled one
        (near 2^-537 the products of entries would underflow)."""
        rng = np.random.default_rng(13)
        for m in range(1, 8):
            mats = []
            for _ in range(20):
                A = rng.standard_normal((m, m))
                A = A @ A.T + 0.1 * np.eye(m)
                B = rng.uniform(-1.0, 1.0, size=(m, m))
                lam, V = np.linalg.eigh(A)
                lam[0] = rng.choice([-1.0, 1.0]) * lam[-1] \
                    * 10.0 ** rng.uniform(-14.0, -10.0)
                N = (V * lam) @ V.T
                mats += [A, (B + B.T) / 2.0, (N + N.T) / 2.0]
            M = np.array(mats)
            verdicts = pd_mask(scale * M).tolist()
            assert verdicts == [_is_pd(X) for X in scale * M]
            assert verdicts == [is_positive_definite(X) for X in scale * M]
            if scale in (2.0 ** 1000, 2.0 ** -1000, 2.0 ** -537):
                assert verdicts == pd_mask(M).tolist()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_pd_matrix_is_pd(self):
        A = np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.5], [0.3, 0.5, 2.0]])
        for scale in (1e160, 1e300, 2.0 ** 1000):
            assert is_positive_definite(scale * A)
            assert not is_positive_definite(scale * (A + 2.0 * np.fliplr(
                np.eye(3))))
            assert pd_mask(np.stack([scale * A, -scale * A])).tolist() \
                == [True, False]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entry_above_the_diagonal_is_not_pd(self):
        """No PD matrix has an entry larger in magnitude than its largest
        diagonal entry; such a matrix is rejected before an elimination
        that would overflow."""
        A = np.array([[1.0, 1e200], [1e200, 1.0]])
        assert not is_positive_definite(A)
        assert not _is_pd(A)
        assert pd_mask(np.stack([A, -A, np.eye(2)])).tolist() \
            == [False, False, True]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600])
    def test_fails_at_each_pivot_position(self, scale):
        """Rows ``L D L^T`` with L unit lower triangular with entries in
        {0, +-1/2, +-1} and D powers of two are eliminated exactly, so
        pivot k is D_k: a zero, negative or too small D_k (2^-45, below
        1e-12 times the largest diagonal entry unless m = 1) fails there,
        and the later pivots of that row divide by zero.  Other rows get
        a NaN or +-inf entry at (k, k) or (k, j).  In one stack with PD
        rows, at 2^0 and 2^+-600, the batched verdicts equal _is_pd's,
        without a numpy warning."""
        rng = np.random.default_rng(15)
        for m in range(1, 7):
            mats, want = [], []
            for k in range(m):
                for bad in (None, 0.0, -1.0, 2.0 ** -45):
                    L = np.tril(rng.integers(-2, 3, (m, m)) / 2.0, -1) \
                        + np.eye(m)
                    d = np.ldexp(1.0, rng.integers(-3, 4, m))
                    if bad is not None:
                        d[k] = bad
                    A = L * d @ L.T
                    mats.append(A)
                    want.append(bool(d.min() > 1e-12 * A.diagonal().max()))
                for bad in (np.nan, np.inf, -np.inf):
                    j = int(rng.integers(0, m))
                    A = np.eye(m)
                    A[k, j] = A[j, k] = bad
                    mats.append(A)
                    want.append(False)
            M = scale * np.array(mats)
            verdicts = pd_mask(M).tolist()
            assert verdicts == [_is_pd(X) for X in M]
            assert verdicts == want

    def test_non_finite_rows_are_not_pd(self):
        M = np.stack([np.eye(3)] * 5)
        M[1, 0, 0] = np.nan
        M[2, 1, 2] = M[2, 2, 1] = np.inf
        M[3, 2, 2] = -np.inf
        M[4, 0, 1] = M[4, 1, 0] = np.nan
        assert pd_mask(M).tolist() == [True, False, False, False, False]
        # the unvalidated single-matrix test agrees: a NaN pivot fails
        assert [_is_pd(X) for X in M] == pd_mask(M).tolist()


class TestLogLikelihood:
    def test_identity_sigma(self):
        rng = np.random.default_rng(3)
        S = random_pd(4, rng)
        np.testing.assert_allclose(log_likelihood(np.eye(4), S),
                                   -np.trace(S), rtol=1e-13)

    def test_one_dimensional_closed_form(self):
        val = log_likelihood(np.array([[2.0]]), np.array([[3.0]]))
        np.testing.assert_allclose(val, -np.log(2.0) - 1.5, rtol=1e-14)

    def test_matches_slogdet_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            Sg = random_pd(m, rng)
            Ss = random_pd(m, rng)
            sign, logdet = np.linalg.slogdet(Sg)
            expect = -logdet - np.trace(np.linalg.inv(Sg) @ Ss)
            np.testing.assert_allclose(log_likelihood(Sg, Ss), expect,
                                       rtol=1e-10)

    def test_maximised_at_sample(self):
        """Over all of PD, the likelihood of S peaks at Sigma = S."""
        rng = np.random.default_rng(5)
        S = random_pd(3, rng)
        best = log_likelihood(S, S)
        for _ in range(20):
            other = random_pd(3, rng)
            assert log_likelihood(other, S) <= best + 1e-12

    def test_requires_pd(self):
        with pytest.raises(NotPD):
            log_likelihood(-np.eye(2), np.eye(2))
        with pytest.raises(NotPD):
            log_likelihood(np.eye(2), -np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            log_likelihood(np.eye(2), np.eye(3))


class TestScoreMatrix:
    def test_zero_at_sample(self):
        rng = np.random.default_rng(6)
        S = random_pd(4, rng)
        np.testing.assert_allclose(score_matrix(S, S), np.zeros((4, 4)),
                                   atol=1e-12)

    def test_directional_derivative(self):
        """tr(score @ D) must match a central finite difference of the
        log-likelihood along D."""
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            m = int(rng.integers(2, 5))
            Sg = random_pd(m, rng)
            Ss = random_pd(m, rng)
            D = rng.uniform(-1.0, 1.0, size=(m, m))
            D = (D + D.T) / 2.0
            fd = (log_likelihood(Sg + h * D, Ss)
                  - log_likelihood(Sg - h * D, Ss)) / (2.0 * h)
            grad = float(np.sum(score_matrix(Sg, Ss) * D))
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)


class TestIndexing:
    def test_principal_submatrix_example(self, path_sigma):
        np.testing.assert_allclose(principal_submatrix(path_sigma, (1, 2)),
                                   np.array([[6.0, 1.0], [1.0, 7.0]]))

    def test_set_indices_are_sorted(self):
        A = np.arange(16, dtype=float).reshape(4, 4)
        np.testing.assert_allclose(principal_submatrix(A, {3, 1}),
                                   principal_submatrix(A, (1, 3)))

    def test_sequence_order_is_preserved(self):
        A = np.arange(16, dtype=float).reshape(4, 4)
        B = principal_submatrix(A, (3, 1))
        assert B[0, 0] == A[2, 2] and B[1, 1] == A[0, 0]

    def test_rejects_bad_indices(self):
        A = np.eye(3)
        with pytest.raises(IndexOutOfRange):
            principal_submatrix(A, (0, 1))
        with pytest.raises(IndexOutOfRange):
            principal_submatrix(A, (1, 4))
        with pytest.raises(IndexOutOfRange):
            principal_submatrix(A, (2, 2))
        with pytest.raises(IndexOutOfRange):
            principal_submatrix(A, ())
        with pytest.raises(ShapeMismatch):
            principal_submatrix(np.ones((2, 3)), (1,))

    def test_index_too_long_to_print_is_out_of_range(self):
        """An index of more digits than Python prints is named by its
        type, and still raises the index error."""
        match = r"index <int too long to print> outside 1\.\.2"
        with pytest.raises(IndexOutOfRange, match=match):
            principal_submatrix(np.eye(2), [10 ** 5000])
        with pytest.raises(IndexOutOfRange, match=match):
            embed(np.eye(1), [10 ** 5000], [1], 2)

    def test_embed_round_trip(self):
        rng = np.random.default_rng(8)
        B = rng.uniform(size=(2, 2))
        B = (B + B.T) / 2.0
        E = embed(B, (2, 4), (2, 4), 5)
        np.testing.assert_allclose(principal_submatrix(E, (2, 4)), B)
        assert np.count_nonzero(E) == 4

    def test_embed_shape_check(self):
        with pytest.raises(ShapeMismatch):
            embed(np.eye(2), (1, 2, 3), (1, 2), 4)
        with pytest.raises(ShapeMismatch, match="2-d"):
            embed(np.ones(2), (1, 2), (1, 2), 4)

    def test_submatrix_inverse_is_schur_complement(self):
        """(A^{-1})_II^{-1} equals the Schur complement of the complement
        block, the identity behind the decomposition formulas."""
        rng = np.random.default_rng(9)
        for _ in range(25):
            A = random_pd(5, rng)
            I, J = (1, 3, 4), (2, 5)
            lhs = np.linalg.inv(principal_submatrix(np.linalg.inv(A), I))
            AII = principal_submatrix(A, I)
            AJJ = principal_submatrix(A, J)
            AIJ = A[np.ix_([0, 2, 3], [1, 4])]
            rhs = AII - AIJ @ np.linalg.solve(AJJ, AIJ.T)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        A = random_pd(4, rng)
        B = sym_from_json(sym_to_json(A))
        np.testing.assert_allclose(B, A, rtol=0, atol=0)

    def test_rational_strings_are_exact(self):
        M = sym_from_json({"dim": 2, "upper": ["1/28", "-217/3420", "1211/4560"]})
        assert M[0, 0] == 1.0 / 28.0
        assert M[0, 1] == M[1, 0] == -217.0 / 3420.0
        assert M[1, 1] == 1211.0 / 4560.0

    def test_decimal_strings(self):
        M = sym_from_json({"dim": 1, "upper": ["0.25"]})
        assert M[0, 0] == 0.25

    def test_json_serialisable(self):
        doc = sym_to_json(np.eye(2))
        assert json.loads(json.dumps(doc)) == doc

    def test_bad_documents(self):
        with pytest.raises(ShapeMismatch):
            sym_from_json({"dim": 2, "upper": [1.0, 2.0]})
        with pytest.raises(ShapeMismatch):
            sym_from_json({"dim": 0, "upper": []})
        with pytest.raises(ShapeMismatch):
            sym_from_json({"upper": [1.0]})
        with pytest.raises(ShapeMismatch):
            sym_from_json({"dim": 1, "upper": ["one"]})
        with pytest.raises(ShapeMismatch):
            sym_from_json({"dim": 1, "upper": [True]})
        with pytest.raises(ShapeMismatch, match="numbers or numeric strings"):
            sym_from_json({"dim": 1, "upper": [[1.0]]})
        for entry in ("1e400", "-1e400", 10 ** 400):
            with pytest.raises(ShapeMismatch, match="too large"):
                sym_from_json({"dim": 1, "upper": [entry]})
        for upper in (5, None, {"a": 1}, "123"):
            with pytest.raises(ShapeMismatch, match='"upper" must be a list'):
                sym_from_json({"dim": 1, "upper": upper})
        with pytest.raises(ShapeMismatch, match='"dim"'):
            sym_from_json({"dim": True, "upper": [1.0]})

    def test_entries_near_the_float_limit_decode_exactly(self):
        """Averaging the two triangles must not overflow: a sum of two
        entries above 2^1023 is not a float."""
        big = np.finfo(float).max
        M = sym_from_json({"dim": 2, "upper": [big, -big, big]})
        np.testing.assert_array_equal(M, [[big, -big], [-big, big]])
        A = np.array([[big, big * (1 - 1e-12)], [big, 1.0]])
        B = check_symmetric(A)
        assert np.all(np.isfinite(B)) and np.array_equal(B, B.T)
        assert B[0, 1] == A[0, 1] / 2 + big / 2


class TestRandomPD:
    def test_is_pd_and_symmetric(self):
        rng = np.random.default_rng(12)
        for m in (1, 3, 6):
            A = random_pd(m, rng)
            assert A.shape == (m, m)
            np.testing.assert_allclose(A, A.T)
            assert is_positive_definite(A)

    def test_deterministic_per_seed(self):
        A = random_pd(4, np.random.default_rng(99))
        B = random_pd(4, np.random.default_rng(99))
        np.testing.assert_allclose(A, B, rtol=0, atol=0)
