import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesync import (
    DimensionMismatchError,
    NonFiniteError,
    NonSymmetricError,
    SingularMatrixError,
    lyapunov_solve,
    sym_eig,
)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])
        # eigenvectors are I2 up to column sign
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_hand_2x2(self):
        # characteristic polynomial lambda^2 - 4 lambda + 3
        dec = sym_eig(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_zero_matrix(self):
        dec = sym_eig(np.zeros((3, 3)))
        assert np.allclose(dec.eigenvalues, 0.0)

    def test_ascending_order(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 6)
        dec = sym_eig(a)
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=False)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_values_only(self, n):
        a = random_symmetric(np.random.default_rng(n), n)
        dec = sym_eig(a, vectors=False)
        assert dec.eigenvectors is None
        full = sym_eig(a).eigenvalues
        assert dec.eigenvalues.shape == (n,)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert np.max(np.abs(dec.eigenvalues - full), initial=0.0) <= 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            sym_eig(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_near_the_float_maximum(self):
        # 1.7e308 + 1.7e308 overflows; the halves of the two do not
        a = np.array([[1.7e308, 1.0], [1.0, -1.7e308]])
        for vectors in (True, False):
            dec = sym_eig(a, vectors=vectors)
            assert np.all(np.isfinite(dec.eigenvalues))
            assert np.allclose(dec.eigenvalues, [-1.7e308, 1.7e308], rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [
        [[np.nan, 5.0], [0.0, 1.0]],  # a nan skew passed the symmetry check
        [[1.0, np.inf], [np.inf, 1.0]],  # gave eigenvalues [nan, nan]
        [[1.7e308, 1.7e308], [1.7e308, 1.7e308]],  # eigenvalue 3.4e308
    ], ids=["nan", "inf", "eigenvalue_overflow"])
    def test_rejects_nonfinite(self, a):
        for vectors in (True, False):
            with pytest.raises(NonFiniteError) as info:
                sym_eig(np.array(a), vectors=vectors)
            assert info.value.exit_code == 9

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, seed, n):
        a = random_symmetric(np.random.default_rng(seed), n)
        dec = sym_eig(a)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(rebuilt - a)) <= 1e-10 * max(1.0, np.max(np.abs(a)))
        # orthonormal basis
        vtv = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(vtv - np.eye(n))) <= 1e-12


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSymEigStack:
    """sym_eig on a (..., n, n) stack against one call per matrix."""

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_stack_has_the_bits_of_each_matrix(self, n, vectors):
        rng = np.random.default_rng(n)
        stack = np.array([[random_symmetric(rng, n, 10.0 ** e) for e in (-3, 0, 3)]
                          for _ in range(2)])
        dec = sym_eig(stack, vectors=vectors)
        assert dec.eigenvalues.shape == (2, 3, n)
        for index in np.ndindex(2, 3):
            one = sym_eig(stack[index], vectors=vectors)
            assert same_bits(dec.eigenvalues[index], one.eigenvalues)
            if vectors:
                assert same_bits(dec.eigenvectors[index], one.eigenvectors)
            else:
                assert dec.eigenvectors is None

    @pytest.mark.parametrize("bad,error", [
        ([[0.0, 1.0], [0.0, 0.0]], NonSymmetricError),
        ([[np.nan, 0.0], [0.0, 1.0]], NonFiniteError),
        ([[1.0, np.inf], [np.inf, 1.0]], NonFiniteError),
    ], ids=["nonsymmetric", "nan", "inf"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_bad_member_raises(self, bad, error):
        stack = np.array([np.eye(2), np.eye(2), np.eye(2)])
        stack[1] = bad
        for vectors in (True, False):
            with pytest.raises(error):
                sym_eig(stack, vectors=vectors)

    def test_symmetry_tolerance_is_per_matrix(self):
        # a skew of 1e-6 is within tolerance of a 1e12 matrix, not of a unit one
        skewed = np.array([[1.0, 1e-6], [0.0, 1.0]])
        big = 1e12 * np.eye(2)
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([big, skewed]))
        dec = sym_eig(np.array([big + skewed, np.eye(2)]))
        assert same_bits(dec.eigenvalues[0], sym_eig(big + skewed).eigenvalues)

    def test_empty_stack(self):
        dec = sym_eig(np.zeros((0, 3, 3)))
        assert dec.eigenvalues.shape == (0, 3)
        assert dec.eigenvectors.shape == (0, 3, 3)


class TestLyapunov:
    def test_neg_identity(self):
        x = lyapunov_solve(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(x, np.eye(2), atol=1e-12)

    def test_scalar(self):
        x = lyapunov_solve(np.array([[-1.0]]), np.array([[4.0]]))
        assert np.allclose(x, [[2.0]])

    def test_singular_pair(self):
        # a = 0 has the eigenvalue pair summing to zero
        with pytest.raises(SingularMatrixError):
            lyapunov_solve(np.array([[0.0]]), np.array([[1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lyapunov_solve(-np.eye(2), np.eye(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a,q", [
        ([[-np.inf]], [[1.0]]),
        ([[-1.0]], [[np.nan]]),
        ([[-1e-10]], [[1e300]]),  # X = 5e309
        ([[1e308, 1e308], [1e308, 1e308]], [[1.0, 0.0], [0.0, 1.0]]),  # 2e308
        # eigenvalues -1.7e308 +- 1.7e308 i: finite parts, modulus 2.4e308
        ([[-1.7e308, 1.7e308], [-1.7e308, -1.7e308]], [[1.0, 0.0], [0.0, 1.0]]),
    ], ids=["inf_a", "nan_q", "solution", "schur_form", "schur_modulus"])
    def test_nonfinite(self, a, q):
        with pytest.raises(NonFiniteError):
            lyapunov_solve(np.array(a), np.array(q))

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_residual_stable(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) - 2.0 * n * np.eye(n)
        q = random_symmetric(rng, n)
        x = lyapunov_solve(a, q)
        res = a.T @ x + x @ a + q
        assert np.max(np.abs(res)) <= 1e-8 * max(1.0, np.max(np.abs(q)))
        assert np.array_equal(x, x.T)
