import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesync import (
    DimensionMismatchError,
    NonFiniteError,
    NotStabilizableError,
    bass_initial_gain,
    convective_linearization,
    solve_ari,
    sym_eig,
)

from helpers import DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B


def closed_loop_eigs(a, b, k):
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] == 1:
        b = b.T
    return np.linalg.eigvals(a - b @ np.atleast_2d(k))


class TestBassInitialGain:
    def test_already_stable(self):
        k0 = bass_initial_gain(np.array([[-1.0]]), np.array([[1.0]]))
        assert np.max(closed_loop_eigs(np.array([[-1.0]]), [[1.0]], k0).real) < 0

    def test_integrator_gets_positive_gain(self):
        k0 = bass_initial_gain(np.array([[0.0]]), np.array([[1.0]]))
        assert k0[0, 0] > 0

    def test_unstable_uncontrollable_rejected(self):
        with pytest.raises(NotStabilizableError):
            bass_initial_gain(np.eye(2), np.array([[1.0], [0.0]]))

    def test_stabilizable_but_uncontrollable(self):
        # stable uncontrollable mode must not break the construction
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -3.0]])
        b = np.array([[0.0], [1.0], [0.0]])
        k0 = bass_initial_gain(a, b)
        assert np.max(closed_loop_eigs(a, b, k0).real) < 0

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    @example(seed=199085, n=5)
    @example(seed=456, n=5)
    @example(seed=790, n=5)
    def test_random_controllable_pairs(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
        if np.linalg.matrix_rank(ctrb, tol=1e-6) < n:
            return
        k0 = bass_initial_gain(a, b)
        assert np.max(closed_loop_eigs(a, b, k0).real) < 1e-10


class TestSolveAri:
    def test_scalar_integrator(self):
        # 2P - P^2 + 1 = 0 has the positive root 1 + sqrt(2)
        design = solve_ari(np.array([[0.0]]), np.array([[1.0]]), 1.0, 1.0)
        assert design.certificate.p[0, 0] == pytest.approx(1.0 + np.sqrt(2.0),
                                                           abs=1e-9)

    def test_scalar_stable(self):
        # 2(mu-1)P - 2P^2 + 1 = 0 at mu = 1/2: 2P^2 + P - 1 = 0, root 1/2
        design = solve_ari(np.array([[-1.0]]), np.array([[1.0]]), 2.0, 0.5)
        assert design.certificate.p[0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_gain_is_bt_p(self):
        design = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        p = design.certificate.p
        assert np.array_equal(design.gain, p[1:2, :])
        assert design.gain.shape == (1, 2)

    def test_double_integrator_design(self):
        design = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        p = design.certificate.p
        # exact ARE solution leaves slack exactly I
        res = (p @ DOUBLE_INTEGRATOR_A + DOUBLE_INTEGRATOR_A.T @ p
               - p @ np.outer(DOUBLE_INTEGRATOR_B, DOUBLE_INTEGRATOR_B) @ p
               + 2 * 0.2 * p)
        assert float(sym_eig(-res).eigenvalues[0]) >= -1e-8
        closed = DOUBLE_INTEGRATOR_A - np.outer(DOUBLE_INTEGRATOR_B,
                                                DOUBLE_INTEGRATOR_B) @ p
        assert np.max(np.linalg.eigvals(closed).real) < 0

    def test_newton_iterates_monotone(self):
        design = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        iterates = design.newton_iterates
        assert len(iterates) >= 2
        for pj, pk in zip(iterates, iterates[1:]):
            assert float(sym_eig(pj - pk).eigenvalues[0]) >= -1e-9

    def test_deterministic(self):
        d1 = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        d2 = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        assert np.array_equal(d1.certificate.p, d2.certificate.p)

    def test_not_stabilizable(self):
        with pytest.raises(NotStabilizableError):
            solve_ari(np.eye(2), np.array([[1.0], [0.0]]), 1.0, 0.1)

    @pytest.mark.parametrize("a,b,rho,mu,error", [
        (np.ones((2, 3)), DOUBLE_INTEGRATOR_B, 1.0, 0.2, DimensionMismatchError),
        (DOUBLE_INTEGRATOR_A, np.ones(3), 1.0, 0.2, DimensionMismatchError),
        (DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 0.0, 0.2, ValueError),
        (DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, -0.2, ValueError),
    ], ids=["a_not_square", "b_long", "rho_zero", "mu_negative"])
    def test_bad_arguments(self, a, b, rho, mu, error):
        with pytest.raises(error):
            solve_ari(a, b, rho, mu)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a,b,rho,mu", [
        (DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1e308, 0.2),
        (DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1e-320, 0.2),
        (DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 1e308),
        (DOUBLE_INTEGRATOR_A, [0.0, 1e154], 1.0, 0.2),
        ([[0.0, 1e154], [0.0, 0.0]], DOUBLE_INTEGRATOR_B, 1.0, 0.2),
        ([[1e308, 1.0], [0.0, 0.0]], DOUBLE_INTEGRATOR_B, 1.0, 0.2),
        # stabilizable, but ||a||_2 absorbs Bass's shift of 1
        ([[-1e308, 1.0], [0.0, 0.0]], DOUBLE_INTEGRATOR_B, 1.0, 0.2),
    ], ids=["rho_huge", "rho_subnormal", "mu_huge", "b_huge", "a_entry",
            "a_diagonal", "a_shift_absorbed"])
    def test_numbers_out_of_range(self, a, b, rho, mu):
        # these overflowed into numpy's LinAlgError and RuntimeWarnings
        with pytest.raises(NonFiniteError) as info:
            solve_ari(np.array(a), np.array(b), rho, mu)
        assert info.value.exit_code == 9

    def test_convective_origin_pair(self):
        # stabilizable with an uncontrollable (but stable) third mode
        a_lin, b_lin = convective_linearization(10.0, 8.0 / 3.0, 28.0)
        design = solve_ari(a_lin, b_lin, 10.0, 0.5)
        p = design.certificate.p
        assert float(sym_eig(p).eigenvalues[0]) > 0
        closed = a_lin - 10.0 * np.outer(b_lin, b_lin) @ p
        assert np.max(np.linalg.eigvals(closed).real) < 0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    @example(seed=1345)
    @example(seed=372223)
    @example(seed=1000000001)
    @example(seed=18230)  # max |P_j - P_j-1| grows from 27 to 31 mid-way
    def test_random_designs_satisfy_ari(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
        if np.linalg.matrix_rank(ctrb, tol=1e-6) < n:
            return
        rho = float(rng.uniform(0.5, 5.0))
        mu = float(rng.uniform(0.05, 1.0))
        design = solve_ari(a, b, rho, mu)
        p = design.certificate.p
        res = (p @ a + a.T @ p - rho * p @ b @ b.T @ p + 2 * mu * p)
        # p @ a + a.T @ p is symmetric only up to round-off when P is large
        res = 0.5 * (res + res.T)
        assert float(sym_eig(-res).eigenvalues[0]) >= -1e-6
        oracle = scipy.linalg.solve_continuous_are(
            a + mu * np.eye(n), b * np.sqrt(rho), np.eye(n), np.eye(1))
        assert np.max(np.abs(p - oracle)) <= 1e-7 * np.max(np.abs(oracle))
