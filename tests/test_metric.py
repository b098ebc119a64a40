import numpy as np
import pytest

from edgesync import (
    MetricCertificate,
    NonSymmetricError,
    NotPositiveDefiniteError,
    convective_linearization,
    linear_model,
    lorenz_model,
    solve_ari,
    tanh_perturbed_model,
    verify_ari_sampled,
    verify_killing_integrability,
)

from helpers import DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B


def ball_samples(n, count=50, radius=5.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = rng.standard_normal(n)
        out.append(radius * rng.uniform() ** (1.0 / n) * d / np.linalg.norm(d))
    return out


class TestCertificateContainer:
    def test_bounds_from_eigs(self):
        cert = MetricCertificate.from_matrix(np.diag([1.0, 4.0]), 1.0, 0.5)
        assert cert.p_lower == pytest.approx(1.0)
        assert cert.p_upper == pytest.approx(4.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            MetricCertificate.from_matrix(np.diag([1.0, -1.0]), 1.0, 0.5)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetricError):
            MetricCertificate.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0, 0.5)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            MetricCertificate.from_matrix(np.eye(2), -1.0, 0.5)
        with pytest.raises(ValueError):
            MetricCertificate.from_matrix(np.eye(2), 1.0, 0.0)

    def test_rho_zero_allowed(self):
        cert = MetricCertificate.from_matrix(np.eye(1), 0.0, 1.0)
        assert cert.rho == 0.0


class TestAriSampled:
    def test_stable_scalar_boundary(self):
        # f = -x, g = 1, P = 1, rho = 0, mu = 1: equality case, margin 0
        model = linear_model(np.array([[-1.0]]), np.array([1.0]), np.array([0.0]))
        cert = MetricCertificate.from_matrix(np.eye(1), 0.0, 1.0)
        margin = verify_ari_sampled(cert, model, ball_samples(1))
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_integrator_boundary(self):
        # f = 0, g = 1, P = 2 mu / rho sits exactly on the boundary
        model = linear_model(np.array([[0.0]]), np.array([1.0]), np.array([0.0]))
        cert = MetricCertificate.from_matrix(np.array([[2.0]]), 1.0, 1.0)
        margin = verify_ari_sampled(cert, model, ball_samples(1))
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_designed_linear_margin(self):
        design = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        model = linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                             design.gain[0])
        margin = verify_ari_sampled(design.certificate, model, ball_samples(2))
        # exact solve leaves the identity as slack
        assert margin >= -1e-8
        assert margin == pytest.approx(1.0, abs=1e-9)

    def test_tanh_margin_shrinks_with_gamma(self):
        design = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        samples = ball_samples(2)
        margins = []
        for gamma in (0.0, 0.05, 0.2):
            model = tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                                         gamma, design.gain[0])
            margins.append(verify_ari_sampled(design.certificate, model, samples))
        assert margins[0] >= margins[1] >= margins[2]


class TestKillingIntegrability:
    def test_linear_model_residuals(self):
        design = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
        model = linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                             design.gain[0])
        killing, integ = verify_killing_integrability(
            design.certificate, model, ball_samples(2, count=10))
        assert killing <= 1e-12
        assert integ <= 1e-6

    def test_lorenz_residuals_reported(self):
        a, b, c = 10.0, 8.0 / 3.0, 28.0
        design = solve_ari(*convective_linearization(a, b, c), 10.0, 0.5)
        model = lorenz_model(a, b, c, design.gain[0])
        cert = design.certificate
        killing, integ = verify_killing_integrability(
            cert, model, ball_samples(3, count=10, seed=4))
        # state-dependent g: both residuals are genuinely nonzero
        assert killing > 1e-3
        assert integ > 1e-6
