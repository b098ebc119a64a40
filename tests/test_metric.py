import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesync import (
    MetricCertificate,
    NonSymmetricError,
    NotPositiveDefiniteError,
    convective_linearization,
    linear_model,
    lorenz_model,
    metric,
    solve_ari,
    tanh_perturbed_model,
    verify_ari_sampled,
    verify_killing_integrability,
)

from helpers import (DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, ari_margin_by_state,
                     killing_integrability_by_state)


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


def designed_residuals(gamma=None):
    """verify_killing_integrability of the double integrator with realize's gain b P.

    gamma None is the linear model, else the tanh-perturbed one.
    """
    design = solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, 0.2)
    gain = DOUBLE_INTEGRATOR_B @ design.certificate.p
    if gamma is None:
        model = linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, gain)
    else:
        model = tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                                     gamma, gain)
    return verify_killing_integrability(
        design.certificate, model, ball_samples(2, count=10))


class TestKillingIntegrability:
    # the gain b P is, bit for bit, g(x)^T P for the constant g = b
    def test_linear_model_residuals(self):
        assert designed_residuals() == (0.0, 0.0)

    def test_tanh_model_residuals(self):
        assert designed_residuals(gamma=0.2) == (0.0, 0.0)

    def test_lorenz_residuals_reported(self):
        a, b, c = 10.0, 8.0 / 3.0, 28.0
        design = solve_ari(*convective_linearization(a, b, c), 10.0, 0.5)
        model = lorenz_model(a, b, c, design.gain[0])
        cert = design.certificate
        samples = ball_samples(3, count=10, seed=4)
        killing, integ = verify_killing_integrability(cert, model, samples)
        # state-dependent g: both residuals are genuinely nonzero
        assert killing > 1e-3
        # grad(alpha) is the gain row k; g(x) = (1, 2 + sin x1, 0)
        k = design.gain[0]
        by_hand = max(
            float(np.max(np.abs(k - np.array([1.0, 2.0 + np.sin(x[0]), 0.0]) @ cert.p)))
            for x in samples)
        assert integ == by_hand > 1e-6


def random_model(kind, rng):
    """A model of the kind with random parameters, on 1 to 4 states (lorenz: 3)."""
    if kind == "lorenz":
        return lorenz_model(*rng.uniform(-30.0, 30.0, 3), rng.standard_normal(3))
    n = int(rng.integers(1, 5))
    a, b, k = (rng.standard_normal(shape) for shape in ((n, n), n, n))
    if kind == "linear":
        return linear_model(a, b, k)
    return tanh_perturbed_model(a, b, float(rng.uniform(0.0, 2.0)), k)


def random_certificate(n, rng):
    m = rng.standard_normal((n, n))
    p = m @ m.T + n * np.eye(n)
    return MetricCertificate.from_matrix(0.5 * (p + p.T), float(rng.uniform(0.0, 5.0)),
                                         float(rng.uniform(0.01, 2.0)))


class TestStackedChecks:
    """The checks evaluate a whole stack of states at once."""

    @given(kind=st.sampled_from(["linear", "tanh", "lorenz"]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=30),
           scale=st.sampled_from([0.0, 1.0, 10.0, 1e3]))
    @example(kind="lorenz", seed=0, count=1, scale=10.0)
    @example(kind="tanh", seed=0, count=1, scale=0.0)
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_per_state_loop(self, kind, seed, count, scale):
        rng = np.random.default_rng(seed)
        model = random_model(kind, rng)
        cert = random_certificate(model.state_dim, rng)
        samples = rng.standard_normal((count, model.state_dim)) * scale
        margin = verify_ari_sampled(cert, model, samples)
        assert np.float64(margin).tobytes() == np.float64(
            ari_margin_by_state(cert, model, samples)).tobytes()
        residuals = verify_killing_integrability(cert, model, samples)
        assert np.array(residuals).tobytes() == np.array(
            killing_integrability_by_state(cert, model, samples)).tobytes()

    @pytest.mark.parametrize("kind", ["linear", "tanh", "lorenz"])
    def test_one_eigensolve_for_the_whole_stack(self, kind, monkeypatch):
        # the margin decomposes every state's matrix in one sym_eig call;
        # the residuals are max-norms and need none
        rng = np.random.default_rng(11)
        model = random_model(kind, rng)
        cert = random_certificate(model.state_dim, rng)
        calls = []
        sym_eig = metric.sym_eig

        def counting(a, **kwargs):
            calls.append(np.shape(a))
            return sym_eig(a, **kwargs)

        monkeypatch.setattr(metric, "sym_eig", counting)
        samples = ball_samples(model.state_dim, count=200)
        verify_ari_sampled(cert, model, samples)
        n = model.state_dim
        assert calls == [(200, n, n)]
        verify_killing_integrability(cert, model, samples)
        assert calls == [(200, n, n)]
