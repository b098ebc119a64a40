"""Constant contraction-metric certificates and sampled verification.

A certificate is a constant symmetric positive definite matrix P with a
control weighting rho and contraction rate mu. Only constant metrics
are representable; a state-dependent metric would need geodesic
machinery that is out of scope. Verification is by seeded sampling, not
global algebraic proof; the feedback alpha(x) = k x has the gradient k.
Each check takes its samples as one (S, n) stack of states and builds
every state's matrix at once with broadcast matmuls, with no loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonSymmetricError, NotPositiveDefiniteError
from .linalg import sym_eig


@dataclass(frozen=True)
class MetricCertificate:
    p: np.ndarray
    rho: float
    mu: float
    p_lower: float
    p_upper: float

    @classmethod
    def from_matrix(cls, p, rho, mu):
        """Validate P and fill the eigenvalue bounds.

        Raises NonSymmetricError or NotPositiveDefiniteError when P is
        outside tolerance; mu must be positive, rho nonnegative (zero
        drops the input term from the contraction inequality).
        """
        p = np.asarray(p, dtype=float)
        if rho < 0.0 or mu <= 0.0:
            raise ValueError("rho must be nonnegative and mu positive")
        dec = sym_eig(p)
        p_lower = float(dec.eigenvalues[0])
        p_upper = float(dec.eigenvalues[-1])
        if p_lower <= 0.0:
            raise NotPositiveDefiniteError(
                f"metric matrix has min eigenvalue {p_lower:.3e}"
            )
        return cls(p=p, rho=float(rho), mu=float(mu),
                   p_lower=p_lower, p_upper=p_upper)


@np.errstate(over="ignore", invalid="ignore")
def verify_ari_sampled(cert, model, samples):
    """Worst-case margin of the contraction inequality on the samples.

    At each state x the check is
        lambda_min( -[P J(x) + J(x)^T P - rho P g(x) g(x)^T P + 2 mu P] )
    with J the drift Jacobian; for a constant metric the directional
    derivative of P drops out of the Lie derivative. The matrices of all
    states are decomposed in one sym_eig call. A nonnegative return means
    the inequality holds everywhere on the samples; no samples give inf.
    An inequality whose numbers overflow raises NonFiniteError, not a
    warning.
    """
    p = cert.p
    jac = model.jac_f(samples)
    pg = p @ model.g(samples)[..., None]
    expr = (p @ jac + np.swapaxes(jac, -2, -1) @ p
            - cert.rho * (pg @ np.swapaxes(pg, -2, -1)) + 2.0 * cert.mu * p)
    return float(np.min(sym_eig(-expr).eigenvalues[..., 0], initial=np.inf))


def verify_killing_integrability(cert, model, samples):
    """Residuals of the metric-preservation and gradient conditions.

    killing_residual: max-norm of P dg/dx + (dg/dx)^T P over the samples
    (the directional-derivative term of a constant metric vanishes, so
    this is the whole expression; it is identically zero exactly when g
    is constant).

    integrability_residual: max-norm of grad(alpha) - g(x)^T P over the
    samples. Every model's feedback is alpha(x) = k x, so its gradient
    is the gain row model.params["k"] at every state.
    """
    p = cert.p
    dg = model.jac_g(samples)
    killing = np.max(np.abs(p @ dg + np.swapaxes(dg, -2, -1) @ p), initial=0.0)
    integr = np.max(np.abs(model.params["k"] - model.g(samples)[..., None, :] @ p),
                    initial=0.0)
    return float(killing), float(integr)
