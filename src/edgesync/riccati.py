"""Riccati-based linear design: certificate matrix and feedback gain.

For a linear pair (A, B) with weighting rho and target rate mu, the
shifted equality equation

    (A + mu I)^T P + P (A + mu I) - rho P B B^T P + I = 0

is solved by Newton (Kleinman) iteration on Lyapunov equations, each
solved by linalg's numpy complex Bartels-Stewart, from a Bass initial
gain; the identity inflation makes the corresponding inequality strict.
The returned gain is K = B^T P with B unscaled; rho enters by scaling B
inside the solve.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NotStabilizableError,
    SingularMatrixError,
)
from .linalg import lyapunov_solve, sym_eig
from .metric import MetricCertificate

NEWTON_TOL = 1e-10
NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class LinearDesign:
    a: np.ndarray
    b: np.ndarray
    rho: float
    mu_target: float
    certificate: MetricCertificate
    gain: np.ndarray
    newton_iterates: tuple = field(repr=False, default=())


def _check_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"a must be square, got {a.shape}")
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"b has shape {b.shape}, expected ({a.shape[0]}, m)"
        )
    return a, b


@np.errstate(over="ignore", invalid="ignore")
def bass_initial_gain(a, b):
    """Stabilizing initial gain by Bass's shifted-Lyapunov method.

    With lam = ||a||_2 + 1 the matrix -a - lam I is Hurwitz, so
    (-a - lam I) Z + Z (-a - lam I)^T = -2 b b^T has a PSD solution; the
    gain is K0 = b^T Z^+ using the spectral pseudo-inverse cut at
    n * eps * lambda_max(Z), which keeps uncontrollable-but-stable
    directions unforced instead of failing on a singular Z. The closed
    loop a - b K0 must then have all eigenvalues in the open left half
    plane, otherwise the pair is declared not stabilizable. Raises
    NonFiniteError, and no warning, when a number of the construction
    overflows, as for entries near the float maximum or a subnormal b.
    """
    a, b = _check_pair(a, b)
    n = a.shape[0]
    lam = float(np.linalg.norm(a, 2)) + 1.0
    shifted = -a - lam * np.eye(n)
    try:
        z = lyapunov_solve(shifted.T, 2.0 * b @ b.T)
    except SingularMatrixError as exc:
        raise NotStabilizableError(f"initial-gain Lyapunov solve failed: {exc}") from exc
    dec = sym_eig(z)
    cut = n * np.finfo(float).eps * float(dec.eigenvalues[-1])
    inv = np.divide(1.0, dec.eigenvalues, out=np.zeros(n),
                    where=dec.eigenvalues > cut)
    k0 = b.T @ (dec.eigenvectors * inv) @ dec.eigenvectors.T
    closed = a - b @ k0
    if not np.isfinite(closed).all():
        raise NonFiniteError("initial gain overflows: the pair's numbers are "
                             "out of floating-point range")
    growth = float(np.max(np.linalg.eigvals(closed).real))
    if growth >= 0.0:
        raise NotStabilizableError(
            f"closed loop under the initial gain has an eigenvalue with real "
            f"part {growth:.3e} >= 0; pair is not stabilizable"
        )
    return k0


@np.errstate(over="ignore", invalid="ignore")
def solve_ari(a, b, rho, mu):
    """Solve the shifted Riccati equation and package the design.

    Newton steps: with A_s = a + mu I and B_s = b sqrt(rho), iterate
        P_j: (A_s - B_s K_j)^T P + P (A_s - B_s K_j) + I + K_j^T K_j = 0
        K_{j+1} = B_s^T P_j
    from the Bass initial gain, each P_j by a complex Bartels-Stewart
    Lyapunov solve (linalg.lyapunov_solve, O(n^4) in n). The iterate
    sequence is nonincreasing in the semidefinite order (Kleinman 1968)
    and converges quadratically for stabilizable pairs. The iteration
    stops once the largest entry change of P falls to
    NEWTON_TOL * max(1, max |P|), or once the trace of P stops falling.
    A step that does not lower the trace is at the round-off floor of
    the Lyapunov solve, near eps * cond * max |P|, which lies above that
    tolerance when P is large (P ~ 4e8 oscillated at 1e-8). The largest
    entry change is no such signal: it can grow while P is still far
    from converged. A pair whose numbers overflow raises NonFiniteError
    (exit 9), and no warning; one that cannot be stabilized raises
    NotStabilizableError (exit 5).
    """
    a, b = _check_pair(a, b)
    if rho <= 0.0 or mu <= 0.0:
        raise ValueError("rho and mu must be positive")
    n = a.shape[0]
    a_shift = a + mu * np.eye(n)
    b_scaled = b * np.sqrt(rho)
    k = bass_initial_gain(a_shift, b_scaled)
    iterates = []
    p_prev = None
    for _ in range(NEWTON_MAX_STEPS):
        closed = a_shift - b_scaled @ k
        try:
            p = lyapunov_solve(closed, np.eye(n) + k.T @ k)
        except SingularMatrixError as exc:
            raise NotStabilizableError(
                f"Newton step lost stabilizability: {exc}"
            ) from exc
        iterates.append(p)
        k = b_scaled.T @ p
        if p_prev is not None:
            tol = NEWTON_TOL * max(1.0, float(np.max(np.abs(p))))
            if (float(np.max(np.abs(p - p_prev))) <= tol
                    or np.trace(p) >= np.trace(p_prev)):
                break
        p_prev = p
    else:
        raise NoConvergenceError(
            f"Newton iteration did not converge in {NEWTON_MAX_STEPS} steps"
        )
    cert = MetricCertificate.from_matrix(p, rho, mu)
    return LinearDesign(
        a=a,
        b=b,
        rho=float(rho),
        mu_target=float(mu),
        certificate=cert,
        gain=b.T @ p,
        newton_iterates=tuple(iterates),
    )
