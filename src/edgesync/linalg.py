"""Dense linear-algebra kernel used by every other module.

All matrix primitives the package needs live here so that tolerance
conventions are defined once. Tolerances are relative to
max(1, magnitude) so checks behave sanely near zero.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSymmetricError,
    SingularMatrixError,
)

SYMMETRY_RTOL = 1e-9
NULLSPACE_RTOL = 1e-9


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are ascending; eigenvectors are orthonormal columns, the
    i-th column pairing with the i-th eigenvalue.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def sym_eig(a):
    """Decompose a symmetric matrix into ascending eigenvalues and vectors.

    Raises NonSymmetricError when the input exceeds the relative symmetry
    tolerance, NoConvergenceError if the underlying iteration fails.
    """
    a = _as_square(a)
    if a.size:
        skew = np.max(np.abs(a - a.T))
        if skew > SYMMETRY_RTOL * max(1.0, np.max(np.abs(a))):
            raise NonSymmetricError(
                f"matrix is not symmetric within tolerance (max skew {skew:.3e})"
            )
    if a.shape[0] == 0:
        return SymEig(np.zeros(0), np.zeros((0, 0)))
    try:
        w, q = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return SymEig(w, q)


def lyapunov_solve(a, q):
    """Solve a^T X + X a + q = 0 for symmetric q by Bartels-Stewart.

    Raises SingularMatrixError where LAPACK's trsyl has to perturb the
    Schur form of a: the equation is then singular to working precision,
    as when an eigenvalue pair of a sums to zero, and scipy would only
    warn and solve the perturbed equation. The result is symmetrized
    exactly.
    """
    a = _as_square(a)
    q = _as_square(q, "q")
    n = a.shape[0]
    if q.shape[0] != n:
        raise DimensionMismatchError(f"q has shape {q.shape}, expected ({n}, {n})")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            x = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
        except RuntimeWarning as exc:
            raise SingularMatrixError(f"Lyapunov operator is singular: {exc}") from exc
    return 0.5 * (x + x.T)
