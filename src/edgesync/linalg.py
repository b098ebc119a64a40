"""Dense linear-algebra kernel used by every other module.

All matrix primitives the package needs live here so that tolerance
conventions are defined once. Tolerances are relative to
max(1, magnitude) so checks behave sanely near zero. Everything here is
numpy alone: the Lyapunov solve is a complex Bartels-Stewart on a Schur
form found by deflation, so the run path never imports scipy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    SingularMatrixError,
)

SYMMETRY_RTOL = 1e-9
NULLSPACE_RTOL = 1e-9


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix, or of each in a stack.

    eigenvalues are ascending; eigenvectors are orthonormal columns, the
    i-th column pairing with the i-th eigenvalue, or None when only the
    eigenvalues were asked for.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


@np.errstate(over="ignore")
def sym_eig(a, vectors=True):
    """Decompose symmetric matrices into ascending eigenvalues and vectors.

    a is an (n, n) matrix or a (..., n, n) stack, which gives the bits of
    one call per matrix: eigenvalues (..., n), eigenvectors (..., n, n).
    With vectors=False only the eigenvalues are computed (eigvalsh, not
    eigh) and eigenvectors is None; the eigenvalues need not have the
    bits of the full decomposition's. Raises NonFiniteError when an
    entry or an eigenvalue is not finite, NonSymmetricError when a
    matrix exceeds the relative symmetry tolerance of its own largest
    entry (an a - a.T that overflows does), NoConvergenceError if the
    underlying iteration fails.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            f"matrix must be square or a stack of square matrices, got shape {a.shape}")
    if a.size == 0:
        return SymEig(np.zeros(a.shape[:-1]), np.zeros(a.shape) if vectors else None)
    top = np.max(np.abs(a), axis=(-2, -1))
    if not np.isfinite(top).all():
        raise NonFiniteError(f"symmetric eigensolver fed a matrix with an "
                             f"entry that is not finite ({np.max(top)})")
    a_t = np.swapaxes(a, -2, -1)
    skew = np.max(np.abs(a - a_t), axis=(-2, -1))
    if np.any(skew > SYMMETRY_RTOL * np.maximum(1.0, top)):
        raise NonSymmetricError(
            f"matrix is not symmetric within tolerance (max skew {np.max(skew):.3e})"
        )
    try:
        # halves first: a + a.T overflows for entries above about 9e307,
        # and halving is exact above the subnormals, so the bits are kept
        sym = 0.5 * a + 0.5 * a_t
        dec = (SymEig(*np.linalg.eigh(sym)) if vectors
               else SymEig(np.linalg.eigvalsh(sym), None))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    if not np.isfinite(dec.eigenvalues).all():
        raise NonFiniteError("symmetric eigensolver's eigenvalues overflow")
    return dec


def _complex_schur(a):
    """Unitary u and upper-triangular t with a = u t u^H, by deflation.

    For k = 0 .. n-2 an eigenvalue lam of the trailing block S = t[k:, k:]
    is taken from np.linalg.eigvals, and H, the right singular vectors of
    S - lam I with the null vector first, rotates it to the block's first
    column. A backward-stable lam gives sigma_min(S - lam I) <= eps * |S|,
    so zeroing t[k+1:, k] is a backward-stable step however non-normal S
    is. Costs O(n^4): one n-k eigensolve and SVD per step. Raises
    NonFiniteError when a block S - lam I is not finite.
    """
    n = a.shape[0]
    t = a.astype(complex)
    u = np.eye(n, dtype=complex)
    for k in range(n - 1):
        s = t[k:, k:]
        lam = np.linalg.eigvals(s)[0] if np.isfinite(s).all() else np.inf
        shifted = s - lam * np.eye(n - k)
        if not np.isfinite(shifted).all():
            raise NonFiniteError("Schur form overflows: the matrix's entries "
                                 "are out of floating-point range")
        h = np.linalg.svd(shifted)[2][::-1].conj().T
        t[k:, k:] = h.conj().T @ s @ h
        t[:k, k:] = t[:k, k:] @ h
        u[:, k:] = u[:, k:] @ h
        t[k + 1:, k] = 0.0
    return u, t


@np.errstate(over="ignore", invalid="ignore")
def lyapunov_solve(a, q):
    """Solve a^T X + X a + q = 0 for symmetric q by Bartels-Stewart.

    With a = U T U^H from _complex_schur and F = U^H q U, T^H Y + Y T = -F
    is solved column by column, (T^H + t_jj I) y_j = -f_j - Y[:, :j] T[:j, j],
    and X = Re(U Y U^H). Raises SingularMatrixError when some
    conj(t_ii) + t_jj is at most eps * max(1, max |T|), or a column solve
    fails: the equation is then singular to working precision, as when an
    eigenvalue pair of a sums to zero. The result is symmetrized exactly.
    Raises NonFiniteError, and no warning, when a, q, the Schur form or X
    has an entry that is not finite, and when an entry of the Schur form
    has finite parts but a modulus that overflows, which would make max |T|
    and the singularity test meaningless.
    """
    a = _as_square(a)
    q = _as_square(q, "q")
    n = a.shape[0]
    if q.shape[0] != n:
        raise DimensionMismatchError(f"q has shape {q.shape}, expected ({n}, {n})")
    if not (np.isfinite(a).all() and np.isfinite(q).all()):
        raise NonFiniteError("Lyapunov equation has an entry that is not "
                             "finite: its numbers are out of floating-point range")
    u, t = _complex_schur(a)
    top = float(np.max(np.abs(t), initial=0.0))
    if not np.isfinite(top):
        raise NonFiniteError("Schur form overflows: an entry's modulus is "
                             "out of floating-point range")
    diag = t.diagonal()
    gap = np.min(np.abs(diag.conj()[:, None] + diag), initial=np.inf)
    if gap <= np.finfo(float).eps * max(1.0, top):
        raise SingularMatrixError(
            f"Lyapunov operator is singular: eigenvalue pair sum {gap:.3e}")
    f = u.conj().T @ q @ u
    th = t.conj().T
    y = np.zeros((n, n), dtype=complex)
    try:
        for j in range(n):
            rhs = -f[:, j] - y[:, :j] @ t[:j, j]
            y[:, j] = np.linalg.solve(th + t[j, j] * np.eye(n), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Lyapunov operator is singular: {exc}") from exc
    x = (u @ y @ u.conj().T).real
    x = 0.5 * (x + x.T)
    if not np.isfinite(x).all():
        raise NonFiniteError("Lyapunov solution overflows: the equation's "
                             "numbers are out of floating-point range")
    return x
