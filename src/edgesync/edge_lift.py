"""Edge lift of the Laplacian and its endpoint correction.

For any weighted undirected graph there is a Q x Q matrix U with

    U E^T = E^T L          (the lift intertwines L with the edge algebra)
    W U + U^T W > 0        (positive definite symmetric part)

constructed as U = E^T E W + mu * W^-1 V V^T, where V is an orthonormal
basis of ker(E) and Pi = V V^T its projector. Pi E^T = 0 gives the
intertwining, and the symmetric part of W U is W E^T E W + mu * Pi,
positive definite for every mu > 0: a vector x that both terms vanish
on has Pi x = 0 and E W x = 0, so x is orthogonal to ker(E) while W x
lies in it, and x^T W x = 0 forces x = 0. No lift meeting the two
properties has a margin above min over y orthogonal to 1 of
y^T L^2 y / y^T E E^T y. This one approaches that ceiling as mu grows;
the fixed mu = ||W E^T E W||_2, the largest eigenvalue of the N x N
matrix E W^2 E^T, reaches 0.89 to 0.998 of it on the graphs tested.
Trees have full column rank incidence, so U is the edge Laplacian
itself with mu = 0. The endpoint correction Omega relates the lift to
the per-endpoint incidence splits; it is only needed to verify the
lift, so verify_endpoint_identities forms it there.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import nullspace_sym_psd, sym_eig


@dataclass(frozen=True)
class EdgeLift:
    """Constructed lift with its certificate quantities.

    pd_margin is the smallest eigenvalue of (W U + U^T W) / 2, inf for
    an edgeless graph. The lift is edge_laplacian + mu * W^-1 V V^T,
    with V the orthonormal kernel basis nullspace_sym_psd(E^T E) of
    kernel_dim columns and mu the largest eigenvalue of E W^2 E^T, or 0
    when the kernel is empty.
    """

    lift: np.ndarray
    mu: float
    pd_margin: float
    kernel_dim: int


def _symmetric_part(weights, c):
    """(W C + C^T W) / 2 with W = diag(weights), as row and column scalings."""
    return 0.5 * (weights[:, None] * c + c.T * weights)


def _symmetric_part_min_eig(weights, candidate):
    """Smallest eigenvalue of _symmetric_part, inf for an edgeless graph."""
    eigs = sym_eig(_symmetric_part(weights, candidate)).eigenvalues
    return float(eigs.min(initial=np.inf))


def build_edge_lift(m):
    """Construct the edge lift for prepared graph matrices.

    The shift mu is ||W E^T E W||_2, taken from the N x N matrix
    E W^2 E^T, and the margin is computed once for it.
    """
    kernel = nullspace_sym_psd(m.incidence.T @ m.incidence)
    kdim = kernel.shape[1]
    lift, mu = m.edge_laplacian.copy(), 0.0
    if kdim:
        ew = m.incidence * m.weights
        mu = float(sym_eig(ew @ ew.T).eigenvalues[-1])
        lift += mu * ((kernel @ kernel.T) / m.weights[:, None])
    margin = _symmetric_part_min_eig(m.weights, lift)
    return EdgeLift(lift=lift, mu=mu, pd_margin=margin, kernel_dim=kdim)


def endpoint_correction_matrix(m, lift):
    """Omega = (|E^T| L - U |E^T|) / 2 with entrywise absolute value."""
    abs_et = np.abs(m.incidence.T)
    return 0.5 * (abs_et @ m.laplacian - lift @ abs_et)


def verify_endpoint_identities(m, u):
    """Max-norm residuals of the intertwining and both endpoint identities.

    Returns the residuals of U E^T = E^T L, of E_k^T L = U E_k^T + Omega
    and of E_l^T L = U E_l^T + Omega, where the 0/1 endpoint splits E_k
    and E_l mark the negative and the positive entries of the incidence
    matrix. The difference of the endpoint identities is exactly the
    intertwining relation, so all three are round-off small for any
    valid lift.
    """
    omega = endpoint_correction_matrix(m, u.lift)
    intertwining = float(np.max(np.abs(
        u.lift @ m.incidence.T - m.incidence.T @ m.laplacian), initial=0.0))

    def _residual(split):
        st = split.T
        r = st @ m.laplacian - (u.lift @ st + omega)
        return float(np.max(np.abs(r))) if r.size else 0.0

    return (intertwining,
            _residual((m.incidence < 0.0).astype(float)),
            _residual((m.incidence > 0.0).astype(float)))
