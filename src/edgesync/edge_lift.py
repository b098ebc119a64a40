"""Edge lift of the Laplacian and its endpoint correction.

For any weighted undirected graph there is a Q x Q matrix U with

    U E^T = E^T L          (the lift intertwines L with the edge algebra)
    W U + U^T W > 0        (positive definite symmetric part)

constructed as U = E^T E W + mu * sum_i v_i v_i^T over an orthonormal
basis {v_i} of ker(E). Trees have full column rank incidence, so U is
the edge Laplacian itself with mu = 0; cycles require a positive kernel
shift found by a doubling search. The endpoint correction Omega relates
the lift to the per-endpoint incidence splits; it is only needed to
verify the lift, so verify_endpoint_identities forms it there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LiftSearchError
from .linalg import nullspace_sym_psd, sym_eig

MARGIN_FLOOR_RTOL = 1e-10
MAX_DOUBLINGS = 40
MAX_HALVINGS = 60


@dataclass(frozen=True)
class EdgeLift:
    """Constructed lift with its certificate quantities.

    pd_margin is the smallest eigenvalue of (W U + U^T W) / 2, inf for
    an edgeless graph. The lift is edge_laplacian + mu * V V^T, with V
    the orthonormal kernel basis nullspace_sym_psd(E^T E) of kernel_dim
    columns.
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

    The kernel shift mu starts at the smallest Laplacian eigenvalue above
    the rank tolerance (the algebraic connectivity when the graph is
    connected) and doubles until the symmetric part of W U clears a
    positive-definiteness floor. Strongly nonuniform weights can push the
    feasible window below the seed: on ker(E) the symmetric part grows
    like mu * V^T W^-1 V while the indefinite cross terms grow with mu,
    so small shifts always work but large ones may not. When doubling
    fails the search therefore halves downward from the seed. The margin
    is concave in mu (the smallest eigenvalue of an affine symmetric
    family), so once a failing doubling lowers it every larger shift
    fails too and the search goes straight to the halvings. Exhausting
    both schedules raises LiftSearchError to flag a numerical defect.
    """
    gram = m.incidence.T @ m.incidence
    kernel = nullspace_sym_psd(gram)
    kdim = kernel.shape[1]
    if kdim == 0:
        lift = m.edge_laplacian.copy()
        mu = 0.0
        margin = _symmetric_part_min_eig(m.weights, lift)
    else:
        lap_eigs = sym_eig(m.laplacian).eigenvalues
        lam_max = float(lap_eigs[-1])
        positive = lap_eigs[lap_eigs > 1e-9 * max(1.0, lam_max)]
        # a graph with edges always has a positive Laplacian eigenvalue
        mu0 = float(positive[0])
        floor = MARGIN_FLOOR_RTOL * float(m.weights.max())
        projector = kernel @ kernel.T
        lift = None
        j, previous = 0, -np.inf
        while j >= -MAX_HALVINGS:
            mu_try = mu0 * (2.0 ** j)
            cand = m.edge_laplacian + mu_try * projector
            margin_try = _symmetric_part_min_eig(m.weights, cand)
            if margin_try > floor:
                lift, mu, margin = cand, mu_try, margin_try
                break
            if 0 <= j < MAX_DOUBLINGS and margin_try >= previous:
                j, previous = j + 1, margin_try
            else:
                j = min(j, 0) - 1
        if lift is None:
            raise LiftSearchError(
                f"no shift within 2^-{MAX_HALVINGS}..2^{MAX_DOUBLINGS} of "
                f"{mu0:.3e} achieved a positive-definite symmetric part"
            )
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
