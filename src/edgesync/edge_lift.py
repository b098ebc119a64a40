"""Edge lift of the Laplacian and its endpoint correction.

For any weighted undirected graph there is a Q x Q matrix U with

    U E^T = E^T L          (the lift intertwines L with the edge algebra)
    W U + U^T W > 0        (positive definite symmetric part)

constructed as U = E^T E W + mu * W^-1 Pi, where Pi is the projector
onto ker(E). Pi E^T = 0 gives the intertwining, and the symmetric part
of W U is W E^T E W + mu * Pi,
positive definite for every mu > 0: a vector x that both terms vanish
on has Pi x = 0 and E W x = 0, so x is orthogonal to ker(E) while W x
lies in it, and x^T W x = 0 forces x = 0. No lift meeting the two
properties has a margin above min over y orthogonal to 1 of
y^T L^2 y / y^T E E^T y. This one approaches that ceiling as mu grows;
the fixed mu = ||W E^T E W||_2, the largest eigenvalue of the N x N
matrix E W^2 E^T, reaches 0.89 to 0.998 of it on the graphs tested.
Trees have full column rank incidence, so U is the edge Laplacian
itself with mu = 0.

Two routes compute Pi and the margin, chosen by Q and N alone. Up to
Q = 2N, Pi = V V^T with V an orthonormal basis of ker(E) from the
Q x Q matrix E^T E, and the margin is the smallest eigenvalue of the
Q x Q symmetric part. These eigensolves cost at most 8 times an N x N
one there, and the shipped scenarios' graphs take this route, so their
artifacts keep the round-off bits they have always had. Above Q = 2N
(_node_lift) no kernel basis is formed: Pi = I - Q1 Q1^T with Q1 an
orthonormal basis of range(E^T) from the N x N matrix E E^T, and the
margin comes from a matrix of size at most 2N, so no Q x Q eigensolve
runs.

The endpoint correction Omega relates the lift to the per-endpoint
incidence splits; it is only needed to verify the lift, so
verify_endpoint_identities forms it there.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import NULLSPACE_RTOL, nullspace_sym_psd, sym_eig


@dataclass(frozen=True)
class EdgeLift:
    """Constructed lift with its certificate quantities.

    pd_margin is the smallest eigenvalue of (W U + U^T W) / 2, inf for
    an edgeless graph. The lift is edge_laplacian + mu * W^-1 Pi, with
    Pi the projector onto the kernel_dim-dimensional ker(E) and mu the
    largest eigenvalue of E W^2 E^T, or 0 when the kernel is empty. No
    kernel basis is kept; for Q > 2N none is formed.
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
    E W^2 E^T, and the margin is computed once for it. Graphs with more
    than twice as many edges as nodes take _node_lift, which needs no
    Q x Q eigensolve. One mu serves all components, so the margin carries
    an absolute error of about eps * mu: on a component whose weights are
    orders of magnitude below another's that is a large relative error.
    """
    if m.incidence.shape[1] > 2 * m.incidence.shape[0]:
        return _node_lift(m)
    kernel = nullspace_sym_psd(m.incidence.T @ m.incidence)
    kdim = kernel.shape[1]
    lift, mu = m.edge_laplacian.copy(), 0.0
    if kdim:
        ew = m.incidence * m.weights
        mu = float(sym_eig(ew @ ew.T).eigenvalues[-1])
        lift += mu * ((kernel @ kernel.T) / m.weights[:, None])
    margin = _symmetric_part_min_eig(m.weights, lift)
    return EdgeLift(lift=lift, mu=mu, pd_margin=margin, kernel_dim=kdim)


def _node_lift(m):
    """build_edge_lift from N x N eigensolves and one of size at most 2N.

    With L0 = E E^T = Z diag(d) Z^T and Y = Z / sqrt(d) over its r
    nonzero eigenvalues, Q1 = E^T Y is an orthonormal basis of
    range(E^T): Pi = I - Q1 Q1^T and ker(E) has Q - r dimensions. With
    A = W E^T E W, A + mu Pi is mu I on the orthogonal complement of
    S = range(E^T) + range(W E^T). The part R = Pi W E^T of W E^T
    outside range(E^T) has Gram matrix
    E W^2 E^T - (L Y)(L Y)^T = V diag(sigma) V^T, and Q1 with
    R V sigma^-1/2, over the sigma above NULLSPACE_RTOL * mu (mu bounds
    them), is an orthonormal basis of S. In it A + mu Pi is
        H = [[Y^T L^2 Y, Y^T L V sigma^1/2],
             [sigma^1/2 V^T L Y, mu I + diag(sigma)]],
    of size at most 2N. The margin is lambda_min(H): the complement's
    eigenvalue mu is no smaller, as x^T A x <= ||A||_2 = mu for unit x
    in range(Q1).
    """
    e, w = m.incidence, m.weights
    dec = sym_eig(e @ e.T)
    d = dec.eigenvalues
    keep = d > NULLSPACE_RTOL * max(1.0, float(d[-1]))
    y = dec.eigenvectors[:, keep] / np.sqrt(d[keep])
    q1 = e.T @ y
    ew = e * w
    l2 = ew @ ew.T
    mu = float(sym_eig(l2).eigenvalues[-1])
    # mu * W^-1 (I - Q1 Q1^T) + E^T E W, in place in one Q x Q array
    lift = q1 @ q1.T
    lift *= -1.0
    lift.flat[::lift.shape[0] + 1] += 1.0
    lift *= mu / w[:, None]
    lift += m.edge_laplacian
    ly = m.laplacian @ y
    gram = sym_eig(l2 - ly @ ly.T)
    nonzero = gram.eigenvalues > NULLSPACE_RTOL * mu
    sigma = gram.eigenvalues[nonzero]
    cross = ly.T @ (gram.eigenvectors[:, nonzero] * np.sqrt(sigma))
    h = np.block([[ly.T @ ly, cross], [cross.T, np.diag(mu + sigma)]])
    margin = float(sym_eig(h).eigenvalues[0])
    return EdgeLift(lift=lift, mu=mu, pd_margin=margin,
                    kernel_dim=e.shape[1] - int(keep.sum()))


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
