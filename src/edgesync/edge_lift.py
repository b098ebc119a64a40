"""Edge lift of the Laplacian and its intertwining residual.

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

On every graph no kernel basis is formed, no Q x Q eigensolve runs and
no Q x Q array is held: Pi = I - Q1 Q1^T with Q1 an orthonormal basis
of range(E^T) from the top N - c eigenpairs of the N x N matrix E E^T
(c the graph's component count, so ker(E) has Q - N + c dimensions,
known before any eigensolve), the margin comes from a
matrix of size at most min(Q, 2N), solved for its eigenvalues alone,
and U is kept as its factors Q1, Y and mu / w. lift_rows builds any
rows of U from them, so U is written a share of rows at a time. No
dense incidence is formed either: the products by E are built from the
graph's edge index arrays, E^T a by WeightedGraph.et, rows of E^T E by
incidence_rows and the node sums E E^T, L = E W E^T and E W^2 E^T by
gram.

The intertwining residual needs no U either: U E^T - E^T L is
mu W^-1 (E^T - Q1 Y^T E E^T), of size Q x N. The endpoint identities
E_k^T L = U E_k^T + Omega, and alike for E_l, need no check:
E_k, E_l = (|E| -+ E) / 2 and Omega = (|E^T| L - U |E^T|) / 2 make
their residuals half of the one lift_residual returns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, WeightRangeError
from .linalg import NULLSPACE_RTOL, sym_eig


@dataclass(frozen=True)
class EdgeLift:
    """Constructed lift, kept as its factors, with its certificate quantities.

    The lift is U = E^T E W + mu * W^-1 Pi, with Pi = I - Q1 Q1^T the
    projector onto the kernel_dim-dimensional ker(E) and mu the largest
    eigenvalue of E W^2 E^T, or 0 when the kernel is empty. It is kept
    as q1 (Q x r, Q1 = E^T Y, an orthonormal basis of range(E^T), with
    r = N - c on c components), y (N x r) and scale (mu / w per edge);
    lift_rows builds its rows.
    pd_margin is the smallest eigenvalue of (W U + U^T W) / 2, inf for
    an edgeless graph. No kernel basis is formed.
    """

    q1: np.ndarray
    y: np.ndarray
    scale: np.ndarray
    mu: float
    pd_margin: float
    kernel_dim: int


@np.errstate(over="ignore", invalid="ignore")
def build_edge_lift(g):
    """Construct the edge lift of the weighted graph g.

    With L0 = E E^T = Z diag(d) Z^T, of rank r = N - c on c components,
    and Y = Z / sqrt(d) over its r largest eigenpairs, Q1 = E^T Y is an
    orthonormal basis of range(E^T): Pi = I - Q1 Q1^T and ker(E) has
    Q - r dimensions. The rank is the graph's, not a cut on d, so a
    small lambda_2 of E E^T (a long path) is kept. On
    range(E^T), A = W E^T E W is Y^T L^2 Y, so a forest (r = Q) has
    mu = 0, U = E^T E W and the margin lambda_min(Y^T L^2 Y).
    Otherwise mu = ||A||_2 is the largest eigenvalue of E W^2 E^T, and
    A + mu Pi is mu I on the orthogonal complement of
    S = range(E^T) + range(W E^T). The part R = Pi W E^T of W E^T
    outside range(E^T) has Gram matrix
    E W^2 E^T - (L Y)(L Y)^T = V diag(sigma) V^T, and Q1 with
    R V sigma^-1/2, over the sigma above NULLSPACE_RTOL * mu (mu bounds
    them), is an orthonormal basis of S. In it A + mu Pi is
        H = [[Y^T L^2 Y, Y^T L V sigma^1/2],
             [sigma^1/2 V^T L Y, mu I + diag(sigma)]],
    of size r + s with s at most both N and Q - r. The margin is
    lambda_min(H): the complement's eigenvalue mu is no smaller, as
    x^T A x <= ||A||_2 = mu for unit x in range(Q1). One mu serves all
    components, so the margin carries an absolute error of about
    eps * mu: on a component whose weights are orders of magnitude
    below another's that is a large relative error. mu grows as w_max^2
    and the W^-1 scaling as mu / w_min: if either overflows, this raises
    WeightRangeError, and no warning. It raises the same when the Gram
    matrix, H or their eigenvalues are not finite, and on a forest when
    the margin is not above r * eps * lambda_max(Y^T L^2 Y), the
    round-off of that eigensolve: a path with one weight 1e-155 would
    otherwise certify a margin of 5.6e-17. Every array it keeps or
    forms is at most Q x N or (2N) x (2N).
    """
    w = g.weights
    if not g.q:
        # E E^T = 0: the solve below would yield these empty factors
        return EdgeLift(q1=np.zeros((0, 0)), y=np.zeros((g.n, 0)), scale=np.zeros(0),
                        mu=0.0, pd_margin=np.inf, kernel_dim=0)
    dec = sym_eig(g.gram(np.ones(g.q)))
    c = g.components
    y = dec.eigenvectors[:, c:] / np.sqrt(dec.eigenvalues[c:])
    q1 = g.et(y)
    ly = g.laplacian() @ y
    r = y.shape[1]
    kdim = len(w) - r
    if not kdim:
        # Pi = 0 and H is Y^T L^2 Y alone: at mu = 0 the sigma cut would
        # be 0 and let round-off sigma pull the margin toward 0
        eigs = _sym_eig_finite(ly.T @ ly, w, vectors=False).eigenvalues
        if r and not eigs[0] > r * np.finfo(float).eps * eigs[-1]:
            raise WeightRangeError(
                f"edge weights {w.min():.3g} to {w.max():.3g} put the lift's "
                f"margin {eigs[0]:.3g} at the round-off of {eigs[-1]:.3g}")
        return EdgeLift(q1=q1, y=y, scale=np.zeros(len(w)), mu=0.0,
                        pd_margin=float(eigs.min(initial=np.inf)), kernel_dim=0)
    l2 = g.gram(w * w)
    mu = float(_sym_eig_finite(l2, w).eigenvalues[-1])
    scale = mu / w
    if not np.isfinite(scale).all():
        raise WeightRangeError(f"edge weights {w.min():.3g} to {w.max():.3g} "
                               f"overflow the lift: mu = {mu:.3g}")
    gram = _sym_eig_finite(l2 - ly @ ly.T, w)
    nonzero = gram.eigenvalues > NULLSPACE_RTOL * mu
    sigma = gram.eigenvalues[nonzero]
    cross = ly.T @ (gram.eigenvectors[:, nonzero] * np.sqrt(sigma))
    h = np.block([[ly.T @ ly, cross], [cross.T, np.diag(mu + sigma)]])
    margin = float(_sym_eig_finite(h, w, vectors=False).eigenvalues[0])
    return EdgeLift(q1=q1, y=y, scale=scale, mu=mu, pd_margin=margin,
                    kernel_dim=kdim)


def _sym_eig_finite(a, w, vectors=True):
    """sym_eig(a, vectors), or WeightRangeError when the weights w overflow a or it."""
    try:
        return sym_eig(a, vectors=vectors)
    except NonFiniteError:
        raise WeightRangeError(f"edge weights {w.min():.3g} to {w.max():.3g} "
                               f"overflow the lift") from None


def lift_rows(g, lift, lo, hi):
    """Rows lo to hi of the lift U = E^T E W + mu W^-1 (I - Q1 Q1^T), a new array.

    The operations run in the order of the whole product, so rows 0 to Q
    have the bits U had when it was formed at once (numpy computes
    Q1 Q1^T by one syrk there); a share of fewer rows is a gemm, which
    may differ from it in the last bit. On a forest mu = 0 and the rows
    are those of E^T E W, bit for bit.
    """
    q1 = lift.q1
    rows = q1[lo:hi] @ q1.T
    rows *= -1.0
    rows[np.arange(hi - lo), np.arange(lo, hi)] += 1.0
    rows *= lift.scale[lo:hi, None]
    ete = g.incidence_rows(g.term[lo:hi])
    ete -= g.incidence_rows(g.init[lo:hi])
    ete *= g.weights
    rows += ete
    return rows


def lift_residual(g, lift):
    """max|U E^T - E^T L| of an EdgeLift, 0 on a forest and on an edgeless graph.

    Taken in the factored form mu W^-1 (E^T - Q1 (Y^T E E^T)), with no
    Q x Q array: equal to U E^T - E^T L in exact arithmetic, since
    E^T E W E^T = E^T L and Q1^T E^T = Y^T E E^T. It holds two Q x N
    arrays at a time.
    """
    factor = g.et(np.eye(g.n))
    factor -= lift.q1 @ (lift.y.T @ g.gram(np.ones(g.q)))
    factor *= lift.scale[:, None]
    return float(np.max(np.abs(factor, out=factor), initial=0.0))
