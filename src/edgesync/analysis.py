"""Monitors and post-hoc analysis of network runs.

sync_error is the sum of pairwise state distances over unordered agent
pairs. The edge energy V weighs each edge's squared disagreement by the
certificate metric and the edge weight:

    V = sum_i w_i (x_li - x_ki)^T P (x_li - x_ki) = x^T (L kron P) x

which decays exponentially at rate at least 2 mu under a valid
certificate and a gain at or above critical.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError, NotPositiveDefiniteError
from .linalg import sym_eig


@dataclass(frozen=True)
class SyncMetrics:
    sync_error: float
    edge_energy: float
    per_edge: np.ndarray


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a positive channel.

    rate is the negated slope of log(channel) against time, so channel
    values follow value ~ exp(-rate * t) on the window. clipped is set
    when nonpositive samples forced a shorter window than requested.
    """

    rate: float
    r_squared: float
    window: tuple
    clipped: bool = False


def _as_state_stack(states):
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    return states


def sync_error(states):
    """Sum of distances over unordered agent pairs; zero iff all agree."""
    xs = _as_state_stack(states)
    total = 0.0
    for i in range(xs.shape[0] - 1):
        diffs = xs[i + 1:] - xs[i]
        total += float(np.sqrt((diffs * diffs).sum(axis=1)).sum())
    return total


def _validated_metric(p):
    p = np.asarray(p, dtype=float)
    dec = sym_eig(p)
    if dec.eigenvalues.size == 0 or float(dec.eigenvalues[0]) <= 0.0:
        raise NotPositiveDefiniteError("edge energy needs a positive definite metric")
    return p


def _edge_terms(xs, edges, p):
    """Weighted total and per-edge e^T P e, with e = x_l - x_k.

    The total accumulates in canonical edge order, so every caller gets
    the same bits.
    """
    per_edge = []
    total = 0.0
    for k, l, w in edges:
        e = xs[l - 1] - xs[k - 1]
        quad = float(e @ p @ e)
        per_edge.append(quad)
        total += w * quad
    return total, per_edge


def edge_energy(states, g, p):
    """Metric-weighted disagreement energy over the edge set.

    Uses the canonical orientation (terminal minus initial state per
    edge); the energy is orientation-free since each difference enters
    quadratically.
    """
    xs = _as_state_stack(states)
    total, per_edge = _edge_terms(xs, g.edges, _validated_metric(p))
    return SyncMetrics(
        sync_error=sync_error(xs),
        edge_energy=total,
        per_edge=np.array(per_edge, dtype=float),
    )


def make_monitors(g, p):
    """Standard monitor channels: edge energy V and pairwise sync error."""
    p = _validated_metric(p)

    def v_channel(xs):
        return _edge_terms(xs, g.edges, p)[0]

    return {"V": v_channel, "sync_error": sync_error}


def fit_decay_rate(traj, channel, window):
    """Fit log(channel) = a - rate * t by least squares on a time window.

    Nonpositive channel values cannot enter the log fit; when present,
    the window is shrunk to the longest strictly positive prefix and the
    result is marked clipped. Raises EmptyWindowError when fewer than
    two usable samples remain.
    """
    values = traj.channel(channel)
    t = traj.times
    t0, t1 = window
    mask = (t >= t0) & (t <= t1)
    if not np.any(mask):
        raise EmptyWindowError(f"window {window} selects no samples")
    tw = t[mask]
    vw = values[mask]
    clipped = False
    nonpos = np.nonzero(vw <= 0.0)[0]
    if nonpos.size:
        vw = vw[: nonpos[0]]
        tw = tw[: nonpos[0]]
        clipped = True
    if tw.shape[0] < 2:
        raise EmptyWindowError("fewer than two positive samples in the window")
    logv = np.log(vw)
    slope, intercept = np.polyfit(tw, logv, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(-slope),
        r_squared=float(r_squared),
        window=(float(tw[0]), float(tw[-1])),
        clipped=clipped,
    )


def check_monotone(traj, channel, tol=1e-6):
    """Largest relative uptick between consecutive samples.

    Differences are normalized by max(1, previous value) so the check is
    meaningful both near zero and at large energies. A channel passes
    the monotone-decay check when the return value is at most tol.
    """
    values = traj.channel(channel)
    if values.shape[0] < 2:
        return 0.0
    diffs = values[1:] - values[:-1]
    rel = diffs / np.maximum(1.0, values[:-1])
    return float(np.max(rel))
