"""Post-hoc analysis of recorded network states.

sync_error is the sum of pairwise state distances over unordered agent
pairs. The edge energy V weighs each edge's squared disagreement by the
certificate metric and the edge weight:

    V = sum_i w_i (x_li - x_ki)^T P (x_li - x_ki) = x^T (L kron P) x

which decays exponentially at rate at least 2 mu under a valid
certificate and a gain at or above critical. Both play no part in the
closed-loop dynamics: they act on states of shape (..., N, n), so one
call covers a single state stack or a whole (R, N, n) record, and each
stack gets the same bits either way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError, NotPositiveDefiniteError
from .linalg import sym_eig

# V is quadratic in the disagreement, a difference of states that carry
# rounding errors of eps times their size. At 1e-17 of its peak, V holds
# a disagreement 3e-9 of its peak, still good to eps * 3e8 = 7e-8 times
# the ratio of state size to disagreement (tens on lorenz15). Below it
# the log fit follows round-off: lorenz15's V is exactly 0 from t = 9.57,
# and at a floor of 1e-20 its fitted rate moved by up to 5e-6 relative
# when x0 moved by a few parts in 1e15; at 1e-17, by under 2e-7.
FIT_FLOOR_RTOL = 1e-17
# state cells sync_error takes per chunk of stacks: its per-pair
# temporaries then stay near this many doubles instead of growing with
# the record (lorenz15: 364 of its 2 001 records per chunk)
_SYNC_CHUNK_CELLS = 2**14


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a positive series.

    rate is the negated slope of log(values) against time, so the
    values follow value ~ exp(-rate * t) on the window, which holds the
    first and last sample times fitted. clipped is set when samples at
    the round-off floor forced a shorter window than requested.
    """

    rate: float
    r_squared: float
    window: tuple
    clipped: bool = False


def _state_stacks(states):
    """(R, N, n) float view of states shaped (..., N, n), and the leading shape.

    A 1-D array is one stack of N scalar agents.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    return states.reshape((-1,) + states.shape[-2:]), states.shape[:-2]


def sync_error(states):
    """Sum of distances over unordered agent pairs; zero iff all agree.

    Returns a float for one (N, n) stack and an array of the leading
    shape for states shaped (..., N, n). The stacks go in chunks of
    about _SYNC_CHUNK_CELLS state cells, so a pair's differences never
    span the whole record; each stack's sum is the same either way.
    """
    xs, lead = _state_stacks(states)
    total = np.zeros(xs.shape[0])
    chunk = max(1, _SYNC_CHUNK_CELLS // max(1, xs.shape[1] * xs.shape[2]))
    for lo in range(0, xs.shape[0], chunk):
        block, out = xs[lo:lo + chunk], total[lo:lo + chunk]
        for i in range(xs.shape[1] - 1):
            diffs = block[:, i + 1:] - block[:, i:i + 1]
            out += np.sqrt((diffs * diffs).sum(axis=2)).sum(axis=1)
    return total.reshape(lead)[()]


def _validated_metric(p):
    p = np.asarray(p, dtype=float)
    dec = sym_eig(p)
    if dec.eigenvalues.size == 0 or float(dec.eigenvalues[0]) <= 0.0:
        raise NotPositiveDefiniteError("edge energy needs a positive definite metric")
    return p


def edge_energy(states, g, p):
    """Metric-weighted disagreement energy V over the edge set.

    Uses the canonical orientation (terminal minus initial state per
    edge); the energy is orientation-free since each difference enters
    quadratically. The sum runs in canonical edge order. Returns a float
    for one (N, n) stack and an array of the leading shape for states
    shaped (..., N, n).
    """
    p = _validated_metric(p)
    xs, lead = _state_stacks(states)
    total = np.zeros(xs.shape[0])
    for k, l, w in zip(g.init, g.term, g.weights):
        e = xs[:, l] - xs[:, k]
        total += w * ((e @ p)[:, None, :] @ e[:, :, None])[:, 0, 0]
    return total.reshape(lead)[()]


def fit_decay_rate(times, values, window):
    """Fit log(values) = a - rate * t by least squares on a time window.

    times and values are matching 1-D series. The window ends before
    the first sample at or below FIT_FLOOR_RTOL times the peak of the
    series (or at or below zero), which the result marks clipped. Raises
    EmptyWindowError when fewer than two usable samples remain.
    """
    t = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0, t1 = window
    mask = (t >= t0) & (t <= t1)
    if not np.any(mask):
        raise EmptyWindowError(f"window {window} selects no samples")
    tw = t[mask]
    vw = values[mask]
    floor = max(0.0, FIT_FLOOR_RTOL * float(np.max(values)))
    clipped = False
    low = np.nonzero(vw <= floor)[0]
    if low.size:
        vw = vw[: low[0]]
        tw = tw[: low[0]]
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


def check_monotone(values):
    """Largest relative uptick between consecutive samples of a series.

    Differences are normalized by max(1, previous value) so the check is
    meaningful both near zero and at large energies. A nonpositive
    return means the series never rises.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        return 0.0
    diffs = values[1:] - values[:-1]
    rel = diffs / np.maximum(1.0, values[:-1])
    return float(np.max(rel))
