"""Distributed diffusive coupling and its critical gain.

Each agent's scalar input aggregates weighted differences of the
feedback primitive over its neighbors only:

    u_i = beta * sum_{j ~ i} a_ij (alpha(x_j) - alpha(x_i))

which is the negated weighted-Laplacian action on the alpha values.
The pairwise-difference form is the primary implementation because the
differences vanish exactly on the agreement set; the Laplacian form is
kept in tests as an oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotPositiveDefiniteError


@dataclass(frozen=True)
class ControllerConfig:
    """Selected gain next to its critical threshold.

    below_critical is set when beta < beta_star: the exponential
    synchronization guarantee only covers beta >= beta_star, so such a
    configuration runs best-effort.
    """

    beta: float
    beta_star: float
    below_critical: bool = False


def critical_gain(m, lift, rho):
    """Gain threshold rho * w_max / (2 * lambda_min).

    lambda_min is the smallest eigenvalue of the symmetric part
    (W U + U^T W) / 2 of the weighted lift, the quantity the
    synchronization bound actually uses; it is the lift's stored
    positive-definiteness margin.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if m.weight_diag.shape[0] == 0:
        raise DimensionMismatchError("graph has no edges; no coupling to scale")
    lam_low = float(lift.pd_margin)
    if not lam_low > 0.0:
        raise NotPositiveDefiniteError(
            f"lift symmetric part has nonpositive minimal eigenvalue {lam_low:.3e}"
        )
    w_max = float(np.max(np.diag(m.weight_diag)))
    return rho * w_max / (2.0 * lam_low)


def edge_index_arrays(g):
    """Zero-based endpoint index arrays and weights, in canonical order."""
    if g.q == 0:
        z = np.zeros(0, dtype=int)
        return z, z, np.zeros(0)
    init = np.array([k - 1 for k, _, _ in g.edges], dtype=int)
    term = np.array([l - 1 for _, l, _ in g.edges], dtype=int)
    weights = np.array([w for _, _, w in g.edges])
    return init, term, weights


def accumulate_coupling(alphas, init, term, weights, beta):
    """Per-agent inputs from per-edge alpha differences.

    Every edge contributes beta * w * (alpha_term - alpha_init) to its
    initial node and the negative to its terminal node. Accumulation
    order is fixed by the canonical edge order, so results are
    deterministic.
    """
    u = np.zeros(alphas.shape[0])
    diffs = beta * weights * (alphas[term] - alphas[init])
    np.add.at(u, init, diffs)
    np.add.at(u, term, -diffs)
    return u


def coupling_inputs(states, g, model, beta):
    """Distributed inputs for a snapshot of all agent states.

    states is an (N, n) stack, one row per agent. Returns the N scalar
    inputs. u_i depends only on agent i and its neighbors; it is zero
    when all neighbors agree with i.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] != g.n:
        raise DimensionMismatchError(
            f"states must be ({g.n}, n), got {states.shape}"
        )
    if states.shape[1] != model.state_dim:
        raise DimensionMismatchError(
            f"state dimension {states.shape[1]} does not match model "
            f"dimension {model.state_dim}"
        )
    alphas = model.alpha_all(states)
    init, term, weights = edge_index_arrays(g)
    return accumulate_coupling(alphas, init, term, weights, beta)


def make_controller(m, lift, rho, beta=None, beta_multiplier=None):
    """Resolve an absolute or multiplier-specified gain against beta_star."""
    if (beta is None) == (beta_multiplier is None):
        raise ValueError("exactly one of beta and beta_multiplier must be given")
    beta_star = critical_gain(m, lift, rho)
    if beta is None:
        beta = beta_multiplier * beta_star
    return ControllerConfig(
        beta=float(beta),
        beta_star=float(beta_star),
        below_critical=bool(beta < beta_star),
    )
