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
    if m.weights.size == 0:
        raise DimensionMismatchError("graph has no edges; no coupling to scale")
    lam_low = float(lift.pd_margin)
    if not lam_low > 0.0:
        raise NotPositiveDefiniteError(
            f"lift symmetric part has nonpositive minimal eigenvalue {lam_low:.3e}"
        )
    return rho * float(m.weights.max()) / (2.0 * lam_low)


def edge_end_arrays(g, betas):
    """Edge ends of B disjoint copies of g, copy b at gain betas[b].

    Returns (ends, others, gains) over the stacked B*N agents, agent i
    of copy b at index b*N + i. Edge end k stands for the contribution
    gains[k] * (alpha[others[k]] - alpha[ends[k]]) to agent ends[k],
    with gains[k] = beta_b * w_e. Within a copy the initial ends come
    first and then the terminal ends, each in canonical edge order.
    """
    betas = np.asarray(betas, dtype=float).reshape(-1, 1)
    offsets = g.n * np.arange(betas.shape[0])[:, None]
    ends = (offsets + np.concatenate((g.init, g.term))).ravel()
    others = (offsets + np.concatenate((g.term, g.init))).ravel()
    with np.errstate(over="ignore"):
        # a gain that overflows diverges at the first step, where simulate
        # reports it
        gains = np.tile(betas * g.weights, 2).ravel()
    return ends, others, gains


def accumulate_coupling(alphas, ends, others, gains, out=None, diffs=None):
    """Per-agent inputs from per-edge alpha differences.

    alphas holds one feedback value per agent of a (possibly stacked)
    network and (ends, others, gains) come from edge_end_arrays. Every
    edge contributes beta * w * (alpha_term - alpha_init) to its initial
    node and beta * w * (alpha_init - alpha_term), the same number
    negated, to its terminal node. One bincount adds the contributions
    in the order of the edge ends, so results are deterministic and a
    copy's inputs do not depend on the other copies. Writes the inputs
    to out and returns it, a fresh array when out is None; diffs, when
    given, takes the per-end contributions. With both given, the gather
    and the bincount result are the only allocations.
    """
    diffs = np.subtract(alphas[others], alphas[ends], diffs)
    np.multiply(gains, diffs, diffs)
    u = np.bincount(ends, diffs, alphas.shape[0])
    if out is None:
        return u
    np.copyto(out, u)
    return out


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
    return accumulate_coupling(model.alpha_all(states), *edge_end_arrays(g, [beta]))


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
