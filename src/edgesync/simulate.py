"""Fixed-step integration of the coupled network.

The closed-loop vector field stacks all agents: for each agent i,
dx_i/dt = f(x_i) + g(x_i) u_i with u_i the distributed coupling input,
re-evaluated at every integrator stage; the model's field_all evaluates
f + g u for all agents at once, adding g u to the drift in place.
Classical fourth-order Runge-Kutta with a fixed step keeps runs
bit-for-bit reproducible and the monotonicity tolerances simple; there
is no adaptive stepping.

One RK4 loop serves a single run and an ensemble alike: B members that
share the graph, the model and the step but differ in beta and initial
state advance together as one (B*N, n) stack of agent states, and a
single run is the B = 1 case. A run records times, states and coupling
inputs only; quantities that analyse a trajectory, such as the edge
energy and the sync error, are computed from the recorded states
afterwards (see analysis).
"""

from dataclasses import dataclass

import numpy as np

from .controller import accumulate_coupling, edge_end_arrays
from .errors import DimensionMismatchError, DivergedError

DIVERGENCE_LIMIT = 1e12
# Step budget of one run. The longest shipped scenario, lorenz15, takes
# 20 000 steps; this allows 50 times that and stops settings such as
# h = 1e-300 before they allocate record arrays or loop without end.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled run record.

    states rows follow the agent-major stacked layout; inputs holds the
    N coupling inputs recomputed at each sample.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    @property
    def n_samples(self):
        return self.times.shape[0]


def steps_per_record(h, t_end, record_interval):
    """Validate the step settings and return the RK4 steps per record.

    Raises ValueError unless all three are finite, t_end > 0,
    0 < h <= record_interval, record_interval is a whole multiple of h
    and neither t_end nor record_interval takes more than MAX_STEPS
    steps of h.
    """
    if not np.all(np.isfinite([h, t_end, record_interval])):
        raise ValueError("h, t_end and record_interval must be finite")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if h <= 0.0 or h > record_interval:
        raise ValueError("need 0 < h <= record_interval")
    if max(t_end, record_interval) / h > MAX_STEPS:
        raise ValueError(f"t_end and record_interval may span at most "
                         f"{MAX_STEPS} steps of h")
    per_record = record_interval / h
    if abs(per_record - round(per_record)) > 1e-9:
        raise ValueError("record_interval must be a whole multiple of h")
    return int(round(per_record))


def simulate(g, model, beta, x0, t_end, h, record_interval):
    """Integrate the network and record at a uniform interval.

    The step settings must pass steps_per_record. Deterministic:
    identical inputs give bitwise identical trajectories. Raises
    DivergedError, with its time, when the state leaves the finite
    envelope.
    """
    x0s = np.asarray(x0, dtype=float).reshape(1, -1)
    [result] = simulate_batch(g, model, [beta], x0s, t_end, h, record_interval)
    if isinstance(result, DivergedError):
        raise result
    return result


def simulate_batch(g, model, betas, x0s, t_end, h, record_interval):
    """Integrate B copies of the network that differ only in beta and x0.

    betas holds the B gains and x0s is the (B, N*n) stack of their
    initial states. One RK4 loop advances every member on the (B*N, n)
    stack of all agents of all members still running: each stage calls
    model.alpha_all once for the coupling inputs u and model.field_all
    once for f + g u (one f_all and one add_gu), and a step's first
    stage shares its u with the record. A member whose state leaves the
    finite envelope is dropped at that step and the others run on.
    Returns one entry per member, in order: its Trajectory, or the
    DivergedError it hit, with its time. Member b is bitwise equal to
    simulate at betas[b] and x0s[b].
    """
    per_record = steps_per_record(h, t_end, record_interval)
    n_agents, n = g.n, model.state_dim
    width = n_agents * n
    betas = np.asarray(betas, dtype=float).reshape(-1)
    n_members = betas.shape[0]
    if n_members == 0:
        return []
    x = np.array(x0s, dtype=float)
    if x.shape != (n_members, width):
        raise DimensionMismatchError(
            f"x0s has shape {x.shape}, expected ({n_members}, {width})"
        )
    x = x.reshape(-1, n)
    n_steps = int(round(t_end / h))
    n_records = n_steps // per_record
    times = np.empty(n_records + 1)
    states = np.empty((n_members, n_records + 1, width))
    inputs = np.empty((n_members, n_records + 1, n_agents))

    results = [None] * n_members
    active = np.arange(n_members)
    coupling = edge_end_arrays(g, betas)

    def stage(xs):
        return model.field_all(
            xs, accumulate_coupling(model.alpha_all(xs), *coupling))

    half_h, sixth_h = 0.5 * h, h / 6.0
    step = 0
    # A diverging member overflows before the guard drops it; the guard
    # reports that as DivergedError, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            t = step * h
            # False for nan and inf as well as for a finite overshoot;
            # the row maxima are only needed when some member fails
            if not np.abs(x).max() <= DIVERGENCE_LIMIT:
                x = x.reshape(-1, width)
                inside = np.abs(x).max(axis=1) <= DIVERGENCE_LIMIT
                for member in active[~inside]:
                    results[member] = DivergedError(
                        f"state left the finite envelope at t = {t:.6g}", time=t)
                active, x = active[inside], x[inside].reshape(-1, n)
                if active.size == 0:
                    break
                coupling = edge_end_arrays(g, betas[active])
            # the record and the k1 stage share this step's inputs
            u = accumulate_coupling(model.alpha_all(x), *coupling)
            if step % per_record == 0:
                idx = step // per_record
                times[idx] = t
                states[active, idx] = x.reshape(-1, width)
                inputs[active, idx] = u.reshape(-1, n_agents)
            if step == n_steps:
                break
            step += 1
            k1 = model.field_all(x, u)
            k2 = stage(x + half_h * k1)
            k3 = stage(x + half_h * k2)
            k4 = stage(x + h * k3)
            # x + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed in that order in k2
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= sixth_h
            k2 += x
            x = k2

    for member in active:
        results[member] = Trajectory(times=times.copy(), states=states[member],
                                     inputs=inputs[member])
    return results


def perturbed_initial_conditions(base, n_agents, radius, seed):
    """Common base state plus a seeded uniform-ball perturbation per agent.

    Directions are isotropic and radii follow the uniform distribution on
    the solid ball of the given radius. Returns the stacked vector.
    """
    base = np.asarray(base, dtype=float).reshape(-1)
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    n = base.shape[0]
    rng = np.random.default_rng(seed)
    out = np.empty((n_agents, n))
    for i in range(n_agents):
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = np.zeros(n)
            direction[0] = 1.0
            norm = 1.0
        scale = radius * rng.uniform() ** (1.0 / n)
        out[i] = base + (scale / norm) * direction
    return out.reshape(-1)
