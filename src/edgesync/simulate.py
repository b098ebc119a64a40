"""Fixed-step integration of the coupled network.

The closed-loop vector field stacks all agents: for each agent i,
dx_i/dt = f(x_i) + g(x_i) u_i with u_i the distributed coupling input,
re-evaluated at every integrator stage. Classical fourth-order
Runge-Kutta with a fixed step keeps runs bit-for-bit reproducible and
the monotonicity tolerances simple; there is no adaptive stepping.

One RK4 loop serves a single run and an ensemble alike: B members that
share the graph, the model and the step but differ in beta and initial
state advance together as a (B, N*n) stack, and a single run is the
B = 1 case. A run records times, states and coupling inputs only;
quantities that analyse a trajectory, such as the edge energy and the
sync error, are computed from the recorded states afterwards (see
analysis).
"""

from dataclasses import dataclass, field

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
    metadata: dict = field(default_factory=dict)

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


def simulate(g, model, beta, x0, t_end, h, record_interval, metadata=None):
    """Integrate the network and record at a uniform interval.

    The step settings must pass steps_per_record. Deterministic:
    identical inputs give bitwise identical trajectories. Raises
    DivergedError, with its time, when the state leaves the finite
    envelope.
    """
    x0s = np.asarray(x0, dtype=float).reshape(1, -1)
    [result] = simulate_batch(g, model, [beta], x0s, t_end, h, record_interval,
                              metadata)
    if isinstance(result, DivergedError):
        raise result
    return result


def simulate_batch(g, model, betas, x0s, t_end, h, record_interval,
                   metadata=None):
    """Integrate B copies of the network that differ only in beta and x0.

    betas holds the B gains and x0s is the (B, N*n) stack of their
    initial states. One RK4 loop advances every member: each stage
    evaluates the model once on the (B*N, n) stack of all agents of all
    members still running. A member whose state leaves the finite
    envelope is dropped at that step and the others run on. Returns one
    entry per member, in order: its Trajectory, or the DivergedError it
    hit, with its time. Member b is bitwise equal to simulate at
    betas[b] and x0s[b].
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
    n_steps = int(round(t_end / h))
    n_records = n_steps // per_record

    def vector_field(x, coupling):
        xs = x.reshape(-1, n)
        u = accumulate_coupling(model.alpha_all(xs), *coupling)
        return (model.f_all(xs) + model.g_all(xs) * u[:, None]).reshape(x.shape)

    times = np.empty(n_records + 1)
    states = np.empty((n_members, n_records + 1, width))
    inputs = np.empty((n_members, n_records + 1, n_agents))

    def record(idx, t, x, active, coupling):
        times[idx] = t
        states[active, idx] = x
        u = accumulate_coupling(model.alpha_all(x.reshape(-1, n)), *coupling)
        inputs[active, idx] = u.reshape(-1, n_agents)

    results = [None] * n_members
    active = np.arange(n_members)
    coupling = edge_end_arrays(g, betas)
    step = 0
    while True:
        t = step * h
        # False for nan and inf as well as for a finite overshoot
        inside = np.abs(x).max(axis=1) <= DIVERGENCE_LIMIT
        if not inside.all():
            for member in active[~inside]:
                results[member] = DivergedError(
                    f"state left the finite envelope at t = {t:.6g}", time=t)
            active, x = active[inside], x[inside]
            if active.size == 0:
                break
            coupling = edge_end_arrays(g, betas[active])
        if step % per_record == 0:
            record(step // per_record, t, x, active, coupling)
        if step == n_steps:
            break
        step += 1
        k1 = vector_field(x, coupling)
        k2 = vector_field(x + 0.5 * h * k1, coupling)
        k3 = vector_field(x + 0.5 * h * k2, coupling)
        k4 = vector_field(x + h * k3, coupling)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for member in active:
        results[member] = Trajectory(
            times=times.copy(),
            states=states[member],
            inputs=inputs[member],
            metadata={
                "graph_hash": g.short_hash(),
                "model": model.name,
                "beta": float(betas[member]),
                "h": float(h),
                "record_interval": float(record_interval),
                "t_end": float(t_end),
                **(metadata or {}),
            },
        )
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
