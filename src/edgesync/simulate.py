"""Fixed-step integration of the coupled network.

The closed-loop vector field stacks all agents: for each agent i,
dx_i/dt = f(x_i) + g(x_i) u_i with u_i the distributed coupling input,
re-evaluated at every integrator stage. Classical fourth-order
Runge-Kutta with a fixed step keeps runs bit-for-bit reproducible and
the monotonicity tolerances simple; there is no adaptive stepping.
"""

from dataclasses import dataclass, field

import numpy as np

from .controller import accumulate_coupling, edge_index_arrays
from .errors import DimensionMismatchError, DivergedError

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled run record.

    states rows follow the agent-major stacked layout; inputs holds the
    N coupling inputs recomputed at each sample; monitors maps channel
    name to a per-sample array.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    monitors: dict
    metadata: dict = field(default_factory=dict)

    @property
    def n_samples(self):
        return self.times.shape[0]

    def channel(self, name):
        if name not in self.monitors:
            raise KeyError(f"no monitor channel {name!r}")
        return self.monitors[name]


def _make_field(g, model, beta):
    n_agents, n = g.n, model.state_dim
    init, term, weights = edge_index_arrays(g)

    def vector_field(x_flat):
        xs = x_flat.reshape(n_agents, n)
        drift = model.f_all(xs)
        alphas = model.alpha_all(xs)
        u = accumulate_coupling(alphas, init, term, weights, beta)
        dxs = drift + model.g_all(xs) * u[:, None]
        return dxs.reshape(-1), u

    return vector_field


def _rk4_update(x, h, vector_field):
    k1, _ = vector_field(x)
    k2, _ = vector_field(x + 0.5 * h * k1)
    k3, _ = vector_field(x + 0.5 * h * k2)
    k4, _ = vector_field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(x, t):
    if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_LIMIT:
        raise DivergedError(f"state left the finite envelope at t = {t:.6g}", time=t)


def steps_per_record(h, t_end, record_interval):
    """Validate the step settings and return the RK4 steps per record.

    Raises ValueError unless all three are finite, t_end > 0,
    0 < h <= record_interval and record_interval is a whole multiple
    of h.
    """
    if not np.all(np.isfinite([h, t_end, record_interval])):
        raise ValueError("h, t_end and record_interval must be finite")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if h <= 0.0 or h > record_interval:
        raise ValueError("need 0 < h <= record_interval")
    per_record = record_interval / h
    if abs(per_record - round(per_record)) > 1e-9:
        raise ValueError("record_interval must be a whole multiple of h")
    return int(round(per_record))


def simulate(g, model, beta, x0, t_end, h, record_interval, monitors=None,
             metadata=None):
    """Integrate the network and record at a uniform interval.

    monitors maps channel names to callables taking the (N, n) state
    stack and returning a scalar. The step settings must pass
    steps_per_record. Deterministic: identical inputs give bitwise
    identical trajectories.
    """
    per_record = steps_per_record(h, t_end, record_interval)
    n_agents, n = g.n, model.state_dim
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.shape[0] != n_agents * n:
        raise DimensionMismatchError(
            f"x0 has {x.shape[0]} entries, expected {n_agents * n}"
        )
    monitors = dict(monitors or {})
    n_steps = int(round(t_end / h))
    n_records = n_steps // per_record

    vector_field = _make_field(g, model, beta)
    init, term, weights = edge_index_arrays(g)

    times = np.empty(n_records + 1)
    states = np.empty((n_records + 1, n_agents * n))
    inputs = np.empty((n_records + 1, n_agents))
    channels = {name: np.empty(n_records + 1) for name in monitors}

    def record(idx, t, x_flat):
        xs = x_flat.reshape(n_agents, n)
        alphas = model.alpha_all(xs)
        times[idx] = t
        states[idx] = x_flat
        inputs[idx] = accumulate_coupling(alphas, init, term, weights, beta)
        for name, fn in monitors.items():
            channels[name][idx] = fn(xs)

    _check_finite(x, 0.0)
    record(0, 0.0, x)
    for step in range(1, n_steps + 1):
        x = _rk4_update(x, h, vector_field)
        t = step * h
        _check_finite(x, t)
        if step % per_record == 0:
            record(step // per_record, t, x)

    meta = {
        "graph_hash": g.short_hash(),
        "model": model.name,
        "beta": float(beta),
        "h": float(h),
        "record_interval": float(record_interval),
        "t_end": float(t_end),
    }
    meta.update(metadata or {})
    return Trajectory(
        times=times,
        states=states,
        inputs=inputs,
        monitors=channels,
        metadata=meta,
    )


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
