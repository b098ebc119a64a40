"""Fixed-step integration of the coupled network.

The closed-loop vector field stacks all agents: for each agent i,
dx_i/dt = f(x_i) + g(x_i) u_i with u_i the distributed coupling input,
re-evaluated at every integrator stage. Classical fourth-order
Runge-Kutta with a fixed step keeps runs bit-for-bit reproducible and
the monotonicity tolerances simple; there is no adaptive stepping.

The loop allocates its buffers once per set of running members: the
states, the stage input, k1..k4, the alpha values and the inputs u.
The model's f_all, add_gu and alpha_all and
controller.accumulate_coupling are bound to them once, with their
operands (see models.AgentModel), and every stage calls them and runs
the RK4 arithmetic in place, with positional-out ufunc calls on
full-length constants. Only the coupling's gather and its bincount
allocate. The buffers are rebuilt only when a member diverges and is
dropped.

One RK4 loop serves a single run and an ensemble alike: B members that
share the graph, the model and the step but differ in beta and initial
state advance together as one (B*N, n) stack of agent states, and a
single run is the B = 1 case. A run records times, states and coupling
inputs only; quantities that analyse a trajectory, such as the edge
energy and the sync error, are computed from the recorded states
afterwards (see analysis).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .controller import accumulate_coupling, edge_end_arrays
from .errors import DimensionMismatchError, DivergedError

DIVERGENCE_LIMIT = 1e12
# Step budget of one run. The longest shipped scenario, lorenz15, takes
# 20 000 steps; this allows 50 times that and stops settings such as
# h = 1e-300 before they allocate record arrays or loop without end.
MAX_STEPS = 1_000_000
# Float budget of one batch's record arrays: B members, R + 1 samples
# of N agents' n states and N inputs, B (R + 1) N (n + 1) floats. 2**27
# floats are 1 GiB; lorenz15 records 2001 * 15 * 4 = 120 060, and a run
# of MAX_STEPS records on a graphs.MAX_DENSE network of n = 3 would ask
# for 2.6e11 floats, about 260 GB.
MAX_RECORD_FLOATS = 2**27


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


def check_record_budget(n_members, n_records, n_agents, state_dim):
    """Raise ValueError when a batch's record would exceed MAX_RECORD_FLOATS.

    Each member records n_records + 1 samples: a run of round(t_end / h)
    steps of h records every steps_per_record steps.
    """
    floats = n_members * (n_records + 1) * n_agents * (state_dim + 1)
    if floats > MAX_RECORD_FLOATS:
        raise ValueError(
            f"the record of {n_members} run(s) of {n_records + 1} samples of "
            f"{n_agents} agents with {state_dim} states takes {floats} floats, "
            f"more than the budget of {MAX_RECORD_FLOATS}")


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
    stack of all agents of all members still running (see _bind_rk4):
    each stage evaluates alpha once for the coupling inputs u, then the
    drift and g u, and a step's first stage shares its u with the
    record. A member whose state leaves the finite envelope is dropped
    at that step and the others run on. The step settings must pass
    steps_per_record and the record must fit check_record_budget; x0s is
    not modified. Returns one entry per member, in order: its
    Trajectory, or the DivergedError it hit, with its time. Member b is
    bitwise equal to simulate at betas[b] and x0s[b].
    """
    per_record = steps_per_record(h, t_end, record_interval)
    n_agents, n = g.n, model.state_dim
    width = n_agents * n
    betas = np.asarray(betas, dtype=float).reshape(-1)
    n_members = betas.shape[0]
    if n_members == 0:
        return []
    x0s = np.asarray(x0s, dtype=float)
    if x0s.shape != (n_members, width):
        raise DimensionMismatchError(
            f"x0s has shape {x0s.shape}, expected ({n_members}, {width})"
        )
    n_steps = int(round(t_end / h))
    n_records = n_steps // per_record
    check_record_budget(n_members, n_records, n_agents, n)
    times = np.empty(n_records + 1)
    states = np.empty((n_members, n_records + 1, width))
    inputs = np.empty((n_members, n_records + 1, n_agents))

    results = [None] * n_members
    active = np.arange(n_members)
    x, u, largest, couple_x, advance = _bind_rk4(g, model, betas, x0s, h)
    step = 0
    # A diverging member overflows before the guard drops it; the guard
    # reports that as DivergedError, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            t = step * h
            # False for nan and inf as well as for a finite overshoot;
            # the row maxima are only needed when some member fails
            if not largest() <= DIVERGENCE_LIMIT:
                rows = x.reshape(-1, width)
                inside = np.abs(rows).max(axis=1) <= DIVERGENCE_LIMIT
                for member in active[~inside]:
                    results[member] = DivergedError(
                        f"state left the finite envelope at t = {t:.6g}", time=t)
                active = active[inside]
                if active.size == 0:
                    break
                x, u, largest, couple_x, advance = _bind_rk4(
                    g, model, betas[active], rows[inside], h)
            # the record and the k1 stage share this step's inputs
            couple_x()
            if step % per_record == 0:
                idx = step // per_record
                times[idx] = t
                states[active, idx] = x.reshape(-1, width)
                inputs[active, idx] = u.reshape(-1, n_agents)
            if step == n_steps:
                break
            step += 1
            advance()

    for member in active:
        results[member] = Trajectory(times=times.copy(), states=states[member],
                                     inputs=inputs[member])
    return results


def _bind_rk4(g, model, betas, x0s, h):
    """Buffers and bound kernels of one RK4 loop over M running members.

    betas holds the members' gains and x0s their (M, N*n) states. The
    buffers (states x, stage input, k1..k4, alpha values, inputs u,
    edge differences, the guard's scratch and the constants) are
    allocated here once, and the model's f_all, add_gu and alpha_all and
    accumulate_coupling bound to them; the loop rebinds only when a
    member is dropped.
    Returns (x, u, largest, couple_x, advance), each closure taking no
    argument: largest() is max |x| over all entries, nan when one is
    nan; couple_x() writes the coupling inputs of x to u; advance()
    takes one RK4 step of h in place on x from the u couple_x left.
    Each element goes through the operations of the whole-array
    expressions, in their order, so the bits are theirs.
    """
    n = model.state_dim
    x = np.array(x0s, dtype=float).reshape(-1, n)
    y, k1, k2, k3, k4 = (np.empty(x.shape) for _ in range(5))
    alphas, u = np.empty(x.shape[0]), np.empty(x.shape[0])
    ends, others, gains = edge_end_arrays(g, betas)
    couple = partial(accumulate_coupling, alphas, ends, others, gains, u,
                     np.empty(ends.shape[0]))
    alpha_x, alpha_y = model.bind_alpha(x, alphas), model.bind_alpha(y, alphas)
    half_h, full_h, sixth_h, twos = (np.full(x.shape, v)
                                     for v in (0.5 * h, h, h / 6.0, 2.0))
    f1, gu1 = model.bind_f(x, k1), model.bind_gu(x, u, k1)
    # the stage inputs x + (h/2) k1, x + (h/2) k2 and x + h k3
    later_stages = [(dt, k_in, model.bind_f(y, k), model.bind_gu(y, u, k))
                    for dt, k_in, k in ((half_h, k1, k2), (half_h, k2, k3),
                                        (full_h, k3, k4))]
    x_flat, magnitudes = x.reshape(-1), np.empty(x.size)
    absolute, maximum, multiply, add = np.absolute, np.maximum, np.multiply, np.add

    def largest():
        return maximum.reduce(absolute(x_flat, magnitudes))

    def couple_x():
        alpha_x()
        couple()

    def advance():
        f1()
        gu1()
        for dt, k_in, f, gu in later_stages:
            multiply(dt, k_in, y)
            add(x, y, y)
            alpha_y()
            couple()
            f()
            gu()
        # x + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed in that order in k2
        multiply(k2, twos, k2)
        add(k2, k1, k2)
        multiply(k3, twos, k3)
        add(k2, k3, k2)
        add(k2, k4, k2)
        multiply(k2, sixth_h, k2)
        add(k2, x, x)

    return x, u, largest, couple_x, advance


@np.errstate(over="ignore")
def perturbed_initial_conditions(base, n_agents, radius, seed):
    """Common base state plus a seeded uniform-ball perturbation per agent.

    Directions are isotropic and radii follow the uniform distribution on
    the solid ball of the given radius. Returns the stacked vector, with
    inf where base plus perturbation overflows and no warning.
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
