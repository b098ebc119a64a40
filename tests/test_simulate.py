import dataclasses
import warnings

import numpy as np
import pytest

from edgesync import (
    DimensionMismatchError,
    DivergedError,
    WeightedGraph,
    linear_model,
    lorenz_model,
    perturbed_initial_conditions,
    simulate,
    simulate_batch,
    sync_error,
    tanh_perturbed_model,
)
from edgesync.controller import accumulate_coupling, edge_end_arrays
from edgesync.simulate import DIVERGENCE_LIMIT, MAX_STEPS, steps_per_record

from helpers import C3, DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, P2, P3


def decay_model(rate=1.0):
    return linear_model(np.array([[-rate]]), np.array([1.0]), np.array([0.0]))


def integrator_model():
    return linear_model(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))


def one_step(model, x0, h):
    """A single RK4 step: simulate with t_end = h = record_interval."""
    return simulate(P2, model, 0.0, x0, h, h, h)


class TestRk4Step:
    def test_decay_polynomial_factor(self):
        # RK4 on xdot = -x contracts by the quartic Taylor polynomial of
        # exp(-h): 1 - 0.1 + 0.005 - 1/6000 + 1/240000 = 0.9048375
        x0 = np.array([2.0, -3.0])
        traj = one_step(decay_model(), x0, 0.1)
        assert np.allclose(traj.states[-1] / x0, 0.9048375, atol=1e-12)
        assert traj.times[-1] == 0.1

    def test_zero_field_fixed_point(self):
        model = linear_model(np.zeros((1, 1)), np.array([1.0]), np.array([0.0]))
        x0 = np.array([1.5, -2.5])
        traj = one_step(model, x0, 0.05)
        assert np.array_equal(traj.states[-1], x0)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatchError):
            one_step(decay_model(), np.zeros(3), 0.1)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            simulate(P2, decay_model(), 0.0, np.zeros(2), 0.1, 0.0, 0.1)


class TestRichardson:
    def test_global_fourth_order(self):
        model = decay_model()
        exact = np.exp(-1.0)
        errs = []
        for h in (0.1, 0.05):
            traj = simulate(P2, model, 0.0, np.array([1.0, 1.0]), 1.0, h, 1.0)
            errs.append(abs(traj.states[-1, 0] - exact))
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0


class TestSimulate:
    def test_record_grid(self):
        traj = simulate(P3, decay_model(), 0.1, np.array([1.0, 2.0, 3.0]),
                        2.0, 0.01, 0.5)
        assert traj.n_samples == 5
        assert np.allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
        assert traj.states.shape == (5, 3)
        assert traj.inputs.shape == (5, 3)

    def test_step_budget(self):
        assert steps_per_record(1.0, float(MAX_STEPS), 1.0) == 1
        with pytest.raises(ValueError):
            steps_per_record(1.0, float(MAX_STEPS + 1), 1.0)
        with pytest.raises(ValueError):
            steps_per_record(1.0, 1.0, float(MAX_STEPS + 1))
        with pytest.raises(ValueError):
            steps_per_record(1e-300, 1.0, 1e-300)
        with pytest.raises(ValueError):
            steps_per_record(1e-320, 1e-316, 1.0)

    def test_interval_must_divide(self):
        with pytest.raises(ValueError):
            simulate(P2, decay_model(), 0.0, np.ones(2), 1.0, 0.03, 0.1)

    def test_step_larger_than_interval(self):
        with pytest.raises(ValueError):
            simulate(P2, decay_model(), 0.0, np.ones(2), 1.0, 0.2, 0.1)

    def test_wrong_x0_size(self):
        with pytest.raises(DimensionMismatchError):
            simulate(P2, decay_model(), 0.0, np.ones(3), 1.0, 0.1, 0.5)

    def test_decoupled_integrators_keep_disagreement(self):
        # beta = 0, zero drift: sync error stays exactly put
        model = integrator_model()
        x0 = np.array([0.0, 1.0, 3.0])
        traj = simulate(P3, model, 0.0, x0, 2.0, 0.01, 0.5)
        chan = sync_error(traj.states.reshape(traj.n_samples, 3, 1))
        assert np.array_equal(chan, np.full(5, chan[0]))
        assert chan[0] == 6.0

    def test_manifold_invariance(self):
        model = integrator_model()
        x0 = np.full(3, 2.5)
        traj = simulate(P3, model, 5.0, x0, 2.0, 0.01, 0.5)
        spread = traj.states.max(axis=1) - traj.states.min(axis=1)
        assert np.max(spread) <= 1e-10

    def test_bitwise_deterministic(self):
        model = decay_model(0.7)
        x0 = np.array([1.0, -2.0, 0.5])
        a = simulate(P3, model, 0.3, x0, 3.0, 0.01, 0.1)
        b = simulate(P3, model, 0.3, x0, 3.0, 0.01, 0.1)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)

    def test_divergence_raises_with_time(self):
        growth = linear_model(np.array([[5.0]]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(DivergedError) as exc:
            simulate(P2, growth, 0.0, np.full(2, 1e3), 10.0, 0.01, 0.1)
        assert 0.0 < exc.value.time <= 10.0


RING4 = WeightedGraph(4, ((1, 2, 1.0), (1, 4, 0.3), (2, 3, 0.5), (3, 4, 2.0)))


def batch_cases():
    """(graph, model, betas, base state, t_end, h, record_interval)."""
    k = np.array([0.8, 1.7])
    return {
        "linear": (C3, linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, k),
                   [0.05, 0.5, 2.0], np.zeros(2), 3.0, 0.01, 0.1),
        "tanh": (P3, tanh_perturbed_model(DOUBLE_INTEGRATOR_A,
                                          DOUBLE_INTEGRATOR_B, 0.05, k),
                 [0.3, 1.0, 4.0], np.zeros(2), 3.0, 0.01, 0.1),
        "lorenz": (RING4, lorenz_model(10.0, 28.0, 8.0 / 3.0, [1.0, 0.8, 0.0]),
                   [0.0, 5.0, 30.0], np.array([6.7, 1.3, 31.2]), 0.3, 0.001,
                   0.01),
    }


def assert_same_trajectory(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)


class TestSimulateBatch:
    @pytest.mark.parametrize("kind", ["linear", "tanh", "lorenz"])
    def test_member_matches_single_run(self, kind):
        g, model, betas, base, t_end, h, interval = batch_cases()[kind]
        x0s = np.array([perturbed_initial_conditions(base, g.n, 1.0, seed)
                        for seed in range(len(betas))])
        batch = simulate_batch(g, model, betas, x0s, t_end, h, interval)
        assert len(batch) == len(betas)
        for beta, x0, member in zip(betas, x0s, batch):
            single = simulate(g, model, beta, x0, t_end, h, interval)
            assert_same_trajectory(member, single)

    def test_diverging_member_leaves_neighbours_alone(self):
        model = integrator_model()
        betas = [0.5, 1000.0, 2.0]
        x0 = np.array([0.0, 1.0, 3.0])
        batch = simulate_batch(P3, model, betas, np.tile(x0, (3, 1)), 2.0,
                               0.01, 0.1)
        with pytest.raises(DivergedError) as alone:
            simulate(P3, model, betas[1], x0, 2.0, 0.01, 0.1)
        assert isinstance(batch[1], DivergedError)
        assert 0.0 < batch[1].time < 2.0
        assert batch[1].time == alone.value.time
        assert str(batch[1]) == str(alone.value)
        for i in (0, 2):
            single = simulate(P3, model, betas[i], x0, 2.0, 0.01, 0.1)
            assert_same_trajectory(batch[i], single)

    def test_member_outside_envelope_at_start(self):
        x0s = np.array([[1.0, 2.0], [1e13, 0.0]])
        batch = simulate_batch(P2, decay_model(), [0.1, 0.1], x0s, 1.0, 0.1, 0.5)
        assert batch[0].n_samples == 3
        assert isinstance(batch[1], DivergedError) and batch[1].time == 0.0

    def test_empty_batch(self):
        assert simulate_batch(P2, decay_model(), [], np.zeros((0, 2)),
                              1.0, 0.1, 0.5) == []

    def test_x0s_shape_guard(self):
        with pytest.raises(DimensionMismatchError):
            simulate_batch(P2, decay_model(), [0.1, 0.2], np.zeros((1, 2)),
                           1.0, 0.1, 0.5)


def reference_batch(g, model, betas, x0s, t_end, h, record_interval):
    """simulate_batch's RK4 loop written with whole-array expressions.

    Returns per member (times, states, inputs) or the divergence time.
    """
    per_record = steps_per_record(h, t_end, record_interval)
    n = model.state_dim
    betas = np.asarray(betas, dtype=float)
    x = np.array(x0s, dtype=float)
    active = np.arange(len(betas))
    records = {member: ([], [], []) for member in active}
    diverged = {}
    coupling = edge_end_arrays(g, betas)

    def field(x):
        xs = x.reshape(-1, n)
        u = accumulate_coupling(model.alpha_all(xs), *coupling)
        return (model.f_all(xs) + model.g_all(xs) * u[:, None]).reshape(x.shape)

    n_steps = int(round(t_end / h))
    for step in range(n_steps + 1):
        t = step * h
        inside = np.abs(x).max(axis=1) <= DIVERGENCE_LIMIT
        for member in active[~inside]:
            diverged[member] = t
        active, x = active[inside], x[inside]
        if active.size == 0:
            break
        coupling = edge_end_arrays(g, betas[active])
        if step % per_record == 0:
            u = accumulate_coupling(model.alpha_all(x.reshape(-1, n)), *coupling)
            for row, member in enumerate(active):
                times, states, inputs = records[member]
                times.append(t)
                states.append(x[row])
                inputs.append(u.reshape(-1, g.n)[row])
        if step == n_steps:
            break
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return [diverged[member] if member in diverged
            else tuple(np.array(seq) for seq in records[member])
            for member in range(len(betas))]


def assert_matches_reference(batch, reference):
    for result, expected in zip(batch, reference, strict=True):
        if isinstance(result, DivergedError):
            assert result.time == expected
        else:
            assert np.array_equal(result.times, expected[0])
            assert np.array_equal(result.states, expected[1])
            assert np.array_equal(result.inputs, expected[2])


class TestStageArithmetic:
    """The in-place RK4 stages give the bits of the whole-array expressions."""

    @pytest.mark.parametrize("kind", ["linear", "tanh", "lorenz"])
    def test_batch_matches_reference(self, kind):
        g, model, betas, base, t_end, h, interval = batch_cases()[kind]
        x0s = np.array([perturbed_initial_conditions(base, g.n, 1.0, seed)
                        for seed in range(len(betas))])
        assert_matches_reference(
            simulate_batch(g, model, betas, x0s, t_end, h, interval),
            reference_batch(g, model, betas, x0s, t_end, h, interval))

    def test_diverging_member_matches_reference(self):
        args = (P3, integrator_model(), [0.5, 1000.0, 2.0],
                np.tile([0.0, 1.0, 3.0], (3, 1)), 2.0, 0.01, 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            reference = reference_batch(*args)
        assert not isinstance(reference[1], tuple)
        assert_matches_reference(simulate_batch(*args), reference)

    def test_overflowing_lorenz_member_matches_reference(self):
        # the 1e290 member's coupling overflows in the first stage; its
        # divergence time and the other members' bits must not move
        g, model, _, base, _, h, interval = batch_cases()["lorenz"]
        betas = [5.0, 1e290, 30.0]
        x0s = np.array([perturbed_initial_conditions(base, g.n, 1.0, seed)
                        for seed in range(len(betas))])
        args = (g, model, betas, x0s, 0.05, h, interval)
        with np.errstate(over="ignore", invalid="ignore"):
            reference = reference_batch(*args)
        assert reference[1] == h
        assert_matches_reference(simulate_batch(*args), reference)

    def test_overflowing_member_warns_nothing(self):
        # at beta = 1e290 the coupling overflows in the first stage; the
        # guard reports that member and numpy must not warn about it
        g, model, _, base, _, h, interval = batch_cases()["lorenz"]
        betas = [5.0, 1e290, 30.0]
        x0s = np.tile(perturbed_initial_conditions(base, g.n, 1.0, 0), (3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = simulate_batch(g, model, betas, x0s, 0.05, h, interval)
        assert isinstance(batch[1], DivergedError) and batch[1].time == h
        for i in (0, 2):
            single = simulate(g, model, betas[i], x0s[i], 0.05, h, interval)
            assert_same_trajectory(batch[i], single)


def counting_model(model, counts):
    """model with each batched callable counting its calls in counts."""
    def counted(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapper
    return dataclasses.replace(model, **{
        name: counted(name, getattr(model, name))
        for name in ("f_all", "g_all", "alpha_all", "add_gu")})


class TestModelCalls:
    @pytest.mark.parametrize("kind", ["linear", "lorenz"])
    def test_one_coupling_and_one_field_per_stage(self, kind):
        # alpha_all once per stage, plus once for the state after the
        # last step: the record shares the k1 stage's inputs. field_all
        # is one f_all and one add_gu per stage; g_all is never called.
        g, model, betas, base, t_end, h, interval = batch_cases()[kind]
        counts = {}
        x0s = np.tile(perturbed_initial_conditions(base, g.n, 1.0, 0),
                      (len(betas), 1))
        batch = simulate_batch(g, counting_model(model, counts), betas, x0s,
                               t_end, h, interval)
        n_steps = int(round(t_end / h))
        assert all(not isinstance(r, DivergedError) for r in batch)
        assert counts == {"alpha_all": 4 * n_steps + 1,
                          "f_all": 4 * n_steps, "add_gu": 4 * n_steps}


class TestPerturbedInitialConditions:
    def test_shape_and_radius(self):
        base = np.array([1.0, -2.0, 0.5])
        x0 = perturbed_initial_conditions(base, 8, 1.5, 42)
        assert x0.shape == (24,)
        devs = x0.reshape(8, 3) - base
        norms = np.linalg.norm(devs, axis=1)
        assert np.all(norms <= 1.5 + 1e-12)
        assert np.all(norms > 0)

    def test_deterministic_and_seed_sensitive(self):
        base = np.zeros(2)
        a = perturbed_initial_conditions(base, 4, 5.0, 11)
        b = perturbed_initial_conditions(base, 4, 5.0, 11)
        c = perturbed_initial_conditions(base, 4, 5.0, 12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_agents_distinct(self):
        x0 = perturbed_initial_conditions(np.zeros(2), 5, 1.0, 0).reshape(5, 2)
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(x0[i], x0[j])
