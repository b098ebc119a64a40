import numpy as np
import pytest

from edgesync import (
    DimensionMismatchError,
    DivergedError,
    WeightedGraph,
    linear_model,
    perturbed_initial_conditions,
    simulate,
    sync_error,
)

from helpers import P2, P3


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

    def test_metadata_fields(self):
        traj = simulate(P2, decay_model(), 0.2, np.ones(2), 1.0, 0.1, 0.5,
                        metadata={"tag": 7})
        md = traj.metadata
        assert md["graph_hash"] == P2.short_hash()
        assert md["model"] == "linear"
        assert md["beta"] == 0.2 and md["h"] == 0.1
        assert md["tag"] == 7

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
        mon = {"sync_error": lambda xs: sync_error(xs)}
        traj = simulate(P3, model, 0.0, x0, 2.0, 0.01, 0.5, monitors=mon)
        chan = traj.channel("sync_error")
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

    def test_unknown_channel(self):
        traj = simulate(P2, decay_model(), 0.0, np.ones(2), 1.0, 0.1, 0.5)
        with pytest.raises(KeyError):
            traj.channel("nope")


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
