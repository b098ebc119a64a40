import os

import numpy as np
import pytest

from edgesync import (
    EmptyWindowError,
    NotPositiveDefiniteError,
    WeightedGraph,
    check_monotone,
    edge_energy,
    fit_decay_rate,
    parse_scenario,
    random_connected_graph,
    realize,
    simulate_batch,
    sync_error,
)
from edgesync import analysis
from edgesync.analysis import FIT_FLOOR_RTOL

from helpers import C3, P3, SCENARIO_DIR


class TestSyncError:
    def test_all_equal(self):
        assert sync_error(np.tile([1.0, 2.0], (4, 1))) == 0.0

    def test_single_pair_scalar(self):
        assert sync_error(np.array([[0.0], [3.0]])) == 3.0

    def test_three_scalars(self):
        assert sync_error(np.array([[0.0], [1.0], [3.0]])) == 6.0
        # a 1-D array is one stack of scalar agents
        assert sync_error(np.array([0.0, 1.0, 3.0])) == 6.0

    def test_vector_states(self):
        states = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert sync_error(states) == pytest.approx(5.0)


class TestEdgeEnergy:
    def test_zero_on_agreement(self):
        assert edge_energy(np.tile([2.0, -1.0], (3, 1)), C3, np.eye(2)) == 0.0

    def test_single_edge_by_hand(self):
        g = WeightedGraph(2, ((1, 2, 2.0),))
        xs = np.array([[0.0], [1.0]])
        assert edge_energy(xs, g, np.eye(1)) == 2.0
        assert sync_error(xs) == 1.0

    def test_matches_kron_form(self):
        rng = np.random.default_rng(6)
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        for _ in range(10):
            xs = rng.standard_normal((3, 2))
            big = np.kron(C3.laplacian(), p)
            oracle = float(xs.reshape(-1) @ big @ xs.reshape(-1))
            assert abs(edge_energy(xs, C3, p) - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_rejects_indefinite_metric(self):
        with pytest.raises(NotPositiveDefiniteError):
            edge_energy(np.zeros((3, 2)), C3, np.diag([1.0, -1.0]))


def loop_sync_error(xs):
    """Per-stack reference: the sum over pairs, one agent at a time."""
    total = 0.0
    for i in range(xs.shape[0] - 1):
        diffs = xs[i + 1:] - xs[i]
        total += float(np.sqrt((diffs * diffs).sum(axis=1)).sum())
    return total


def whole_record_sync_error(record):
    """The pair sums over a whole (R, N, n) record at once, with no chunks."""
    total = np.zeros(record.shape[0])
    for i in range(record.shape[1] - 1):
        diffs = record[:, i + 1:] - record[:, i:i + 1]
        total += np.sqrt((diffs * diffs).sum(axis=2)).sum(axis=1)
    return total


def loop_edge_energy(xs, g, p):
    """Per-stack reference: w e^T P e summed in canonical edge order."""
    total = 0.0
    for k, l, w in g.edges:
        e = xs[l - 1] - xs[k - 1]
        total += w * float(e @ p @ e)
    return total


def series_cases():
    """(graph, metric, (R, N, n) record) triples, seeded."""
    rng = np.random.default_rng(17)
    big = random_connected_graph(150, 0.05, (0.1, 6.0), seed=5)
    p3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
    return {
        "c3": (C3, np.array([[2.0, 0.5], [0.5, 1.0]]),
               rng.standard_normal((7, 3, 2))),
        "p3_scalar": (P3, np.eye(1), rng.standard_normal((5, 3, 1))),
        "n150": (big, p3, 10.0 * rng.standard_normal((6, 150, 3))),
    }


class TestSeriesForms:
    """V and sync error over a record equal per-stack calls bit for bit."""

    @pytest.mark.parametrize("case", ["c3", "p3_scalar", "n150"])
    def test_record_matches_single_stacks(self, case):
        g, p, record = series_cases()[case]
        v = edge_energy(record, g, p)
        sync = sync_error(record)
        assert v.shape == sync.shape == (record.shape[0],)
        for r, xs in enumerate(record):
            assert v[r] == edge_energy(xs, g, p)
            assert sync[r] == sync_error(xs)
            assert v[r] == loop_edge_energy(xs, g, p)
            assert sync[r] == loop_sync_error(xs)

    def test_sync_error_chunks_keep_the_bits(self):
        # a lorenz15-sized record spans three chunks of stacks
        rng = np.random.default_rng(3)
        chunk = analysis._SYNC_CHUNK_CELLS // (15 * 3)
        record = 10.0 * rng.standard_normal((2 * chunk + 3, 15, 3))
        sync = sync_error(record)
        assert np.array_equal(sync, whole_record_sync_error(record))
        for r in (0, chunk - 1, chunk, chunk + 1, len(record) - 1):
            assert sync[r] == sync_error(record[r])

    def test_leading_shape_kept(self):
        g, p, record = series_cases()["c3"]
        grid = record[:6].reshape(2, 3, 3, 2)
        assert np.array_equal(edge_energy(grid, g, p),
                              edge_energy(record[:6], g, p).reshape(2, 3))
        assert np.array_equal(sync_error(grid),
                              sync_error(record[:6]).reshape(2, 3))

    @pytest.mark.parametrize("case", ["c3", "p3_scalar", "n150"])
    def test_v_matches_kron_form(self, case):
        g, p, record = series_cases()[case]
        big = np.kron(g.laplacian(), p)
        for xs, v in zip(record, edge_energy(record, g, p)):
            oracle = float(xs.reshape(-1) @ big @ xs.reshape(-1))
            assert abs(v - oracle) <= 1e-10 * abs(oracle)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        fit = fit_decay_rate(t, 5.0 * np.exp(-2.0 * t), (0.0, 5.0))
        assert fit.rate == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.clipped

    def test_constant_channel(self):
        t = np.linspace(0.0, 1.0, 50)
        fit = fit_decay_rate(t, np.full(50, 3.0), (0.0, 1.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_window_restricts_samples(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.exp(-t)
        v[:50] = 1.0  # flat early segment outside the window
        fit = fit_decay_rate(t, v, (5.0, 10.0))
        assert fit.rate == pytest.approx(1.0, abs=1e-9)
        assert fit.window[0] >= 5.0

    def test_clips_at_nonpositive(self):
        t = np.linspace(0.0, 4.0, 41)
        v = np.exp(-t)
        v[30:] = 0.0
        fit = fit_decay_rate(t, v, (0.0, 4.0))
        assert fit.clipped
        assert fit.rate == pytest.approx(1.0, abs=1e-9)

    def test_clips_at_round_off_floor(self):
        # below FIT_FLOOR_RTOL of the peak the samples are noise the fit
        # must skip; up to t = end, exp(-t) stays above the floor
        t = np.linspace(0.0, 60.0, 601)
        v = 3.0 * np.exp(-t)
        end = np.floor(np.log(1.0 / FIT_FLOOR_RTOL)) - 1.0
        rng = np.random.default_rng(0)
        v[t > end] = 0.1 * FIT_FLOOR_RTOL * rng.uniform(0.5, 2.0, int(np.sum(t > end)))
        fit = fit_decay_rate(t, v, (10.0, 60.0))
        assert fit.clipped
        assert fit.window == (10.0, pytest.approx(end))
        assert fit.rate == pytest.approx(1.0, abs=1e-9)

    def test_lorenz15_rate_ignores_round_off(self):
        # V on lorenz15 reaches exactly 0; scaling x0 by 1 + eps for a few
        # parts in 1e15 must not move the rate fitted on the shipped window
        setup = realize(parse_scenario(os.path.join(SCENARIO_DIR, "lorenz15.scn")))
        eps = np.array([1e-15, 2e-15, 3e-15, 5e-15, 7e-15, 1e-14, 1.5e-14, 2e-14])
        scales = np.concatenate([[0.0], eps, -eps])
        x0s = setup.x0 * (1.0 + scales[:, None])
        trajs = simulate_batch(setup.graph, setup.model,
                               [setup.controller.beta] * len(scales),
                               x0s, setup.t_end, setup.h, setup.record_interval)
        rates = []
        for traj in trajs:
            stacks = traj.states.reshape(traj.n_samples, setup.graph.n,
                                         setup.model.state_dim)
            v = edge_energy(stacks, setup.graph, setup.certificate.p)
            fit = fit_decay_rate(traj.times, v, (0.1 * setup.t_end, setup.t_end))
            assert fit.clipped
            rates.append(fit.rate)
        assert rates[1:] == pytest.approx([rates[0]] * len(eps) * 2, rel=1e-6)

    def test_empty_window(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(EmptyWindowError):
            fit_decay_rate(t, np.exp(-t), (5.0, 6.0))

    def test_all_nonpositive(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(EmptyWindowError):
            fit_decay_rate(t, np.zeros(10), (0.0, 1.0))


class TestCheckMonotone:
    def test_strict_decay_negative(self):
        t = np.linspace(0.0, 2.0, 30)
        assert check_monotone(np.exp(-t)) < 0.0

    def test_constant_zero(self):
        assert check_monotone(np.ones(5)) == 0.0

    def test_fewer_than_two_samples(self):
        assert check_monotone([]) == 0.0
        assert check_monotone([7.0]) == 0.0

    def test_uptick_measured_relative(self):
        # jump of 0.2 against max(1, 4)
        assert check_monotone([10.0, 4.0, 4.2]) == pytest.approx(0.05)
