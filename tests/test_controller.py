import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesync import (
    DimensionMismatchError,
    WeightedGraph,
    accumulate_coupling,
    build_edge_lift,
    coupling_inputs,
    critical_gain,
    edge_end_arrays,
    linear_model,
    make_controller,
    random_connected_graph,
)

from helpers import C3, DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, P2


def scalar_identity_model():
    # alpha(x) = x for scalar agents
    return linear_model(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))


class TestCriticalGain:
    def test_c3_sixth(self):
        lift = build_edge_lift(C3)
        assert critical_gain(C3, lift, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_p2_quarter_w(self):
        # single edge: beta_star = rho / (4 w)
        g = WeightedGraph(2, ((1, 2, 2.0),))
        lift = build_edge_lift(g)
        assert critical_gain(g, lift, 3.0) == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_scaled_weights_stay_finite(self):
        for c in (0.1, 1.0, 10.0):
            g = WeightedGraph(3, ((1, 2, c), (1, 3, c), (2, 3, c)))
            lift = build_edge_lift(g)
            val = critical_gain(g, lift, 1.0)
            assert np.isfinite(val) and val > 0

    def test_guards(self):
        lift = build_edge_lift(C3)
        with pytest.raises(ValueError):
            critical_gain(C3, lift, 0.0)
        g0 = WeightedGraph(2, ())
        lift0 = build_edge_lift(g0)
        with pytest.raises(DimensionMismatchError):
            critical_gain(g0, lift0, 1.0)


class TestCouplingInputs:
    def test_zero_on_manifold_exact(self):
        model = linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                             np.array([1.0, 2.0]))
        states = np.tile([1.7, -0.3], (3, 1))
        u = coupling_inputs(states, C3, model, 4.0)
        assert np.array_equal(u, np.zeros(3))

    def test_p2_two_term_sum(self):
        model = scalar_identity_model()
        g = WeightedGraph(2, ((1, 2, 2.5),))
        beta = 3.0
        states = np.array([[1.0], [4.0]])
        u = coupling_inputs(states, g, model, beta)
        assert u[0] == beta * 2.5 * 3.0
        assert u[1] == -u[0]

    def test_antisymmetric_total(self):
        # diffusive coupling sums to zero over the whole network
        rng = np.random.default_rng(3)
        g = random_connected_graph(7, 0.5, (0.1, 6.0), 12)
        model = scalar_identity_model()
        states = rng.standard_normal((7, 1))
        u = coupling_inputs(states, g, model, 2.0)
        assert abs(u.sum()) <= 1e-12 * max(1.0, np.max(np.abs(u)))

    def test_laplacian_form_equivalence(self):
        rng = np.random.default_rng(8)
        model = scalar_identity_model()
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 10)),
                                       float(rng.uniform()), (0.1, 6.0),
                                       int(rng.integers(0, 2**31)))
            lap = g.laplacian()
            for _ in range(10):
                states = rng.standard_normal((g.n, 1))
                beta = float(rng.uniform(0.1, 5.0))
                u = coupling_inputs(states, g, model, beta)
                oracle = -beta * lap @ states[:, 0]
                scale = max(1.0, float(np.max(np.abs(oracle))))
                assert np.max(np.abs(u - oracle)) <= 1e-12 * scale
            # a stack of B copies at their own gains: copy b is the
            # oracle at beta_b, and bitwise the copy on its own
            betas = rng.uniform(0.1, 5.0, size=4)
            alphas = rng.standard_normal((4, g.n))
            u = accumulate_coupling(alphas.ravel(), *edge_end_arrays(g, betas))
            for beta, alpha, u_b in zip(betas, alphas, u.reshape(4, g.n)):
                oracle = -beta * lap @ alpha
                scale = max(1.0, float(np.max(np.abs(oracle))))
                assert np.max(np.abs(u_b - oracle)) <= 1e-12 * scale
                alone = accumulate_coupling(alpha, *edge_end_arrays(g, [beta]))
                assert np.array_equal(u_b, alone)

    def test_distributed_bitwise(self):
        # u_i ignores non-neighbors down to the last bit
        g = WeightedGraph(4, ((1, 2, 1.5), (2, 3, 0.7), (3, 4, 2.0)))
        model = scalar_identity_model()
        rng = np.random.default_rng(5)
        states = rng.standard_normal((4, 1))
        u_before = coupling_inputs(states, g, model, 1.3)
        moved = states.copy()
        moved[3, 0] += 100.0
        u_after = coupling_inputs(moved, g, model, 1.3)
        # node 4 is not adjacent to nodes 1 and 2
        assert u_after[0] == u_before[0]
        assert u_after[1] == u_before[1]
        assert u_after[2] != u_before[2]

    def test_shape_validation(self):
        model = scalar_identity_model()
        with pytest.raises(DimensionMismatchError):
            coupling_inputs(np.zeros((2, 1)), C3, model, 1.0)
        with pytest.raises(DimensionMismatchError):
            coupling_inputs(np.zeros((3, 2)), C3, model, 1.0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, float(rng.uniform()), (0.1, 6.0), seed)
        model = scalar_identity_model()
        states = rng.standard_normal((n, 1))
        perm = rng.permutation(n)
        relabeled = WeightedGraph.from_pairs(
            n, [(perm[k - 1] + 1, perm[l - 1] + 1, w) for k, l, w in g.edges])
        u = coupling_inputs(states, g, model, 1.7)
        u_perm = coupling_inputs(states[np.argsort(perm)], relabeled, model, 1.7)
        # float sums reassociate under relabeling, hence the tolerance;
        # nodes of degree <= 2 commute exactly
        scale = max(1.0, float(np.max(np.abs(u))))
        assert np.max(np.abs(u_perm[perm] - u)) <= 1e-12 * scale


class TestEdgeIndexArrays:
    def test_canonical_zero_based(self):
        assert C3.init.tolist() == [0, 0, 1]
        assert C3.term.tolist() == [1, 2, 2]
        assert C3.weights.tolist() == [1.0, 1.0, 1.0]
        # the graph's arrays are shared, so they are read-only
        with pytest.raises(ValueError):
            C3.weights[0] = 2.0

    def test_empty(self):
        g = WeightedGraph(2, ())
        assert g.init.size == 0 and g.term.size == 0 and g.weights.size == 0


class TestMakeController:
    def test_multiplier_path(self):
        lift = build_edge_lift(C3)
        cfg = make_controller(C3, lift, 1.0, beta_multiplier=2.0)
        assert cfg.beta == pytest.approx(2.0 / 6.0)
        assert not cfg.below_critical

    def test_absolute_below_critical_flagged(self):
        lift = build_edge_lift(C3)
        cfg = make_controller(C3, lift, 1.0, beta=0.01)
        assert cfg.below_critical
        assert cfg.beta_star == pytest.approx(1.0 / 6.0)

    def test_exactly_one_spec(self):
        lift = build_edge_lift(C3)
        with pytest.raises(ValueError):
            make_controller(C3, lift, 1.0)
        with pytest.raises(ValueError):
            make_controller(C3, lift, 1.0, beta=1.0, beta_multiplier=1.0)
