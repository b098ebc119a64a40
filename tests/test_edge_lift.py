import numpy as np
import pytest

from edgesync import (
    WeightedGraph,
    build_edge_lift,
    build_matrices,
    edge_lift,
    endpoint_correction_matrix,
    nullspace_sym_psd,
    random_connected_graph,
    sym_eig,
    verify_endpoint_identities,
)

from helpers import C3, P2, P3, graph_family, shifted_union


def intertwining_residual(m, lift):
    r = lift.lift @ m.incidence.T - m.incidence.T @ m.laplacian
    return float(np.max(np.abs(r))) if r.size else 0.0


class TestTreeCase:
    def test_p3_lift_is_edge_laplacian(self):
        m = build_matrices(P3)
        lift = build_edge_lift(m)
        assert np.array_equal(lift.lift, m.edge_laplacian)
        assert lift.mu == 0.0
        assert lift.kernel_dim == 0
        # symmetric part of W U has eigenvalues {1, 3}
        assert lift.pd_margin == pytest.approx(1.0, abs=1e-12)

    def test_p2(self):
        lift = build_edge_lift(build_matrices(P2))
        assert np.array_equal(lift.lift, [[2.0]])
        assert lift.pd_margin == pytest.approx(2.0)


class TestCycleCase:
    def test_c3_shift_lands_on_lambda2(self):
        m = build_matrices(C3)
        lift = build_edge_lift(m)
        assert lift.kernel_dim == 1
        assert lift.mu == pytest.approx(3.0, abs=1e-9)
        eigs = np.sort(np.linalg.eigvals(lift.lift).real)
        assert np.allclose(eigs, [3.0, 3.0, 3.0], atol=1e-9)
        assert lift.pd_margin == pytest.approx(3.0, abs=1e-9)
        v = nullspace_sym_psd(m.incidence.T @ m.incidence)[:, 0]
        assert np.allclose(np.abs(v), 1.0 / np.sqrt(3.0), atol=1e-12)

    def test_reconstruction_from_parts(self):
        m = build_matrices(C3)
        lift = build_edge_lift(m)
        kernel = nullspace_sym_psd(m.incidence.T @ m.incidence)
        assert kernel.shape[1] == lift.kernel_dim
        rebuilt = m.edge_laplacian + lift.mu * (kernel @ kernel.T)
        assert np.array_equal(rebuilt, lift.lift)


class TestDegenerateCases:
    def test_edgeless_graph(self):
        lift = build_edge_lift(build_matrices(WeightedGraph(2, ())))
        assert lift.lift.shape == (0, 0)
        assert lift.pd_margin == np.inf

    def test_disconnected_tree_blocks(self):
        g = shifted_union(P2, P2)
        lift = build_edge_lift(build_matrices(g))
        assert lift.mu == 0.0
        assert lift.pd_margin > 0.0

    def test_disconnected_with_cycle(self):
        g = shifted_union(C3, P2)
        m = build_matrices(g)
        lift = build_edge_lift(m)
        assert lift.kernel_dim == 1
        assert lift.pd_margin > 0.0
        assert intertwining_residual(m, lift) <= 1e-10


class TestFamilyProperties:
    def test_intertwining_and_margin(self):
        for g in graph_family(32):
            m = build_matrices(g)
            lift = build_edge_lift(m)
            tol = 1e-8 * max(1.0, float(np.max(np.abs(m.laplacian))))
            assert intertwining_residual(m, lift) <= tol
            assert lift.pd_margin > 0.0

    def test_kernel_dimension_formula(self):
        from edgesync import components
        for g in graph_family(20):
            lift = build_edge_lift(build_matrices(g))
            assert lift.kernel_dim == g.q - g.n + components(g)


class TestEndpointCorrection:
    def test_p2_by_hand(self):
        m = build_matrices(P2)
        lift = build_edge_lift(m)
        assert np.array_equal(endpoint_correction_matrix(m, lift.lift),
                              [[-1.0, -1.0]])
        res = verify_endpoint_identities(m, lift)
        assert max(res) <= 1e-12

    def test_omega_matches_formula(self):
        # the endpoint residuals are taken against endpoint_correction_matrix
        for g in (P3, C3):
            m = build_matrices(g)
            lift = build_edge_lift(m)
            omega = endpoint_correction_matrix(m, lift.lift)
            res = verify_endpoint_identities(m, lift)
            for i, split in ((1, m.incidence < 0.0), (2, m.incidence > 0.0)):
                st = split.astype(float).T
                r = st @ m.laplacian - (lift.lift @ st + omega)
                assert res[i] == float(np.max(np.abs(r)))

    def test_identities_on_family(self):
        for g in graph_family(24):
            m = build_matrices(g)
            lift = build_edge_lift(m)
            res = verify_endpoint_identities(m, lift)
            assert res[0] == intertwining_residual(m, lift)
            assert max(res) <= 1e-8

    def test_corruption_is_detected(self):
        import dataclasses
        m = build_matrices(C3)
        lift = build_edge_lift(m)
        bad = lift.lift.copy()
        bad[0, 0] += 0.1
        corrupted = dataclasses.replace(lift, lift=bad)
        res = verify_endpoint_identities(m, corrupted)
        assert max(res) > 1e-3


class TestShiftWindow:
    def test_halving_fallback_on_nonuniform_weights(self):
        # dense graph whose weight spread pushes the feasible shift window
        # below the smallest positive Laplacian eigenvalue; the search must
        # come back down instead of doubling away from it
        g = list(graph_family(100))[81]
        m = build_matrices(g)
        lift = build_edge_lift(m)
        eigs = sym_eig(m.laplacian).eigenvalues
        mu0 = float(eigs[eigs > 1e-9 * max(1.0, float(eigs[-1]))][0])
        assert lift.kernel_dim > 0
        assert 0.0 < lift.mu < mu0
        assert lift.pd_margin > 0.0
        res = np.max(np.abs(lift.lift @ m.incidence.T - m.incidence.T @ m.laplacian))
        assert res <= 1e-8 * max(1.0, np.max(np.abs(m.laplacian)))

    def test_doubling_stops_at_first_drop(self, monkeypatch):
        # mu0 and 2 mu0 both fail with a falling margin, so by concavity
        # every doubling fails; the search must halve right away and land
        # on the shift the full doubling-then-halving schedule finds
        m = build_matrices(random_connected_graph(6, 0.5, (0.05, 10.0), 3))
        min_eig = edge_lift._symmetric_part_min_eig
        kernel = nullspace_sym_psd(m.incidence.T @ m.incidence)
        eigs = sym_eig(m.laplacian).eigenvalues
        mu0 = float(eigs[eigs > 1e-9 * max(1.0, float(eigs[-1]))][0])
        floor = edge_lift.MARGIN_FLOOR_RTOL * float(m.weights.max())
        schedule = list(range(edge_lift.MAX_DOUBLINGS + 1))
        schedule += [-j for j in range(1, edge_lift.MAX_HALVINGS + 1)]
        expected = next(
            mu0 * 2.0 ** j for j in schedule
            if min_eig(m.weights, m.edge_laplacian
                       + mu0 * 2.0 ** j * (kernel @ kernel.T)) > floor)
        calls = []

        def counting(weights, candidate):
            calls.append(1)
            return min_eig(weights, candidate)

        monkeypatch.setattr(edge_lift, "_symmetric_part_min_eig", counting)
        lift = build_edge_lift(m)
        assert len(calls) == 4
        assert lift.mu == expected < mu0
        assert np.array_equal(
            lift.lift, m.edge_laplacian + expected * (kernel @ kernel.T))
