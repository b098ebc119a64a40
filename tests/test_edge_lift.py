import os

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
    read_graph_file,
    verify_endpoint_identities,
)

from helpers import C3, P2, P3, SCENARIO_DIR, graph_family, shifted_union


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
        # U = E^T E W + mu W^-1 V V^T with mu = lambda_max(E W^2 E^T),
        # on C3 and on the weighted family, forests included (mu = 0)
        for g in [C3] + graph_family(24):
            m = build_matrices(g)
            lift = build_edge_lift(m)
            kernel = nullspace_sym_psd(m.incidence.T @ m.incidence)
            assert kernel.shape[1] == lift.kernel_dim
            rebuilt = m.edge_laplacian + lift.mu * (
                (kernel @ kernel.T) / m.weights[:, None])
            assert np.array_equal(rebuilt, lift.lift)
            if lift.kernel_dim:
                ew2et = (m.incidence * m.weights ** 2) @ m.incidence.T
                assert lift.mu == pytest.approx(
                    float(np.linalg.eigvalsh(ew2et)[-1]), rel=1e-12)
            else:
                assert lift.mu == 0.0


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


def lambda_comp(m):
    """min over y orthogonal to 1 of y^T L^2 y / y^T L0 y, with L0 = E E^T.

    An N x N reference: the columns of Z span range(L0), scaled so that
    Z^T L0 Z = I, and the minimum is the smallest eigenvalue of Z^T L^2 Z.
    """
    dec = np.linalg.eigh(m.incidence @ m.incidence.T)
    keep = dec.eigenvalues > 1e-9 * max(1.0, float(dec.eigenvalues[-1]))
    z = dec.eigenvectors[:, keep] / np.sqrt(dec.eigenvalues[keep])
    lap = m.laplacian
    return float(np.linalg.eigvalsh(z.T @ lap @ lap @ z)[0])


class TestFixedShift:
    def test_margin_near_lambda_comp(self):
        # every lift has a margin of at most lambda_comp; the fixed shift
        # ||W E^T E W||_2 must come close to it on every graph with edges
        for g in graph_family(100):
            if g.q == 0:
                continue
            m = build_matrices(g)
            margin = build_edge_lift(m).pd_margin
            bound = lambda_comp(m)
            assert 0.85 * bound <= margin <= bound * (1.0 + 1e-9)
        m = build_matrices(read_graph_file(
            os.path.join(SCENARIO_DIR, "lorenz15.graph")))
        assert build_edge_lift(m).pd_margin >= 0.99 * lambda_comp(m)

    def test_one_margin_eigensolve(self, monkeypatch):
        min_eig = edge_lift._symmetric_part_min_eig
        calls = []

        def counting(weights, candidate):
            calls.append(1)
            return min_eig(weights, candidate)

        monkeypatch.setattr(edge_lift, "_symmetric_part_min_eig", counting)
        # the last graph spreads its weights over a factor of 200
        cyclic = [g for g in graph_family(40) if g.q >= g.n] + [
            C3, random_connected_graph(6, 0.5, (0.05, 10.0), 3)]
        assert len(cyclic) > 10
        for g in cyclic:
            calls.clear()
            assert build_edge_lift(build_matrices(g)).kernel_dim > 0
            assert len(calls) == 1

    @pytest.mark.parametrize("s", [1e2, 1e4, 1e6])
    def test_extreme_weight_spread(self, s):
        for seed in range(5):
            m = build_matrices(random_connected_graph(10, 0.5, (1.0, s), seed))
            lift = build_edge_lift(m)
            assert lift.kernel_dim > 0
            assert lift.pd_margin > 0.0
            tol = 1e-8 * max(1.0, float(np.max(np.abs(m.laplacian))))
            assert intertwining_residual(m, lift) <= tol
