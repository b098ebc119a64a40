import os

import numpy as np
import pytest
from scipy.linalg import null_space

from edgesync import (
    WeightedGraph,
    build_edge_lift,
    edge_lift,
    graphs,
    lift_residual,
    lift_rows,
    linalg,
    random_connected_graph,
    read_graph_file,
    spectral_report,
)

from edgesync.cli import main

from helpers import (C3, P2, P3, SCENARIO_DIR, dense_incidence, dense_lift,
                     edge_laplacian, endpoint_correction, endpoint_residuals,
                     graph_family, read_shipped, shifted_union, sym_part)


def range_basis(g):
    """Q1 = E^T Z d^-1/2 over the top N - c eigenpairs (d, Z) of E E^T: an
    orthonormal basis of range(E^T)."""
    e = dense_incidence(g)
    d, z = np.linalg.eigh(e @ e.T)
    c = g.components
    return e.T @ (z[:, c:] / np.sqrt(d[c:]))


def dense_margin(g, lift):
    """Smallest eigenvalue of the lift's Q x Q symmetric part, inf for Q = 0."""
    eigs = np.linalg.eigvalsh(sym_part(g.weights, dense_lift(g, lift)))
    return float(eigs.min(initial=np.inf))


def intertwining_residual(g, lift):
    """max|U E^T - E^T L| from the dense products, with U formed whole."""
    et = dense_incidence(g).T
    r = dense_lift(g, lift) @ et - et @ g.laplacian()
    return float(np.max(np.abs(r))) if r.size else 0.0


def reference_lift(g, lift):
    """U = E^T E W + mu W^-1 (I - Q1 Q1^T) in one Q x Q array, in the order
    of operations build_edge_lift used when it formed U whole."""
    u = lift.q1 @ lift.q1.T
    u *= -1.0
    u.flat[::u.shape[0] + 1] += 1.0
    u *= lift.scale[:, None]
    e = dense_incidence(g)
    u += (e.T @ e) * g.weights
    return u


class TestTreeCase:
    def test_p3_lift_is_edge_laplacian(self):
        g = P3
        lift = build_edge_lift(g)
        assert np.array_equal(dense_lift(g, lift), edge_laplacian(g))
        assert lift.mu == 0.0
        assert lift.kernel_dim == 0
        # symmetric part of W U has eigenvalues {1, 3}
        assert lift.pd_margin == pytest.approx(1.0, abs=1e-12)

    def test_p2(self):
        g = P2
        lift = build_edge_lift(g)
        assert np.array_equal(dense_lift(g, lift), [[2.0]])
        assert lift.pd_margin == pytest.approx(2.0)

    def test_rank_comes_from_the_graph_not_a_tolerance(self, monkeypatch):
        # E E^T of a 6-node path has eigenvalues 2 - 2 cos(k pi / 6); a cut
        # at half the largest would drop 0.27 and 1 and see a 2-dimensional
        # ker(E), mu = 3.73 and a nonzero residual on a tree
        monkeypatch.setattr(edge_lift, "NULLSPACE_RTOL", 0.5)
        g = WeightedGraph.from_pairs(6, [(i, i + 1, 1.0) for i in range(1, 6)])
        lift = build_edge_lift(g)
        assert lift.kernel_dim == 0
        assert lift.mu == 0.0
        assert lift_residual(g, lift) == 0.0
        assert lift.pd_margin == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 6),
                                               rel=1e-12)


class TestCycleCase:
    def test_c3_shift_lands_on_lambda2(self):
        g = C3
        lift = build_edge_lift(g)
        assert lift.kernel_dim == 1
        assert lift.mu == pytest.approx(3.0, abs=1e-9)
        eigs = np.sort(np.linalg.eigvals(dense_lift(g, lift)).real)
        assert np.allclose(eigs, [3.0, 3.0, 3.0], atol=1e-9)
        assert lift.pd_margin == pytest.approx(3.0, abs=1e-9)
        v = null_space(dense_incidence(g))[:, 0]
        assert np.allclose(np.abs(v), 1.0 / np.sqrt(3.0), atol=1e-12)

    def test_reconstruction_from_parts(self):
        # U = E^T E W + mu W^-1 (I - Q1 Q1^T) with mu = lambda_max(E W^2 E^T),
        # on C3 and on the weighted family, forests included (mu = 0 and
        # U the edge Laplacian, bitwise); I - Q1 Q1^T is the projector
        # onto ker(E), which scipy's null_space spans
        family = [C3] + graph_family(24)
        assert any(g.q > 2 * g.n for g in family)
        assert any(g.n <= g.q <= 2 * g.n for g in family)
        for g in family:
            lift = build_edge_lift(g)
            kernel = null_space(dense_incidence(g))
            assert kernel.shape[1] == lift.kernel_dim
            if not lift.kernel_dim:
                assert lift.mu == 0.0
                assert np.array_equal(dense_lift(g, lift), edge_laplacian(g))
                continue
            q1 = range_basis(g)
            pi = np.eye(g.q) - q1 @ q1.T
            assert np.allclose(pi, kernel @ kernel.T, rtol=0.0, atol=1e-12)
            rebuilt = edge_laplacian(g) + lift.mu * (pi / g.weights[:, None])
            scale = lift.mu / float(np.min(g.weights))
            assert np.allclose(rebuilt, dense_lift(g, lift), rtol=0.0,
                               atol=1e-12 * scale)
            e = dense_incidence(g)
            ew2et = (e * g.weights ** 2) @ e.T
            assert lift.mu == pytest.approx(
                float(np.linalg.eigvalsh(ew2et)[-1]), rel=1e-12)


class TestDegenerateCases:
    def test_edgeless_graph(self):
        g = WeightedGraph(2, ())
        lift = build_edge_lift(g)
        assert dense_lift(g, lift).shape == (0, 0)
        assert lift_residual(g, lift) == 0.0
        assert lift.pd_margin == np.inf
        assert lift.mu == 0.0 and lift.kernel_dim == 0

    def test_edgeless_graph_needs_no_eigensolve(self, tmp_path, monkeypatch):
        # E E^T = 0, so the lift's empty factors need no N x N eigensolve;
        # critical_gain alone refuses the graph
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve on an edgeless graph")

        monkeypatch.setattr(edge_lift, "sym_eig", refuse)
        for n in (2, 7):
            lift = build_edge_lift(WeightedGraph(n, ()))
            for name, shape in (("q1", (0, 0)), ("y", (n, 0)), ("scale", (0,))):
                arr = getattr(lift, name)
                assert arr.shape == shape and arr.dtype == np.float64
            assert lift.mu == 0.0 and lift.pd_margin == np.inf
            assert lift.kernel_dim == 0
        scn = tmp_path / "edgeless.scn"
        scn.write_text(read_shipped("linear_c3.scn").replace(
            "edge 1 2 1.0\nedge 1 3 1.0\nedge 2 3 1.0\n", ""))
        assert main(["check", str(scn), "--out-dir", str(tmp_path / "out")]) == 4
        assert not (tmp_path / "out").exists()

    def test_disconnected_tree_blocks(self):
        g = shifted_union(P2, P2)
        lift = build_edge_lift(g)
        assert lift.mu == 0.0
        assert lift.pd_margin > 0.0

    def test_disconnected_with_cycle(self):
        g = shifted_union(C3, P2)
        lift = build_edge_lift(g)
        assert lift.kernel_dim == 1
        assert lift.pd_margin > 0.0
        assert intertwining_residual(g, lift) <= 1e-10


class TestFamilyProperties:
    def test_intertwining_and_margin(self):
        for g in graph_family(32):
            lift = build_edge_lift(g)
            tol = 1e-8 * max(1.0, float(np.max(np.abs(g.laplacian()))))
            assert intertwining_residual(g, lift) <= tol
            assert lift.pd_margin > 0.0

    def test_kernel_dimension_formula(self):
        for g in graph_family(20):
            lift = build_edge_lift(g)
            assert lift.kernel_dim == g.q - g.n + g.components


class TestEndpointCorrection:
    def test_p2_by_hand(self):
        g = P2
        lift = build_edge_lift(g)
        u = dense_lift(g, lift)
        assert np.array_equal(endpoint_correction(g, u), [[-1.0, -1.0]])
        assert max(endpoint_residuals(g, u)) <= 1e-12
        assert lift_residual(g, lift) <= 1e-12

    def test_identities_on_family(self):
        # the factored residual mu W^-1 (E^T - Q1 Y^T E E^T) against the
        # dense U E^T - E^T L: both at round-off, 0 on forests
        family = graph_family(100)
        assert sum(g.q > g.n for g in family) > 20
        assert sum(0 < g.q < g.n for g in family) > 10
        for g in family:
            lift = build_edge_lift(g)
            residual = lift_residual(g, lift)
            assert residual <= 1e-8
            if not lift.kernel_dim:
                assert residual == 0.0
                continue
            scale = max(1.0, float(np.max(np.abs(dense_lift(g, lift)))))
            assert abs(residual - intertwining_residual(g, lift)) <= 1e-12 * scale

    def test_corruption_is_detected(self):
        # U E^T = E^T L holds for every mu; a basis Q1 that is not E^T Y
        # breaks it, in U and in the factored residual alike
        import dataclasses
        g = C3
        lift = build_edge_lift(g)
        bad = lift.q1.copy()
        bad[0, 0] += 0.1
        corrupted = dataclasses.replace(lift, q1=bad)
        assert lift_residual(g, corrupted) > 1e-3
        assert intertwining_residual(g, corrupted) > 1e-3


class TestLiftRows:
    """Rows of U built a share at a time from the lift's factors."""

    @staticmethod
    def graphs():
        family = [C3, P3] + graph_family(40) + [
            random_connected_graph(30, 0.5, (0.1, 6.0), 3),
            random_connected_graph(12, 0.8, (1.0, 1e4), 4),
            shifted_union(C3, random_connected_graph(9, 0.9, (0.1, 6.0), 2))]
        assert any(g.q > 2 * g.n for g in family)
        assert any(0 < g.q < g.n for g in family)
        return [g for g in family if g.q]

    def test_one_share_has_the_bits_of_the_whole_product(self):
        for g in self.graphs():
            lift = build_edge_lift(g)
            u = lift_rows(g, lift, 0, g.q)
            ref = reference_lift(g, lift)
            assert np.array_equal(u, ref)
            assert np.array_equal(np.signbit(u), np.signbit(ref))
            if not lift.kernel_dim:
                assert np.array_equal(u, edge_laplacian(g))

    def test_any_split_into_shares(self):
        rng = np.random.default_rng(7)
        for g in self.graphs():
            lift = build_edge_lift(g)
            ref = reference_lift(g, lift)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
            for _ in range(3):
                cuts = rng.choice(np.arange(1, g.q), size=min(g.q - 1, 3),
                                  replace=False) if g.q > 1 else []
                bounds = [0] + sorted(int(c) for c in cuts) + [g.q]
                shares = [lift_rows(g, lift, lo, hi)
                          for lo, hi in zip(bounds[:-1], bounds[1:])]
                assert [len(s) for s in shares] == np.diff(bounds).tolist()
                assert np.max(np.abs(np.vstack(shares) - ref)) <= tol
            for lo in range(g.q):
                assert np.max(np.abs(lift_rows(g, lift, lo, lo + 1) - ref[lo:lo + 1]),
                              initial=0.0) <= tol


def lambda_comp(g):
    """min over y orthogonal to 1 of y^T L^2 y / y^T L0 y, with L0 = E E^T.

    An N x N reference: the columns of Z span range(L0), scaled so that
    Z^T L0 Z = I, and the minimum is the smallest eigenvalue of Z^T L^2 Z.
    """
    e = dense_incidence(g)
    dec = np.linalg.eigh(e @ e.T)
    keep = dec.eigenvalues > 1e-9 * max(1.0, float(dec.eigenvalues[-1]))
    z = dec.eigenvectors[:, keep] / np.sqrt(dec.eigenvalues[keep])
    lap = g.laplacian()
    return float(np.linalg.eigvalsh(z.T @ lap @ lap @ z)[0])


class TestFixedShift:
    def test_margin_near_lambda_comp(self):
        # every lift has a margin of at most lambda_comp; the fixed shift
        # ||W E^T E W||_2 must come close to it on every graph with edges
        for g in graph_family(100):
            if g.q == 0:
                continue
            margin = build_edge_lift(g).pd_margin
            bound = lambda_comp(g)
            assert 0.85 * bound <= margin <= bound * (1.0 + 1e-9)
        g = read_graph_file(os.path.join(SCENARIO_DIR, "lorenz15.graph"))
        assert build_edge_lift(g).pd_margin >= 0.99 * lambda_comp(g)

    def test_one_margin_eigensolve(self, monkeypatch):
        # E E^T, E W^2 E^T, the Gram matrix of the part of W E^T outside
        # range(E^T) and the margin matrix H on a graph with a cycle; E E^T
        # and the margin matrix Y^T L^2 Y on a forest; none on an edgeless one
        calls = []
        sym_eig = edge_lift.sym_eig

        def counting(a, **kwargs):
            calls.append(1)
            return sym_eig(a, **kwargs)

        monkeypatch.setattr(edge_lift, "sym_eig", counting)
        # the last cyclic graph spreads its weights over a factor of 200
        family = graph_family(40) + [C3, P2, P3, WeightedGraph(2, ()),
                                     random_connected_graph(6, 0.5, (0.05, 10.0), 3)]
        kernel_dims = []
        for g in family:
            calls.clear()
            lift = build_edge_lift(g)
            kernel_dims.append(lift.kernel_dim)
            assert len(calls) == (4 if lift.kernel_dim else 2 if g.q else 0)
        assert kernel_dims.count(0) > 5 and len(kernel_dims) - kernel_dims.count(0) > 10

    @pytest.mark.parametrize("s", [1e2, 1e4, 1e6])
    def test_extreme_weight_spread(self, s):
        for seed in range(5):
            g = random_connected_graph(10, 0.5, (1.0, s), seed)
            lift = build_edge_lift(g)
            assert lift.kernel_dim > 0
            assert lift.pd_margin > 0.0
            tol = 1e-8 * max(1.0, float(np.max(np.abs(g.laplacian()))))
            assert intertwining_residual(g, lift) <= tol


def lift_graphs():
    """Every graph of the family with edges, forests and Q <= 2N among
    them, the same with weights scaled by 1e-4, seeded ones with weights
    spread over up to a factor of 1e6, and a disconnected union of two
    graphs with Q > 2N."""
    graphs = [g for g in graph_family(100) if g.q]
    graphs += [WeightedGraph(g.n, tuple((k, l, 1e-4 * w) for k, l, w in g.edges))
               for g in graphs]
    for s in (1.0, 1e2, 1e4, 1e6):
        for seed in range(4):
            graphs.append(random_connected_graph(12, 0.8, (1.0, s), seed))
            graphs.append(random_connected_graph(20, 0.5, (1.0, s), 10 + seed))
    graphs.append(shifted_union(
        random_connected_graph(8, 0.9, (0.1, 6.0), 1),
        random_connected_graph(9, 0.9, (0.1, 6.0), 2)))
    return graphs


class TestNodeRoute:
    """The lift built from N x N eigensolves and one of size at most
    min(Q, 2N), on every graph."""

    def test_margin_matches_dense_eigensolve(self):
        graphs = lift_graphs()
        assert sum(g.q > 2 * g.n for g in graphs) > 40
        assert sum(g.q < g.n for g in graphs) > 10
        assert sum(g.n <= g.q <= 2 * g.n for g in graphs) > 40
        for g in graphs:
            lift = build_edge_lift(g)
            ref = dense_margin(g, lift)
            assert abs(lift.pd_margin - ref) <= 1e-10 * ref

    def test_kernel_dim_and_intertwining(self):
        for g in lift_graphs():
            lift = build_edge_lift(g)
            assert lift.kernel_dim == g.q - g.n + g.components
            tol = 1e-8 * max(1.0, float(np.max(np.abs(g.laplacian()))))
            assert intertwining_residual(g, lift) <= tol

    def test_no_eigensolve_above_2n(self, monkeypatch):
        # nothing above N but the margin matrix H, of size at most
        # min(Q, 2N), and H is solved for its eigenvalues alone
        sizes = {"sym_eig": [], "eigh": [], "eigvalsh": []}

        def counting(key, fn):
            def counted(a, *args, **kwargs):
                sizes[key].append(np.shape(a)[0])
                return fn(a, *args, **kwargs)
            return counted

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name,
                                counting(name, getattr(np.linalg, name)))
        counting_sym_eig = counting("sym_eig", linalg.sym_eig)
        for module in (linalg, edge_lift, graphs):
            monkeypatch.setattr(module, "sym_eig", counting_sym_eig)
        for g in lift_graphs():
            for calls in sizes.values():
                calls.clear()
            spectral_report(g)
            build_edge_lift(g)
            bound = max(g.n, min(g.q, 2 * g.n))
            assert max(sizes["sym_eig"]) <= bound
            assert max(sizes["eigh"]) <= g.n
            assert len(sizes["eigvalsh"]) == 1 and sizes["eigvalsh"][0] <= bound
            assert len(sizes["eigh"]) + 1 == len(sizes["sym_eig"])


@pytest.mark.xfail(strict=True, reason="build_edge_lift shares one mu across "
                   "components, so a light component's margin carries an "
                   "error of about eps * mu")
def test_margin_of_components_with_different_weight_scales():
    # the unit-weight component's margin is exactly 7, but the heavy one
    # sets mu = 4.5e12 and the computed margin reads 6.99968
    g = shifted_union(random_connected_graph(8, 0.9, (1.0, 1e6), 1),
                      random_connected_graph(9, 0.9, (1.0, 1.0), 2))
    lift = build_edge_lift(g)
    assert abs(lift.pd_margin - 7.0) <= 1e-9 * 7.0
