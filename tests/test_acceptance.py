"""End-to-end acceptance checklist.

Every test prints exactly one ``acceptance <n> <name>: PASS`` or
``... FAIL`` line (the suite runs unbuffered by default, see
pyproject). Each criterion carries a wall-clock budget checked from
inside the block.
"""

import contextlib
import os
import time

import numpy as np

import edgesync as es
from edgesync.cli import main as cli_main

from helpers import (C3, DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, P3,
                     endpoint_residuals, graph_family, shifted_union)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# frozen integration setup shared by the linear and tanh network criteria
T_END = 35.0
H = 0.005
RECORD = 0.05
FIT_WINDOW = (0.1 * T_END, T_END)
MU = 0.2
RATE_FLOOR = 0.9 * 2.0 * MU
R2_FLOOR = 0.99
UPTICK_TOL = 1e-6
SYNC_DROP = 1e-6


@contextlib.contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s")
        ok = True
    finally:
        print(f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'}")


def ball_samples(n, count, radius, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = rng.standard_normal(n)
        out.append(radius * rng.uniform() ** (1.0 / n) * d / np.linalg.norm(d))
    return out


def network_checks(g, model, cert, multiplier, x0):
    m = es.build_matrices(g)
    lift = es.build_edge_lift(m)
    ctrl = es.make_controller(m, lift, cert.rho, beta_multiplier=multiplier)
    traj = es.simulate(g, model, ctrl.beta, x0, T_END, H, RECORD)
    stacks = traj.states.reshape(traj.n_samples, g.n, model.state_dim)
    v = es.edge_energy(stacks, g, cert.p)
    fit = es.fit_decay_rate(traj.times, v, FIT_WINDOW)
    uptick = es.check_monotone(v)
    sync = es.sync_error(stacks)
    label = f"{g.n} nodes, multiplier {multiplier:g}"
    assert uptick <= UPTICK_TOL, f"{label}: uptick {uptick:.3e}"
    assert fit.rate >= RATE_FLOOR, f"{label}: rate {fit.rate:.4f}"
    assert fit.r_squared >= R2_FLOOR, f"{label}: r2 {fit.r_squared:.6f}"
    assert sync[-1] <= SYNC_DROP * sync[0], (
        f"{label}: sync ratio {sync[-1] / sync[0]:.3e}")


def test_criterion_1_lift_identity():
    with criterion(1, "edge lift identity", 10.0):
        for g in graph_family(100):
            m = es.build_matrices(g)
            lift = es.build_edge_lift(m)
            if g.q:
                res = np.max(np.abs(
                    lift.lift @ m.incidence.T - m.incidence.T @ m.laplacian))
                assert res <= 1e-8 * max(1.0, np.max(np.abs(m.laplacian)))
            assert lift.pd_margin > 0.0


def check_edge_spectrum(m, g):
    """The reported edge spectrum against a dense eigensolve of the
    symmetric form W^1/2 E^T E W^1/2, with exactly Q - N + c zeros."""
    rep = es.spectral_report(m, g)
    w_sqrt = np.sqrt(m.weights)
    ref = np.linalg.eigvalsh((m.incidence * w_sqrt).T @ (m.incidence * w_sqrt))
    scale = max(1.0, float(ref[-1])) if g.q else 1.0
    assert rep.edge_laplacian_eigs.shape == (g.q,)
    assert np.max(np.abs(rep.edge_laplacian_eigs - ref), initial=0.0) <= 1e-9 * scale
    zeros = int(np.count_nonzero(rep.edge_laplacian_eigs == 0.0))
    assert zeros == g.q - g.n + es.components(g)


def test_criterion_2_graph_identities():
    with criterion(2, "graph identities", 10.0):
        for g in graph_family(100):
            m = es.build_matrices(g)
            w = np.diag(m.weights)
            assert np.max(np.abs(
                m.laplacian - m.incidence @ w @ m.incidence.T)) <= 1e-12
            assert np.max(np.abs(
                m.edge_laplacian - m.incidence.T @ m.incidence @ w)) <= 1e-12
            check_edge_spectrum(m, g)
            lift = es.build_edge_lift(m)
            assert lift.kernel_dim == g.q - g.n + es.components(g)
        for g in (es.WeightedGraph(3, ()), es.WeightedGraph(4, ((1, 2, 2.0),)),
                  shifted_union(C3, C3)):
            check_edge_spectrum(es.build_matrices(g), g)
        for n in range(2, 9):
            tree = es.random_connected_graph(n, 0.0, (0.1, 6.0), 100 + n)
            m = es.build_matrices(tree)
            lift = es.build_edge_lift(m)
            assert tree.q == n - 1
            assert np.array_equal(lift.lift, m.edge_laplacian)
            assert lift.mu == 0.0


def test_criterion_3_endpoint_identities():
    with criterion(3, "endpoint correction", 5.0):
        for g in graph_family(100):
            m = es.build_matrices(g)
            lift = es.build_edge_lift(m)
            res_init, res_term = endpoint_residuals(m, lift.lift)
            assert res_init <= 1e-8 and res_term <= 1e-8
            # with E_k, E_l = (|E| -+ E) / 2 the endpoint residual matrices
            # are (U E^T - E^T L) / 2 and its negative, so graph_check.txt
            # writes half of lift_residual for each
            half = 0.5 * es.lift_residual(m, lift)
            scale = max(1.0, float(np.max(np.abs(lift.lift))),
                        float(np.max(np.abs(m.laplacian))))
            tol = 16.0 * np.finfo(float).eps * scale
            assert abs(res_init - half) <= tol and abs(res_term - half) <= tol


def test_criterion_4_riccati_design():
    with criterion(4, "riccati design", 5.0):
        scalar = es.solve_ari(np.array([[0.0]]), np.array([[1.0]]), 1.0, 1.0)
        assert abs(scalar.certificate.p[0, 0] - (1.0 + np.sqrt(2.0))) <= 1e-9

        design = es.solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, MU)
        p = design.certificate.p
        bbt = np.outer(DOUBLE_INTEGRATOR_B, DOUBLE_INTEGRATOR_B)
        res = (p @ DOUBLE_INTEGRATOR_A + DOUBLE_INTEGRATOR_A.T @ p
               - p @ bbt @ p + 2 * MU * p)
        assert float(es.sym_eig(-res).eigenvalues[0]) >= -1e-8
        closed = DOUBLE_INTEGRATOR_A - bbt @ p
        assert np.max(np.linalg.eigvals(closed).real) < 0.0

        iterates = design.newton_iterates
        assert len(iterates) >= 2
        for pj, pk in zip(iterates, iterates[1:]):
            assert float(es.sym_eig(pj - pk).eigenvalues[0]) >= -1e-9


def test_criterion_5_linear_network_sync():
    with criterion(5, "linear network sync", 30.0):
        design = es.solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, MU)
        model = es.linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                                design.gain[0])
        n8 = es.random_connected_graph(8, 0.3, (0.5, 2.0), 42)
        for g in (C3, n8):
            x0 = es.perturbed_initial_conditions(np.zeros(2), g.n, 5.0, 11)
            for multiplier in (1.0, 5.0):
                network_checks(g, model, design.certificate, multiplier, x0)


def test_criterion_6_certified_nonlinear_sync():
    with criterion(6, "certified nonlinear sync", 30.0):
        gamma = 0.05
        design = es.solve_ari(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 1.0, MU)
        model = es.tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                                        gamma, design.gain[0])
        cert = design.certificate
        margin = es.verify_ari_sampled(cert, model, ball_samples(2, 200, 10.0, 0))
        assert margin >= 2.0 * gamma * cert.p_upper, (
            f"perturbation not absorbed: {margin:.4f} < "
            f"{2.0 * gamma * cert.p_upper:.4f}")
        x0 = es.perturbed_initial_conditions(np.zeros(2), P3.n, 5.0, 3)
        for multiplier in (1.0, 5.0):
            network_checks(P3, model, cert, multiplier, x0)


def test_criterion_7_chaotic_network_sync(tmp_path):
    with criterion(7, "chaotic network sync", 120.0):
        out = str(tmp_path)
        code = cli_main(["run", os.path.join(SCENARIO_DIR, "lorenz15.scn"),
                         "--out-dir", out])
        assert code == 0
        report = {}
        for line in open(os.path.join(out, "report.txt"), encoding="utf-8"):
            key, _, rest = line.rstrip("\n").partition(" ")
            report.setdefault(key, rest)
        assert report["below_critical"] == "true"
        assert report["approximate_certificate"] == "true"
        initial = float(report["initial_sync_error"])
        final = float(report["final_sync_error"])
        assert initial > 0.0
        assert final <= 1e-2 * initial, (
            f"sync ratio {final / initial:.3e} above 1e-2")


def test_criterion_8_controller_invariants():
    with criterion(8, "controller invariants", 5.0):
        model = es.linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                                np.array([1.0, 2.0]))
        # exact zero on the synchronization manifold
        states = np.tile([0.8, -0.4], (3, 1))
        assert np.array_equal(es.coupling_inputs(states, C3, model, 3.0),
                              np.zeros(3))
        # bitwise distributedness on a path graph
        g = es.WeightedGraph(4, ((1, 2, 1.5), (2, 3, 0.7), (3, 4, 2.0)))
        rng = np.random.default_rng(0)
        base = rng.standard_normal((4, 2))
        u0 = es.coupling_inputs(base, g, model, 1.3)
        moved = base.copy()
        moved[3] += 10.0
        u1 = es.coupling_inputs(moved, g, model, 1.3)
        assert u1[0] == u0[0] and u1[1] == u0[1]
        # neighbor-sum vs Laplacian form
        rg = es.random_connected_graph(9, 0.4, (0.1, 6.0), 5)
        m = es.build_matrices(rg)
        for _ in range(100):
            xs = rng.standard_normal((9, 2))
            beta = float(rng.uniform(0.1, 4.0))
            u = es.coupling_inputs(xs, rg, model, beta)
            alphas = xs @ np.array([1.0, 2.0])
            oracle = -beta * m.laplacian @ alphas
            assert np.max(np.abs(u - oracle)) <= 1e-12 * max(
                1.0, np.max(np.abs(oracle)))


def test_criterion_9_integrator_order():
    with criterion(9, "integrator order", 1.0):
        model = es.linear_model(np.array([[-1.0]]), np.array([1.0]),
                                np.array([0.0]))
        g = es.WeightedGraph(2, ((1, 2, 1.0),))
        errs = []
        for h in (0.1, 0.05):
            traj = es.simulate(g, model, 0.0, np.ones(2), 1.0, h, 1.0)
            errs.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0, f"Richardson ratio {ratio:.3f}"
