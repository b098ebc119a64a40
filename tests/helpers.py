"""Shared fixtures-in-plain-functions for the test suite."""

import os

import numpy as np
from hypothesis import strategies as st

from edgesync import WeightedGraph, lift_rows, random_connected_graph, sym_eig

# Canonical small graphs used all over the suite.
P2 = WeightedGraph(2, ((1, 2, 1.0),))
P3 = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
C3 = WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))

DOUBLE_INTEGRATOR_A = np.array([[0.0, 1.0], [0.0, 0.0]])
DOUBLE_INTEGRATOR_B = np.array([0.0, 1.0])

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED_NAMES = ("linear_c3.scn", "tanh_p3.scn", "lorenz15.scn")


def read_text(*parts):
    """The text of the file at os.path.join(*parts), closed when read."""
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return fh.read()


def read_shipped(name):
    return read_text(SCENARIO_DIR, name)


SHIPPED_TEXTS = tuple(read_shipped(name) for name in SHIPPED_NAMES)


def sym_part(weights, c):
    """(W C + C^T W) / 2 with W = diag(weights), as row and column scalings."""
    return 0.5 * (weights[:, None] * c + c.T * weights)


def dense_incidence(g):
    """The N x Q incidence E of g, the reference for every product by it."""
    e = np.zeros((g.n, g.q))
    cols = np.arange(g.q)
    e[g.init, cols] = -1.0
    e[g.term, cols] = 1.0
    return e


def edge_laplacian(g):
    """E^T E W, from the rows of E^T E that WeightedGraph.et gathers."""
    return g.et(dense_incidence(g)) * g.weights


def dense_lift(g, lift):
    """The whole Q x Q lift U of an EdgeLift, as one share of lift_rows."""
    return lift_rows(g, lift, 0, g.q)


def endpoint_correction(g, lift):
    """Omega = (|E^T| L - U |E^T|) / 2 of a lift U, with entrywise absolute value."""
    abs_et = np.abs(dense_incidence(g).T)
    return 0.5 * (abs_et @ g.laplacian() - lift @ abs_et)


def endpoint_residuals(g, lift):
    """Max-norm residuals of the two endpoint identities of a lift U.

    E_k^T L = U E_k^T + Omega and E_l^T L = U E_l^T + Omega, with Omega
    from endpoint_correction and the 0/1 splits E_k and E_l marking the
    negative and the positive entries of the incidence matrix E.
    """
    omega = endpoint_correction(g, lift)
    e, lap = dense_incidence(g), g.laplacian()

    def residual(split):
        st = split.astype(float).T
        return float(np.max(np.abs(st @ lap - (lift @ st + omega)),
                            initial=0.0))

    return residual(e < 0.0), residual(e > 0.0)


def input_field(model, xs):
    """g at every row of xs from the closed forms: b, or (1, 2 + sin x1, 0) for lorenz."""
    if model.name == "lorenz":
        return np.column_stack((np.ones(len(xs)), 2.0 + np.sin(xs[:, 0]),
                                np.zeros(len(xs))))
    return np.broadcast_to(model.params["b"], xs.shape).copy()


@np.errstate(over="ignore", invalid="ignore")
def ari_margin_by_state(cert, model, samples):
    """verify_ari_sampled's margin, one state and one eigensolve at a time.

    The reference for the stacked check: the worst
    lambda_min(-[P J + J^T P - rho P g g^T P + 2 mu P]) over the samples.
    """
    p, worst = cert.p, np.inf
    for x in np.asarray(samples, dtype=float):
        jac = model.jac_f(x)
        pg = p @ model.g(x).reshape(-1, 1)
        expr = p @ jac + jac.T @ p - cert.rho * (pg @ pg.T) + 2.0 * cert.mu * p
        worst = min(worst, float(sym_eig(-expr).eigenvalues[0]))
    return worst


def killing_integrability_by_state(cert, model, samples):
    """verify_killing_integrability's residuals, one state at a time."""
    p, grad = cert.p, model.params["k"]
    killing = integr = 0.0
    for x in np.asarray(samples, dtype=float):
        dg = model.jac_g(x)
        killing = max(killing, float(np.max(np.abs(p @ dg + dg.T @ p))))
        integr = max(integr, float(np.max(np.abs(grad - model.g(x) @ p))))
    return killing, integr


def shifted_union(g1, g2):
    """Disjoint union with g2's node labels offset past g1's."""
    edges = list(g1.edges)
    edges += [(k + g1.n, l + g1.n, w) for k, l, w in g2.edges]
    return WeightedGraph.from_pairs(g1.n + g2.n, edges)


def graph_family(count=100):
    """Deterministic mixed family: sizes 2..12, weights in [0.1, 6].

    Every fourth graph is disconnected (two random connected blocks),
    the rest come straight from the seeded generator with varying edge
    density, so trees and dense graphs both appear.
    """
    graphs = []
    for i in range(count):
        rng = np.random.default_rng(1000 + i)
        if i % 4 == 3:
            n1 = int(rng.integers(2, 7))
            n2 = int(rng.integers(2, 7))
            g1 = random_connected_graph(
                n1, float(rng.uniform(0.0, 0.8)), (0.1, 6.0),
                int(rng.integers(0, 2**31)))
            g2 = random_connected_graph(
                n2, float(rng.uniform(0.0, 0.8)), (0.1, 6.0),
                int(rng.integers(0, 2**31)))
            graphs.append(shifted_union(g1, g2))
        else:
            n = int(rng.integers(2, 13))
            graphs.append(random_connected_graph(
                n, float(rng.uniform(0.0, 0.9)), (0.1, 6.0),
                int(rng.integers(0, 2**31))))
    return graphs


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


@st.composite
def mutated_text(draw, texts):
    """One of texts with one to three space-separated tokens dropped or replaced.

    A number may become nan, inf, -inf, -1, a finite extreme (+-1e308, the
    subnormals 5e-324 and 1e-320) or be dropped; any other token may be
    dropped.
    """
    text = draw(st.sampled_from(texts))
    lines = [line.split(" ") for line in text.splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i, j = draw(st.sampled_from(spots))
        if _is_number(lines[i][j]):
            lines[i][j] = draw(st.sampled_from(
                ["nan", "inf", "-inf", "-1", "1e308", "-1e308", "5e-324",
                 "1e-320", ""]))
        else:
            lines[i][j] = ""
    return "\n".join(" ".join(toks) for toks in lines)
