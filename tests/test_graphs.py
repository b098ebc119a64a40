import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesync import (
    ParseError,
    WeightedGraph,
    parse_graph_text,
    random_connected_graph,
    read_graph_file,
    spectral_report,
)

from edgesync.edge_lift import build_edge_lift
from edgesync import graphs
from edgesync.graphs import MAX_DENSE

from helpers import (
    C3,
    P2,
    P3,
    dense_incidence,
    dense_lift,
    edge_laplacian,
    graph_family,
    mutated_text,
    read_shipped,
    shifted_union,
    sym_part,
)


class TestWeightedGraph:
    def test_basic_properties(self):
        assert P3.n == 3 and P3.q == 2
        assert C3.q == 3
        assert P2.edges == ((1, 2, 1.0),)

    def test_rejects_noncanonical_order(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((2, 3, 1.0), (1, 2, 1.0)))

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((2, 1, 1.0),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((2, 2, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((1, 2, 1.0), (1, 2, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((1, 2, 0.0),))

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((1, 4, 1.0),))

    def test_rejects_fewer_than_two_nodes(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            WeightedGraph(1, ())

    def test_rejects_nodes_past_the_dense_bound(self, monkeypatch):
        # refused before the union-find asks for a list of n + 1 entries
        def no_count(n, edges):
            raise AssertionError("components counted")

        monkeypatch.setattr(graphs, "_count_components", no_count)
        with pytest.raises(ValueError, match=f"{MAX_DENSE + 1} nodes exceed"):
            WeightedGraph(MAX_DENSE + 1, ())

    def test_from_pairs_normalizes(self):
        g = WeightedGraph.from_pairs(3, [(3, 2, 2.0), (2, 1, 1.0)])
        assert g.edges == ((1, 2, 1.0), (2, 3, 2.0))

    def test_hash_stable_and_distinct(self):
        assert P3.short_hash() == P3.short_hash()
        assert len(P3.short_hash()) == 12
        assert P3.short_hash() != C3.short_hash()

    def test_canonical_text_round_trip(self):
        for g in (P2, P3, C3, random_connected_graph(7, 0.4, (0.1, 6.0), 1)):
            assert parse_graph_text(g.canonical_text()) == g


class TestMatrices:
    def test_p2_by_hand(self):
        assert np.array_equal(P2.incidence_rows(np.arange(2)), [[-1.0], [1.0]])
        assert np.array_equal(P2.laplacian(), [[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(edge_laplacian(P2), [[2.0]])

    def test_p3_by_hand(self):
        assert np.array_equal(
            P3.laplacian(), [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(edge_laplacian(P3), [[2.0, -1.0], [-1.0, 2.0]])

    def test_c3_by_hand(self):
        assert np.array_equal(
            C3.laplacian(), [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(
            edge_laplacian(C3), [[2.0, 1.0, -1.0], [1.0, 2.0, 1.0], [-1.0, 1.0, 2.0]])

    def test_incidence_split(self):
        e = C3.incidence_rows(np.arange(C3.n))
        cols = np.arange(C3.q)
        # one -1 at the initial and one +1 at the terminal node per column
        assert np.array_equal(e[C3.init, cols], -np.ones(C3.q))
        assert np.array_equal(e[C3.term, cols], np.ones(C3.q))
        assert np.array_equal(np.abs(e).sum(axis=0), 2.0 * np.ones(C3.q))

    def test_defining_products_on_family(self):
        for g in graph_family(24):
            e, lap = dense_incidence(g), g.laplacian()
            w = np.diag(g.weights)
            assert np.max(np.abs(lap - e @ w @ e.T)) <= 1e-12
            assert np.max(np.abs(edge_laplacian(g) - e.T @ e @ w)) <= 1e-12
            assert g.weights.tolist() == [wt for _, _, wt in g.edges]
            # row sums of L vanish
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestDenseDiagonalReference:
    """Scaling by the weight vector, and the products by E built from the
    edge lists, give the bits of the dense products."""

    # edgeless, isolated nodes 3 and 5, two components, and Q > 2N
    GRAPHS = [WeightedGraph(4, ()), WeightedGraph(5, ((1, 2, 0.7), (2, 4, 1.3))),
              shifted_union(P3, P2), P2, C3] + [
        random_connected_graph(n, p, (0.1, 6.0), seed)
        for n, p, seed in ((6, 0.0, 1), (9, 0.5, 2), (14, 0.3, 3), (25, 0.2, 4),
                           (10, 0.9, 5))
    ]

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}q{g.q}")
    def test_matrices_and_symmetric_part(self, g):
        e = dense_incidence(g)
        w = np.diag(g.weights)
        # L's degree sums run in edge order, which a blocked gemm need not
        # keep: the same to round-off
        assert np.allclose(g.laplacian(), e @ w @ e.T, rtol=1e-14, atol=0.0)
        assert_same_bits(edge_laplacian(g), e.T @ e @ w)
        # the matrices whose symmetric part the lift tests take as their
        # dense margin reference; a -0.0 entry in C would give +0.0 in the
        # dense product but keep its sign when scaled
        for c in (edge_laplacian(g), dense_lift(g, build_edge_lift(g))):
            assert_same_bits(sym_part(g.weights, c), 0.5 * (w @ c + c.T @ w))

    def test_graph_list(self):
        assert any(g.q > 2 * g.n for g in self.GRAPHS)
        assert any(g.components > 1 and g.q for g in self.GRAPHS)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}q{g.q}")
    def test_index_built_products(self, g):
        e = dense_incidence(g)
        assert_same_bits(edge_laplacian(g), (e.T @ e) * g.weights)
        # any rows lo to hi of E^T E, as the lift's shares take them
        lo, hi = g.q // 3, (2 * g.q) // 3 + 1
        ete = g.incidence_rows(g.term[lo:hi]) - g.incidence_rows(g.init[lo:hi])
        assert_same_bits(ete, (e.T @ e)[lo:hi])
        assert_same_bits(g.gram(np.ones(g.q)), e @ e.T)
        assert_same_bits(g.et(np.eye(g.n)), e.T)
        assert_same_bits(g.et(g.laplacian()), e.T @ g.laplacian())
        # Y = Z d^-1/2 over the top N - c eigenpairs of E E^T, and all of Z
        d, z = np.linalg.eigh(e @ e.T)
        c = g.components
        for y in (z[:, c:] / np.sqrt(d[c:]), z):
            assert_same_bits(g.et(y), e.T @ y)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}q{g.q}")
    def test_gram_and_incidence_rows(self, g):
        e = dense_incidence(g)
        v = np.random.default_rng(g.q).uniform(0.1, 6.0, g.q)
        gram = g.gram(v)
        # the off-diagonal cells are exactly -v, and only the edges' cells
        off = np.zeros((g.n, g.n))
        off[g.init, g.term] = off[g.term, g.init] = -v
        assert_same_bits(gram - np.diag(np.diag(gram)), off)
        # each diagonal cell sums v over the node's edges from 0.0, left
        # to right in edge order
        for i in range(g.n):
            total = 0.0
            for j in range(g.q):
                if i in (g.init[j], g.term[j]):
                    total += v[j]
            assert gram[i, i] == total
        assert np.allclose(gram, (e * v) @ e.T, rtol=1e-14, atol=0.0)
        assert_same_bits(g.incidence_rows(np.arange(g.n)), e)
        rows = [g.n - 1, 0, g.n // 2, 0]
        assert_same_bits(g.incidence_rows(rows), e[rows])
        assert g.incidence_rows([]).shape == (0, g.q)


def bfs_components(g):
    """Connected components by breadth-first search, an oracle for g.components."""
    adjacent = {i: set() for i in range(1, g.n + 1)}
    for k, l, _ in g.edges:
        adjacent[k].add(l)
        adjacent[l].add(k)
    seen, count = set(), 0
    for start in adjacent:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for j in adjacent[queue.popleft()] - seen:
                seen.add(j)
                queue.append(j)
    return count


class TestComponents:
    def test_path_connected(self):
        assert P3.components == 1

    def test_single_edge_of_four(self):
        assert WeightedGraph(4, ((1, 2, 1.0),)).components == 3

    def test_isolated_pair(self):
        assert WeightedGraph(2, ()).components == 2

    def test_union_counts_blocks(self):
        g = shifted_union(P3, C3)
        assert g.components == 2

    def test_matches_breadth_first_search(self):
        # the family's disconnected unions, edgeless graphs, isolated nodes,
        # and edges listed so that union-find joins two grown trees
        graphs = graph_family(60) + [WeightedGraph(n, ()) for n in (2, 3, 7)] + [
            WeightedGraph(6, ((2, 4, 1.0),)),
            WeightedGraph(7, ((1, 3, 1.0), (2, 5, 1.0), (3, 6, 0.5))),
            WeightedGraph(8, ((1, 5, 1.0), (2, 6, 1.0), (3, 4, 1.0), (4, 6, 1.0),
                              (5, 6, 1.0), (7, 8, 1.0)))]
        assert len({g.components for g in graphs}) >= 4
        for g in graphs:
            assert g.components == bfs_components(g), g.edges


class TestSpectral:
    def test_p2(self):
        rep = spectral_report(P2)
        assert np.allclose(rep.laplacian_eigs, [0.0, 2.0], atol=1e-12)
        assert np.allclose(rep.edge_laplacian_eigs, [2.0], atol=1e-12)
        assert rep.lambda2 == pytest.approx(2.0)

    def test_c3(self):
        rep = spectral_report(C3)
        assert np.allclose(rep.laplacian_eigs, [0.0, 3.0, 3.0], atol=1e-10)
        assert np.allclose(sorted(rep.edge_laplacian_eigs), [0.0, 3.0, 3.0], atol=1e-10)

    def test_p3(self):
        rep = spectral_report(P3)
        assert np.allclose(rep.laplacian_eigs, [0.0, 1.0, 3.0], atol=1e-10)
        assert np.allclose(sorted(rep.edge_laplacian_eigs), [1.0, 3.0], atol=1e-10)

    def test_lambda2_positive_iff_connected(self):
        for g in graph_family(16):
            rep = spectral_report(g)
            if g.components == 1:
                assert rep.lambda2 > 1e-9
            else:
                assert rep.lambda2 <= 1e-9


class TestRandomGraph:
    def test_two_nodes_forced_edge(self):
        g = random_connected_graph(2, 0.0, (0.1, 6.0), 9)
        assert g.edges[0][:2] == (1, 2)
        assert g.q == 1

    def test_tree_at_p_zero(self):
        g = random_connected_graph(5, 0.0, (0.1, 6.0), 3)
        assert g.q == 4
        assert g.components == 1

    def test_complete_at_p_one(self):
        g = random_connected_graph(5, 1.0, (0.1, 6.0), 3)
        assert g.q == 10

    @pytest.mark.parametrize("n,p,weights,message", [
        (1, 0.5, (0.1, 6.0), "2 nodes"),
        (5, 1.5, (0.1, 6.0), "edge_probability"),
        (5, 0.5, (0.0, 6.0), "weight_range"),
        (5, 0.5, (6.0, 0.1), "weight_range"),
    ], ids=["one_node", "probability", "zero_weight", "reversed_weights"])
    def test_rejects_bad_arguments(self, n, p, weights, message):
        with pytest.raises(ValueError, match=message):
            random_connected_graph(n, p, weights, 0)

    def test_deterministic(self):
        a = random_connected_graph(9, 0.5, (0.5, 2.0), 77)
        b = random_connected_graph(9, 0.5, (0.5, 2.0), 77)
        assert a == b

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_always_connected_weights_in_range(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        p = float(rng.uniform())
        g = random_connected_graph(n, p, (0.1, 6.0), seed)
        assert g.n == n
        assert g.components == 1
        ws = [w for _, _, w in g.edges]
        assert min(ws) >= 0.1 and max(ws) <= 6.0


class TestParsing:
    def test_parse_simple(self):
        g = parse_graph_text("nodes 3\n1 2 1.0\n2 3 0.5\n")
        assert g == WeightedGraph(3, ((1, 2, 1.0), (2, 3, 0.5)))

    def test_comments_and_blanks(self):
        g = parse_graph_text("# header\nnodes 2\n\n1 2 2.0  # the edge\n")
        assert g == WeightedGraph(2, ((1, 2, 2.0),))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph_text("1 2 1.0\n")

    def test_bad_weight_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_text("nodes 2\n1 2 heavy\n")
        assert "2" in str(exc.value)

    def test_noncanonical_rejected(self):
        with pytest.raises(ParseError):
            parse_graph_text("nodes 3\n2 3 1.0\n1 2 1.0\n")

    def test_node_count_past_the_dense_bound(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_text(f"# too big\nnodes {MAX_DENSE + 1}\n1 2 1.0\n")
        assert exc.value.line == 2
        assert "nodes" in str(exc.value)
        assert parse_graph_text(f"nodes {MAX_DENSE}\n1 2 1.0\n").n == MAX_DENSE

    def test_edge_count_past_the_dense_bound(self):
        n = 129  # 8256 pairs, the first with more than MAX_DENSE
        pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
        lines = [f"nodes {n}"] + [f"{k} {l} 1.0" for k, l in pairs[:MAX_DENSE + 1]]
        with pytest.raises(ParseError) as exc:
            parse_graph_text("\n".join(lines))
        assert exc.value.line == MAX_DENSE + 2
        assert parse_graph_text("\n".join(lines[:-1])).q == MAX_DENSE

    def test_malformed_edge_reported_before_the_bound(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_text(f"nodes {MAX_DENSE + 1}\n2 1 1.0\n")
        assert exc.value.line == 2

    def test_edges_past_the_bound_counted_not_kept(self):
        # every line is still checked, but only the first MAX_DENSE edges
        # are kept, so the parse peaks near its list of lines (keeping all
        # 100 000 edges takes 2.8 times that)
        pairs = itertools.islice(itertools.combinations(range(1, 451), 2), 100_000)
        text = "nodes 450\n" + "\n".join(f"{k} {l} 1.5" for k, l in pairs)
        tracemalloc.start()
        try:
            text.splitlines()
            lines_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(ParseError) as exc:
                parse_graph_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line == MAX_DENSE + 2
        assert "100000 edges exceed" in str(exc.value)
        assert peak < 1.5 * lines_peak
        # a malformed line past the bound is still reported first
        with pytest.raises(ParseError) as exc:
            parse_graph_text(text + "\n1 2 1.0")
        assert exc.value.line == 100_002
        assert "canonical order" in str(exc.value)

    def test_read_graph_file(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(C3.canonical_text())
        assert read_graph_file(str(path)) == C3

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_graph_file(str(tmp_path / "nope.graph"))


NODE_TOKENS = ("0", "1", "2", "3", "-1", "99999999999999999999")
WEIGHT_TOKENS = ("0.5", "1_0", "1e-320", "0", "-1", "1e309", "nan", "inf", "x")


@st.composite
def random_graph_text(draw):
    """Header and edge lines of boundary tokens, mixed with stray junk lines."""
    node = st.sampled_from(NODE_TOKENS)
    edge = st.tuples(node, node, st.sampled_from(WEIGHT_TOKENS)).map(" ".join)
    junk = st.lists(st.sampled_from(NODE_TOKENS + WEIGHT_TOKENS + ("nodes", "#")),
                    max_size=4).map(" ".join)
    lines = draw(st.lists(st.one_of(edge, junk), max_size=8))
    if draw(st.booleans()):
        lines.insert(0, "nodes " + draw(node))
    return "\n".join(lines)


GRAPH_TEXTS = (read_shipped("lorenz15.graph"), C3.canonical_text())


@given(st.one_of(random_graph_text(), mutated_text(GRAPH_TEXTS)))
# node indices that do not fit the 0-based index arrays
@example("nodes 99999999999999999999\n1 99999999999999999999 0.5")
@settings(max_examples=300, deadline=None)
def test_graph_text_parses_or_raises_parse_error(text):
    try:
        g = parse_graph_text(text)
    except ParseError:
        return
    assert isinstance(g, WeightedGraph)
