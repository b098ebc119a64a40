"""Weighted undirected graphs and their derived matrices.

Edges are stored in a canonical form: each pair as (k, l) with k < l,
the list sorted by increasing k then increasing l. Column j of the
incidence matrix carries -1 at the initial node k_j and +1 at the
terminal node l_j; the smaller index is always the initial node, fixed
once so every derived object is reproducible.

Neither E nor the diagonal edge-weight matrix W is formed whole: the
graph's index arrays stand for E (WeightedGraph.et, incidence_rows and
gram build the products by it) and products with W are row or column
scalings by the weight vector.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .linalg import sym_eig


# the most nodes a graph may have, and the most edges a parsed graph: a
# check holds dense N x N arrays and the lift's Q x (N - c) basis q1
# (N = Q = 8192 is 512 MiB each) and no Q x Q one, as the lift is kept
# factored and its rows, with those of E^T E, are built a share at a time
MAX_DENSE = 8192


def _edge_problem(k, l, w, n, prev):
    """Why edge (k, l, w) may not follow the pair prev on n nodes, or None.

    The one per-edge rule, shared by WeightedGraph and parse_graph_text.
    """
    if not 1 <= k < l <= n:
        return f"edge ({k},{l}) violates 1 <= k < l <= {n}"
    if not (w > 0.0 and np.isfinite(w)):
        return f"edge ({k},{l}) weight must be positive and finite, got {w}"
    if prev is not None and (k, l) <= prev:
        return f"edge ({k},{l}) duplicated or out of canonical order"
    return None


def _count_components(n, edges):
    """Number of connected components of n nodes, by union-find over the edges."""
    parent = list(range(n + 1))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k, l, _ in edges:
        parent[find(k)] = find(l)
    return len({find(i) for i in range(1, n + 1)})


def _frozen(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WeightedGraph:
    """Node count plus canonically ordered weighted edge list.

    2 <= n <= MAX_DENSE. edges is a tuple of (k, l, w) with 1-based node
    indices, 1 <= k < l <= n, w > 0, sorted by (k, l), no duplicates. An
    empty edge list is legal (isolated nodes only). The same edges, in
    the same order, are kept as read-only arrays for vectorised use:
    init and term hold the 0-based initial and terminal nodes (k - 1 and
    l - 1) and weights the w. components is the number c of connected
    components, counted once by union-find: E E^T has rank N - c and
    ker(E) dimension Q - N + c.
    """

    n: int
    edges: tuple
    init: np.ndarray = field(init=False, repr=False, compare=False)
    term: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    components: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if self.n > MAX_DENSE:
            raise ValueError(f"{self.n} nodes exceed the dense bound of {MAX_DENSE}")
        edges = tuple((int(k), int(l), float(w)) for k, l, w in self.edges)
        prev = None
        for k, l, w in edges:
            problem = _edge_problem(k, l, w, self.n, prev)
            if problem:
                raise ValueError(problem)
            prev = (k, l)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "init", _frozen([k - 1 for k, _, _ in edges], np.intp))
        object.__setattr__(self, "term", _frozen([l - 1 for _, l, _ in edges], np.intp))
        object.__setattr__(self, "weights", _frozen([w for _, _, w in edges], float))
        object.__setattr__(self, "components", _count_components(self.n, edges))

    @classmethod
    def from_pairs(cls, n, weighted_pairs):
        """Build a graph from unordered (i, j, w) triples, normalizing order."""
        canon = sorted((min(i, j), max(i, j), w) for i, j, w in weighted_pairs)
        return cls(n, tuple(canon))

    @property
    def q(self):
        return len(self.edges)

    def canonical_text(self):
        lines = [f"nodes {self.n}"]
        for k, l, w in self.edges:
            lines.append(f"{k} {l} {w:.17g}")
        return "\n".join(lines) + "\n"

    def short_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def et(self, a):
        """E^T a for an N-row array a: row j is a[term_j] - a[init_j]."""
        out = a[self.term]
        out -= a[self.init]
        return out

    def incidence_rows(self, nodes):
        """Rows nodes of the incidence E, as a len(nodes) x Q float array."""
        nodes = np.asarray(nodes)[:, None]
        return np.subtract(nodes == self.term, nodes == self.init, dtype=float)

    def gram(self, v):
        """E diag(v) E^T, from one bincount over the edges' interleaved ends.

        -v at both cells of each edge; on the diagonal, each node's sum of
        v over its edges, added in edge order from 0.0.
        """
        ends = np.stack((self.init, self.term), 1).ravel()
        out = np.diag(np.bincount(ends, np.repeat(v, 2), self.n))
        out[self.init, self.term] = out[self.term, self.init] = -v
        return out

    def laplacian(self):
        """L = E W E^T, built anew at each call."""
        return self.gram(self.weights)


@dataclass(frozen=True)
class SpectralReport:
    laplacian_eigs: np.ndarray
    edge_laplacian_eigs: np.ndarray
    lambda2: float


def spectral_report(g):
    """Spectra of L and L_e, from one N x N eigensolve.

    The edge Laplacian E^T E W and L = E W E^T share their nonzero
    eigenvalues, and E^T E W has Q - N + c zeros on a graph of c
    components. Its spectrum is written as that many exact zeros
    followed by the N - c nonzero eigenvalues of L, with no Q x Q
    eigensolve.
    """
    lap_eigs = sym_eig(g.laplacian()).eigenvalues
    c = g.components
    return SpectralReport(
        laplacian_eigs=lap_eigs,
        edge_laplacian_eigs=np.concatenate([np.zeros(g.q - g.n + c), lap_eigs[c:]]),
        lambda2=float(lap_eigs[1]),
    )


def random_connected_graph(n, edge_probability, weight_range, seed):
    """Seeded random connected graph.

    A spanning tree is laid over a random permutation of the nodes, then
    every remaining pair is added independently with the given
    probability; weights are uniform in weight_range, drawn in canonical
    edge order. Deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    w_min, w_max = float(weight_range[0]), float(weight_range[1])
    if not 0.0 < w_min <= w_max:
        raise ValueError("weight_range must satisfy 0 < w_min <= w_max")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = int(perm[j]) + 1, int(perm[i]) + 1
        pairs.add((min(a, b), max(a, b)))
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            if (k, l) in pairs:
                continue
            if rng.uniform() < edge_probability:
                pairs.add((k, l))
    ordered = sorted(pairs)
    edges = tuple(
        (k, l, float(rng.uniform(w_min, w_max))) for k, l in ordered
    )
    return WeightedGraph(n, edges)


def parse_graph_text(text, path="<string>"):
    """Parse the graph text format, a str or an iterable of lines such as a file.

    First non-comment line is ``nodes N``; every following line is
    ``k l w`` with 1-based indices, k < l, in canonical sorted order.
    Violations raise ParseError carrying the offending line number, as do
    more than MAX_DENSE nodes or edges (the ``nodes`` line, the first edge past).
    Edges past the bound are checked and counted, not kept, and an
    iterable is read a line at a time, so a file is never held whole.
    """
    # str.splitlines' line breaks on a str and within each line given
    lines = text.splitlines() if isinstance(text, str) else (
        part for line in text for part in line.splitlines())
    n = nodes_line = past_line = None
    edges = []
    q = 0
    prev = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "nodes":
                raise ParseError("expected 'nodes N' header", path, lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad node count {parts[1]!r}", path, lineno)
            if n < 2:
                raise ParseError("need at least 2 nodes", path, lineno)
            nodes_line = lineno
            continue
        if len(parts) != 3:
            raise ParseError("expected 'k l w' edge line", path, lineno)
        try:
            k, l, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"bad edge line {line!r}", path, lineno)
        problem = _edge_problem(k, l, w, n, prev)
        if problem:
            raise ParseError(problem, path, lineno)
        prev = (k, l)
        q += 1
        if q <= MAX_DENSE:
            edges.append((k, l, w))
        elif past_line is None:
            past_line = lineno
    if n is None:
        raise ParseError("empty graph file", path)
    # bounded after the loop, so a malformed line is reported before a size
    for count, what, lineno in ((n, "nodes", nodes_line),
                                (q, "edges", past_line)):
        if count > MAX_DENSE:
            raise ParseError(f"{count} {what} exceed the dense bound of "
                             f"{MAX_DENSE}", path, lineno)
    return WeightedGraph(n, tuple(edges))


def read_graph_file(path):
    """Parse the graph file at path a line at a time (see parse_graph_text)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh, path=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file: {exc}", str(path))
