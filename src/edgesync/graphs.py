"""Weighted undirected graphs and their derived matrices.

Edges are stored in a canonical form: each pair as (k, l) with k < l,
the list sorted by increasing k then increasing l. Column j of the
incidence matrix carries -1 at the initial node k_j and +1 at the
terminal node l_j; the smaller index is always the initial node, fixed
once so every derived object is reproducible.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .linalg import sym_eig


@dataclass(frozen=True)
class WeightedGraph:
    """Node count plus canonically ordered weighted edge list.

    edges is a tuple of (k, l, w) with 1-based node indices, 1 <= k < l <= n,
    w > 0, sorted by (k, l), no duplicates. An empty edge list is legal
    (isolated nodes only).
    """

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        object.__setattr__(self, "edges", tuple(
            (int(k), int(l), float(w)) for k, l, w in self.edges
        ))
        seen = set()
        prev = None
        for k, l, w in self.edges:
            if not (1 <= k < l <= self.n):
                raise ValueError(f"edge ({k},{l}) violates 1 <= k < l <= {self.n}")
            if w <= 0.0 or not np.isfinite(w):
                raise ValueError(f"edge ({k},{l}) has non-positive weight {w}")
            if (k, l) in seen:
                raise ValueError(f"duplicate edge ({k},{l})")
            if prev is not None and (k, l) < prev:
                raise ValueError("edge list is not in canonical sorted order")
            seen.add((k, l))
            prev = (k, l)

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


@dataclass(frozen=True)
class GraphMatrices:
    """Incidence and Laplacian family of a weighted graph.

    incidence = incidence_terminal - incidence_initial, one column per
    edge; laplacian = E W E^T; edge_laplacian = E^T E W.
    """

    incidence: np.ndarray
    incidence_initial: np.ndarray
    incidence_terminal: np.ndarray
    weight_diag: np.ndarray
    laplacian: np.ndarray
    edge_laplacian: np.ndarray


@dataclass(frozen=True)
class SpectralReport:
    laplacian_eigs: np.ndarray
    edge_laplacian_eigs: np.ndarray
    lambda2: float
    components: int


def build_matrices(g):
    """Assemble incidence, weight, Laplacian and edge Laplacian matrices."""
    n, q = g.n, g.q
    e_init = np.zeros((n, q))
    e_term = np.zeros((n, q))
    for j, (k, l, _) in enumerate(g.edges):
        e_init[k - 1, j] = 1.0
        e_term[l - 1, j] = 1.0
    incidence = e_term - e_init
    weight_diag = np.diag([w for _, _, w in g.edges]) if q else np.zeros((0, 0))
    laplacian = incidence @ weight_diag @ incidence.T
    edge_laplacian = incidence.T @ incidence @ weight_diag
    return GraphMatrices(
        incidence=incidence,
        incidence_initial=e_init,
        incidence_terminal=e_term,
        weight_diag=weight_diag,
        laplacian=laplacian,
        edge_laplacian=edge_laplacian,
    )


def components(g):
    """Number of connected components, by union-find over the edge list."""
    parent = list(range(g.n + 1))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k, l, _ in g.edges:
        rk, rl = find(k), find(l)
        if rk != rl:
            parent[rk] = rl
    return len({find(i) for i in range(1, g.n + 1)})


def spectral_report(m, g):
    """Spectra of L and L_e plus connectivity facts.

    The edge Laplacian E^T E W is similar to the symmetric
    W^{1/2} E^T E W^{1/2} via W^{1/2}, so its spectrum is computed on the
    symmetrized form and stays inside the symmetric eigensolver.
    """
    lap_eigs = sym_eig(m.laplacian).eigenvalues
    if g.q:
        w_sqrt = np.sqrt(np.diag(m.weight_diag))
        sym_edge = (m.incidence.T @ m.incidence) * np.outer(w_sqrt, w_sqrt)
        edge_eigs = sym_eig(sym_edge).eigenvalues
    else:
        edge_eigs = np.zeros(0)
    lambda2 = float(lap_eigs[1]) if g.n >= 2 else 0.0
    return SpectralReport(
        laplacian_eigs=lap_eigs,
        edge_laplacian_eigs=edge_eigs,
        lambda2=lambda2,
        components=components(g),
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
    """Parse the graph text format.

    First non-comment line is ``nodes N``; every following line is
    ``k l w`` with 1-based indices, k < l, in canonical sorted order.
    Violations raise ParseError carrying the offending line number.
    """
    n = None
    edges = []
    prev = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            continue
        if len(parts) != 3:
            raise ParseError("expected 'k l w' edge line", path, lineno)
        try:
            k, l, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"bad edge line {line!r}", path, lineno)
        if not 1 <= k < l <= n:
            raise ParseError(f"edge ({k},{l}) violates 1 <= k < l <= {n}", path, lineno)
        if w <= 0 or not np.isfinite(w):
            raise ParseError(f"edge weight must be positive and finite, got {w}",
                             path, lineno)
        if prev is not None and (k, l) <= prev:
            raise ParseError("edges out of canonical order or duplicated", path, lineno)
        prev = (k, l)
        edges.append((k, l, w))
    if n is None:
        raise ParseError("empty graph file", path)
    return WeightedGraph(n, tuple(edges))


def read_graph_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file: {exc}", str(path))
    return parse_graph_text(text, path=str(path))
