"""The benchmark's workloads and the generator of their inputs.

Each workload is one edgesync CLI invocation. lorenz15_run and c3_sweep
use the shipped scenarios and take the seed as the initial-condition
seed. rand300_check runs on a scenario and graph file generated here
from the seed, before any timing starts.
"""

import os

import numpy as np

import checks

# rand300_check: 300 agents, Q = 1185 edges, weights uniform in [0.1, 6].
# The edge count is fixed rather than drawn (the library's
# random_connected_graph(300, 6/300, ...) gives Q between about 1160
# and 1270 across seeds). The check costs O(Q^3), so a drawn Q would
# make the work, and not the machine, set the spread between seeds.
RAND_NODES = 300
RAND_EDGES = 1185
RAND_WEIGHTS = (0.1, 6.0)

SWEEP_MULTIPLIERS = ("0.5", "1", "2", "5", "1000")

RAND_SCENARIO = """\
# Double integrators on a generated {n}-node, {q}-edge weighted graph.
[graph]
file {graph}

[model]
kind linear
a 0 1 ; 0 0
b 0 1

[certificate]
rho 1.0
mu 0.2

[controller]
beta_multiplier 1.0

[initial]
base 0 0
radius 5.0
seed {seed}

[integration]
h 0.005
t_end 35.0
record_interval 0.05
"""


def random_graph_text(n, q, weight_range, seed):
    """Canonical graph-file text of a seeded connected graph with q edges.

    A spanning tree over a random node permutation, plus q - (n - 1)
    further pairs drawn without replacement, weights uniform in
    weight_range in canonical edge order, written with repr so they
    read back exactly.
    """
    if not n - 1 <= q <= n * (n - 1) // 2:
        raise ValueError(f"{q} edges cannot make a simple connected "
                         f"graph on {n} nodes")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    tree = set()
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[rng.integers(0, i)])
        tree.add((min(a, b), max(a, b)))
    rows, cols = np.triu_indices(n, k=1)
    rest = [(int(k), int(l)) for k, l in zip(rows, cols) if (k, l) not in tree]
    extra = rng.choice(len(rest), size=q - (n - 1), replace=False)
    edges = sorted(tree | {rest[int(i)] for i in extra})
    weights = rng.uniform(weight_range[0], weight_range[1], size=q)
    lines = [f"nodes {n}"]
    lines += [f"{k + 1} {l + 1} {w!r}" for (k, l), w in zip(edges, weights.tolist())]
    return "\n".join(lines) + "\n"


class Workload:
    """One CLI invocation with its inputs and its output checks.

    command is the CLI verb. scenario(seed, work_dir) returns the
    scenario path, generating it first where needed. cli_args(scenario,
    seed, out_dir) is the argument list after the verb. check(out_dir)
    returns a list of problems, empty when the artifacts pass.
    """

    def __init__(self, name, command, scenario, cli_args, check, seed_override):
        self.name = name
        self.command = command
        self.scenario = scenario
        self.cli_args = cli_args
        self.check = check
        # whether the seed reaches the program as --seed (and so must
        # reach the set-up probe as an initial-seed override)
        self.seed_override = seed_override


def _shipped(name):
    return lambda seed, work_dir: os.path.join("scenarios", name)


def _generate_rand300(seed, work_dir):
    os.makedirs(work_dir, exist_ok=True)
    graph = os.path.join(work_dir, "rand300.graph")
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write(random_graph_text(RAND_NODES, RAND_EDGES, RAND_WEIGHTS, seed))
    scenario = os.path.join(work_dir, "rand300.scn")
    with open(scenario, "w", encoding="utf-8") as fh:
        fh.write(RAND_SCENARIO.format(n=RAND_NODES, q=RAND_EDGES,
                                      graph="rand300.graph", seed=seed))
    return scenario


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "lorenz15_run", "run", _shipped("lorenz15.scn"),
            lambda scn, seed, out: [scn, "--seed", str(seed), "--out-dir", out],
            lambda out: checks.check_run(out, rows=2001, cols=63),
            seed_override=True,
        ),
        Workload(
            "c3_sweep", "sweep", _shipped("linear_c3.scn"),
            lambda scn, seed, out: [scn, "--seed", str(seed), "--out-dir", out,
                                    "--multipliers", *SWEEP_MULTIPLIERS],
            lambda out: checks.check_sweep(
                out, SWEEP_MULTIPLIERS, rows=701, cols=12),
            seed_override=True,
        ),
        Workload(
            "rand300_check", "check", _generate_rand300,
            lambda scn, seed, out: [scn, "--out-dir", out],
            lambda out: checks.check_graph_check(
                os.path.join(out, "graph_check.txt"),
                nodes=RAND_NODES, edges=RAND_EDGES),
            seed_override=False,
        ),
    )
}
