"""Property checks on the artifacts of one CLI invocation.

Every check returns a list of problems; an empty list means the
artifacts pass. The checks test properties, not bytes, so an intended
change to the artifacts (a tighter beta_star, say) still passes.
"""

import hashlib
import os

import numpy as np

BETA_RTOL = 1e-9
LIFT_RTOL = 1e-8
ENDPOINT_TOL = 1e-8
SYNC_RATIO = 1e-2
MIN_SWEEP_RATE = 0.36  # 0.9 * 2 mu with mu = 0.2 on linear_c3
MAX_UPTICK = 1e-6


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(out_dir):
    """SHA-256 of every file under out_dir, keyed by relative path."""
    out = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, out_dir)] = sha256(path)
    return dict(sorted(out.items()))


def read_graph_check(path):
    """Scalar lines and matrix blocks of graph_check.txt."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    scalars, matrices = {}, {}
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        if parts and parts[0] == "matrix":
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            block = lines[i + 1:i + 1 + rows]
            if len(block) != rows:
                raise ValueError(f"matrix {name} has {len(block)} of {rows} rows")
            values = np.array(" ".join(block).split(), dtype=float)
            matrices[name] = values.reshape(rows, cols)
            i += rows + 1
        else:
            if parts:
                scalars[parts[0]] = [float(v) for v in parts[1:]]
            i += 1
    return scalars, matrices


def recompute_beta_star(scalars, matrices):
    """rho * w_max / (2 * lambda_min(sym(W U))) from the emitted matrices."""
    w = matrices["weight_diag"]
    u = matrices["lift"]
    wu = w @ u
    lam_min = float(np.linalg.eigvalsh(0.5 * (wu + wu.T))[0])
    return scalars["rho"][0] * float(np.max(np.diag(w))) / (2.0 * lam_min)


def check_graph_check(path, nodes=None, edges=None):
    """beta_star, lift and endpoint identities of a graph_check.txt."""
    try:
        scalars, matrices = read_graph_check(path)
        stated = scalars["beta_star"][0]
        beta = recompute_beta_star(scalars, matrices)
        e, lap, u = matrices["incidence"], matrices["laplacian"], matrices["lift"]
        n_nodes, n_edges = int(scalars["nodes"][0]), int(scalars["edges"][0])
        kernel_dim = int(scalars["lift_kernel_dim"][0])
        endpoints = (scalars["endpoint_residual_initial"][0],
                     scalars["endpoint_residual_terminal"][0])
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"{path}: unreadable ({type(exc).__name__}: {exc})"]
    problems = []
    if not abs(beta - stated) <= BETA_RTOL * abs(stated):
        problems.append(f"beta_star {stated!r} but the emitted matrices give {beta!r}")
    scale = max(1.0, float(np.max(np.abs(lap))))
    lift_residual = float(np.max(np.abs(u @ e.T - e.T @ lap)))
    if not lift_residual <= LIFT_RTOL * scale:
        problems.append(f"lift residual {lift_residual:.3e} > {LIFT_RTOL:g} * {scale:g}")
    if not max(endpoints) <= ENDPOINT_TOL:
        problems.append(f"endpoint residuals {endpoints} > {ENDPOINT_TOL:g}")
    if kernel_dim != n_edges - n_nodes + 1:
        problems.append(f"kernel_dim {kernel_dim} != Q - N + 1 = "
                        f"{n_edges - n_nodes + 1}")
    if (nodes, edges) != (None, None) and (n_nodes, n_edges) != (nodes, edges):
        problems.append(f"graph has {n_nodes} nodes and {n_edges} edges, "
                        f"expected {nodes} and {edges}")
    return problems


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        pairs = (line.split(" ", 1) for line in fh.read().splitlines())
        return {key: value for key, value in pairs if key != "warning"}


def check_csv(path, rows, cols):
    """Header plus `rows` records of `cols` cells; the last record finite."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    if lines[-1] != "":
        return [f"{path}: last line not terminated"]
    lines.pop()
    problems = []
    if len(lines) != rows + 1:
        problems.append(f"{path}: {len(lines)} lines, expected {rows + 1}")
    for where, line in (("header", lines[0]), ("last row", lines[-1])):
        if len(line.split(",")) != cols:
            problems.append(f"{path}: {where} has {len(line.split(','))} "
                            f"columns, expected {cols}")
    try:
        last = np.array(lines[-1].split(","), dtype=float)
    except ValueError:
        return problems + [f"{path}: last row is not numeric"]
    if not np.all(np.isfinite(last)):
        problems.append(f"{path}: last row is not finite")
    return problems


def check_run(out_dir, rows, cols):
    """report.txt, graph_check.txt and trajectory.csv of one `run`."""
    problems = check_graph_check(os.path.join(out_dir, "graph_check.txt"))
    problems += check_csv(os.path.join(out_dir, "trajectory.csv"), rows, cols)
    try:
        report = read_report(os.path.join(out_dir, "report.txt"))
        sync0 = float(report["initial_sync_error"])
        sync1 = float(report["final_sync_error"])
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"report.txt: unreadable ({type(exc).__name__}: {exc})"]
    if not sync1 <= SYNC_RATIO * sync0:
        problems.append(f"final_sync_error {sync1!r} > {SYNC_RATIO:g} * "
                        f"initial_sync_error {sync0!r}")
    return problems


def check_sweep(out_dir, multipliers, rows, cols):
    """sweep_summary.csv: one row per multiplier, the critical ones converge.

    Every member with m >= 1 must be ok with rate >= MIN_SWEEP_RATE and
    uptick <= MAX_UPTICK; m = 1000 must diverge. Converged members also
    carry a full trajectory.csv.
    """
    try:
        with open(os.path.join(out_dir, "sweep_summary.csv"), encoding="utf-8") as fh:
            table = [line.split(",") for line in fh.read().splitlines()[1:]]
    except OSError as exc:
        return [f"sweep_summary.csv: unreadable ({exc})"]
    got = [row[0] for row in table]
    if got != [f"{float(m):g}" for m in multipliers]:
        return [f"sweep_summary.csv rows {got}, expected {list(multipliers)}"]
    if any(len(row) != 5 for row in table):
        return ["sweep_summary.csv: a row does not have 5 cells"]
    problems = []
    for mult, rate, uptick, _, status in table:
        m = float(mult)
        if m == 1000.0:
            if status != "DivergedError":
                problems.append(f"m={mult}: status {status}, expected DivergedError")
            continue
        if status == "ok":
            problems += check_csv(
                os.path.join(out_dir, f"run_m{mult}", "trajectory.csv"), rows, cols)
        if m >= 1.0 and not (status == "ok" and float(rate) >= MIN_SWEEP_RATE
                             and float(uptick) <= MAX_UPTICK):
            problems.append(f"m={mult}: status {status} rate {rate} "
                            f"uptick {uptick}")
    return problems
