"""Command line entry point.

Verbs:
    run <scenario>     full pipeline: checks, simulation, analysis, files
    check <scenario>   construction and certificate checks only
    sweep <scenario> --multipliers m1 m2 ...   all gain multipliers in one pass

Artifacts are written atomically (temp file plus rename) into the output
directory resolved as: --out-dir flag, else the scenario [output] dir,
else the EDGESYNC_OUT_DIR environment variable, else ./edgesync_out.

No artifact is held whole, and no Q x Q array is formed: trajectory.csv's
records and graph_check.txt's incidence, Laplacian and lift blocks are
tables, built and written a share of at most 2**16 cells at a time;
only the weight block is written by lookup, a line at a time. A table
of at least 2 * 2**16 cells is formatted by a pool of forked workers,
one per usable CPU; the bytes do not depend on the CPU count. `check`
peaks at 59 MiB, workers included, on a 300-node, 1185-edge graph and
at 222 MiB on a 1000-node, 4000-edge graph (99 and 700 MiB with the
whole lift held).

Exit codes: 0 success, 1 unexpected failure, 2 parse error,
3 disconnected graph, 4 dimension mismatch, 5 not stabilizable,
6 reserved (unused), 7 diverged simulation, 8 not positive definite,
9 numerical kernel failure, 10 empty analysis window.
"""

import argparse
import os
import sys
from collections import deque
from functools import partial

import numpy as np

from . import analysis
from .edge_lift import lift_rows
from .errors import DivergedError, EdgeSyncError, ParseError
from .metric import verify_ari_sampled, verify_killing_integrability
from .scenario import check_integration, parse_scenario, realize
from .simulate import simulate, simulate_batch

ENV_OUT_DIR = "EDGESYNC_OUT_DIR"
CERT_SAMPLE_COUNT = 200
CERT_SAMPLE_RADIUS = 10.0
CERT_SAMPLE_SEED = 0
# Cells in a share of a table, built and written at once (at least one
# row), and in the share a pool worker formats: below two shares' cells
# a pool costs more than the formatting it takes over.
_MIN_CELLS_PER_WORKER = 2**16


def _fmt(value):
    return f"{value:.17g}"


def _usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_rows(block, row):
    """The lines of a block's rows by the template row, each made as it is read."""
    return (row % tuple(cells.tolist()) for cells in block)


def _format_share(block, row):
    """The text of a block's rows by the template row: what a pool worker returns."""
    return "".join(_format_rows(block, row))


def _table(n_rows, n_cols, rows, sep):
    """The lines of a table of floats, built and formatted a row share at a time.

    rows(lo, hi) builds rows lo to hi, n_cols cells each. A line holds a
    row's cells joined by sep, each as _fmt writes it; one "%.17g"
    template formats a whole row, much faster than _fmt per cell. The
    text comes in row order, a line at a time on the serial path and a
    share at a time from the pool. A share holds at most
    _MIN_CELLS_PER_WORKER cells, or one row, on any CPU count, so rows
    whose last bits depend on the share they are built in still give
    the same bytes. A table of at least 2 * _MIN_CELLS_PER_WORKER cells
    is formatted by a pool of one worker per usable CPU (and share),
    imported only then and forked before it starts a thread. The parent
    builds each share, so BLAS runs only there, keeps at most
    workers + 1 in flight and formats any the pool does not. Closing
    the generator shuts the pool down.
    """
    row = sep.join(["%.17g"] * n_cols) + "\n"
    step = max(1, _MIN_CELLS_PER_WORKER // max(1, n_cols))
    bounds = list(range(0, n_rows, step)) + [n_rows]
    shares = list(zip(bounds[:-1], bounds[1:]))
    workers = min(_usable_cpus(), len(shares)) if hasattr(os, "fork") else 1
    if n_rows * n_cols < 2 * _MIN_CELLS_PER_WORKER or workers < 2:
        for lo, hi in shares:
            yield from _format_rows(rows(lo, hi), row)
        return

    def text(block, future):
        """A share's text, by the parent if the pool refused it or its worker failed."""
        if future is None or future.exception() is not None:
            return _format_share(block, row)
        return future.result()

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    children = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    in_flight = deque()
    try:
        for lo, hi in shares:
            block = rows(lo, hi)
            try:
                future = pool.submit(_format_share, block, row)
            except (OSError, RuntimeError):
                # a fork failed or the pool broke: shut down, it refuses the rest
                pool.shutdown()
                future = None
            in_flight.append((block, future))
            if len(in_flight) > workers:
                yield text(*in_flight.popleft())
        while in_flight:
            yield text(*in_flight.popleft())
    finally:
        pool.shutdown(cancel_futures=True)
        # a fork failing after another leaves a worker the pool never serves
        for child in set(multiprocessing.active_children()) - children:
            child.terminate()
            child.join()


def _row_text(values, sep):
    """One line of the values joined by sep, each as _fmt writes it."""
    values = np.asarray(values, dtype=float).tolist()
    return sep.join(["%.17g"] * len(values)) % tuple(values) + "\n"


def _atomic_write(path, parts):
    """Write the parts' text to path through a temp file; a ParseError if that fails.

    parts is a list of str and of generators of lines, such as _table's,
    so its length is known before it is written. On any exception the
    temp file is removed. Every generator part is closed, written or
    not, which shuts down a formatting pool.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for part in parts:
                if isinstance(part, str):
                    fh.write(part)
                else:
                    fh.writelines(part)
        os.replace(tmp, path)
    except OSError as exc:
        raise ParseError(f"cannot write artifact: {exc}")
    finally:
        for part in parts:
            if not isinstance(part, str):
                part.close()
        if os.path.isfile(tmp):
            os.remove(tmp)


def _matrix_block(name, n_rows, n_cols, rows):
    """A matrix block's header line and its table; rows(lo, hi) builds rows lo to hi."""
    return [f"matrix {name} {n_rows} {n_cols}\n", _table(n_rows, n_cols, rows, " ")]


def _diag_block(name, diag):
    """The block of the matrix np.diag(diag), each line made as it is read."""
    q = len(diag)
    return [f"matrix {name} {q} {q}\n", (
        "0 " * i + _fmt(w) + " 0" * (q - 1 - i) + "\n"
        for i, w in enumerate(np.asarray(diag, dtype=float).tolist()))]


def graph_check_text(setup):
    """Machine-parseable construction report, as a list of parts (see _atomic_write).

    Carries the matrices themselves so the critical gain can be
    recomputed from the emitted data and compared against the stated
    value. Each matrix block's rows are built as they are written, the
    lift's by lift_rows, so no Q x Q array is formed.
    """
    g = setup.graph
    lift = setup.lift
    lap = g.laplacian()
    parts = [line + "\n" for line in (
        f"nodes {g.n}",
        f"edges {g.q}",
        f"components {g.components}",
        f"lambda2 {_fmt(setup.spectral.lambda2)}",
        f"rho {_fmt(setup.certificate.rho)}",
        f"lift_mu {_fmt(lift.mu)}",
        f"lift_kernel_dim {lift.kernel_dim}",
        f"lift_pd_margin {_fmt(lift.pd_margin)}",
        f"lift_residual {_fmt(setup.lift_residual)}",
        # E_k, E_l = (|E| -+ E) / 2: each endpoint residual is half of it
        f"endpoint_residual_initial {_fmt(0.5 * setup.lift_residual)}",
        f"endpoint_residual_terminal {_fmt(0.5 * setup.lift_residual)}",
        f"beta_star {_fmt(setup.controller.beta_star)}",
    )]
    parts += [
        "laplacian_eigs " + _row_text(setup.spectral.laplacian_eigs, " "),
        "edge_laplacian_eigs " + _row_text(setup.spectral.edge_laplacian_eigs, " "),
    ]
    parts += _matrix_block("incidence", g.n, g.q,
                           lambda lo, hi: g.incidence_rows(np.arange(lo, hi)))
    parts += _diag_block("weight_diag", g.weights)
    parts += _matrix_block("laplacian", g.n, g.n, lambda lo, hi: lap[lo:hi])
    parts += _matrix_block("lift", g.q, g.q, partial(lift_rows, g, lift))
    return parts


def parse_graph_check(text):
    """Read back the scalar fields and matrix blocks of graph_check.txt."""
    scalars = {}
    matrices = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        if parts[0] == "matrix":
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            block = [
                [float(v) for v in lines[i + 1 + r].split()]
                for r in range(rows)
            ]
            matrices[name] = np.array(block).reshape(rows, cols)
            i += rows + 1
        else:
            scalars[parts[0]] = [float(v) for v in parts[1:]]
            i += 1
    return scalars, matrices


def certificate_checks(setup):
    """Sampled certificate diagnostics and any warnings they raise."""
    rng = np.random.default_rng(CERT_SAMPLE_SEED)
    n = setup.model.state_dim
    samples = []
    for _ in range(CERT_SAMPLE_COUNT):
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        samples.append(CERT_SAMPLE_RADIUS * rng.uniform() ** (1.0 / n) * direction)
    margin = verify_ari_sampled(setup.certificate, setup.model, samples)
    killing, integrability = verify_killing_integrability(
        setup.certificate, setup.model, samples[:20])
    warnings = []
    if setup.approximate:
        warnings.append("certificate is approximate (origin linearization "
                        "of a state-dependent model)")
    if margin < 0.0:
        warnings.append(f"sampled contraction inequality fails "
                        f"(worst margin {margin:.6g})")
    if killing > 1e-6:
        warnings.append(f"metric preservation residual {killing:.6g} "
                        "exceeds 1e-06 (input field is state dependent)")
    if integrability > 1e-4:
        warnings.append(f"feedback gradient residual {integrability:.6g} "
                        "exceeds 1e-04")
    if setup.controller.below_critical:
        warnings.append("beta is below beta_star; the exponential guarantee "
                        "does not apply")
    diag = {
        "ari_sampled_margin": margin,
        "killing_residual": killing,
        "integrability_residual": integrability,
    }
    return diag, warnings


def trajectory_csv(traj, v, sync):
    """Header line, then one line per record: time, states, inputs, V, sync error.

    A list of the header and _table's lines, whose rows are stacked from
    slices of the series a share at a time, as the file is written.
    """
    n_agents = traj.inputs.shape[1]
    state_dim = traj.states.shape[1] // n_agents
    header = ["t"]
    for i in range(1, n_agents + 1):
        for j in range(1, state_dim + 1):
            header.append(f"x_{i}_{j}")
    header += [f"u_{i}" for i in range(1, n_agents + 1)]
    header += ["V", "sync_error"]

    def rows(lo, hi):
        return np.column_stack((traj.times[lo:hi], traj.states[lo:hi],
                                traj.inputs[lo:hi], v[lo:hi], sync[lo:hi]))

    return [",".join(header) + "\n",
            _table(len(traj.times), len(header), rows, ",")]


def report_text(setup, diag, warnings, fit, uptick, sync0, sync1):
    """The run report, as a list of lines."""
    ratio = sync1 / sync0 if sync0 > 0 else 0.0
    lines = [
        f"scenario {setup.name}",
        f"model {setup.model.name}",
        f"graph_hash {setup.graph.short_hash()}",
        f"beta {_fmt(setup.controller.beta)}",
        f"beta_star {_fmt(setup.controller.beta_star)}",
        f"below_critical {str(setup.controller.below_critical).lower()}",
        f"approximate_certificate {str(setup.approximate).lower()}",
        f"ari_sampled_margin {_fmt(diag['ari_sampled_margin'])}",
        f"killing_residual {_fmt(diag['killing_residual'])}",
        f"integrability_residual {_fmt(diag['integrability_residual'])}",
        f"rate {_fmt(fit.rate)}",
        f"r_squared {_fmt(fit.r_squared)}",
        f"fit_window {_fmt(fit.window[0])} {_fmt(fit.window[1])}",
        f"largest_uptick {_fmt(uptick)}",
        f"initial_sync_error {_fmt(sync0)}",
        f"final_sync_error {_fmt(sync1)}",
        f"sync_ratio {_fmt(ratio)}",
    ]
    lines += [f"warning {w}" for w in warnings]
    return [line + "\n" for line in lines]


def _make_dir(path):
    """Create the directory path and its parents; a ParseError if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot create output directory: {exc}")
    return path


def _resolve_out_dir(flag_value, setup_dir):
    return _make_dir(flag_value or setup_dir or os.environ.get(ENV_OUT_DIR)
                     or "edgesync_out")


def _apply_overrides(sc, args):
    """Apply --h, --t-end and --seed to sc and check the result."""
    if args.h is not None:
        sc.h = args.h
    if args.t_end is not None:
        sc.t_end = args.t_end
    if args.seed is not None:
        if sc.init_states is not None:
            raise ParseError(
                "--seed cannot override explicit initial states", sc.path)
        if args.seed < 0:
            raise ParseError(f"--seed must be nonnegative, got {args.seed}",
                             sc.path)
        sc.init_seed = args.seed
    check_integration(sc, len(args.multipliers) if args.command == "sweep" else 1)


def _analyse_and_write(setup, traj, out_dir):
    """V and sync error per record, V's decay fit and uptick, trajectory.csv.

    Returns the fit, the uptick and the sync error series.
    """
    stacks = traj.states.reshape(traj.n_samples, setup.graph.n,
                                 setup.model.state_dim)
    v = analysis.edge_energy(stacks, setup.graph, setup.certificate.p)
    sync = analysis.sync_error(stacks)
    fit = analysis.fit_decay_rate(traj.times, v, (0.1 * setup.t_end, setup.t_end))
    uptick = analysis.check_monotone(v)
    _atomic_write(os.path.join(out_dir, "trajectory.csv"),
                  trajectory_csv(traj, v, sync))
    return fit, uptick, sync


def cmd_run(args):
    sc = parse_scenario(args.scenario)
    _apply_overrides(sc, args)
    setup = realize(sc, require_connected=True)
    out_dir = _resolve_out_dir(args.out_dir, setup.out_dir)
    traj = simulate(
        setup.graph, setup.model, setup.controller.beta, setup.x0,
        setup.t_end, setup.h, setup.record_interval,
    )
    fit, uptick, sync = _analyse_and_write(setup, traj, out_dir)
    diag, warnings = certificate_checks(setup)
    _atomic_write(os.path.join(out_dir, "report.txt"),
                  report_text(setup, diag, warnings, fit, uptick, sync[0], sync[-1]))
    _atomic_write(os.path.join(out_dir, "graph_check.txt"), graph_check_text(setup))
    ratio = sync[-1] / sync[0] if sync[0] > 0 else 0.0
    print(f"run {setup.name}: beta={setup.controller.beta:.6g} "
          f"beta_star={setup.controller.beta_star:.6g}")
    print(f"  rate={fit.rate:.6g} r_squared={fit.r_squared:.8g} "
          f"largest_uptick={uptick:.3e}")
    print(f"  sync_error {sync[0]:.6g} -> {sync[-1]:.6g} (ratio {ratio:.3e})")
    print(f"  artifacts in {out_dir}")
    return 0


def cmd_check(args):
    sc = parse_scenario(args.scenario)
    setup = realize(sc, require_connected=False)
    diag, warnings = certificate_checks(setup)
    out_dir = _resolve_out_dir(args.out_dir, setup.out_dir)
    _atomic_write(os.path.join(out_dir, "graph_check.txt"), graph_check_text(setup))
    print(f"check {setup.name}: nodes={setup.graph.n} edges={setup.graph.q} "
          f"components={setup.graph.components}")
    print(f"  lift_pd_margin={setup.lift.pd_margin:.6g} "
          f"beta_star={setup.controller.beta_star:.6g}")
    print(f"  ari_sampled_margin={diag['ari_sampled_margin']:.6g}")
    for w in warnings:
        print(f"  warning: {w}")
    print(f"  graph_check.txt in {out_dir}")
    return 0


def _check_multipliers(multipliers):
    """Each multiplier finite, and no two sharing a run_m{M:g} directory."""
    labels = {}
    for mult in multipliers:
        if not np.isfinite(mult):
            raise ParseError(f"--multipliers must be finite, got {mult:g}")
        label = f"{mult:g}"
        if label in labels:
            raise ParseError(f"--multipliers {labels[label]!r} and {mult!r} "
                             f"share the run directory run_m{label}")
        labels[label] = mult


def cmd_sweep(args):
    sc = parse_scenario(args.scenario)
    _apply_overrides(sc, args)
    _check_multipliers(args.multipliers)
    setup = realize(sc, require_connected=True)
    out_dir = _resolve_out_dir(args.out_dir, setup.out_dir)
    rows = ["multiplier,rate,largest_uptick,final_sync_error,status\n"]
    betas = [mult * setup.controller.beta_star for mult in args.multipliers]
    results = simulate_batch(
        setup.graph, setup.model, betas, np.tile(setup.x0, (len(betas), 1)),
        setup.t_end, setup.h, setup.record_interval,
    )
    for mult, result in zip(args.multipliers, results):
        run_dir = _make_dir(os.path.join(out_dir, f"run_m{mult:g}"))
        try:
            if isinstance(result, DivergedError):
                raise result
            fit, uptick, sync = _analyse_and_write(setup, result, run_dir)
            rows.append(f"{mult:g},{_fmt(fit.rate)},{_fmt(uptick)},"
                        f"{_fmt(sync[-1])},ok\n")
            print(f"sweep m={mult:g}: rate={fit.rate:.6g} "
                  f"uptick={uptick:.3e} final_sync={sync[-1]:.6g}")
        except EdgeSyncError as exc:
            rows.append(f"{mult:g},nan,nan,nan,{type(exc).__name__}\n")
            print(f"sweep m={mult:g}: failed ({type(exc).__name__}: {exc})")
    _atomic_write(os.path.join(out_dir, "sweep_summary.csv"), rows)
    print(f"summary in {out_dir}/sweep_summary.csv")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgesync",
        description="Synchronization analysis and simulation for weighted "
                    "agent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_sim_flags=True):
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument("--out-dir", default=None,
                       help="output directory (overrides scenario and "
                            f"{ENV_OUT_DIR})")
        if with_sim_flags:
            p.add_argument("--seed", type=int, default=None,
                           help="override the initial-condition seed")
            p.add_argument("--h", type=float, default=None,
                           help="override the integration step")
            p.add_argument("--t-end", dest="t_end", type=float, default=None,
                           help="override the horizon")

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="construction checks only")
    add_common(p_check, with_sim_flags=False)
    p_check.set_defaults(fn=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run several gain multipliers")
    add_common(p_sweep)
    p_sweep.add_argument("--multipliers", type=float, nargs="*", default=[],
                         help="gain multipliers applied to beta_star")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EdgeSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
