"""Command line entry point.

Verbs:
    run <scenario>     full pipeline: checks, simulation, analysis, files
    check <scenario>   construction and certificate checks only
    sweep <scenario> --multipliers m1 m2 ...   all gain multipliers in one pass

Artifacts are written atomically (temp file plus rename) into the output
directory resolved as: --out-dir flag, else the scenario [output] dir,
else the EDGESYNC_OUT_DIR environment variable, else ./edgesync_out.

Exit codes: 0 success, 1 unexpected failure, 2 parse error,
3 disconnected graph, 4 dimension mismatch, 5 not stabilizable,
6 lift search failure, 7 diverged simulation, 8 not positive definite,
9 numerical kernel failure, 10 empty analysis window.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis
from .errors import DivergedError, EdgeSyncError, ParseError
from .metric import verify_ari_sampled, verify_killing_integrability
from .scenario import check_integration, parse_scenario, realize
from .simulate import simulate, simulate_batch

ENV_OUT_DIR = "EDGESYNC_OUT_DIR"
CERT_SAMPLE_COUNT = 200
CERT_SAMPLE_RADIUS = 10.0
CERT_SAMPLE_SEED = 0


def _fmt(value):
    return f"{value:.17g}"


def _atomic_write(path, text):
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _matrix_block(name, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    lines = [f"matrix {name} {mat.shape[0]} {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join(_fmt(v) for v in row))
    return lines


def graph_check_text(setup, rho):
    """Machine-parseable construction report.

    Carries the matrices themselves so the critical gain can be
    recomputed from the emitted data and compared against the stated
    value.
    """
    m = setup.matrices
    lift = setup.lift
    residual = 0.0
    if setup.graph.q:
        residual = float(np.max(np.abs(
            lift.lift @ m.incidence.T - m.incidence.T @ m.laplacian)))
    lines = [
        f"nodes {setup.graph.n}",
        f"edges {setup.graph.q}",
        f"components {setup.spectral.components}",
        f"lambda2 {_fmt(setup.spectral.lambda2)}",
        f"rho {_fmt(rho)}",
        f"lift_mu {_fmt(lift.mu)}",
        f"lift_kernel_dim {lift.kernel_dim}",
        f"lift_pd_margin {_fmt(lift.pd_margin)}",
        f"lift_residual {_fmt(residual)}",
        f"endpoint_residual_initial {_fmt(setup.endpoint_residuals[0])}",
        f"endpoint_residual_terminal {_fmt(setup.endpoint_residuals[1])}",
        f"beta_star {_fmt(setup.controller.beta_star)}",
        "laplacian_eigs " + " ".join(_fmt(v) for v in setup.spectral.laplacian_eigs),
        "edge_laplacian_eigs " + " ".join(
            _fmt(v) for v in setup.spectral.edge_laplacian_eigs),
    ]
    lines += _matrix_block("incidence", m.incidence)
    lines += _matrix_block("weight_diag", m.weight_diag)
    lines += _matrix_block("laplacian", m.laplacian)
    lines += _matrix_block("lift", lift.lift)
    return "\n".join(lines) + "\n"


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
    """One row per record: time, states, inputs, V and sync error."""
    n_agents = traj.inputs.shape[1]
    state_dim = traj.states.shape[1] // n_agents
    header = ["t"]
    for i in range(1, n_agents + 1):
        for j in range(1, state_dim + 1):
            header.append(f"x_{i}_{j}")
    header += [f"u_{i}" for i in range(1, n_agents + 1)]
    header += ["V", "sync_error"]
    table = np.column_stack((traj.times, traj.states, traj.inputs, v, sync))
    # "%.17g" writes the same digits as _fmt
    row = ",".join(["%.17g"] * table.shape[1])
    rows = [",".join(header)] + [row % tuple(cells.tolist()) for cells in table]
    return "\n".join(rows) + "\n"


def report_text(setup, diag, warnings, fit, uptick, sync0, sync1):
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
        f"largest_uptick {_fmt(uptick)}",
        f"initial_sync_error {_fmt(sync0)}",
        f"final_sync_error {_fmt(sync1)}",
        f"sync_ratio {_fmt(ratio)}",
    ]
    for w in warnings:
        lines.append(f"warning {w}")
    return "\n".join(lines) + "\n"


def _resolve_out_dir(flag_value, setup_dir):
    out = flag_value or setup_dir or os.environ.get(ENV_OUT_DIR) or "edgesync_out"
    os.makedirs(out, exist_ok=True)
    return out


def _apply_overrides(sc, args):
    if getattr(args, "h", None) is not None:
        sc.h = args.h
    if getattr(args, "t_end", None) is not None:
        sc.t_end = args.t_end
    if getattr(args, "seed", None) is not None:
        if sc.init_states is not None:
            raise ParseError(
                "--seed cannot override explicit initial states", sc.path)
        if args.seed < 0:
            raise ParseError(f"--seed must be nonnegative, got {args.seed}",
                             sc.path)
        sc.init_seed = args.seed
    check_integration(sc)


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
        metadata={"seed": setup.seed, "scenario": setup.name},
    )
    fit, uptick, sync = _analyse_and_write(setup, traj, out_dir)
    diag, warnings = certificate_checks(setup)
    _atomic_write(os.path.join(out_dir, "report.txt"),
                  report_text(setup, diag, warnings, fit, uptick,
                              sync[0], sync[-1]))
    _atomic_write(os.path.join(out_dir, "graph_check.txt"),
                  graph_check_text(setup, sc.rho))
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
    out_dir = _resolve_out_dir(args.out_dir, setup.out_dir)
    diag, warnings = certificate_checks(setup)
    _atomic_write(os.path.join(out_dir, "graph_check.txt"),
                  graph_check_text(setup, sc.rho))
    print(f"check {setup.name}: nodes={setup.graph.n} edges={setup.graph.q} "
          f"components={setup.spectral.components}")
    print(f"  lift_pd_margin={setup.lift.pd_margin:.6g} "
          f"beta_star={setup.controller.beta_star:.6g}")
    print(f"  ari_sampled_margin={diag['ari_sampled_margin']:.6g}")
    for w in warnings:
        print(f"  warning: {w}")
    print(f"  graph_check.txt in {out_dir}")
    return 0


def cmd_sweep(args):
    sc = parse_scenario(args.scenario)
    _apply_overrides(sc, args)
    setup = realize(sc, require_connected=True)
    out_dir = _resolve_out_dir(args.out_dir, setup.out_dir)
    rows = ["multiplier,rate,largest_uptick,final_sync_error,status"]
    betas = [mult * setup.controller.beta_star for mult in args.multipliers]
    results = simulate_batch(
        setup.graph, setup.model, betas, np.tile(setup.x0, (len(betas), 1)),
        setup.t_end, setup.h, setup.record_interval,
        metadata={"seed": setup.seed, "scenario": setup.name},
    )
    for mult, result in zip(args.multipliers, results):
        run_dir = os.path.join(out_dir, f"run_m{mult:g}")
        os.makedirs(run_dir, exist_ok=True)
        try:
            if isinstance(result, DivergedError):
                raise result
            fit, uptick, sync = _analyse_and_write(setup, result, run_dir)
            rows.append(f"{mult:g},{_fmt(fit.rate)},{_fmt(uptick)},"
                        f"{_fmt(sync[-1])},ok")
            print(f"sweep m={mult:g}: rate={fit.rate:.6g} "
                  f"uptick={uptick:.3e} final_sync={sync[-1]:.6g}")
        except EdgeSyncError as exc:
            rows.append(f"{mult:g},nan,nan,nan,{type(exc).__name__}")
            print(f"sweep m={mult:g}: failed ({type(exc).__name__}: {exc})")
    _atomic_write(os.path.join(out_dir, "sweep_summary.csv"),
                  "\n".join(rows) + "\n")
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
