"""Command line entry point.

Verbs:
    run <scenario>     full pipeline: checks, simulation, analysis, files
    check <scenario>   construction and certificate checks only
    sweep <scenario> --multipliers m1 m2 ...   all gain multipliers in one pass

Artifacts are written atomically (temp file plus rename) into the output
directory resolved as: --out-dir flag, else the EDGESYNC_OUT_DIR
environment variable, else ./edgesync_out.

No artifact is held whole, and no Q x Q array is formed.
graph_check.txt's incidence, weight_diag and laplacian blocks are
written from their nonzeros by _sparse_block, a line at a time, each
run of zeros by string repetition. trajectory.csv's records and the
lift block are tables, built 4096 cells at a time (the lift's rows in
shares of 2**16 cells) and written as they are formatted. One serial
formatter writes every table cell with the bytes of '%.17g', numpy
taking the 17 digits of a cell in [1e-4, 1e17) exactly and '%.17g'
itself the rest. `check` peaks at 54 MiB on a 300-node, 1185-edge
graph and at 223 MiB on a 1000-node, 4000-edge graph (99 and 700 MiB
with the whole lift held).

Exit codes: 0 success, 1 unexpected failure, 2 parse error,
3 disconnected graph, 4 dimension mismatch, 5 not stabilizable,
6 reserved (unused), 7 diverged simulation, 8 not positive definite,
9 numerical kernel failure, 10 empty analysis window.
"""

import argparse
import os
import sys
from functools import partial

import numpy as np

from . import analysis
from .edge_lift import lift_residual, lift_rows
from .errors import DivergedError, EdgeSyncError, ParseError
from .graphs import spectral_report
from .metric import verify_ari_sampled, verify_killing_integrability
from .scenario import check_integration, parse_scenario, realize
from .simulate import perturbed_initial_conditions, simulate, simulate_batch

ENV_OUT_DIR = "EDGESYNC_OUT_DIR"
CERT_SAMPLE_COUNT = 200
CERT_SAMPLE_RADIUS = 10.0
CERT_SAMPLE_SEED = 0
# Cells that _cells_text formats at once, and the cells of a table built
# at once (at least one row). A call costs about 50 us of numpy overhead
# plus about 105 ns a cell (lift cells, 2-vCPU Xeon VM): the fixed cost
# is 10% of a 4096-cell call, against 19% at 2048. 8192 saves little
# more and doubles the call's arrays; 4096 raises a run's peak by about
# 0.5 MiB over 2048.
_CHUNK_CELLS = 4096
# Cells in a share of the lift's rows, built at once (at least one row):
# lift_rows' last bits depend on the rows it builds together.
_LIFT_SHARE_CELLS = 2**16
# '%.17g' writes a magnitude in [1e-4, 1e17) without an exponent, with
# 17 - X digits after the point for the decade X in -4..16; 10**(16 - X)
# is exact in binary64.
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e17
_POW10 = np.array([10**k for k in range(21)], dtype=float)
# 10**(X + 1) for X in -5..16, the bound that ends decade X
_DECADE_END = np.array([10.0**x for x in range(-4, 18)])
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a binary64
# _cells_text's layouts, per sign: 21 decades times 17 trailing zero
# counts, a zero and a cell left to '%.17g'
_LAYOUTS = 21 * 17 + 2
_ZERO, _OTHER = _LAYOUTS - 2, _LAYOUTS - 1


def _fmt(value):
    return f"{value:.17g}"


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _text_tables():
    """The lookup tables of _cells_text, built from arrays at import.

    A cell's text is laid out in a frame of 40 bytes, five uint64 words:
    '-', '0', '.', '0', '0', '0', then the 17 significant digits D0..D16,
    each followed by a '.' slot; the slot after D16 holds the cell's end
    byte. Word 0 is head[D0], the other four are group[g], the digits of
    a four-digit group g with their slots, and zeros[g] counts g's
    trailing zero digits. keep[layout] has 0xff at each byte of a
    layout's text and 0 elsewhere. A layout is (sign, decade X in
    -4..16, trailing zeros z of the 17 digits): for X >= 0 it keeps
    D0..DX, then, if 16 - z > X, the '.' after DX and D(X+1)..D(16-z);
    for X < 0 it keeps '0', '.', -X-1 zeros and D0..D(16-z). Two more
    per sign are a zero, '0' or '-0', and a cell left to '%.17g', whose
    frame is default, with the byte 1 at D0.
    """
    ten = np.arange(48, 58, dtype=np.uint8)
    group = np.full((10000, 8), 46, np.uint8)
    for i in range(4):
        group[:, 2 * i] = np.tile(np.repeat(ten, 10 ** (3 - i)), 10**i)
    zeros = np.zeros(10000, np.intp)
    for step in (10, 100, 1000, 10000):
        zeros[::step] += 1
    head = np.full((10, 8), 48, np.uint8)
    head[:, 0], head[:, 2], head[:, 6], head[:, 7] = 45, 46, ten, 46
    default = head[0].copy()
    default[6] = 1
    keep = np.zeros((2, _LAYOUTS, 40), np.uint8)
    for x in range(-4, 17):
        for z in range(17):
            row = keep[0, (x + 4) * 17 + z]
            last = 16 - z
            if x >= 0:
                row[6:7 + 2 * max(x, last):2] = 255
                if last > x:
                    row[7 + 2 * x] = 255
            else:
                row[1:2 - x] = 255
                row[6:7 + 2 * last:2] = 255
    keep[:, _ZERO, 1] = keep[:, _OTHER, 6] = 255
    keep[1] = keep[0]
    keep[1, :_OTHER, 0] = 255
    keep[:, :, 39] = 255
    return (head.view(np.uint64).ravel(), group.view(np.uint64).ravel(), zeros,
            default.view(np.uint64), keep.reshape(-1, 40).view(np.uint64))


_HEAD, _GROUP, _GROUP_ZEROS, _DEFAULT_WORD, _KEEP = _text_tables()


def _product_error(a, k, hi):
    """hi's error as a * 10**k: hi + the error is the product exactly (Dekker)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits17(mag):
    """The 17 significant digits of magnitudes in [1e-4, 1e17), rounded exactly.

    Returns (n, decade). The decade X is floor(log10(mag)) exactly:
    estimated from the binary exponent, then raised by one comparison
    with 10**(X + 1), which as a binary64 is exact or, for X + 1 in
    -4..-1, just above the power. Dekker's two-product gives
    mag * 10**(16 - X), in [1e16, 1e17), exactly as hi + lo, and n is it
    rounded half to even, what '%.17g' writes. n < 1e17: 17 digits tell
    every binary64 apart, so none below 10**(X + 1) is written as it.
    """
    # floor(e * log10(2)) of the binary exponent e, by 78913 / 2**18
    decade = (mag.view(np.int64) >> 52) - 1023
    decade *= 78913
    decade >>= 18
    decade = np.where(mag >= _DECADE_END[decade + 5], decade + 1, decade)
    k = 16 - decade
    hi = mag * _POW10[k]
    lo = _product_error(mag, k, hi)
    # hi >= 2**53 is an even integer, so rounding lo half-even rounds hi + lo so
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), decade


def _divmod(n, d):
    """np.divmod(n, d) for integers n >= 0, by numpy's fast division by a scalar."""
    q = n // d
    return q, n - q * d


def _write_fixed(cells, frame, layout):
    """Write the frame words and layouts of the cells in [1e-4, 1e17)."""
    mag = np.abs(cells)
    at = np.flatnonzero((mag >= _FIXED_MIN) & (mag < _FIXED_MAX))
    n, decade = _digits17(mag[at])
    upper, lower = _divmod(n, 10**8)
    d0, upper = _divmod(upper, 10**8)
    groups = _divmod(upper, 10**4) + _divmod(lower, 10**4)
    # trailing zeros of the digits up to each group: the group's own, or,
    # if it is 0, its 4 and those up to the group before
    zeros = _GROUP_ZEROS[groups[0]]
    for g in groups[1:]:
        zeros = np.where(g == 0, zeros + 4, _GROUP_ZEROS[g])
    frame[at, 0] = _HEAD[d0]
    for col, g in enumerate(groups, 1):
        frame[at, col] = _GROUP[g]
    layout[at] = (decade + 4) * 17 + zeros


def _frame_bytes(cells, ends):
    """The cells' frames (see _text_tables) with only their text kept, and their layouts."""
    frame = np.empty((len(cells), 5), np.uint64)
    frame[:] = _DEFAULT_WORD
    layout = np.where(cells == 0, _ZERO, _OTHER)
    _write_fixed(cells, frame, layout)
    frame.view(np.uint8)[:, 39] = ends
    frame &= _KEEP.take(layout + np.signbit(cells) * _LAYOUTS, axis=0)
    return frame.tobytes(), layout


def _cells_text(cells, ends):
    """The text of float cells, each as '%.17g' writes it and followed by its end byte.

    A cell in [1e-4, 1e17) gets its 17 digits from _digits17 and its
    bytes from _text_tables' frame and layout; a zero is '0' or '-0';
    every other cell (exponent form, inf, nan) is written by '%.17g'
    itself and spliced in at its marker.
    """
    frames, layout = _frame_bytes(cells, ends)
    text = frames.translate(None, b"\0").decode("ascii")
    other = np.flatnonzero(layout == _OTHER)
    if not len(other):
        return text
    pieces = [None] * (2 * len(other) + 1)
    pieces[::2] = text.split("\1")
    pieces[1::2] = ["%.17g" % value for value in cells[other].tolist()]
    return "".join(pieces)


def _table(n_rows, n_cols, rows, sep, share=_CHUNK_CELLS):
    """The text of a table of floats, built a share of rows at a time.

    rows(lo, hi) builds rows lo to hi, n_cols cells each. A line holds a
    row's cells joined by sep, each as _fmt writes it. A share holds at
    most share cells, or one row, so rows whose last bits depend on the
    rows built with them have the same bits on every run. _cells_text
    writes each share _CHUNK_CELLS cells at a time, and each chunk's
    text is yielded as it is made.
    """
    if not n_cols:
        yield "\n" * n_rows
        return
    step = max(1, share // n_cols)
    # each cell's end byte, repeating with the row: a chunk's ends start
    # at its first cell's column
    ends = np.full(n_cols + _CHUNK_CELLS, ord(sep), np.uint8)
    ends[n_cols - 1::n_cols] = ord("\n")
    for lo in range(0, n_rows, step):
        cells = np.asarray(rows(lo, min(n_rows, lo + step)), dtype=float).ravel()
        for c in range(0, len(cells), _CHUNK_CELLS):
            chunk = cells[c:c + _CHUNK_CELLS]
            col = c % n_cols
            yield _cells_text(chunk, ends[col:col + len(chunk)])


def _row_text(values, sep):
    """One line of the values joined by sep, each as _fmt writes it."""
    values = np.asarray(values, dtype=float)
    return "".join(_table(1, len(values), lambda lo, hi: values, sep))


def _atomic_write(path, parts):
    """Write the parts' text to path through a temp file; a ParseError if that fails.

    parts is a list of str and of generators of text, such as _table's,
    so its length is known before it is written. On any exception the
    temp file is removed. Every generator part is closed, written or
    not, which frees the table share it holds.
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


def _matrix_block(name, n_rows, n_cols, rows, share=_CHUNK_CELLS):
    """A matrix block's header line and its table; rows(lo, hi) builds rows lo to hi."""
    return [f"matrix {name} {n_rows} {n_cols}\n", _table(n_rows, n_cols, rows, " ", share)]


def _sparse_block(name, n_rows, n_cols, rows, cols, values):
    """A matrix block from its nonzero cells, each line made as it is read.

    Cell (rows[k], cols[k]) of the arrays holds values[k], in any order,
    each cell at most once; every other cell is a zero. A row's runs of
    zeros are written by repeating '0 ' and each listed cell by _fmt, so
    a listed -0.0 keeps its '-0'. The text is that of _matrix_block on
    the dense matrix.
    """
    order = np.lexsort((cols, rows))
    starts = np.searchsorted(rows[order], np.arange(n_rows + 1)).tolist()
    cols = cols[order].tolist()
    texts = [_fmt(v) for v in values[order].tolist()]

    def lines():
        for lo, hi in zip(starts, starts[1:]):
            line, at = [], 0
            for c, text in zip(cols[lo:hi], texts[lo:hi]):
                line += ("0 " * (c - at), text, " ")
                at = c + 1
            line.append("0 " * (n_cols - at))
            # every cell is followed by a space; the row's last is its newline
            yield "".join(line)[:-1] + "\n"

    return [f"matrix {name} {n_rows} {n_cols}\n", lines()]


def graph_check_text(setup):
    """Machine-parseable construction report, as a list of parts (see _atomic_write).

    Carries the matrices themselves so the critical gain can be
    recomputed from the emitted data and compared against the stated
    value. The spectra and the lift residual are computed here, the one
    place that reports them. Each matrix block's rows are built as they
    are written, the lift's by lift_rows, so no Q x Q array is formed.
    """
    g = setup.graph
    lift = setup.lift
    lap = g.laplacian()
    spectral = spectral_report(g)
    residual = lift_residual(g, lift)
    parts = [line + "\n" for line in (
        f"nodes {g.n}",
        f"edges {g.q}",
        f"components {g.components}",
        f"lambda2 {_fmt(spectral.lambda2)}",
        f"rho {_fmt(setup.certificate.rho)}",
        f"lift_mu {_fmt(lift.mu)}",
        f"lift_kernel_dim {lift.kernel_dim}",
        f"lift_pd_margin {_fmt(lift.pd_margin)}",
        f"lift_residual {_fmt(residual)}",
        # E_k, E_l = (|E| -+ E) / 2: each endpoint residual is half of it
        f"endpoint_residual_initial {_fmt(0.5 * residual)}",
        f"endpoint_residual_terminal {_fmt(0.5 * residual)}",
        f"beta_star {_fmt(setup.controller.beta_star)}",
    )]
    parts += [
        "laplacian_eigs " + _row_text(spectral.laplacian_eigs, " "),
        "edge_laplacian_eigs " + _row_text(spectral.edge_laplacian_eigs, " "),
    ]
    edges = np.arange(g.q)
    parts += _sparse_block("incidence", g.n, g.q, np.concatenate((g.init, g.term)),
                           np.concatenate((edges, edges)), np.repeat([-1.0, 1.0], g.q))
    parts += _sparse_block("weight_diag", g.q, g.q, edges, edges, g.weights)
    # the Laplacian's nonzeros, with any -0.0, which writes as '-0'
    at = np.nonzero((lap != 0.0) | np.signbit(lap))
    parts += _sparse_block("laplacian", g.n, g.n, *at, lap[at])
    parts += _matrix_block("lift", g.q, g.q, partial(lift_rows, g, lift),
                           _LIFT_SHARE_CELLS)
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
    n = setup.model.state_dim
    # uniform in the ball of CERT_SAMPLE_RADIUS about the origin
    samples = perturbed_initial_conditions(
        np.zeros(n), CERT_SAMPLE_COUNT, CERT_SAMPLE_RADIUS,
        CERT_SAMPLE_SEED).reshape(-1, n)
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


def _resolve_out_dir(flag_value):
    return _make_dir(flag_value or os.environ.get(ENV_OUT_DIR) or "edgesync_out")


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
    out_dir = _resolve_out_dir(args.out_dir)
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
    out_dir = _resolve_out_dir(args.out_dir)
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
    out_dir = _resolve_out_dir(args.out_dir)
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
                       help=f"output directory (overrides {ENV_OUT_DIR})")
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
