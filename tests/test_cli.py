import contextlib
import dataclasses
import inspect
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesync import (
    WeightedGraph,
    build_edge_lift,
    cli,
    random_connected_graph,
    scenario,
)
from edgesync.graphs import read_graph_file
from edgesync.cli import (
    _fmt,
    _matrix_block,
    _row_text,
    _sparse_block,
    _table,
    main,
    parse_graph_check,
)

from helpers import (SCENARIO_DIR, SHIPPED_TEXTS, dense_incidence, graph_family,
                     mutated_text, read_text)

LINEAR_C3 = os.path.join(SCENARIO_DIR, "linear_c3.scn")
TANH_P3 = os.path.join(SCENARIO_DIR, "tanh_p3.scn")
LORENZ15 = os.path.join(SCENARIO_DIR, "lorenz15.scn")

DISCONNECTED = """
[graph]
nodes 4
edge 1 2 1.0
edge 3 4 1.0

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
radius 1.0
seed 2

[integration]
h 0.01
t_end 1.0
record_interval 0.1
"""

SCALAR_INTEGRATOR = """
[graph]
nodes 2
edge 1 2 1.0

[model]
kind linear
a 0 ;
b 1 ;

[certificate]
rho 1.0
mu 0.5

[controller]
beta_multiplier 1.0

[initial]
states 0.0 ; 2.0

[integration]
h 0.01
t_end 2.0
record_interval 0.1
"""


def write_dense_scenario(tmp_path, g):
    """A check scenario on graph g, written to tmp_path; returns its path."""
    (tmp_path / "dense.graph").write_text(g.canonical_text())
    scn = tmp_path / "dense.scn"
    scn.write_text(DISCONNECTED.replace(
        "nodes 4\nedge 1 2 1.0\nedge 3 4 1.0", "file dense.graph"))
    return str(scn)


def read_report(path):
    out = {}
    warnings = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.rstrip("\n").partition(" ")
            if key == "warning":
                warnings.append(rest)
            else:
                out[key] = rest
    return out, warnings


class TestRunVerb:
    def test_full_run_artifacts(self, tmp_path):
        out = str(tmp_path)
        assert main(["run", LINEAR_C3, "--out-dir", out, "--t-end", "5.0"]) == 0
        for name in ("trajectory.csv", "report.txt", "graph_check.txt"):
            assert os.path.exists(os.path.join(out, name))
        report, warnings = read_report(os.path.join(out, "report.txt"))
        assert report["scenario"] == "linear_c3"
        assert report["below_critical"] == "false"
        assert float(report["rate"]) > 0.3
        assert float(report["beta_star"]) == pytest.approx(1.0 / 6.0)
        assert warnings == []

    def test_csv_shape(self, tmp_path):
        out = str(tmp_path)
        main(["run", LINEAR_C3, "--out-dir", out, "--t-end", "5.0"])
        lines = read_text(out, "trajectory.csv").splitlines()
        header = lines[0].split(",")
        # t, 3 agents x 2 states, 3 inputs, V, sync_error
        assert header == ["t", "x_1_1", "x_1_2", "x_2_1", "x_2_2", "x_3_1",
                          "x_3_2", "u_1", "u_2", "u_3", "V", "sync_error"]
        assert len(lines) == 1 + 101
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert all(len(row.split(",")) == len(header) for row in lines[1:])

    def test_seed_override_changes_initials(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["run", LINEAR_C3, "--out-dir", out_a, "--t-end", "1.0"])
        main(["run", LINEAR_C3, "--out-dir", out_b, "--t-end", "1.0",
              "--seed", "99"])
        row_a = read_text(out_a, "trajectory.csv").splitlines()[1]
        row_b = read_text(out_b, "trajectory.csv").splitlines()[1]
        assert row_a != row_b

    def test_disconnected_exit_code(self, tmp_path):
        scn = tmp_path / "disc.scn"
        scn.write_text(DISCONNECTED)
        assert main(["run", str(scn), "--out-dir", str(tmp_path)]) == 3

    def test_parse_error_exit_code(self, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text("[graph]\nnodes two\n")
        assert main(["run", str(scn), "--out-dir", str(tmp_path)]) == 2

    def test_seed_override_rejected_for_explicit_states(self, tmp_path):
        scn = tmp_path / "scalar.scn"
        scn.write_text(SCALAR_INTEGRATOR)
        assert main(["run", str(scn), "--out-dir", str(tmp_path),
                     "--seed", "5"]) == 2

    def test_env_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("EDGESYNC_OUT_DIR", str(target))
        assert main(["run", LINEAR_C3, "--t-end", "1.0"]) == 0
        assert (target / "report.txt").exists()


class TestGraphCheck:
    def test_round_trip_critical_gain(self, tmp_path):
        out = str(tmp_path)
        assert main(["check", TANH_P3, "--out-dir", out]) == 0
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))
        text = read_text(out, "graph_check.txt")
        scalars, matrices = parse_graph_check(text)
        w = matrices["weight_diag"]
        lift = matrices["lift"]
        sym = 0.5 * (w @ lift + lift.T @ w)
        lam_min = float(np.linalg.eigvalsh(sym)[0])
        w_max = float(np.max(np.diag(w)))
        rho = scalars["rho"][0]
        recomputed = rho * w_max / (2.0 * lam_min)
        assert abs(recomputed - scalars["beta_star"][0]) <= 1e-10

    def test_reported_residuals_small(self, tmp_path):
        out = str(tmp_path)
        main(["check", LINEAR_C3, "--out-dir", out])
        scalars, matrices = parse_graph_check(
            read_text(out, "graph_check.txt"))
        assert scalars["lift_residual"][0] <= 1e-8
        # each endpoint residual is half the intertwining residual
        half = 0.5 * scalars["lift_residual"][0]
        assert scalars["endpoint_residual_initial"][0] == half
        assert scalars["endpoint_residual_terminal"][0] == half
        assert scalars["components"][0] == 1
        # incidence matches the emitted laplacian: L = E W E^T
        e = matrices["incidence"]
        w = matrices["weight_diag"]
        assert np.max(np.abs(matrices["laplacian"] - e @ w @ e.T)) <= 1e-12

    def test_contraction_failing_at_the_origin_warns(self, tmp_path, capsys):
        # with gamma 0.14 the inequality fails at x = 0, the tanh kind's
        # worst state, but at none of the 200 sampled states, the nearest
        # of which lies 0.52 away
        scn = write_edited(tmp_path, TANH_P3, "gamma 0.05", "gamma 0.14")
        assert main(["check", str(scn), "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "ari_sampled_margin=-0.0516567" in out
        assert "warning: sampled contraction inequality fails" in out

    def test_check_allows_disconnected(self, tmp_path):
        scn = tmp_path / "disc.scn"
        scn.write_text(DISCONNECTED)
        out = str(tmp_path / "out")
        assert main(["check", str(scn), "--out-dir", out]) == 0
        scalars, _ = parse_graph_check(
            read_text(out, "graph_check.txt"))
        assert scalars["components"][0] == 2


    def test_dense_graph_artifact(self, tmp_path):
        # a graph with Q > 2N, whose Q x Q lift comes from eigensolves of
        # size N and 2N; the artifact must still certify beta_star and
        # the intertwining on its own
        g = random_connected_graph(40, 0.22, (0.1, 6.0), 5)
        assert g.q > 2 * g.n
        scn = write_dense_scenario(tmp_path, g)
        out = str(tmp_path / "out")
        assert main(["check", scn, "--out-dir", out]) == 0
        scalars, matrices = parse_graph_check(
            read_text(out, "graph_check.txt"))
        assert scalars["edges"][0] == g.q
        assert scalars["lift_kernel_dim"][0] == g.q - g.n + 1
        assert scalars["edge_laplacian_eigs"][:g.q - g.n + 1] == [0.0] * (g.q - g.n + 1)
        w, u = matrices["weight_diag"], matrices["lift"]
        e, lap = matrices["incidence"], matrices["laplacian"]
        lam_min = float(np.linalg.eigvalsh(0.5 * (w @ u + u.T @ w))[0])
        recomputed = scalars["rho"][0] * float(np.max(np.diag(w))) / (2.0 * lam_min)
        stated = scalars["beta_star"][0]
        assert abs(recomputed - stated) <= 1e-9 * stated
        scale = max(1.0, float(np.max(np.abs(lap))))
        assert float(np.max(np.abs(u @ e.T - e.T @ lap))) <= 1e-8 * scale


class TestSweepVerb:
    def test_multiplier_rows(self, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", LINEAR_C3, "--out-dir", out, "--t-end", "5.0",
                     "--multipliers", "1.0", "2.0", "5.0"]) == 0
        lines = read_text(out, "sweep_summary.csv").splitlines()
        assert lines[0] == "multiplier,rate,largest_uptick,final_sync_error,status"
        assert len(lines) == 4
        for row in lines[1:]:
            mult, rate, uptick, final, status = row.split(",")
            assert status == "ok"
            assert float(uptick) <= 1e-6
            assert float(rate) > 0.3
            assert os.path.exists(
                os.path.join(out, f"run_m{float(mult):g}", "trajectory.csv"))

    def test_zero_multiplier_rate_zero(self, tmp_path):
        scn = tmp_path / "scalar.scn"
        scn.write_text(SCALAR_INTEGRATOR)
        out = str(tmp_path / "out")
        assert main(["sweep", str(scn), "--out-dir", out,
                     "--multipliers", "0.0"]) == 0
        row = read_text(out, "sweep_summary.csv").splitlines()[1]
        assert abs(float(row.split(",")[1])) <= 1e-9

    def test_no_graph_check_quantities(self, tmp_path, monkeypatch):
        # sweep writes no graph_check.txt, so it computes neither the
        # spectra nor the lift residual, and its bytes do not depend on them
        argv = ["--t-end", "2", "--multipliers", "0.5", "1", "1000"]
        assert main(["sweep", LINEAR_C3, "--out-dir", str(tmp_path / "plain")]
                    + argv) == 0

        def refuse(*args):
            raise AssertionError("graph check quantity computed")

        monkeypatch.setattr(cli, "spectral_report", refuse)
        monkeypatch.setattr(cli, "lift_residual", refuse)
        assert main(["sweep", LINEAR_C3, "--out-dir", str(tmp_path / "bare")]
                    + argv) == 0
        plain, bare = ({p.relative_to(root): p.read_bytes()
                        for p in root.rglob("*") if p.is_file()}
                       for root in (tmp_path / "plain", tmp_path / "bare"))
        assert len(plain) == 3 and bare == plain

    def test_failed_run_marked_and_continues(self, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", LINEAR_C3, "--out-dir", out, "--t-end", "5.0",
                     "--multipliers", "1e6", "1.0"]) == 0
        lines = read_text(out, "sweep_summary.csv").splitlines()
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[-1] == "DivergedError"
        assert first[1] == "nan"
        assert second[-1] == "ok"

    def test_empty_multiplier_list(self, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", LINEAR_C3, "--out-dir", out]) == 0
        lines = read_text(out, "sweep_summary.csv").splitlines()
        assert len(lines) == 1

    def test_members_match_separate_runs(self, tmp_path):
        # one batched sweep against a separate run per multiplier, each
        # from the scenario text with its beta_multiplier edited
        multipliers = ["0.5", "2", "5"]
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", LINEAR_C3, "--out-dir", str(sweep_out),
                     "--t-end", "2", "--multipliers"] + multipliers) == 0
        for mult in multipliers:
            scn = tmp_path / f"m{mult}.scn"
            scn.write_text(c3_text().replace(
                "beta_multiplier 1.0", f"beta_multiplier {mult}"))
            run_out = tmp_path / f"run{mult}"
            assert main(["run", str(scn), "--out-dir", str(run_out),
                         "--t-end", "2"]) == 0
            ran = (run_out / "trajectory.csv").read_bytes()
            swept = (sweep_out / f"run_m{mult}" / "trajectory.csv").read_bytes()
            assert swept == ran

    def test_unit_multiplier_matches_run(self, tmp_path):
        run_out = tmp_path / "run"
        sweep_out = tmp_path / "sweep"
        assert main(["run", LINEAR_C3, "--out-dir", str(run_out)]) == 0
        assert main(["sweep", LINEAR_C3, "--out-dir", str(sweep_out),
                     "--multipliers", "1"]) == 0
        ran = (run_out / "trajectory.csv").read_bytes()
        swept = (sweep_out / "run_m1" / "trajectory.csv").read_bytes()
        assert swept == ran


# every key the scenario parser accepts, by section
SCENARIO_KEYS = {
    "graph": ("file", "nodes", "edge"),
    "model": ("kind", "a", "b", "c", "gamma"),
    "certificate": ("rho", "mu", "p"),
    "controller": ("beta", "beta_multiplier"),
    "initial": ("base", "radius", "seed", "states"),
    "integration": ("h", "t_end", "record_interval"),
}

C3_INLINE_GRAPH = "nodes 3\nedge 1 2 1.0\nedge 1 3 1.0\nedge 2 3 1.0\n"


def c3_text():
    with open(LINEAR_C3, encoding="utf-8") as fh:
        return fh.read()


def write_edited(tmp_path, scenario, old, new):
    """A shipped scenario with old replaced by new, written to tmp_path.

    Its graph file, if any, is named by absolute path. Returns the path.
    """
    with open(scenario, encoding="utf-8") as fh:
        text = fh.read().replace(
            "file lorenz15.graph",
            f"file {os.path.abspath(SCENARIO_DIR)}/lorenz15.graph")
    assert old in text
    scn = tmp_path / "edited.scn"
    scn.write_text(text.replace(old, new))
    return scn


def expect_parse_error(capsys, argv):
    """main() exits 2 with one 'error:' line on stderr; returns the line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, math.inf, -math.inf,
                  math.nan, 1.0 / 3.0, -2.0 / 3.0, 0, 7, -12, 2**53 + 1]


def table_text(table, sep, rows=None):
    """The text _table writes for a 2-D array; rows(lo, hi) defaults to slicing it."""
    table = np.atleast_2d(np.asarray(table, dtype=float))
    rows = rows or (lambda lo, hi: table[lo:hi])
    return "".join(_table(table.shape[0], table.shape[1], rows, sep))


def parts_text(parts):
    """The text of an artifact's parts, each a str or a generator of lines."""
    return "".join(map("".join, parts))


def test_table_lines_match_fmt():
    values = list(SPECIAL_VALUES)
    assert _row_text(values, " ") == " ".join(_fmt(v) for v in values) + "\n"
    rows = [values, values[::-1]]
    assert table_text(rows, ",") == "".join(
        ",".join(_fmt(v) for v in r) + "\n" for r in rows)
    assert _row_text(np.zeros(0), " ") == "\n"
    assert table_text(np.zeros((2, 0)), " ") == "\n\n"
    assert table_text(np.zeros((0, 3)), " ") == ""


def fmt_lines(table, sep):
    return "".join(sep.join(_fmt(v) for v in row) + "\n" for row in table)


@pytest.mark.parametrize("share, n_rows, n_cols", [(1, 7, 3), (6, 7, 3), (2**16, 3, 5000)])
def test_table_builds_each_share_once(share, n_rows, n_cols):
    # rows are built once, a share of at most share cells (or one row)
    # at a time and in order, since the lift's bits depend on its shares;
    # a chunk of cells may end inside a row
    rng = np.random.default_rng(n_cols)
    table = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-8, 20, (n_rows, n_cols))
    built = []

    def rows(lo, hi):
        built.append((lo, hi))
        return table[lo:hi]

    text = "".join(cli._table(n_rows, n_cols, rows, ",", share))
    step = max(1, share // n_cols)
    assert built == [(lo, min(n_rows, lo + step)) for lo in range(0, n_rows, step)]
    assert text == fmt_lines(table, ",")


def formatted(values):
    """Each value's text in a one-column table, formatted a chunk at a time."""
    values = np.asarray(values, dtype=float)
    return table_text(values[:, None], " ").splitlines()


def expected(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def test_formatter_matches_percent_g_on_bit_patterns():
    # random binary64 patterns: every exponent field, subnormals, inf and
    # nan, so nearly all are written by '%.17g' itself; then patterns
    # whose exponents all fall in the fixed window [1e-4, 1e17)
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
    fixed = bits & np.uint64(0x800FFFFFFFFFFFFF) | (
        rng.integers(1023 - 14, 1023 + 57, 10**5, dtype=np.uint64) << np.uint64(52))
    for patterns in (bits, fixed):
        values = patterns.view(np.float64)
        assert formatted(values) == expected(values)


def test_formatter_matches_percent_g_near_powers_of_ten():
    # the decade estimate, the window's edges and a rounding that carries
    # into an 18th digit all sit at a power of ten; the decade is exact
    # because no bound it is compared with is below its power
    assert all(Fraction(bound) >= Fraction(10) ** (i - 4)
               for i, bound in enumerate(cli._DECADE_END))
    values = []
    for k in range(-6, 19):
        x = float(10**k) if k >= 0 else 10.0**k
        for _ in range(4):
            x = np.nextafter(x, 0.0)
        for _ in range(9):
            values += [x, -x]
            x = np.nextafter(x, np.inf)
    assert formatted(values) == expected(values)


def test_formatter_rounds_ties_to_even():
    # an exact binary value halfway between two 17-digit decimals
    assert formatted([2.0**-25]) == ["2.9802322387695312e-08"]
    assert formatted([1e15 + 0.25, 1e15 + 0.75, -(1e14 + 0.125)]) == [
        "1000000000000000.2", "1000000000000000.8", "-100000000000000.12"]
    values = [sign * 2.0**k for k in range(-1074, 1024) for sign in (1, -1)]
    values += [sign * (10.0**p + j / 2**m) for p in range(13, 17)
               for m in range(1, 5) for j in range(1, 2**m, 2) for sign in (1, -1)]
    assert formatted(values) == expected(values)


def test_formatter_special_values():
    values = SPECIAL_VALUES + [-0.0, 0.0]
    assert formatted(values) == expected(values)
    assert formatted([-0.0, 0.0]) == ["-0", "0"]


@given(values=st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_formatter_matches_percent_g(values):
    assert formatted(values) == expected(values)


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    # an error raised while the lift's fourth share is built removes the
    # temp file
    scn = write_dense_scenario(
        tmp_path, random_connected_graph(40, 0.22, (0.1, 6.0), 5))
    monkeypatch.setattr(cli, "_LIFT_SHARE_CELLS", 2000)
    calls = []

    def failing_lift_rows(g, lift, lo, hi):
        calls.append(lo)
        if len(calls) == 4:
            raise RuntimeError("lift rows failed")
        return lift_rows(g, lift, lo, hi)

    lift_rows = cli.lift_rows
    monkeypatch.setattr(cli, "lift_rows", failing_lift_rows)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="lift rows failed"):
        main(["check", scn, "--out-dir", str(out)])
    assert len(calls) == 4
    assert list(out.iterdir()) == []


def test_write_error_after_pooled_share(tmp_path, monkeypatch, capsys):
    # the file's write fails once the lift's first share is written: the
    # run exits 2, leaves no temp file and closes the table it abandoned
    # (the name dates from when shares were formatted by a process pool)
    scn = write_dense_scenario(
        tmp_path, random_connected_graph(40, 0.22, (0.1, 6.0), 5))
    monkeypatch.setattr(cli, "_LIFT_SHARE_CELLS", 2000)
    calls = []

    class FailingFile:
        """A text file whose writes raise OSError once the lift has a second share."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            self.fh.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def counted_lift_rows(g, lift, lo, hi):
        calls.append(lo)
        return lift_rows(g, lift, lo, hi)

    lift_rows = cli.lift_rows
    graph_check_text = cli.graph_check_text
    kept = []

    def kept_parts(setup):
        # held here, so it is _atomic_write, not garbage collection, that
        # closes the table it stopped writing
        kept.append(graph_check_text(setup))
        return kept[-1]

    monkeypatch.setattr(cli, "lift_rows", counted_lift_rows)
    monkeypatch.setattr(cli, "graph_check_text", kept_parts)
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FailingFile(open(*args, **kwargs)),
                        raising=False)
    out = tmp_path / "out"
    assert expect_parse_error(capsys, ["check", scn, "--out-dir", str(out)]).startswith(
        "error: cannot write artifact: ")
    assert len(calls) == 2
    assert list(out.iterdir()) == []
    assert inspect.getgeneratorstate(kept[0][-1]) == inspect.GEN_CLOSED


@pytest.mark.parametrize("records", ["one", "block_less_one", "block", "block_plus_one"])
def test_trajectory_csv_matches_one_shot_format(records):
    # the table is stacked from slices of the series a share at a time;
    # its bytes are those of formatting the whole stack at once
    n_agents, state_dim = 2, 2
    n_cols = 1 + n_agents * state_dim + n_agents + 2
    block = cli._CHUNK_CELLS // n_cols
    n = {"one": 1, "block_less_one": block - 1, "block": block,
         "block_plus_one": block + 1}[records]
    rng = np.random.default_rng(n)
    traj = SimpleNamespace(
        times=np.arange(n) * 0.1, states=rng.standard_normal((n, n_agents * state_dim)),
        inputs=rng.standard_normal((n, n_agents)), n_samples=n)
    v, sync = rng.standard_normal(n), rng.standard_normal(n)
    v[0], sync[-1] = 5e-324, -0.0
    header, lines = cli.trajectory_csv(traj, v, sync)
    assert header.count("\n") == 1
    table = np.column_stack((traj.times, traj.states, traj.inputs, v, sync))
    text = "".join(lines)
    assert text == table_text(table, ",") == fmt_lines(table, ",")
    assert text.count("\n") == n


def dense_blocks_text(g):
    """g's incidence, weight_diag and laplacian blocks, by _matrix_block from dense E, W, L."""
    blocks = [("incidence", dense_incidence(g)), ("weight_diag", np.diag(g.weights)),
              ("laplacian", g.laplacian())]
    return "".join(parts_text(_matrix_block(name, *m.shape, lambda lo, hi, m=m: m[lo:hi]))
                   for name, m in blocks)


def graph_blocks_text(setup, g):
    """graph_check.txt's incidence, weight_diag and laplacian blocks on g.

    setup's graph and lift are replaced by g's, so g may be one that
    realize refuses, such as an edgeless graph.
    """
    text = parts_text(cli.graph_check_text(
        dataclasses.replace(setup, graph=g, lift=build_edge_lift(g))))
    return text[text.index("matrix incidence "):text.index("matrix lift ")]


@pytest.mark.parametrize("g", [
    random_connected_graph(2, 0.0, (0.1, 6.0), 1),
    random_connected_graph(9, 0.5, (0.1, 6.0), 2),
    random_connected_graph(40, 0.22, (0.1, 6.0), 5)], ids=lambda g: f"n{g.n}q{g.q}")
def test_incidence_block_matches_dense(tmp_path, g):
    # the sparse writer's incidence, weight_diag and laplacian blocks are
    # the tables of the dense E, W and L, also on an edgeless graph (Q = 0)
    # and with an isolated node, whose rows of E and L are all zeros
    setup = scenario.realize(scenario.parse_scenario(write_dense_scenario(tmp_path, g)),
                             require_connected=False)
    edgeless, isolated = WeightedGraph(3, ()), WeightedGraph(g.n + 1, g.edges)
    for h in (g, edgeless, isolated):
        assert graph_blocks_text(setup, h) == dense_blocks_text(h)
    assert graph_blocks_text(setup, edgeless) == (
        "matrix incidence 3 0\n" + "\n" * 3 + "matrix weight_diag 0 0\n"
        "matrix laplacian 3 3\n" + "0 0 0\n" * 3)
    assert graph_blocks_text(setup, isolated).endswith("\n" + "0 " * g.n + "0\n")


def test_sparse_blocks_match_dense_on_graph_family():
    setup = scenario.realize(scenario.parse_scenario(LINEAR_C3), require_connected=False)
    for g in graph_family(100):
        assert graph_blocks_text(setup, g) == dense_blocks_text(g)


@pytest.mark.parametrize("q", [0, 1, 2, 5, 40])
def test_diag_block_matches_dense(q):
    # the writer fed a diagonal directly, its cells listed last to first
    special = [1.0, 1.0 / 3.0, 5e-324, 1e300, 0.1, 6.0, 2.0**53 + 1, -0.0]
    w = np.resize(special, q)
    w[len(special):] *= np.random.default_rng(q).uniform(0.5, 2.0, q)[len(special):]
    dense = np.diag(w)
    at = np.arange(q)[::-1]
    assert parts_text(_sparse_block("weight_diag", q, q, at, at, w[at])) == parts_text(
        _matrix_block("weight_diag", q, q, lambda lo, hi: dense[lo:hi]))


@pytest.mark.parametrize("n_rows, n_cols", [(1, 1), (3, 7), (7, 3), (4, 0), (0, 4), (20, 50)])
def test_sparse_block_matches_dense(n_rows, n_cols):
    # cells listed in any order, -0.0 and 0.0 among them, are written as
    # the dense matrix's cells; a listed -0.0 keeps its '-0'
    rng = np.random.default_rng(n_rows * 100 + n_cols)
    values = SPECIAL_VALUES + [1.5e-7, -2.5e20, 1e-300, 123456789012345678.0]
    rows, cols = np.nonzero(rng.random((n_rows, n_cols)) < 0.4)
    cells = np.resize(values, len(rows))
    dense = np.zeros((n_rows, n_cols))
    dense[rows, cols] = cells
    order = rng.permutation(len(rows))
    text = parts_text(_sparse_block("m", n_rows, n_cols, rows[order], cols[order], cells[order]))
    assert text == parts_text(_matrix_block("m", n_rows, n_cols, lambda lo, hi: dense[lo:hi]))


@pytest.mark.parametrize("verb, extra", [
    ("run", ["--t-end", "0.5"]), ("sweep", ["--t-end", "0.5", "--multipliers", "1", "2"]),
    ("check", [])])
def test_graph_file_read_once(tmp_path, monkeypatch, verb, extra):
    # parse_scenario reads the file into Scenario.graph; the record
    # budget and realize take it from there
    reads = []

    def counted(path):
        reads.append(path)
        return read_graph_file(path)

    monkeypatch.setattr(scenario, "read_graph_file", counted)
    (tmp_path / "c3.graph").write_text("nodes 3\n1 2 1.0\n1 3 1.0\n2 3 1.0\n")
    scn = tmp_path / "filed.scn"
    scn.write_text(c3_text().replace(C3_INLINE_GRAPH, "file c3.graph\n"))
    assert main([verb, str(scn), "--out-dir", str(tmp_path / "out")] + extra) == 0
    assert len(reads) == 1


class TestMalformedInput:
    @pytest.mark.parametrize("section,key", [
        (section, key) for section, keys in SCENARIO_KEYS.items() for key in keys
    ])
    def test_key_without_value(self, tmp_path, capsys, section, key):
        lines = c3_text().splitlines()
        lineno = lines.index(f"[{section}]") + 2
        lines.insert(lineno - 1, key)
        scn = tmp_path / "bare.scn"
        scn.write_text("\n".join(lines) + "\n")
        err = expect_parse_error(
            capsys, ["run", str(scn), "--out-dir", str(tmp_path)])
        assert f"{scn}:{lineno}:" in err

    @pytest.mark.parametrize("bad", ["b 0 1", "gamma 0.1", "wobble 1"],
                             ids=["b", "gamma", "unknown"])
    def test_model_key_before_kind(self, tmp_path, capsys, bad):
        # 'kind' opens [model]: a key before it exits 2 at its own line
        scn = write_edited(tmp_path, LINEAR_C3, "kind linear\n",
                           f"{bad}\nkind linear\n")
        lineno = scn.read_text().splitlines().index(bad) + 1
        err = expect_parse_error(capsys, ["check", str(scn), "--out-dir",
                                          str(tmp_path / "out")])
        assert (f"{scn}:{lineno}: expected 'kind' before model key "
                f"{bad.split()[0]!r}") in err
        assert not (tmp_path / "out").exists()

    def test_graph_past_the_dense_bound(self, tmp_path, capsys):
        scn = tmp_path / "huge.scn"
        scn.write_text(c3_text().replace(C3_INLINE_GRAPH,
                                         "nodes 1000000\nedge 1 2 1.0\n"))
        lineno = c3_text().splitlines().index("nodes 3") + 1
        err = expect_parse_error(capsys, ["check", str(scn), "--out-dir",
                                          str(tmp_path / "out")])
        assert f"{scn}:{lineno}:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weight", ["5e-324", "1e-320", "1e160", "8e153",
                                        "1e308", "1.7e308"])
    def test_weight_that_overflows_the_lift(self, tmp_path, capsys, weight):
        # mu grows as w_max^2 and the lift's W^-1 scaling as mu / w_min;
        # at 8e153 both stay finite but the margin's eigensolve does not,
        # and above about 9e307 the edge Laplacian's diagonal 2 w is inf
        scn = tmp_path / "spread.scn"
        scn.write_text(c3_text().replace("edge 1 2 1.0", f"edge 1 2 {weight}"))
        assert main(["check", str(scn), "--out-dir", str(tmp_path / "out")]) == 9
        assert "overflow the lift" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weight", ["1e-155", "1e150"])
    def test_forest_margin_at_round_off(self, tmp_path, capsys, weight):
        # a path has mu = 0, and its margin carries an absolute error of
        # eps * ||L||^2: 1e-155 gave margin 5.6e-17 and beta_star 2^53
        with open(TANH_P3, encoding="utf-8") as fh:
            text = fh.read()
        scn = tmp_path / "path.scn"
        scn.write_text(text.replace("edge 1 2 1.0", f"edge 1 2 {weight}"))
        assert main(["check", str(scn), "--out-dir", str(tmp_path / "out")]) == 9
        assert "round-off" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scenario,old,new", [
        (LINEAR_C3, "rho 1.0", "rho 1e308"),
        (LINEAR_C3, "rho 1.0", "rho 1e-320"),
        (LINEAR_C3, "b 0 1", "b 0 1e308"),
        (LINEAR_C3, "a 0 1 ; 0 0", "a 0 1e154 ; 0 0"),
        (TANH_P3, "mu 0.2", "mu 1e308"),
        (LORENZ15, "a 10.0", "a -1e308"),
        (TANH_P3, "a 0 1 ; 0 0", "a -1e308 1 ; 0 0"),
    ], ids=["c3-rho", "c3-rho_subnormal", "c3-b", "c3-a", "p3-mu", "lorenz-a",
            "p3-a_shift"])
    def test_design_out_of_range(self, tmp_path, capsys, scenario, old, new):
        # the Riccati design overflowed into numpy's LinAlgError (exit 1)
        # and RuntimeWarnings; it is NonFiniteError's exit 9
        scn = write_edited(tmp_path, scenario, old, new)
        for argv in (["check"], ["run", "--t-end", "0.2"]):
            out = tmp_path / argv[0]
            assert main([argv[0], str(scn), "--out-dir", str(out)] + argv[1:]) == 9
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "out of floating-point range" in err
            assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scenario,old,new,argv,code", [
        (TANH_P3, "gamma 0.05", "gamma 1e308", ["check"], 9),
        (TANH_P3, "gamma 0.05", "gamma 1e308", ["run", "--t-end", "0.2"], 7),
        (LORENZ15, "beta 30.0", "beta 1e308", ["run", "--t-end", "0.2"], 7),
        (LORENZ15, "beta 30.0", "beta -1e308", ["run", "--t-end", "0.2"], 7),
    ], ids=["gamma-check", "gamma-run", "beta-run", "negative_beta-run"])
    def test_model_or_gain_out_of_range(self, tmp_path, capsys, scenario, old,
                                        new, argv, code):
        # the sampled contraction check overflowed into a margin of -inf
        # (exit 0) and the coupling gains beta w into warnings; now the
        # check is NonFiniteError's exit 9 and the runs diverge at once
        scn = write_edited(tmp_path, scenario, old, new)
        assert main([argv[0], str(scn), "--out-dir", str(tmp_path / "out")]
                    + argv[1:]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # check samples the certificate before it makes the output directory
        assert (tmp_path / "out").exists() == (argv[0] == "run")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_initial_states_overflow(self, tmp_path, capsys):
        # base + radius * direction overflowed with a warning; check
        # passed and run diverged at t = 0
        scn = tmp_path / "far.scn"
        scn.write_text(c3_text().replace("base 0 0", "base 1e308 0").replace(
            "radius 5.0", "radius 1e308"))
        for verb in ("check", "run"):
            err = expect_parse_error(
                capsys, [verb, str(scn), "--out-dir", str(tmp_path / verb)])
            assert "overflows" in err
            assert not (tmp_path / verb).exists()

    @pytest.mark.parametrize("h", ["nan", "0.003"])
    def test_scenario_file_step(self, tmp_path, capsys, h):
        scn = tmp_path / "bad.scn"
        scn.write_text(c3_text().replace("h 0.005", f"h {h}"))
        expect_parse_error(capsys, ["run", str(scn), "--out-dir", str(tmp_path)])

    def test_file_step_checked_after_override(self, tmp_path, capsys):
        scn = tmp_path / "odd_h.scn"
        scn.write_text(c3_text().replace("h 0.005", "h 0.003"))
        assert main(["check", str(scn), "--out-dir", str(tmp_path / "c")]) == 0
        assert main(["run", str(scn), "--out-dir", str(tmp_path / "r"),
                     "--h", "0.005"]) == 0
        assert os.path.exists(tmp_path / "r" / "trajectory.csv")

    @pytest.mark.parametrize("scenario,old,new", [
        (LINEAR_C3, "radius 5.0", "radius -1"),
        (LINEAR_C3, "seed 11", "seed -1"),
        (TANH_P3, "gamma 0.05", "gamma -1"),
    ], ids=["radius", "seed", "gamma"])
    def test_negative_scenario_value(self, tmp_path, capsys, scenario, old, new):
        with open(scenario, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lineno = lines.index(old) + 1
        lines[lineno - 1] = new
        scn = tmp_path / "negative.scn"
        scn.write_text("\n".join(lines) + "\n")
        for verb in ("check", "run"):
            err = expect_parse_error(
                capsys, [verb, str(scn), "--out-dir", str(tmp_path / verb)])
            assert f"{scn}:{lineno}:" in err
            assert "nonnegative" in err

    @pytest.mark.parametrize("scenario,edits", [
        (LINEAR_C3, [("mu 0.2", "mu 0.2\np 1 0 0 ; 0 1 0 ; 0 0 1")]),
        (TANH_P3, [("mu 0.2", "mu 0.2\np 1 0 0 ; 0 1 0 ; 0 0 1")]),
        (LORENZ15, [("mu 0.5", "mu 0.5\np 1 0 ; 0 1")]),
        (LINEAR_C3, [("mu 0.2", "mu 0.2\np 1 0 ; 0 1"), ("b 0 1", "b 0 1 0")]),
    ], ids=["linear", "tanh", "lorenz", "linear_b"])
    def test_certificate_size_mismatch(self, tmp_path, capsys, scenario, edits):
        with open(scenario, encoding="utf-8") as fh:
            text = fh.read().replace(
                "file lorenz15.graph",
                f"file {os.path.abspath(SCENARIO_DIR)}/lorenz15.graph")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        scn = tmp_path / "mismatch.scn"
        scn.write_text(text)
        for verb in ("check", "run"):
            out = tmp_path / verb
            assert main([verb, str(scn), "--out-dir", str(out)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "state dimension" in err
            assert not os.path.exists(out)

    @pytest.mark.parametrize("scenario,old,new,bad", [
        (LORENZ15, "a 10.0", "a 0 1 ; 0 0", "a 0 1 ; 0 0"),
        (LINEAR_C3, "b 0 1", "b 0 1\ngamma 0.05", "gamma 0.05"),
        (TANH_P3, "gamma 0.05", "gamma 0.05\nc 1.0", "c 1.0"),
        (LINEAR_C3, "base 0 0", "states 0 0 ; 1 0 ; 2 1", "radius 5.0"),
    ], ids=["lorenz_matrix_a", "linear_gamma", "tanh_c", "states_and_radius"])
    def test_key_the_scenario_does_not_read(self, tmp_path, capsys, scenario,
                                            old, new, bad):
        with open(scenario, encoding="utf-8") as fh:
            text = fh.read().replace(
                "file lorenz15.graph",
                f"file {os.path.abspath(SCENARIO_DIR)}/lorenz15.graph")
        assert old in text
        lines = text.replace(old, new).splitlines()
        scn = tmp_path / "unread.scn"
        scn.write_text("\n".join(lines) + "\n")
        for verb in ("check", "run"):
            err = expect_parse_error(
                capsys, [verb, str(scn), "--out-dir", str(tmp_path / verb)])
            assert f"{scn}:{lines.index(bad) + 1}:" in err
            assert not os.path.exists(tmp_path / verb)

    @pytest.mark.parametrize("scenario,old,new,message,bad", [
        (LINEAR_C3, "a 0 1 ; 0 0", "a 0 1 ; ; 0 0", "empty matrix row",
         "a 0 1 ; ; 0 0"),
        (LINEAR_C3, "kind linear\na 0 1 ; 0 0\nb 0 1\n", "", "needs 'kind'", None),
        (LINEAR_C3, "seed 11\n", "", "needs base, radius and seed", None),
        (LINEAR_C3, "base 0 0", "base 0 0 0", "base state has 3 entries",
         "base 0 0 0"),
        (LORENZ15, "c 2.6666666666666665\n", "", "needs 'c'", "kind lorenz"),
        (TANH_P3, "gamma 0.05\n", "", "needs 'gamma'", "kind tanh"),
        (LINEAR_C3, "base 0 0\nradius 5.0\nseed 11", "states 0 0 ; 1 1",
         "explicit states have shape (2, 2), expected (3, 2)", "states 0 0 ; 1 1"),
        (LINEAR_C3, "base 0 0\nradius 5.0\nseed 11", "states 0 0 1 ; 1 1 1 ; 2 0 1",
         "explicit states have shape (3, 3), expected (3, 2)",
         "states 0 0 1 ; 1 1 1 ; 2 0 1"),
    ], ids=["empty_matrix_row", "empty_model", "no_seed", "base_length",
            "lorenz_c", "tanh_gamma", "states_rows", "states_width"])
    def test_incomplete_scenario(self, tmp_path, capsys, scenario, old, new,
                                 message, bad):
        scn = write_edited(tmp_path, scenario, old, new)
        for verb in ("check", "run"):
            err = expect_parse_error(
                capsys, [verb, str(scn), "--out-dir", str(tmp_path / verb)])
            assert message in err
            if bad is not None:
                assert f"{scn}:{scn.read_text().splitlines().index(bad) + 1}:" in err
            assert not (tmp_path / verb).exists()

    def test_ragged_state_lines(self, tmp_path, capsys):
        lines = c3_text().splitlines()
        first = lines.index("base 0 0")
        lines[first:first + 3] = ["states 0 0 ; 2 0 ; 3 1 1"]
        scn = tmp_path / "ragged.scn"
        scn.write_text("\n".join(lines) + "\n")
        err = expect_parse_error(
            capsys, ["check", str(scn), "--out-dir", str(tmp_path)])
        assert f"{scn}:{first + 1}:" in err
        assert "ragged" in err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_negative_seed_flag(self, tmp_path, capsys, verb):
        err = expect_parse_error(
            capsys, [verb, LINEAR_C3, "--out-dir", str(tmp_path), "--seed", "-1"])
        assert "--seed" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("h,record_interval", [
        ("1e-300", "1e-300"),
        ("1e-7", "1e-7"),
        ("1e-300", "0.05"),
    ])
    def test_step_budget(self, tmp_path, capsys, h, record_interval):
        scn = tmp_path / "tiny_h.scn"
        scn.write_text(c3_text().replace("h 0.005", f"h {h}").replace(
            "record_interval 0.05", f"record_interval {record_interval}"))
        err = expect_parse_error(
            capsys, ["run", str(scn), "--out-dir", str(tmp_path / "out")])
        assert "steps" in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("verb,nodes,graph_file,extra", [
        ("run", 4000, False, []),
        ("run", 4000, True, []),
        ("sweep", 1000, False, ["--multipliers", "0.5", "1", "2"]),
    ], ids=["run", "run-graph-file", "sweep"])
    def test_record_budget(self, tmp_path, capsys, verb, nodes, graph_file, extra):
        # 20 001 samples at --t-end 1000 of N agents with 2 states and an
        # input: 2.4e8 floats at N = 4000, and 6.0e7 per member at N = 1000
        graph = f"nodes {nodes}\nedge 1 2 1.0\n"
        if graph_file:
            (tmp_path / "big.graph").write_text(f"nodes {nodes}\n1 2 1.0\n")
            graph = "file big.graph\n"
        scn = tmp_path / "long.scn"
        scn.write_text(c3_text().replace(C3_INLINE_GRAPH, graph))
        err = expect_parse_error(capsys, [verb, str(scn), "--t-end", "1000",
                                          "--out-dir", str(tmp_path / "out")]
                                 + extra)
        assert "integration" in err and "record" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_graph_file_weight(self, tmp_path, capsys, weight):
        (tmp_path / "c3.graph").write_text(
            f"nodes 3\n1 2 1.0\n1 3 {weight}\n2 3 1.0\n")
        scn = tmp_path / "filed.scn"
        scn.write_text(c3_text().replace(C3_INLINE_GRAPH, "file c3.graph\n"))
        err = expect_parse_error(
            capsys, ["check", str(scn), "--out-dir", str(tmp_path)])
        assert "c3.graph:3:" in err

    def test_missing_scenario_file(self, tmp_path, capsys):
        expect_parse_error(capsys, ["check", str(tmp_path / "nope.scn"),
                                    "--out-dir", str(tmp_path)])

    def test_missing_graph_file(self, tmp_path, capsys):
        scn = tmp_path / "filed.scn"
        scn.write_text(c3_text().replace(C3_INLINE_GRAPH, "file nope.graph\n"))
        err = expect_parse_error(
            capsys, ["check", str(scn), "--out-dir", str(tmp_path)])
        assert "nope.graph" in err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("flags", [
        ["--h", "-1"],
        ["--h", "0"],
        ["--h", "0.003"],
        ["--h", "0.1"],
        ["--h", "nan"],
        ["--t-end", "-1"],
        ["--t-end", "inf"],
        ["--h", "1e-300"],
        ["--t-end", "1e5"],
    ], ids=" ".join)
    def test_integration_flags(self, tmp_path, capsys, verb, flags):
        err = expect_parse_error(
            capsys, [verb, LINEAR_C3, "--out-dir", str(tmp_path)] + flags)
        assert "integration" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("multipliers", [["nan"], ["inf"], ["1", "nan", "inf"]],
                             ids=" ".join)
    def test_nonfinite_multipliers(self, tmp_path, capsys, multipliers):
        out = tmp_path / "out"
        err = expect_parse_error(capsys, ["sweep", LINEAR_C3, "--out-dir", str(out),
                                          "--multipliers"] + multipliers)
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("multipliers", [
        ["1", "1.0000001"],
        ["1", "1"],
        ["2", "0.5", "2.0"],
    ], ids=" ".join)
    def test_multipliers_sharing_a_run_directory(self, tmp_path, capsys,
                                                 multipliers):
        out = tmp_path / "out"
        err = expect_parse_error(capsys, ["sweep", LINEAR_C3, "--out-dir", str(out),
                                          "--multipliers"] + multipliers)
        assert "run_m" in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "check", "sweep"])
    def test_out_dir_not_creatable(self, tmp_path, capsys, monkeypatch, verb):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        for out in (blocker, blocker / "sub"):
            err = expect_parse_error(
                capsys, [verb, LINEAR_C3, "--out-dir", str(out)])
            assert "output directory" in err
        monkeypatch.setenv("EDGESYNC_OUT_DIR", str(blocker))
        err = expect_parse_error(capsys, [verb, LINEAR_C3])
        assert "output directory" in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("argv", [
        ["run", LINEAR_C3, "--t-end", "1"],
        ["check", LINEAR_C3],
    ], ids=["run", "check"])
    def test_artifact_not_writable(self, tmp_path, capsys, argv):
        artifact = "report.txt" if argv[0] == "run" else "graph_check.txt"
        (tmp_path / artifact).mkdir()
        err = expect_parse_error(capsys, argv + ["--out-dir", str(tmp_path)])
        assert "cannot write artifact" in err
        assert not list(tmp_path.glob("*.tmp*"))


# the exit codes README documents, 0 included; 1 means a traceback escaped
DOCUMENTED_CODES = (0, 2, 3, 4, 5, 7, 8, 9, 10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["check"],
    ["run", "--t-end", "0.2"],
    ["sweep", "--t-end", "0.2", "--multipliers", "1", "2"],
], ids=lambda argv: argv[0])
@given(text=mutated_text(SHIPPED_TEXTS))
@settings(max_examples=100, deadline=None)
def test_mutated_scenario_exits_with_documented_code(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(SCENARIO_DIR, "lorenz15.graph"), tmp)
        scn = os.path.join(tmp, "mutated.scn")
        with open(scn, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], scn, "--out-dir", os.path.join(tmp, "out")]
                        + argv[1:])
    assert code in DOCUMENTED_CODES


NO_SCIPY_PROBE = """
import os, sys
import numpy as np
import edgesync.cli
from edgesync import parse_scenario, realize, solve_ari
for name in ("linear_c3", "tanh_p3", "lorenz15"):
    realize(parse_scenario(os.path.join(sys.argv[1], name + ".scn")))
solve_ari(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), 1.0, 0.2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_path_imports_no_scipy():
    # scipy is only the tests' oracle: a fresh interpreter that imports
    # the CLI, realizes every shipped scenario and designs a gain loads
    # no scipy module
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, SCENARIO_DIR],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"


NO_POOL_PROBE = """
import sys
from edgesync.cli import main
linear_c3, lorenz15, dense, out = sys.argv[1:]
main(["run", linear_c3, "--out-dir", out])
main(["run", lorenz15, "--t-end", "1", "--out-dir", out])
main(["sweep", linear_c3, "--multipliers", "0.5", "1000", "--t-end", "2", "--out-dir", out])
main(["check", dense, "--out-dir", out])
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_small_tables_import_no_pool(tmp_path):
    # no verb starts a process or loads a pool module, not even a check
    # whose lift table (1204 x 1204) holds 1.4 M cells, about the size of
    # perfbench's rand300 graph's
    dense = write_dense_scenario(
        tmp_path, random_connected_graph(300, 0.02, (0.1, 6.0), 702))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", NO_POOL_PROBE, LINEAR_C3, LORENZ15, dense,
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("openblas, expected", [(None, "1 1 1"), ("2", "2 1 1")])
def test_import_pins_one_blas_thread(openblas, expected):
    # importing the package sets each BLAS thread count the caller left
    # unset to 1, so the artifacts' bits do not depend on it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = src
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    probe = "import os, edgesync; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == expected
