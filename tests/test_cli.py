import os

import numpy as np
import pytest

from edgesync.cli import main, parse_graph_check

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
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
state 1 0.0
state 2 2.0

[integration]
h 0.01
t_end 2.0
record_interval 0.1
"""


def read_report(path):
    out = {}
    warnings = []
    for line in open(path, encoding="utf-8"):
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
        lines = open(os.path.join(out, "trajectory.csv")).read().splitlines()
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
        row_a = open(os.path.join(out_a, "trajectory.csv")).read().splitlines()[1]
        row_b = open(os.path.join(out_b, "trajectory.csv")).read().splitlines()[1]
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
        text = open(os.path.join(out, "graph_check.txt")).read()
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
            open(os.path.join(out, "graph_check.txt")).read())
        assert scalars["lift_residual"][0] <= 1e-8
        assert scalars["endpoint_residual_initial"][0] <= 1e-8
        assert scalars["endpoint_residual_terminal"][0] <= 1e-8
        assert scalars["components"][0] == 1
        # incidence matches the emitted laplacian: L = E W E^T
        e = matrices["incidence"]
        w = matrices["weight_diag"]
        assert np.max(np.abs(matrices["laplacian"] - e @ w @ e.T)) <= 1e-12

    def test_check_allows_disconnected(self, tmp_path):
        scn = tmp_path / "disc.scn"
        scn.write_text(DISCONNECTED)
        out = str(tmp_path / "out")
        assert main(["check", str(scn), "--out-dir", out]) == 0
        scalars, _ = parse_graph_check(
            open(os.path.join(out, "graph_check.txt")).read())
        assert scalars["components"][0] == 2


class TestSweepVerb:
    def test_multiplier_rows(self, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", LINEAR_C3, "--out-dir", out, "--t-end", "5.0",
                     "--multipliers", "1.0", "2.0", "5.0"]) == 0
        lines = open(os.path.join(out, "sweep_summary.csv")).read().splitlines()
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
        row = open(os.path.join(out, "sweep_summary.csv")).read().splitlines()[1]
        assert abs(float(row.split(",")[1])) <= 1e-9

    def test_failed_run_marked_and_continues(self, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", LINEAR_C3, "--out-dir", out, "--t-end", "5.0",
                     "--multipliers", "1e6", "1.0"]) == 0
        lines = open(os.path.join(out, "sweep_summary.csv")).read().splitlines()
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[-1] == "DivergedError"
        assert first[1] == "nan"
        assert second[-1] == "ok"

    def test_empty_multiplier_list(self, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", LINEAR_C3, "--out-dir", out]) == 0
        lines = open(os.path.join(out, "sweep_summary.csv")).read().splitlines()
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
    "initial": ("base", "radius", "seed", "state"),
    "integration": ("h", "t_end", "record_interval"),
    "output": ("dir",),
}

C3_INLINE_GRAPH = "nodes 3\nedge 1 2 1.0\nedge 1 3 1.0\nedge 2 3 1.0\n"


def c3_text():
    with open(LINEAR_C3, encoding="utf-8") as fh:
        return fh.read()


def expect_parse_error(capsys, argv):
    """main() exits 2 with one 'error:' line on stderr; returns the line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


class TestMalformedInput:
    @pytest.mark.parametrize("section,key", [
        (section, key) for section, keys in SCENARIO_KEYS.items() for key in keys
    ])
    def test_key_without_value(self, tmp_path, capsys, section, key):
        lines = (c3_text() + "\n[output]\n").splitlines()
        lineno = lines.index(f"[{section}]") + 2
        lines.insert(lineno - 1, key)
        scn = tmp_path / "bare.scn"
        scn.write_text("\n".join(lines) + "\n")
        err = expect_parse_error(
            capsys, ["run", str(scn), "--out-dir", str(tmp_path)])
        assert f"{scn}:{lineno}:" in err

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

    def test_ragged_state_lines(self, tmp_path, capsys):
        lines = c3_text().splitlines()
        first = lines.index("base 0 0")
        lines[first:first + 3] = ["state 1 0 0", "state 2 2 0", "state 3 3 1 1"]
        scn = tmp_path / "ragged.scn"
        scn.write_text("\n".join(lines) + "\n")
        err = expect_parse_error(
            capsys, ["check", str(scn), "--out-dir", str(tmp_path)])
        assert f"{scn}:{first + 3}:" in err

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
