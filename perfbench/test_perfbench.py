"""Self-tests of the benchmark: checks, generator, tracer and run.py.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
from workloads import RAND_WEIGHTS, random_graph_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
C3 = os.path.join(ROOT, "scenarios", "linear_c3.scn")
ENV = dict(os.environ, PYTHONPATH=SRC)


def cli(*args, cwd):
    subprocess.run([sys.executable, "-m", "edgesync.cli", *args], cwd=cwd,
                   env=ENV, check=True, capture_output=True)


def rewrite(path, old, new):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


def test_tampered_beta_star_fails(tmp_path):
    cli("check", C3, "--out-dir", "out", cwd=tmp_path)
    path = tmp_path / "out" / "graph_check.txt"
    assert checks.check_graph_check(path) == []
    stated = checks.read_graph_check(path)[0]["beta_star"][0]
    rewrite(path, f"beta_star {stated:.17g}",
            f"beta_star {stated * (1 + 1e-6):.17g}")
    problems = checks.check_graph_check(path)
    assert len(problems) == 1 and problems[0].startswith("beta_star")


def test_truncated_csv_fails(tmp_path):
    cli("run", C3, "--t-end", "1", "--out-dir", "out", cwd=tmp_path)
    path = tmp_path / "out" / "trajectory.csv"
    assert checks.check_csv(path, rows=21, cols=12) == []
    text = path.read_text()
    path.write_text(text[:len(text) - 40])
    assert checks.check_csv(path, rows=21, cols=12)
    path.write_text(text[:text.rindex("\n", 0, len(text) - 1) + 1])
    assert checks.check_csv(path, rows=21, cols=12)


def test_sweep_check_needs_the_divergent_member(tmp_path):
    cli("sweep", C3, "--t-end", "5", "--out-dir", "out",
        "--multipliers", "1", "1000", cwd=tmp_path)
    out = tmp_path / "out"
    assert checks.check_sweep(out, ("1", "1000"), rows=101, cols=12) == []
    rewrite(out / "sweep_summary.csv", "DivergedError", "ok")
    assert checks.check_sweep(out, ("1", "1000"), rows=101, cols=12)


def test_generator_is_deterministic_and_connected():
    text = random_graph_text(40, 90, RAND_WEIGHTS, seed=5)
    assert text == random_graph_text(40, 90, RAND_WEIGHTS, seed=5)
    assert text != random_graph_text(40, 90, RAND_WEIGHTS, seed=6)
    lines = text.splitlines()
    assert lines[0] == "nodes 40" and len(lines) == 91
    edges = [(int(k), int(l), float(w)) for k, l, w in (s.split() for s in lines[1:])]
    assert edges == sorted(edges) and all(k < l for k, l, _ in edges)
    assert all(RAND_WEIGHTS[0] <= w <= RAND_WEIGHTS[1] for _, _, w in edges)
    reached, frontier = {1}, [1]
    while frontier:
        node = frontier.pop()
        for k, l, _ in edges:
            for a, b in ((k, l), (l, k)):
                if a == node and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    assert len(reached) == 40


def test_span_self_times_sum_to_traced_total(tmp_path):
    spans, summary = tmp_path / "spans.tsv", tmp_path / "summary.json"
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "trace", "t",
                    str(spans), str(summary), "--", "run", C3, "--t-end", "0.5",
                    "--out-dir", "out"], cwd=tmp_path, env=ENV, check=True,
                   capture_output=True)
    result = json.loads(summary.read_text())
    assert result["exit_code"] == 0
    assert result["self_sum_s"] == pytest.approx(result["root_s"], rel=1e-9)
    assert sum(result["layers"].values()) == pytest.approx(result["root_s"], rel=1e-9)
    assert result["metrics"]["simulate.rhs_evals"] == 4 * 100
    rows = [line.split("\t") for line in spans.read_text().splitlines()[1:]]
    assert len(rows) == result["metrics"]["trace.spans"]
    for sid, name, start, end, parent, run_id in rows:
        assert run_id == "t" and float(start) <= float(end)
        if int(parent) >= 0:
            p = rows[int(parent)]
            assert float(p[2]) <= float(start) and float(end) <= float(p[3])


def test_wrappers_are_restored_after_a_traced_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.chdir(tmp_path)
    import edgesync.cli

    def state():
        return {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if name.startswith("edgesync")}

    before, meta_path = state(), list(sys.meta_path)
    tracer = tracing.Tracer("t")
    tracer.hook_imports()
    tracer.install()
    assert edgesync.cli.simulate is not before["edgesync.cli"]["simulate"]
    try:
        assert edgesync.cli.main(["run", C3, "--t-end", "0.2", "--out-dir", "o"]) == 0
    finally:
        tracer.restore()
    after = state()
    assert after.keys() == before.keys()
    for name in before:
        changed = [a for a in before[name] if after[name].get(a) is not before[name][a]]
        assert changed == [], name
    assert sys.meta_path == meta_path
    assert tracer.summary()["metrics"]["simulate.members"] == 1


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "lorenz15_run", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
