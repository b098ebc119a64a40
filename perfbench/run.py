#!/usr/bin/env python3
"""edgesync benchmark: end-to-end CLI timings, or a traced run per layer.

    python3 perfbench/run.py --workload lorenz15_run --seed 2024 \
        --seconds 40 --trace 0

Run from the root of a checkout; the program is the checkout's src/.
With --trace 0 each round spawns a set-up probe (import, parse_scenario,
realize) and one CLI invocation, both in fresh interpreters, until
--seconds have passed, and reports medians of wall_s, cpu_s, setup_s
and peak_rss_mb. With --trace 1 each round runs the CLI once untraced
and once under the span tracer, and reports the per-layer metrics with
the tracing overhead. Every invocation's artifacts are checked. Files go
to .perfbench_work/; the last stdout line is the result as JSON.
"""

import os

BLAS_THREADS = "1"  # the plain single-threaded baseline; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = ".perfbench_work"
CHILD_TIMEOUT_S = 150.0
BUDGET_S = 170.0  # start no round that could end after this
MIN_ROUNDS = {0: 3, 1: 2}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics reported on every workload. Times are limited to
# spans that run on all three workloads (a layer's self time includes
# its module import), so none reads a constant 0; the full per-function
# table is in the summary file of each traced run.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (
        "scenario", "graphs", "edge_lift", "riccati", "linalg", "controller",
        "models", "simulate", "analysis", "metric", "cli")},
    "import_s": "s",
    "scenario.parse_s": "s",
    "scenario.realize_s": "s",
    "graphs.build_matrices_s": "s",
    "graphs.spectral_report_s": "s",
    "edge_lift.build_s": "s",
    "edge_lift.verify_endpoint_s": "s",
    "linalg.sym_eig_s": "s",
    "linalg.lyapunov_solve_s": "s",
    "riccati.solve_ari_s": "s",
    "controller.make_controller_s": "s",
    "cli.atomic_write_s": "s",
    "simulate.rhs_evals": "count",
    "simulate.records": "count",
    "simulate.members": "count",
    "simulate.members_diverged": "count",
    "models.calls": "count",
    "controller.accumulate_coupling_calls": "count",
    "analysis.monitor_calls": "count",
    "edge_lift.sym_eig_calls": "count",
    "linalg.sym_eig_calls": "count",
    "linalg.sym_eig_max_n": "count",
    "linalg.lyapunov_solve_calls": "count",
    "riccati.newton_steps": "count",
    "cli.trajectory_csv_bytes": "bytes",
    "cli.graph_check_bytes": "bytes",
    "cli.bytes_written": "bytes",
    "trace.spans": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


class Child:
    """One child process: exit code, wall, CPU and peak RSS from wait4."""

    def __init__(self, argv, log_path):
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            self.output = fh.read()


def environment(workload, seed, trace, scenario):
    def digest_tree(top):
        h = hashlib.sha256()
        for root, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    h.update(path.encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
        return h.hexdigest()

    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest_tree("src"),
        "scenario_sha256": checks.sha256(scenario),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


class Run:
    """The measurement loop of one benchmark run."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.scenario = workload.scenario(seed, work)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self._verified = {}

    def probe_setup(self):
        argv = [sys.executable, CHILD, "setup", self.workload.command, self.scenario]
        if self.workload.seed_override:
            argv.append(str(self.seed))
        child = Child(argv, os.path.join(self.work, "setup.log"))
        try:
            result = json.loads(child.output.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        return child, result

    def invoke(self, tag, traced=False):
        """Run the CLI once, check its artifacts, count a failure."""
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        cli = [self.workload.command] + self.workload.cli_args(
            self.scenario, self.seed, out)
        if traced:
            argv = [sys.executable, CHILD, "trace", f"{self.workload.name}-{tag}",
                    os.path.join(self.work, f"spans-{tag}.tsv"),
                    os.path.join(self.work, f"summary-{tag}.json"), "--"] + cli
        else:
            argv = [sys.executable, "-m", "edgesync.cli"] + cli
        child = Child(argv, os.path.join(self.work, f"cli-{tag}.log"))
        problems = [f"exit code {child.returncode}"] if child.returncode else []
        found = checks.digests(out) if os.path.isdir(out) else {}
        key = tuple(sorted(found.items()))
        if key not in self._verified:
            # identical bytes pass or fail the checks identically
            self._verified[key] = self.workload.check(out)
        problems += self._verified[key]
        self.digests[tag] = found
        self.count(child.returncode == 0 and not problems, problems, tag)
        return child

    def count(self, ok, problems, tag):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems or ["failed"]]


def done(start, rounds, seconds, min_rounds):
    """Stop at the round end nearest to `seconds`, or before the budget."""
    elapsed = time.perf_counter() - start
    per_round = elapsed / rounds
    if elapsed + per_round > BUDGET_S:
        return True
    return rounds >= min_rounds and elapsed + per_round / 2 >= seconds


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run, seconds):
    samples = {name: [] for name in END_TO_END}
    for name in ("import_s", "parse_s", "realize_s"):
        samples[f"setup.{name}"] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        child, probe = run.probe_setup()
        run.count(child.returncode == 0 and probe is not None,
                  [child.output[-500:]], f"setup{rounds}")
        if probe is not None:
            samples["setup_s"].append(probe["setup_s"])
            for name in ("import_s", "parse_s", "realize_s"):
                samples[f"setup.{name}"].append(probe[name])
        child = run.invoke(f"run{rounds}")
        samples["wall_s"].append(child.wall_s)
        samples["cpu_s"].append(child.cpu_s)
        samples["peak_rss_mb"].append(child.peak_rss_mb)
        rounds += 1
        if done(start, rounds, seconds, MIN_ROUNDS[0]):
            return samples


def measure_traced(run, seconds):
    samples = {"trace.untraced_wall_s": [], "trace.traced_wall_s": []}
    summaries = []
    start = time.perf_counter()
    rounds = 0
    while True:
        plain = run.invoke(f"plain{rounds}")
        samples["trace.untraced_wall_s"].append(plain.wall_s)
        tag = f"traced{rounds}"
        traced = run.invoke(tag, traced=True)
        try:
            with open(os.path.join(run.work, f"summary-{tag}.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError):
            summary = None
        if summary is not None:
            # the wall the invocation would have had without writing spans out
            wall = traced.wall_s - summary["dump_s"]
            samples["trace.traced_wall_s"].append(wall)
            summary["metrics"]["trace.uncovered_s"] = wall - summary["root_s"]
            summaries.append(summary)
        rounds += 1
        if done(start, rounds, seconds, MIN_ROUNDS[1]):
            for name in summaries[0]["metrics"] if summaries else ():
                samples[name] = [s["metrics"][name] for s in summaries]
            return samples, summaries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join("src", "edgesync", "cli.py")):
        sys.exit("perfbench: no src/edgesync/cli.py here; run from the root "
                 "of an edgesync checkout")
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = Run(workload, args.seed, work)
    except OSError as exc:
        sys.exit(f"perfbench: cannot prepare the workload inputs: {exc}")
    if not os.path.isfile(run.scenario):
        sys.exit(f"perfbench: scenario {run.scenario} is missing")

    # Warm-up, untimed: compiles src/ to bytecode and shows that the
    # program imported is the checkout's own.
    child, probe = run.probe_setup()
    src = os.path.abspath("src") + os.sep
    if probe is None or not probe["edgesync_file"].startswith(src):
        sys.exit(f"perfbench: set-up probe failed in this checkout:\n"
                 f"{child.output[-2000:]}")

    if args.trace:
        samples, summaries = measure_traced(run, args.seconds)
        wanted = PER_LAYER
        samples["trace.overhead_s"] = [
            median(samples["trace.traced_wall_s"])
            - median(samples["trace.untraced_wall_s"])]
    else:
        samples = measure(run, args.seconds)
        summaries = []
        wanted = END_TO_END
    metrics = {name: {"value": median(samples.get(name, [])), "unit": unit}
               for name, unit in wanted.items()}
    correct = run.failed == 0 and all(
        samples.get(name) for name in wanted)

    # the program is meant to be bitwise reproducible, traced or not
    identical = len({tuple(sorted(d.items())) for d in run.digests.values()}) == 1
    result = {
        "environment": dict(
            environment(workload.name, args.seed, args.trace, run.scenario),
            sample_counts={name: len(v) for name, v in samples.items()}),
        "seconds": args.seconds,
        "metrics": metrics,
        "samples": samples,
        "fail_frac": {"value": run.failed / max(1, run.attempted),
                      "failed": run.failed, "attempted": run.attempted,
                      "base": "CLI invocations plus set-up probes"},
        "problems": run.problems,
        "digests": run.digests,
        "identical_artifacts": identical,
        "traced_summaries": [
            {k: s[k] for k in ("run_id", "root_s", "self_sum_s", "dump_s",
                               "layers", "functions", "ratios")} for s in summaries],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(
        WORK, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    for name, unit in wanted.items():
        values = samples.get(name, [])
        print(f"{name} {metrics[name]['value']:.6g} {unit} "
              f"(median of {len(values)})")
    if args.trace and summaries:
        last = summaries[-1]
        print(f"self times sum to {last['self_sum_s']:.6f} s = root span "
              f"{last['root_s']:.6f} s; uncovered "
              f"{last['metrics']['trace.uncovered_s']:.6f} s of the traced wall")
        for name, row in sorted(last["functions"].items(),
                                key=lambda kv: -kv[1]["self_s"])[:12]:
            print(f"  {name:40s} calls {row['calls']:8d} "
                  f"self {row['self_s']:.4f} s incl {row['inclusive_s']:.4f} s")
    print(f"fail_frac {run.failed}/{run.attempted} = "
          f"{run.failed / max(1, run.attempted):.6g} "
          f"(base: CLI invocations plus set-up probes)")
    print(f"artifacts byte-identical across the run's invocations: {identical}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    env = result["environment"]
    print(f"environment: python {env['python']} numpy {env['numpy']} scipy "
          f"{env['scipy']} nproc {env['nproc']} blas_threads {env['blas_threads']}"
          f" commit {env['commit']} src_sha256 {env['src_sha256'][:16]}")
    print(f"result file: {result_path}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
