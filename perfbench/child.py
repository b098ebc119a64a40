"""Child processes of the benchmark, one fresh interpreter each.

    child.py setup <command> <scenario> [<seed>]
        import edgesync, parse the scenario and realize it, as the CLI
        verb <command> would; print the phase times as JSON.
    child.py trace <run_id> <spans.tsv> <summary.json> -- <cli args...>
        run the CLI in process under the span tracer, then write the
        spans and their per-layer summary.

edgesync is found through PYTHONPATH, which run.py points at the
checkout's src directory.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def setup(command, scenario, seed=None):
    t0 = time.perf_counter()
    import edgesync
    t1 = time.perf_counter()
    sc = edgesync.parse_scenario(scenario)
    if seed is not None:
        sc.init_seed = int(seed)
    t2 = time.perf_counter()
    edgesync.realize(sc, require_connected=command != "check")
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0, "parse_s": t2 - t1, "realize_s": t3 - t2,
        "setup_s": t3 - t0, "edgesync_file": edgesync.__file__,
    }))
    return 0


def trace(run_id, spans_path, summary_path, cli_args):
    import tracing

    tracer = tracing.Tracer(run_id)
    root = tracer.open("bench.invocation", T0)
    tracer.hook_imports()
    span = tracer.open("import.edgesync")
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import edgesync.cli
    tracer.close(span)
    tracer.install()
    try:
        rc = edgesync.cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.restore()
        tracer.close(root)
    root_end = tracer.end[root]
    summary = tracer.summary()
    tracer.write_spans(spans_path)
    summary["exit_code"] = rc
    summary["root_end"] = root_end
    summary["dump_s"] = time.perf_counter() - root_end
    tracing.write_json(summary_path, summary)
    return rc


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*args))
    if mode == "trace":
        sep = args.index("--")
        sys.exit(trace(*args[:sep], args[sep + 1:]))
    sys.exit(f"unknown mode {mode!r}")
