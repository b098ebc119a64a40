"""In-memory span tracer that wraps edgesync from the outside.

The tracer leaves the package source alone. It times each edgesync
module's import through a meta-path finder, then rebinds the public
functions of every edgesync module (in every module namespace that
imported them) to wrappers that record a span per call, and swaps the
callables of each AgentModel the package builds for wrapped ones with
dataclasses.replace. restore() puts every original back.

A span is (name, start, end, parent, run id). Span names are
"<layer>.<function>"; the layer is the edgesync module. A layer's self
time is the duration of its spans minus that of their child spans, so
the self times of all spans sum to the root span's duration. Module
import counts towards the module's layer: every invocation pays it.
"""

import dataclasses
import importlib.machinery
import json
import sys
import types
from array import array
from time import perf_counter

PACKAGE = "edgesync"
LAYERS = ("scenario", "graphs", "edge_lift", "riccati", "linalg", "controller",
          "models", "simulate", "analysis", "metric", "cli")
# Private helpers that get a span of their own. The others are too small
# or too frequent (cli._fmt runs once per number written) and count
# towards their caller's self time.
PRIVATE_SPANS = ("cli._atomic_write",)

# metric name -> span name whose inclusive time it reports
INCLUSIVE = {
    "scenario.parse_s": "scenario.parse_scenario",
    "scenario.realize_s": "scenario.realize",
    "graphs.read_graph_file_s": "graphs.read_graph_file",
    "graphs.build_matrices_s": "graphs.build_matrices",
    "graphs.spectral_report_s": "graphs.spectral_report",
    "edge_lift.build_s": "edge_lift.build_edge_lift",
    "edge_lift.verify_endpoint_s": "edge_lift.verify_endpoint_identities",
    "linalg.sym_eig_s": "linalg.sym_eig",
    "linalg.lyapunov_solve_s": "linalg.lyapunov_solve",
    "riccati.solve_ari_s": "riccati.solve_ari",
    "controller.make_controller_s": "controller.make_controller",
    "controller.accumulate_coupling_s": "controller.accumulate_coupling",
    "models.f_all_s": "models.f_all",
    "models.g_all_s": "models.g_all",
    "models.alpha_all_s": "models.alpha_all",
    "simulate.simulate_s": "simulate.simulate",
    "analysis.monitor_V_s": "analysis.monitor_V",
    "analysis.monitor_sync_error_s": "analysis.monitor_sync_error",
    "analysis.fit_decay_rate_s": "analysis.fit_decay_rate",
    "analysis.check_monotone_s": "analysis.check_monotone",
    "metric.verify_ari_sampled_s": "metric.verify_ari_sampled",
    "metric.verify_killing_integrability_s": "metric.verify_killing_integrability",
    "cli.trajectory_csv_s": "cli.trajectory_csv",
    "cli.graph_check_text_s": "cli.graph_check_text",
    "cli.report_text_s": "cli.report_text",
    "cli.atomic_write_s": "cli._atomic_write",
}
# metric name -> span name whose call count it reports
CALLS = {
    "simulate.members": "simulate.simulate",
    "controller.accumulate_coupling_calls": "controller.accumulate_coupling",
    "linalg.sym_eig_calls": "linalg.sym_eig",
    "linalg.lyapunov_solve_calls": "linalg.lyapunov_solve",
}


def _add(tracer, key, amount):
    tracer.counters[key] = tracer.counters.get(key, 0) + amount


def _wrap_model(tracer, args, model):
    changes = {}
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        if callable(value):
            changes[f.name] = tracer.wrap(f"models.{f.name}", value)
            tracer.model_spans.add(f"models.{f.name}")
    return dataclasses.replace(model, **changes)


def _wrap_monitors(tracer, args, monitors):
    return {key: tracer.wrap(f"analysis.monitor_{key}", fn)
            for key, fn in monitors.items()}


def _count_records(tracer, args, traj):
    _add(tracer, "simulate.records", traj.n_samples)
    return traj


def _count_newton(tracer, args, design):
    _add(tracer, "riccati.newton_steps", len(design.newton_iterates))
    return design


def _count_text(key):
    def post(tracer, args, text):
        _add(tracer, key, len(text))
        return text
    return post


def _count_written(tracer, args, result):
    _add(tracer, "cli.bytes_written", len(args[1]))
    return result


def _max_eig_size(tracer, args, result):
    n = len(args[0])
    tracer.counters["linalg.sym_eig_max_n"] = max(
        n, tracer.counters.get("linalg.sym_eig_max_n", 0))
    return result


# span name -> post(tracer, args, result) -> result, run after the span ends
POST = {
    "models.linear_model": _wrap_model,
    "models.tanh_perturbed_model": _wrap_model,
    "models.lorenz_model": _wrap_model,
    "analysis.make_monitors": _wrap_monitors,
    "simulate.simulate": _count_records,
    "riccati.solve_ari": _count_newton,
    "cli.trajectory_csv": _count_text("cli.trajectory_csv_bytes"),
    "cli.graph_check_text": _count_text("cli.graph_check_bytes"),
    "cli.report_text": _count_text("cli.report_bytes"),
    "cli._atomic_write": _count_written,
    "linalg.sym_eig": _max_eig_size,
}


def _layer_of(module_name):
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else "import"


class Tracer:
    """Spans of one invocation, kept in flat arrays until written out."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.counters = {}
        self.model_spans = set()
        self._saved = []
        self._finder = None

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name, t=None):
        """Start a span that nests under the innermost open one."""
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter() if t is None else t)
        return sid

    def close(self, sid, failed=False):
        self.end[sid] = perf_counter()
        if failed:
            self.failed[sid] = 1
        if self.stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name, fn, post=None):
        """fn with a span per call; post(tracer, args, result) runs after."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        failed, stack = self.failed, self.stack

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            return result if post is None else post(self, args, result)

        return traced

    def hook_imports(self):
        """Give each edgesync module's import a span in its layer."""
        tracer = self

        class TimedLoader(importlib.machinery.SourceFileLoader):
            def exec_module(self, module):
                name = module.__name__
                sid = tracer.open(f"{_layer_of(name)}.import"
                                  if "." in name else "import.package")
                try:
                    super().exec_module(module)
                finally:
                    tracer.close(sid)

        class Finder:
            @staticmethod
            def find_spec(fullname, path=None, target=None):
                if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
                    return None
                spec = importlib.machinery.PathFinder.find_spec(fullname, path)
                if spec is not None and type(spec.loader) is importlib.machinery.SourceFileLoader:
                    spec.loader = TimedLoader(spec.loader.name, spec.loader.path)
                return spec

        self._finder = Finder
        sys.meta_path.insert(0, Finder)

    def install(self):
        """Rebind every public edgesync function to its traced wrapper."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            layer = _layer_of(mod.__name__)
            for attr, obj in vars(mod).items():
                span = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or span in PRIVATE_SPANS)):
                    wrappers[obj] = self.wrap(span, obj, POST.get(span))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def restore(self):
        """Put back every rebound attribute and remove the import hook."""
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)

    def summary(self):
        """Per-function, per-layer and derived metrics of the recorded spans."""
        # numpy is imported here, after the run, so that its import is
        # timed inside the import.edgesync span and not before it
        import numpy as np

        names = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        self_time = dur - np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                                      minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        inclusive = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        failed = np.bincount(names, weights=np.asarray(self.failed, dtype=float),
                             minlength=k)
        functions = {
            name: {"calls": int(calls[i]), "inclusive_s": float(inclusive[i]),
                   "self_s": float(own[i]), "failed": int(failed[i])}
            for i, name in enumerate(self.names)
        }
        layers = {}
        for name, row in functions.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        root = float(dur[0]) if len(dur) else 0.0

        def count(span):
            return functions.get(span, {}).get("calls", 0)

        def under(span_name, ancestor_layer):
            """Spans named span_name with an ancestor in ancestor_layer."""
            if span_name not in self._ids:
                return 0
            layer_of = [n.split(".")[0] for n in self.names]
            hits = 0
            for sid in np.nonzero(names == self._ids[span_name])[0]:
                p = parent[sid]
                while p >= 0 and layer_of[names[p]] != ancestor_layer:
                    p = parent[p]
                hits += int(p >= 0)
            return hits

        metrics = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
        metrics["import_s"] = functions.get("import.edgesync", {}).get("inclusive_s", 0.0)
        for metric, span in INCLUSIVE.items():
            metrics[metric] = functions.get(span, {}).get("inclusive_s", 0.0)
        for metric, span in CALLS.items():
            metrics[metric] = count(span)
        metrics["simulate.rhs_evals"] = under("models.f_all", "simulate")
        metrics["simulate.members_diverged"] = functions.get(
            "simulate.simulate", {}).get("failed", 0)
        metrics["models.calls"] = sum(count(s) for s in self.model_spans)
        metrics["analysis.monitor_calls"] = sum(
            row["calls"] for name, row in functions.items()
            if name.startswith("analysis.monitor_"))
        metrics["edge_lift.sym_eig_calls"] = under("linalg.sym_eig", "edge_lift")
        for key in ("simulate.records", "riccati.newton_steps",
                    "cli.trajectory_csv_bytes", "cli.graph_check_bytes",
                    "cli.report_bytes", "cli.bytes_written",
                    "linalg.sym_eig_max_n"):
            metrics[key] = self.counters.get(key, 0)
        metrics["trace.spans"] = len(dur)

        def ratio(numerator, denominator, base):
            value = numerator / denominator if denominator else None
            return {"value": value, "numerator": numerator,
                    "denominator": denominator, "base": base}

        simulate_s = metrics["simulate.simulate_s"]
        members = metrics["simulate.members"]
        ratios = {
            "simulate.self_share": ratio(
                metrics["simulate.self_s"], simulate_s, "simulate.simulate_s"),
            "analysis.monitor_share": ratio(
                metrics["analysis.monitor_V_s"] + metrics["analysis.monitor_sync_error_s"],
                simulate_s, "simulate.simulate_s"),
            "models.rhs_s_per_eval": ratio(
                metrics["models.f_all_s"] + metrics["models.g_all_s"]
                + metrics["models.alpha_all_s"], metrics["simulate.rhs_evals"],
                "simulate.rhs_evals"),
            "simulate.members_ok_frac": ratio(
                members - metrics["simulate.members_diverged"], members,
                "simulate.members"),
        }
        ratios.update({f"{layer}.share": ratio(t, root, "root_s")
                       for layer, t in layers.items()})
        return {
            "run_id": self.run_id,
            "root_s": root,
            "self_sum_s": float(self_time.sum()),
            "layers": layers,
            "functions": functions,
            "metrics": metrics,
            "ratios": ratios,
        }

    def write_spans(self, path):
        """One tab-separated line per span: id, name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\trun_id\n")
            names = self.names
            for sid, (nid, s, e, p) in enumerate(
                    zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{sid}\t{names[nid]}\t{s!r}\t{e!r}\t{p}\t{self.run_id}\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
