"""Line-oriented scenario files and their realization into run objects.

A scenario is structured text with ``[section]`` headers and
``key value...`` lines; comments start with ``#``. Required sections:
graph, model, certificate, controller, initial, integration; output is
optional. The format is deliberately flat so it can be parsed without
any dependency and specified byte-for-byte.

Example::

    [graph]
    file ring.graph

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
    radius 5.0
    seed 11

    [integration]
    h 0.005
    t_end 35.0
    record_interval 0.05
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .controller import make_controller
from .edge_lift import build_edge_lift, verify_endpoint_identities
from .errors import DimensionMismatchError, DisconnectedGraphError, ParseError
from .graphs import (
    WeightedGraph,
    build_matrices,
    components,
    parse_graph_text,
    read_graph_file,
    spectral_report,
)
from .metric import MetricCertificate
from .models import (
    convective_linearization,
    linear_model,
    lorenz_model,
    tanh_perturbed_model,
)
from .riccati import solve_ari
from .simulate import perturbed_initial_conditions, steps_per_record

SECTIONS = (
    "graph", "model", "certificate", "controller", "initial",
    "integration", "output",
)

# the keys each model kind reads besides 'kind', and whether each takes a
# number or a matrix
MODEL_KEYS = {
    "linear": {"a": "matrix", "b": "matrix"},
    "tanh": {"a": "matrix", "b": "matrix", "gamma": "number"},
    "lorenz": {"a": "number", "b": "number", "c": "number"},
}

# keys that take exactly one token; the others take a list or a matrix
ONE_TOKEN_KEYS = (
    "file", "kind", "c", "gamma", "rho", "mu", "beta", "beta_multiplier",
    "radius", "seed", "h", "t_end", "record_interval", "dir",
)


@dataclass
class Scenario:
    """Parsed scenario, not yet realized into numerical objects."""

    name: str
    path: str
    graph_file: str = None
    graph_inline: WeightedGraph = None
    model_kind: str = ""
    model_a: np.ndarray = None
    model_b: np.ndarray = None
    model_scalars: dict = field(default_factory=dict)
    rho: float = 0.0
    mu: float = 0.0
    p_matrix: np.ndarray = None
    beta: float = None
    beta_multiplier: float = None
    init_states: np.ndarray = None
    init_base: np.ndarray = None
    init_radius: float = None
    init_seed: int = None
    h: float = 0.0
    t_end: float = 0.0
    record_interval: float = 0.0
    out_dir: str = None


@dataclass(frozen=True)
class RunSetup:
    """Everything a run needs, built from a scenario."""

    name: str
    graph: WeightedGraph
    matrices: object
    spectral: object
    lift: object
    residuals: tuple
    model: object
    certificate: MetricCertificate
    controller: object
    x0: np.ndarray
    h: float
    t_end: float
    record_interval: float
    out_dir: str
    approximate: bool


def _parse_float(tok, path, lineno):
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(f"expected a number, got {tok!r}", path, lineno)
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {tok!r}", path, lineno)
    return value


def _parse_int(tok, path, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}", path, lineno)


def _nonnegative(key, value, path, lineno):
    if value < 0:
        raise ParseError(f"{key} must be nonnegative, got {value!r}", path, lineno)
    return value


def _parse_matrix(tokens, path, lineno):
    rows = []
    current = []
    for tok in tokens:
        if tok == ";":
            if not current:
                raise ParseError("empty matrix row", path, lineno)
            rows.append(current)
            current = []
        else:
            current.append(_parse_float(tok, path, lineno))
    if current:
        rows.append(current)
    if not rows:
        raise ParseError("empty matrix", path, lineno)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("ragged matrix rows", path, lineno)
    return np.array(rows)


def _tokenize(text, path):
    """Yield (section, key, tokens, lineno); ';' is split out as a token."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ParseError(f"unknown section [{section}]", path, lineno)
            yield section, None, None, lineno
            continue
        if section is None:
            raise ParseError("content before any [section] header", path, lineno)
        tokens = line.replace(";", " ; ").split()
        yield section, tokens[0], tokens[1:], lineno


def parse_scenario(path):
    """Parse a scenario file into a Scenario, raising line-numbered errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario: {exc}", str(path))
    return parse_scenario_text(text, path=str(path))


def parse_scenario_text(text, path="<string>"):
    sc = Scenario(name=os.path.splitext(os.path.basename(path))[0], path=path)
    # first line of each section and key; edge and state lines repeat
    seen_sections = {}
    seen_keys = {}
    graph_lines = {}
    state_rows = {}

    for section, key, tokens, lineno in _tokenize(text, path):
        if key is None:
            if section in seen_sections:
                raise ParseError(f"section [{section}] repeats line "
                                 f"{seen_sections[section]}", path, lineno)
            seen_sections[section] = lineno
            continue
        if not tokens:
            raise ParseError(f"key {key!r} needs a value", path, lineno)
        if key in ONE_TOKEN_KEYS and len(tokens) != 1:
            raise ParseError(f"key {key!r} takes one value, got {len(tokens)}",
                             path, lineno)
        if key not in ("edge", "state"):
            if (section, key) in seen_keys:
                raise ParseError(f"key {key!r} repeats line "
                                 f"{seen_keys[section, key]}", path, lineno)
            seen_keys[section, key] = lineno
        if section == "graph":
            if key == "file":
                sc.graph_file = tokens[0]
            elif key in ("nodes", "edge"):
                # graph-file syntax: 'nodes N', then one 'k l w' per edge
                graph_lines[lineno] = " ".join(
                    tokens if key == "edge" else [key] + tokens)
            else:
                raise ParseError(f"unknown graph key {key!r}", path, lineno)
        elif section == "model":
            if key == "kind":
                if tokens[0] not in MODEL_KEYS:
                    raise ParseError(f"unknown model kind {tokens[0]!r}", path, lineno)
                sc.model_kind = tokens[0]
            elif key == "a" and ";" in tokens:
                sc.model_a = _parse_matrix(tokens, path, lineno)
            elif key == "a":
                if len(tokens) == 1:
                    sc.model_scalars["a"] = _parse_float(tokens[0], path, lineno)
                else:
                    sc.model_a = _parse_matrix(tokens, path, lineno)
            elif key == "b":
                if len(tokens) == 1:
                    sc.model_scalars["b"] = _parse_float(tokens[0], path, lineno)
                else:
                    sc.model_b = _parse_matrix(tokens, path, lineno).ravel()
            elif key == "c":
                sc.model_scalars["c"] = _parse_float(tokens[0], path, lineno)
            elif key == "gamma":
                sc.model_scalars["gamma"] = _nonnegative(
                    "gamma", _parse_float(tokens[0], path, lineno), path, lineno)
            else:
                raise ParseError(f"unknown model key {key!r}", path, lineno)
        elif section == "certificate":
            if key == "rho":
                sc.rho = _parse_float(tokens[0], path, lineno)
            elif key == "mu":
                sc.mu = _parse_float(tokens[0], path, lineno)
            elif key == "p":
                sc.p_matrix = _parse_matrix(tokens, path, lineno)
            else:
                raise ParseError(f"unknown certificate key {key!r}", path, lineno)
        elif section == "controller":
            if key == "beta":
                sc.beta = _parse_float(tokens[0], path, lineno)
            elif key == "beta_multiplier":
                sc.beta_multiplier = _parse_float(tokens[0], path, lineno)
            else:
                raise ParseError(f"unknown controller key {key!r}", path, lineno)
        elif section == "initial":
            if key == "base":
                sc.init_base = np.array(
                    [_parse_float(t, path, lineno) for t in tokens])
            elif key == "radius":
                sc.init_radius = _nonnegative(
                    "radius", _parse_float(tokens[0], path, lineno), path, lineno)
            elif key == "seed":
                sc.init_seed = _nonnegative(
                    "seed", _parse_int(tokens[0], path, lineno), path, lineno)
            elif key == "state":
                idx = _parse_int(tokens[0], path, lineno)
                if idx in state_rows:
                    raise ParseError(f"state {idx} repeats line "
                                     f"{state_rows[idx][1]}", path, lineno)
                state_rows[idx] = (
                    np.array([_parse_float(t, path, lineno) for t in tokens[1:]]),
                    lineno,
                )
            else:
                raise ParseError(f"unknown initial key {key!r}", path, lineno)
        elif section == "integration":
            if key == "h":
                sc.h = _parse_float(tokens[0], path, lineno)
            elif key == "t_end":
                sc.t_end = _parse_float(tokens[0], path, lineno)
            elif key == "record_interval":
                sc.record_interval = _parse_float(tokens[0], path, lineno)
            else:
                raise ParseError(f"unknown integration key {key!r}", path, lineno)
        elif section == "output":
            if key == "dir":
                sc.out_dir = tokens[0]
            else:
                raise ParseError(f"unknown output key {key!r}", path, lineno)

    missing = [s for s in SECTIONS[:-1] if s not in seen_sections]
    if missing:
        raise ParseError(f"missing sections: {', '.join(missing)}", path)

    if graph_lines:
        # parsed as a graph file whose lines keep their scenario line numbers
        sc.graph_inline = parse_graph_text("\n".join(
            graph_lines.get(i, "") for i in range(1, max(graph_lines) + 1)), path)
    if (sc.graph_file is None) == (sc.graph_inline is None):
        raise ParseError("graph section needs exactly one of 'file' or inline "
                         "'nodes'/'edge' lines", path)
    if not sc.model_kind:
        raise ParseError("model section needs 'kind'", path)
    reads = MODEL_KEYS[sc.model_kind]
    for (section, key), lineno in seen_keys.items():
        if section != "model" or key == "kind":
            continue
        given = "number" if key in sc.model_scalars else "matrix"
        if key not in reads:
            raise ParseError(f"model kind {sc.model_kind!r} reads no key "
                             f"{key!r}", path, lineno)
        if reads[key] != given:
            raise ParseError(f"model kind {sc.model_kind!r} takes a "
                             f"{reads[key]} for {key!r}, not a {given}",
                             path, lineno)
    if sc.rho <= 0.0 or sc.mu <= 0.0:
        raise ParseError("certificate needs positive rho and mu", path)
    if (sc.beta is None) == (sc.beta_multiplier is None):
        raise ParseError("controller needs exactly one of beta and "
                         "beta_multiplier", path)
    if state_rows:
        # base, radius and seed, the only other initial keys, in file order
        mixed = [lineno for (section, _), lineno in seen_keys.items()
                 if section == "initial"]
        if mixed:
            raise ParseError("initial section mixes explicit states with "
                             "base/radius/seed", path, mixed[0])
        count = max(state_rows)
        if sorted(state_rows) != list(range(1, count + 1)):
            raise ParseError("explicit states must cover agents 1..N", path)
        rows = [state_rows[i] for i in range(1, count + 1)]
        width = rows[0][0].shape[0]
        for agent, (values, lineno) in enumerate(rows, start=1):
            if values.shape[0] != width:
                raise ParseError(f"state of agent {agent} has {values.shape[0]} "
                                 f"entries, agent 1 has {width}", path, lineno)
        sc.init_states = np.vstack([values for values, _ in rows])
    elif sc.init_base is None or sc.init_radius is None or sc.init_seed is None:
        raise ParseError("initial section needs base, radius and seed "
                         "(or explicit state lines)", path)
    if sc.h <= 0.0 or sc.t_end <= 0.0 or sc.record_interval <= 0.0:
        raise ParseError("integration needs positive h, t_end and "
                         "record_interval", path)
    return sc


def check_integration(sc):
    """Reject step settings simulate would refuse, as a ParseError.

    Called once the command line overrides are applied, so an --h that
    divides record_interval can stand in for one in the file that does
    not.
    """
    try:
        steps_per_record(sc.h, sc.t_end, sc.record_interval)
    except ValueError as exc:
        raise ParseError(f"integration: {exc}", sc.path)


def _build_model_and_certificate(sc):
    """Resolve the model, its feedback gain b P and the metric certificate.

    P is the scenario's [certificate] p, or else the Riccati design on
    the model's (a, b), which for lorenz is its origin linearization.
    """
    if sc.model_kind == "lorenz":
        a = sc.model_scalars.get("a", 10.0)
        b = sc.model_scalars.get("b", 8.0 / 3.0)
        c = sc.model_scalars.get("c", 28.0)
        a_design, b_design = convective_linearization(a, b, c)
    else:
        if sc.model_a is None or sc.model_b is None:
            raise ParseError(f"model kind {sc.model_kind!r} needs matrix 'a' and "
                             "vector 'b'", sc.path)
        a_design, b_design = sc.model_a, sc.model_b
        if b_design.shape[0] != a_design.shape[0]:
            raise DimensionMismatchError(
                f"b has {b_design.shape[0]} entries, model state dimension is "
                f"{a_design.shape[0]}")
    n = a_design.shape[0]
    if sc.p_matrix is not None:
        cert = MetricCertificate.from_matrix(sc.p_matrix, sc.rho, sc.mu)
        if cert.p.shape[0] != n:
            raise DimensionMismatchError(
                f"certificate p is {cert.p.shape[0]}x{cert.p.shape[1]}, model "
                f"state dimension is {n}")
    else:
        cert = solve_ari(a_design, b_design, sc.rho, sc.mu).certificate
    gain = b_design @ cert.p
    if sc.model_kind == "lorenz":
        return lorenz_model(a, b, c, gain), cert, True
    if sc.model_kind == "linear":
        return linear_model(sc.model_a, sc.model_b, gain), cert, False
    gamma = sc.model_scalars.get("gamma", 0.0)
    return tanh_perturbed_model(sc.model_a, sc.model_b, gamma, gain), cert, False


def realize(sc, require_connected=True):
    """Build all run objects from a parsed scenario.

    require_connected enforces the connectivity precondition of the
    synchronization guarantee; diagnostic-only flows may relax it.
    """
    if sc.graph_file is not None:
        graph_path = sc.graph_file
        if not os.path.isabs(graph_path):
            graph_path = os.path.join(os.path.dirname(os.path.abspath(sc.path)),
                                      graph_path)
        graph = read_graph_file(graph_path)
    else:
        graph = sc.graph_inline
    n_comp = components(graph)
    if require_connected and n_comp != 1:
        raise DisconnectedGraphError(
            f"controller requested on a graph with {n_comp} components"
        )
    matrices = build_matrices(graph)
    spectral = spectral_report(matrices, graph)
    lift = build_edge_lift(matrices)
    residuals = verify_endpoint_identities(matrices, lift)
    model, cert, approximate = _build_model_and_certificate(sc)

    if sc.init_states is not None:
        x0 = np.asarray(sc.init_states, dtype=float)
        if x0.shape != (graph.n, model.state_dim):
            raise ParseError(
                f"explicit states have shape {x0.shape}, expected "
                f"({graph.n}, {model.state_dim})", sc.path)
        x0 = x0.reshape(-1)
    else:
        if sc.init_base.shape[0] != model.state_dim:
            raise ParseError(
                f"base state has {sc.init_base.shape[0]} entries, model "
                f"dimension is {model.state_dim}", sc.path)
        x0 = perturbed_initial_conditions(
            sc.init_base, graph.n, sc.init_radius, sc.init_seed)

    controller = make_controller(
        matrices, lift, sc.rho, beta=sc.beta, beta_multiplier=sc.beta_multiplier)

    return RunSetup(
        name=sc.name,
        graph=graph,
        matrices=matrices,
        spectral=spectral,
        lift=lift,
        residuals=residuals,
        model=model,
        certificate=cert,
        controller=controller,
        x0=x0,
        h=sc.h,
        t_end=sc.t_end,
        record_interval=sc.record_interval,
        out_dir=sc.out_dir,
        approximate=approximate,
    )
