"""Line-oriented scenario files and their realization into run objects.

A scenario is structured text with ``[section]`` headers and
``key value...`` lines; comments start with ``#``. Every section is
required: graph, model, certificate, controller, initial, integration.
The format is deliberately flat so it can be parsed without any
dependency and specified byte-for-byte.

KEYS, with its model part MODEL_KEYS, is the one place a key is defined:
the Scenario field it sets and the reader of its value. Only the inline
graph's ``nodes``/``edge`` lines are not in it; they are read as a graph
file. Every line is read once, in file order; ``kind`` opens ``[model]``,
each model key after it is read by that kind's reader, and every key the
kind reads is required. Initial states are either sampled (``base``,
``radius``, ``seed``) or given as one ``states`` matrix, a row per agent.
realize builds only what a run uses; graph_check.txt's spectra and lift
residual are computed as it is written.

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
from .edge_lift import build_edge_lift
from .errors import DimensionMismatchError, DisconnectedGraphError, ParseError
from .graphs import WeightedGraph, parse_graph_text, read_graph_file
from .metric import MetricCertificate
from .models import (
    convective_linearization,
    linear_model,
    lorenz_model,
    tanh_perturbed_model,
)
from .riccati import solve_ari
from .simulate import (
    check_record_budget,
    perturbed_initial_conditions,
    steps_per_record,
)


# Readers: each takes a key and its value tokens and returns the value, or
# raises ValueError with the reason the tokens do not have its form.

def _word(key, tokens):
    if len(tokens) != 1:
        raise ValueError(f"key {key!r} takes one value, got {len(tokens)}")
    return tokens[0]


def _finite(tok):
    try:
        value = float(tok)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {tok!r}")
    return value


def _integer(tok):
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"expected an integer, got {tok!r}") from None


def _number(key, tokens):
    return _finite(_word(key, tokens))


def _nonnegative(key, tokens, parse=_finite):
    value = parse(_word(key, tokens))
    if value < 0:
        raise ValueError(f"{key} must be nonnegative, got {value!r}")
    return value


def _count(key, tokens):
    return _nonnegative(key, tokens, parse=_integer)


def _row(key, tokens):
    return np.array([_finite(tok) for tok in tokens])


def _matrix(key, tokens):
    rows = [row.split() for row in " ".join(tokens).split(";")]
    if not rows[-1]:
        rows.pop()  # a trailing ';' ends the last row
    if not all(rows):
        raise ValueError("empty matrix row")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix rows")
    return np.array([[_finite(tok) for tok in row] for row in rows])


def _vector(key, tokens):
    return _matrix(key, tokens).ravel()


def _kind(key, tokens):
    kind = _word(key, tokens)
    if kind not in MODEL_KEYS:
        raise ValueError(f"unknown model kind {kind!r}")
    return kind


# (section, key) -> the Scenario field it sets and its reader. Graph
# 'nodes'/'edge' lines are structural and read apart.
KEYS = {
    ("graph", "file"): ("graph_file", _word),
    ("model", "kind"): ("model_kind", _kind),
    ("certificate", "rho"): ("rho", _number),
    ("certificate", "mu"): ("mu", _number),
    ("certificate", "p"): ("p_matrix", _matrix),
    ("controller", "beta"): ("beta", _number),
    ("controller", "beta_multiplier"): ("beta_multiplier", _number),
    ("initial", "base"): ("init_base", _row),
    ("initial", "radius"): ("init_radius", _nonnegative),
    ("initial", "seed"): ("init_seed", _count),
    ("initial", "states"): ("init_states", _matrix),
    ("integration", "h"): ("h", _number),
    ("integration", "t_end"): ("t_end", _number),
    ("integration", "record_interval"): ("record_interval", _number),
}

# The model part of the table: kind -> key -> reader for the [model]
# keys after 'kind', each required and read into Scenario.model.
MODEL_KEYS = {
    "linear": {"a": _matrix, "b": _vector},
    "tanh": {"a": _matrix, "b": _vector, "gamma": _nonnegative},
    "lorenz": {"a": _number, "b": _number, "c": _number},
}

# in file order, each required
SECTIONS = tuple(dict.fromkeys(section for section, _ in KEYS))


@dataclass
class Scenario:
    """Parsed scenario, not yet realized into numerical objects.

    graph is the scenario's graph, inline or read from graph_file.
    init_states, one row per agent, is set when the initial states are
    given rather than sampled from init_base, init_radius and init_seed.
    """

    name: str
    path: str
    graph_file: str = None
    graph: WeightedGraph = None
    model_kind: str = ""
    model: dict = field(default_factory=dict)
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


@dataclass(frozen=True)
class RunSetup:
    """Everything a run needs, built from a scenario."""

    name: str
    graph: WeightedGraph
    lift: object
    model: object
    certificate: MetricCertificate
    controller: object
    x0: np.ndarray
    h: float
    t_end: float
    record_interval: float
    approximate: bool


def _read(reader, key, tokens, path, lineno, context=""):
    """The reader's value for the tokens, or a ParseError with its reason."""
    try:
        return reader(key, tokens)
    except ValueError as exc:
        raise ParseError(context + str(exc), path, lineno) from None


def _key_lines(text, path, sections):
    """Yield (section, key, tokens, lineno), noting each header's line in sections."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ParseError(f"unknown section [{section}]", path, lineno)
            if section in sections:
                raise ParseError(f"section [{section}] repeats line "
                                 f"{sections[section]}", path, lineno)
            sections[section] = lineno
        elif section is None:
            raise ParseError("content before any [section] header", path, lineno)
        else:
            key, *tokens = line.replace(";", " ; ").split()
            yield section, key, tokens, lineno


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
    # first line of each section and key; edge lines repeat
    seen_sections = {}
    seen_keys = {}
    graph_lines = {}

    for section, key, tokens, lineno in _key_lines(text, path, seen_sections):
        if not tokens:
            raise ParseError(f"key {key!r} needs a value", path, lineno)
        if key != "edge":
            if (section, key) in seen_keys:
                raise ParseError(f"key {key!r} repeats line "
                                 f"{seen_keys[section, key]}", path, lineno)
            seen_keys[section, key] = lineno
        if (section, key) in KEYS:
            name, reader = KEYS[section, key]
            setattr(sc, name, _read(reader, key, tokens, path, lineno))
        elif section == "model":
            # 'kind' opens the section, as 'nodes' opens a graph file
            if not sc.model_kind:
                raise ParseError(f"expected 'kind' before model key {key!r}",
                                 path, lineno)
            reads = MODEL_KEYS[sc.model_kind]
            if key not in reads:
                raise ParseError(f"model kind {sc.model_kind!r} reads no key "
                                 f"{key!r}", path, lineno)
            sc.model[key] = _read(reads[key], key, tokens, path, lineno,
                                  f"model kind {sc.model_kind!r}: ")
        elif section == "graph" and key in ("nodes", "edge"):
            # graph-file syntax: 'nodes N', then one 'k l w' per edge
            graph_lines[lineno] = " ".join(
                tokens if key == "edge" else [key] + tokens)
        else:
            raise ParseError(f"unknown {section} key {key!r}", path, lineno)

    missing = [s for s in SECTIONS if s not in seen_sections]
    if missing:
        raise ParseError(f"missing sections: {', '.join(missing)}", path)

    if graph_lines:
        # parsed as a graph file whose lines keep their scenario line numbers
        sc.graph = parse_graph_text("\n".join(
            graph_lines.get(i, "") for i in range(1, max(graph_lines) + 1)), path)
    if (sc.graph_file is None) == (sc.graph is None):
        raise ParseError("graph section needs exactly one of 'file' or inline "
                         "'nodes'/'edge' lines", path)
    if not sc.model_kind:
        raise ParseError("model section needs 'kind'", path)
    missing = [key for key in MODEL_KEYS[sc.model_kind] if key not in sc.model]
    if missing:
        raise ParseError(f"model kind {sc.model_kind!r} needs "
                         f"{', '.join(map(repr, missing))}", path,
                         seen_keys["model", "kind"])
    if sc.rho <= 0.0 or sc.mu <= 0.0:
        raise ParseError("certificate needs positive rho and mu", path)
    if (sc.beta is None) == (sc.beta_multiplier is None):
        raise ParseError("controller needs exactly one of beta and "
                         "beta_multiplier", path)
    if sc.init_states is not None:
        # base, radius and seed, the only other initial keys, in file order
        mixed = [lineno for (section, key), lineno in seen_keys.items()
                 if section == "initial" and key != "states"]
        if mixed:
            raise ParseError("initial section mixes explicit states with "
                             "base/radius/seed", path, mixed[0])
    elif sc.init_base is None or sc.init_radius is None or sc.init_seed is None:
        raise ParseError("initial section needs base, radius and seed "
                         "(or states)", path)
    if sc.h <= 0.0 or sc.t_end <= 0.0 or sc.record_interval <= 0.0:
        raise ParseError("integration needs positive h, t_end and "
                         "record_interval", path)
    if sc.graph is None:
        # last, so every other parse error comes first; relative to the
        # scenario's directory, and an absolute path stays as is
        sc.graph = read_graph_file(os.path.join(
            os.path.dirname(os.path.abspath(path)), sc.graph_file))
    return sc


def check_integration(sc, n_members):
    """Reject step settings and record sizes simulate would refuse, as a ParseError.

    Called once the command line overrides are applied, so an --h that
    divides record_interval can stand in for one in the file that does
    not. The record budget is that of n_members runs on the scenario's
    graph with the state width of its initial section (realize rejects
    a model of another width).
    """
    try:
        per_record = steps_per_record(sc.h, sc.t_end, sc.record_interval)
        state_dim = (sc.init_states.shape[1] if sc.init_states is not None
                     else sc.init_base.shape[0])
        check_record_budget(n_members, int(round(sc.t_end / sc.h)) // per_record,
                            sc.graph.n, state_dim)
    except ValueError as exc:
        raise ParseError(f"integration: {exc}", sc.path)


def _build_model_and_certificate(sc):
    """Resolve the model, its feedback gain b P and the metric certificate.

    P is the scenario's [certificate] p, or else the Riccati design on
    the model's (a, b), which for lorenz is its origin linearization.
    """
    given = sc.model
    if sc.model_kind == "lorenz":
        abc = given["a"], given["b"], given["c"]
        a_design, b_design = convective_linearization(*abc)
    else:
        a_design, b_design = given["a"], given["b"]
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
        return lorenz_model(*abc, gain), cert, True
    if sc.model_kind == "linear":
        return linear_model(a_design, b_design, gain), cert, False
    return tanh_perturbed_model(a_design, b_design, given["gamma"], gain), cert, False


def realize(sc, require_connected=True):
    """Build all run objects from a parsed scenario.

    require_connected enforces the connectivity precondition of the
    synchronization guarantee; diagnostic-only flows may relax it.
    """
    graph = sc.graph
    if require_connected and graph.components != 1:
        raise DisconnectedGraphError(
            f"controller requested on a graph with {graph.components} components"
        )
    # the lift first, so weights out of its range raise WeightRangeError
    # before the design runs or any file is written
    lift = build_edge_lift(graph)
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
        if not np.isfinite(x0).all():
            raise ParseError(f"initial base {sc.init_base.tolist()} plus radius "
                             f"{sc.init_radius:g} overflows", sc.path)

    controller = make_controller(
        graph, lift, sc.rho, beta=sc.beta, beta_multiplier=sc.beta_multiplier)

    return RunSetup(
        name=sc.name,
        graph=graph,
        lift=lift,
        model=model,
        certificate=cert,
        controller=controller,
        x0=x0,
        h=sc.h,
        t_end=sc.t_end,
        record_interval=sc.record_interval,
        approximate=approximate,
    )
