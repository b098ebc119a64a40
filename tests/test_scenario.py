import dataclasses
import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings

from edgesync import (
    DisconnectedGraphError,
    ParseError,
    Scenario,
    convective_linearization,
    parse_scenario,
    parse_scenario_text,
    random_connected_graph,
    realize,
    solve_ari,
)
from edgesync import scenario
from edgesync.graphs import read_graph_file
from edgesync.scenario import KEYS, MODEL_KEYS

from helpers import SCENARIO_DIR, SHIPPED_TEXTS, mutated_text

MINIMAL = """
[graph]
nodes 2
edge 1 2 1.0

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
t_end 1.0
record_interval 0.05
"""

# the readers that take exactly one token
ONE_VALUE_READERS = (scenario._word, scenario._kind, scenario._number,
                     scenario._nonnegative, scenario._count)


def one_value_keys():
    """Every key the table reads as one value, in any section or model kind."""
    readers = [(key, reader) for (_, key), (_, reader) in KEYS.items()]
    readers += [item for keys in MODEL_KEYS.values() for item in keys.items()]
    return sorted({key for key, reader in readers if reader in ONE_VALUE_READERS})


LINEAR_MODEL = "kind linear\na 0 1 ; 0 0\nb 0 1"

# key -> (line of MINIMAL, replacement that gives the key a second token)
ONE_TOKEN_CASES = {
    "file": ("nodes 2\nedge 1 2 1.0", "file a.graph b.graph"),
    "kind": ("kind linear", "kind linear tanh"),
    "a": (LINEAR_MODEL, "kind lorenz\na 10.0 1.0"),
    "b": (LINEAR_MODEL, "kind lorenz\nb 28.0 1.0"),
    "c": (LINEAR_MODEL, "kind lorenz\nc 1.0 2.0"),
    "gamma": ("kind linear", "kind tanh\ngamma 0.1 0.2"),
    "rho": ("rho 1.0", "rho 1.0 7.5"),
    "mu": ("mu 0.2", "mu 0.2 0.3"),
    "beta": ("beta_multiplier 1.0", "beta 2.0 3.0"),
    "beta_multiplier": ("beta_multiplier 1.0", "beta_multiplier 1.0 2.0"),
    "radius": ("radius 5.0", "radius 5.0 6.0"),
    "seed": ("seed 11", "seed 11 12"),
    "h": ("h 0.005", "h 0.005 oops"),
    "t_end": ("t_end 1.0", "t_end 1.0 2.0"),
    "record_interval": ("record_interval 0.05", "record_interval 0.05 0.1"),
    "dir": ("record_interval 0.05", "record_interval 0.05\n[output]\ndir a b"),
}


def replace_section(text, header, body):
    """Swap the body of one [section] in the minimal scenario text."""
    lines = text.splitlines()
    out = []
    skipping = False
    for line in lines:
        if line.strip() == f"[{header}]":
            skipping = True
            out.append(line)
            out.extend(body.splitlines())
            continue
        if skipping:
            if line.strip().startswith("["):
                skipping = False
                out.append(line)
            continue
        out.append(line)
    return "\n".join(out)


class TestShippedScenarios:
    def test_linear_c3(self):
        sc = parse_scenario(os.path.join(SCENARIO_DIR, "linear_c3.scn"))
        assert sc.model_kind == "linear"
        assert sc.beta_multiplier == 1.0
        assert sc.rho == 1.0 and sc.mu == 0.2
        setup = realize(sc)
        assert setup.graph.n == 3 and setup.graph.q == 3
        assert setup.controller.beta_star == pytest.approx(1.0 / 6.0)
        assert setup.x0.shape == (6,)

    def test_tanh_p3(self):
        sc = parse_scenario(os.path.join(SCENARIO_DIR, "tanh_p3.scn"))
        assert sc.model_kind == "tanh"
        assert sc.model["gamma"] == 0.05
        setup = realize(sc)
        assert setup.model.name == "tanh_perturbed"
        assert setup.controller.beta_star == pytest.approx(0.5)
        assert not setup.approximate

    def test_lorenz15(self):
        sc = parse_scenario(os.path.join(SCENARIO_DIR, "lorenz15.scn"))
        setup = realize(sc)
        assert setup.graph.n == 15 and setup.graph.q == 18
        assert setup.model.name == "lorenz"
        assert setup.approximate
        assert setup.controller.beta == 30.0
        assert setup.controller.below_critical
        weights = [w for _, _, w in setup.graph.edges]
        assert sorted(weights)[:2] == [0.1, 0.1]
        assert max(weights) == 6.0
        # the feedback is the Riccati gain of the origin linearization
        design = solve_ari(*convective_linearization(10.0, 28.0, 8.0 / 3.0),
                           10.0, 0.5)
        xs = np.random.default_rng(0).standard_normal((5, 3))
        assert np.array_equal(setup.model.alpha_all(xs), xs @ design.gain[0])

    @pytest.mark.parametrize("name", ["linear_c3.scn", "tanh_p3.scn"])
    def test_gain_is_b_times_p(self, name):
        sc = parse_scenario(os.path.join(SCENARIO_DIR, name))
        setup = realize(sc)
        xs = np.random.default_rng(0).standard_normal((5, 2))
        expected = xs @ (sc.model["b"] @ setup.certificate.p)
        assert np.array_equal(setup.model.alpha_all(xs).view(np.uint64),
                              expected.view(np.uint64))


class TestParseValidation:
    def test_minimal_parses(self):
        sc = parse_scenario_text(MINIMAL)
        assert sc.graph.n == 2
        assert sc.init_seed == 11

    def test_missing_section(self):
        bad = MINIMAL.replace("[certificate]\nrho 1.0\nmu 0.2\n", "")
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(bad)
        assert "certificate" in str(exc.value)

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_scenario_text(MINIMAL + "\n[extras]\nfoo 1\n")

    def test_unknown_key_carries_line(self):
        bad = MINIMAL.replace("radius 5.0", "radius 5.0\nwobble 3")
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(bad, path="case.scn")
        assert "case.scn:" in str(exc.value)
        assert "wobble" in str(exc.value)

    @pytest.mark.parametrize("bad_edge,message", [
        ("edge 4 5 1.0", "violates"),
        ("edge 3 3 1.0", "violates"),
        ("edge 1 3 1.0", "canonical order"),
        ("edge 2 3 2.0", "duplicate"),
        ("edge 3 4 0", "positive"),
        ("edge 3 4 -1", "positive"),
    ], ids=["bound", "self_loop", "order", "duplicate", "zero_weight",
            "negative_weight"])
    def test_inline_edge_error_carries_its_line(self, bad_edge, message):
        text = replace_section(
            MINIMAL, "graph", f"nodes 4\nedge 1 2 1.0\nedge 2 3 1.0\n{bad_edge}")
        lineno = text.splitlines().index(bad_edge) + 1
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(text, path="inl.scn")
        assert exc.value.line == lineno
        assert f"inl.scn:{lineno}:" in str(exc.value)
        assert message in str(exc.value)

    def test_inline_node_count_carries_line(self):
        text = replace_section(MINIMAL, "graph", "nodes 1")
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(text)
        assert exc.value.line == text.splitlines().index("nodes 1") + 1

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_scenario_text(MINIMAL.replace("rho 1.0", "rho one"))

    def test_both_graph_sources(self):
        bad = MINIMAL.replace("[graph]", "[graph]\nfile g.graph")
        with pytest.raises(ParseError):
            parse_scenario_text(bad)

    def test_both_beta_specs(self):
        bad = MINIMAL.replace("beta_multiplier 1.0",
                              "beta_multiplier 1.0\nbeta 2.0")
        with pytest.raises(ParseError):
            parse_scenario_text(bad)

    def test_no_beta_spec(self):
        bad = replace_section(MINIMAL, "controller", "")
        with pytest.raises(ParseError):
            parse_scenario_text(bad)

    def test_explicit_states_must_cover_all(self):
        body = "state 1 0.0 0.0\nstate 3 1.0 1.0"
        with pytest.raises(ParseError):
            parse_scenario_text(replace_section(MINIMAL, "initial", body))

    def test_states_exclusive_with_base(self):
        body = "state 1 0.0 0.0\nstate 2 1.0 1.0\nbase 0 0\nradius 1.0\nseed 4"
        with pytest.raises(ParseError):
            parse_scenario_text(replace_section(MINIMAL, "initial", body))

    @pytest.mark.parametrize("body,bad", [
        ("state 1 0.0 0.0\nradius 1.0\nstate 2 1.0 1.0", "radius 1.0"),
        ("seed 4\nstate 1 0.0 0.0\nstate 2 1.0 1.0", "seed 4"),
        ("state 1 0.0 0.0\nstate 2 1.0 1.0\nradius 5\nseed 3", "radius 5"),
    ], ids=["radius", "seed", "radius_and_seed"])
    def test_states_exclusive_with_each_sampling_key(self, body, bad):
        text = replace_section(MINIMAL, "initial", body)
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(text, path="case.scn")
        assert exc.value.line == text.splitlines().index(bad) + 1
        assert "base/radius/seed" in str(exc.value)

    @pytest.mark.parametrize("body,bad", [
        ("kind lorenz\na 0 1 ; 0 0", "a 0 1 ; 0 0"),
        ("a 1 ;\nkind lorenz", "a 1 ;"),
        ("kind lorenz\nb 0 1", "b 0 1"),
        ("kind lorenz\nc 2.5\ngamma 0.1", "gamma 0.1"),
        ("kind linear\na 0 1 ; 0 0\nb 0 1\nc 1.0", "c 1.0"),
        ("gamma 0.05\nkind linear\na 0 1 ; 0 0\nb 0 1", "gamma 0.05"),
        ("kind tanh\na 0 1 ; 0 0\nb 0 1\ngamma 0.05\nc 1.0", "c 1.0"),
        ("kind linear\na 0\nb 0 1", "a 0"),
        ("kind tanh\na 0 1 ; 0 0\nb 1\ngamma 0.05", "b 1"),
    ], ids=["lorenz_matrix_a", "lorenz_matrix_a_before_kind", "lorenz_vector_b",
            "lorenz_gamma", "linear_c", "linear_gamma", "tanh_c",
            "linear_scalar_a", "tanh_scalar_b"])
    def test_model_key_the_kind_does_not_read(self, body, bad):
        text = replace_section(MINIMAL, "model", body)
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(text, path="case.scn")
        assert exc.value.line == text.splitlines().index(bad) + 1
        assert repr(bad.split()[0]) in str(exc.value)

    @pytest.mark.parametrize("old,new", [
        ("rho 1.0", "rho nan"),
        ("h 0.005", "h inf"),
        ("base 0 0", "base 0 -inf"),
        ("edge 1 2 1.0", "edge 1 2 nan"),
    ])
    def test_nonfinite_number_carries_line(self, old, new):
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(MINIMAL.replace(old, new), path="case.scn")
        assert exc.value.line == MINIMAL.splitlines().index(old) + 1

    def test_nonpositive_integration(self):
        with pytest.raises(ParseError):
            parse_scenario_text(MINIMAL.replace("h 0.005", "h 0"))

    def test_unknown_model_kind(self):
        with pytest.raises(ParseError):
            parse_scenario_text(MINIMAL.replace("kind linear", "kind vortex"))

    @pytest.mark.parametrize("key", one_value_keys())
    def test_one_token_key_rejects_a_second(self, key):
        old, new = ONE_TOKEN_CASES[key]
        text = MINIMAL.replace(old, new)
        bad = next(line for line in new.splitlines() if line.split()[0] == key)
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(text, path="case.scn")
        assert exc.value.line == text.splitlines().index(bad) + 1
        assert repr(key) in str(exc.value)

    def test_one_token_cases_cover_the_keys(self):
        assert sorted(ONE_TOKEN_CASES) == one_value_keys()

    @pytest.mark.parametrize("text,repeat", [
        (MINIMAL.replace("rho 1.0", "rho 1.0\nrho 7.0"), "rho 7.0"),
        (MINIMAL.replace("b 0 1", "b 0 1\nb 1 0"), "b 1 0"),
        (replace_section(MINIMAL, "initial",
                         "state 1 0 0\nstate 2 1 1\nstate 02 2 2"), "state 02 2 2"),
        (MINIMAL + "\n[certificate]\nmu 0.3\n", "[certificate]"),
    ], ids=["key", "matrix_key", "state", "section"])
    def test_repeat_carries_its_line(self, text, repeat):
        lines = text.splitlines()
        lineno = len(lines) - lines[::-1].index(repeat)
        with pytest.raises(ParseError) as exc:
            parse_scenario_text(text, path="case.scn")
        assert exc.value.line == lineno
        assert "repeats line" in str(exc.value)

    def test_graph_file_read_at_parse(self, tmp_path):
        (tmp_path / "c3.graph").write_text("nodes 3\n1 2 1.0\n1 3 2.0\n2 3 0.5\n")
        (tmp_path / "sub").mkdir()
        scn = tmp_path / "sub" / "filed.scn"
        scn.write_text(replace_section(MINIMAL, "graph", "file ../c3.graph"))
        sc = parse_scenario(str(scn))
        assert sc.graph == read_graph_file(str(tmp_path / "c3.graph"))
        assert sc.graph_file == "../c3.graph"

    def test_missing_graph_file_is_a_parse_error(self, tmp_path):
        scn = tmp_path / "filed.scn"
        text = replace_section(MINIMAL, "graph", "file nope.graph")
        scn.write_text(text)
        with pytest.raises(ParseError, match="nope.graph"):
            parse_scenario(str(scn))
        # every other parse error is found before the graph file is read
        scn.write_text(text.replace("h 0.005", "h -1"))
        with pytest.raises(ParseError, match="positive h"):
            parse_scenario(str(scn))

    def test_ragged_matrix(self):
        with pytest.raises(ParseError):
            parse_scenario_text(MINIMAL.replace("a 0 1 ; 0 0", "a 0 1 ; 0"))


class TestRealize:
    def test_explicit_states(self):
        body = "state 1 0.5 0.0\nstate 2 -0.5 1.0"
        sc = parse_scenario_text(replace_section(MINIMAL, "initial", body))
        setup = realize(sc)
        assert np.array_equal(setup.x0, [0.5, 0.0, -0.5, 1.0])

    def test_state_dimension_checked(self):
        body = "state 1 0.5\nstate 2 -0.5"
        sc = parse_scenario_text(replace_section(MINIMAL, "initial", body))
        with pytest.raises(ParseError):
            realize(sc)

    def test_inline_metric(self):
        text = MINIMAL.replace("mu 0.2", "mu 0.2\np 3 1 ; 1 2")
        sc = parse_scenario_text(text)
        setup = realize(sc)
        assert np.array_equal(setup.certificate.p, [[3.0, 1.0], [1.0, 2.0]])
        # gain = b^T P row
        xs = np.array([[1.0, 0.0]])
        assert setup.model.alpha_all(xs)[0] == pytest.approx(1.0)

    def test_disconnected_rejected_for_runs(self):
        text = replace_section(
            MINIMAL, "graph",
            "nodes 4\nedge 1 2 1.0\nedge 3 4 1.0")
        sc = parse_scenario_text(text)
        with pytest.raises(DisconnectedGraphError):
            realize(sc)
        setup = realize(sc, require_connected=False)
        assert setup.graph.components == 2

    def test_graph_file_relative_to_scenario(self, tmp_path):
        (tmp_path / "toy.graph").write_text("nodes 2\n1 2 1.0\n")
        text = replace_section(MINIMAL, "graph", "file toy.graph")
        scn = tmp_path / "toy.scn"
        scn.write_text(text)
        setup = realize(parse_scenario(str(scn)))
        assert setup.graph.n == 2

    def test_no_edge_space_square_held(self, tmp_path):
        # on a graph with Q > 2N the largest array the setup holds is the
        # lift's Q x (N - 1) basis q1: no incidence of N x Q entries, no
        # lift and no E^T E W of Q^2
        g = random_connected_graph(40, 0.22, (0.1, 6.0), 5)
        assert g.q > 2 * g.n
        (tmp_path / "dense.graph").write_text(g.canonical_text())
        scn = tmp_path / "dense.scn"
        scn.write_text(replace_section(MINIMAL, "graph", "file dense.graph"))
        setup = realize(parse_scenario(str(scn)))
        sizes = []

        def walk(obj):
            if isinstance(obj, np.ndarray):
                sizes.append(obj.size)
            elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                for f in dataclasses.fields(obj):
                    walk(getattr(obj, f.name))
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    walk(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    walk(item)
            elif isinstance(obj, functools.partial):
                walk(obj.args)
                walk(obj.keywords)

        walk(setup)
        assert setup.lift.q1.shape == (g.q, g.n - 1)
        assert max(sizes) == setup.lift.q1.size
        assert g.n * g.q not in sizes

    def test_lorenz_defaults(self):
        text = replace_section(MINIMAL, "model", "kind lorenz")
        text = replace_section(text, "certificate", "rho 10.0\nmu 0.5")
        text = replace_section(text, "initial",
                               "base 0 0 0\nradius 1.0\nseed 1")
        sc = parse_scenario_text(text)
        assert sc.model == {}
        setup = realize(sc)
        assert setup.model.params["a"] == 10.0
        assert setup.model.params["b"] == pytest.approx(8.0 / 3.0)
        assert setup.model.params["c"] == 28.0
        assert setup.approximate


@given(mutated_text(SHIPPED_TEXTS))
@settings(max_examples=300, deadline=None)
def test_mutated_scenario_parses_or_raises_parse_error(text):
    try:
        sc = parse_scenario_text(text)
    except ParseError:
        return
    assert isinstance(sc, Scenario)
