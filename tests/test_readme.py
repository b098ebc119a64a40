"""The README's library example runs, and its scenario example parses, as written."""

import os
import re

import edgesync as es

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def readme_block(section, lang):
    """The first ```lang block of the README section with the given heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(readme_block("Library", "python"), "README.md", "exec"), {})
    rate, r_squared, uptick, ratio = map(float, capsys.readouterr().out.split())
    assert rate > 0.0 and r_squared > 0.99
    assert uptick <= 1e-6
    assert ratio < 1e-3


def test_scenario_example_parses(tmp_path):
    # its graph file is a 4-ring written next to it
    (tmp_path / "ring.graph").write_text(
        "nodes 4\n1 2 1.0\n1 4 1.0\n2 3 1.0\n3 4 1.0\n")
    scn = tmp_path / "example.scn"
    scn.write_text(readme_block("Scenario files", "ini"))
    sc = es.parse_scenario(str(scn))
    assert sc.model_kind == "lorenz" and sc.graph.n == 4
    setup = es.realize(sc)
    assert setup.model.state_dim == 3 and setup.x0.shape == (12,)
