"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def library_example():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    rate, r_squared, uptick, ratio = map(float, capsys.readouterr().out.split())
    assert rate > 0.0 and r_squared > 0.99
    assert uptick <= 1e-6
    assert ratio < 1e-3
