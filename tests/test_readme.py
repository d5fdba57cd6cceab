"""The README's "Library use" examples, run as written.

The ```python blocks of that section run in order in one namespace, so
a change to the API they show fails here.  ``series``, which the series
example takes as given, is a seeded Henon x series of 2,000 samples.
"""

import math
import re
from pathlib import Path

from b4 import solver, tsa
from test_golden import henon_series

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_examples_run(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {"series": henon_series(2000, seed=1)}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["result"].records) == 101
    assert math.isfinite(namespace["report"].d) and math.isfinite(namespace["lam"])


def test_constants_paragraph_names_every_fixed_setting():
    # Each public numeric constant of b4.tsa, and the step's chunk size,
    # is a setting the README lists with its value.
    paragraph = next(
        block
        for block in README.read_text().split("\n\n")
        if block.startswith("The analysis settings that are not config keys")
    )
    names = [
        name
        for name, value in vars(tsa).items()
        if name.isupper() and type(value) in (int, float)
    ]
    assert "MAX_POINTS" in names and hasattr(solver, "STEP_BLOCK")
    names.append("STEP_BLOCK")
    assert [name for name in names if not re.search(rf"\b{name}\b", paragraph)] == []
