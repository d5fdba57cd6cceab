"""The README's "Library use" examples, run as written.

The ```python blocks of that section run in order in one namespace, so
a change to the API they show fails here.  ``series``, which the series
example takes as given, is a seeded Henon x series of 2,000 samples.
"""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import b4
from test_golden import henon_series

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_examples_run(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {"series": henon_series(2000, seed=1)}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["rows"]) == 101
    assert math.isfinite(namespace["report"].d) and math.isfinite(namespace["lam"])


def test_constants_paragraph_names_every_fixed_setting():
    # Each public numeric constant of every b4 module is a setting the
    # README lists with its value.
    paragraph = next(
        block
        for block in README.read_text().split("\n\n")
        if block.startswith("The analysis settings that are not config keys")
    )
    modules = [importlib.import_module(f"b4.{m.name}") for m in pkgutil.iter_modules(b4.__path__)]
    names = [
        name
        for module in modules
        for name, value in vars(module).items()
        if name.isupper() and not name.startswith("_") and type(value) in (int, float)
    ]
    assert {"MAX_POINTS", "STEP_BLOCK", "BLOWUP_LIMIT", "DECAY_TOLERANCE"} <= set(names)
    assert [name for name in names if not re.search(rf"\b{name}\b", paragraph)] == []
