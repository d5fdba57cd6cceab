"""The README's "Library use" examples, run as written.

The ```python blocks of that section run in order in one namespace, so
a change to the API they show fails here.  ``series``, which the series
example takes as given, is a seeded Henon x series of 2,000 samples.
"""

import math
import re
from pathlib import Path

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
