"""The README's Library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # The first ``python`` block is the Library section's end-to-end example.
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    record = scope["record"]
    assert record["a"] == 2.0 and np.isfinite(record["subopt"])
    assert scope["X"].shape == (1024, 16)
