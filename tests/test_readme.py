"""README's Python API example runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    section = README.read_text().split("## Python API", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0],
                          re.DOTALL)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["w_new"].shape == (names["sim"].k,)
    assert np.allclose(np.abs(names["w_all"]), 1.0)
