"""The README's library example runs as written, so it cannot fall behind the API."""

import math
import re
from pathlib import Path

from ryddephase.correlation import G2_ASYMPTOTE

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})
    dip = float(capsys.readouterr().out)
    assert math.isfinite(dip) and 0.0 < dip < G2_ASYMPTOTE  # the transient dip
