"""The README's Python quick tour runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    acc, linear_fraction = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= acc <= 1.0 and 0.0 <= linear_fraction <= 1.0
