"""The README's Python quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    mean_fidelity, total = capsys.readouterr().out.split()
    assert abs(float(mean_fidelity) - 1.0) <= 1e-10
    assert float(total) > 0.0
