"""The README's typical session runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_typical_session_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    converged, _ = capsys.readouterr().out.splitlines()[0].split()
    assert converged == "True"
