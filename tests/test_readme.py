"""The README's Quick tour runs against the current API and prints what it says."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_and_prints_its_verdicts(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    float(lines[0])  # the Luxemburg norm
    assert lines[1:] == ["violated unit-vectors", "satisfied-evidence", "violated"]
