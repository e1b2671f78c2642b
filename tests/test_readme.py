"""The README's library example runs as written."""

import pathlib
import re

from evoloss import PopulationState

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_example_prints_the_fixture_saddle(capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                         re.MULTILINE | re.DOTALL)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == repr(PopulationState(2.5 / 3.0, 2.5 / 3.0))
    assert len(lines) == 1 + 5 + 5  # the saddle, five fixed points, five runs
