"""The README's library sketch runs against the package's exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_prints_pure_discrete(capsys):
    [sketch] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(sketch, str(README), "exec"), {})
    assert capsys.readouterr().out == "pure_discrete\n"
