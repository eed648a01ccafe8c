"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    [block] = re.findall(r"^```python\n(.*?)^```$", section,
                         re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("ApexState(") and out.count("\n") == 1
